type t = int32

let of_int32 v = v
let to_int32 t = t

let of_octets a b c d =
  let check x = if x < 0 || x > 255 then invalid_arg "Ip.of_octets" in
  check a;
  check b;
  check c;
  check d;
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

let digits v = if v >= 100 then 3 else if v >= 10 then 2 else 1
let[@inline] put_digit b pos d = Bytes.unsafe_set b pos (Char.unsafe_chr (48 + d))

(* octet [v] in decimal at [pos]; the position after it *)
let put_decimal b pos v =
  let n = digits v in
  if n = 3 then put_digit b pos (v / 100);
  if n >= 2 then put_digit b (pos + n - 2) (v / 10 mod 10);
  put_digit b (pos + n - 1) (v mod 10);
  pos + n

(* Dotted quad written straight into a string of its exact length: this
   renders every address attribute a kept trace exports and every Flows
   row, so it avoids Printf's format interpretation. *)
let to_string t =
  let v = Int32.to_int t land 0xffffffff in
  let a = v lsr 24 and b = (v lsr 16) land 0xff and c = (v lsr 8) land 0xff and d = v land 0xff in
  let buf = Bytes.make (digits a + digits b + digits c + digits d + 3) '.' in
  let pos = put_decimal buf 0 a in
  let pos = put_decimal buf (pos + 1) b in
  let pos = put_decimal buf (pos + 1) c in
  ignore (put_decimal buf (pos + 1) d);
  Bytes.unsafe_to_string buf

let add_octet buf v =
  if v >= 100 then Buffer.add_char buf (Char.unsafe_chr (48 + (v / 100)));
  if v >= 10 then Buffer.add_char buf (Char.unsafe_chr (48 + (v / 10 mod 10)));
  Buffer.add_char buf (Char.unsafe_chr (48 + (v mod 10)))

let add_to_buffer buf t =
  let v = Int32.to_int t land 0xffffffff in
  add_octet buf (v lsr 24);
  Buffer.add_char buf '.';
  add_octet buf ((v lsr 16) land 0xff);
  Buffer.add_char buf '.';
  add_octet buf ((v lsr 8) land 0xff);
  Buffer.add_char buf '.';
  add_octet buf (v land 0xff)

(* A number from 0 to [max] (at most 255) as 1 to 3 ASCII decimal digits
   with no leading zero, so that each value has one spelling: the one
   [to_string] writes. Unlike [int_of_string] it rejects signs,
   [0x]/[0o]/[0b] prefixes and [_]. *)
let decimal ~max p =
  let n = String.length p in
  if n = 0 || n > 3 || (n > 1 && p.[0] = '0')
     || not (String.for_all (fun c -> c >= '0' && c <= '9') p)
  then None
  else
    let v = int_of_string p in
    if v <= max then Some v else None

let of_string s =
  match List.map (decimal ~max:255) (String.split_on_char '.' s) with
  | [ Some a; Some b; Some c; Some d ] -> Some (of_octets a b c d)
  | _ -> None

let of_string_exn s =
  match of_string s with
  | Some t -> t
  | None -> invalid_arg (Printf.sprintf "Ip.of_string_exn: %S" s)

let any = 0l
let broadcast = 0xffffffffl
let localhost = of_octets 127 0 0 1
let compare = Int32.unsigned_compare
let equal = Int32.equal
let hash = Hashtbl.hash
let pp fmt t = Format.pp_print_string fmt (to_string t)
let succ t = Int32.add t 1l
let add t n = Int32.add t (Int32.of_int n)

let diff a b =
  (* Works for the small home-network differences used here. *)
  Int64.to_int
    (Int64.sub
       (Int64.logand (Int64.of_int32 a) 0xffffffffL)
       (Int64.logand (Int64.of_int32 b) 0xffffffffL))

module Prefix = struct
  type addr = t
  type nonrec t = { network : t; bits : int }

  let mask_of_bits bits =
    if bits = 0 then 0l else Int32.shift_left (-1l) (32 - bits)

  let make network bits =
    if bits < 0 || bits > 32 then invalid_arg "Ip.Prefix.make";
    { network = Int32.logand network (mask_of_bits bits); bits }

  let of_string s =
    match String.index_opt s '/' with
    | None -> None
    | Some i -> (
        let addr = String.sub s 0 i in
        let bits = String.sub s (i + 1) (String.length s - i - 1) in
        match of_string addr, decimal ~max:32 bits with
        | Some a, Some b -> Some (make a b)
        | _ -> None)

  let to_string t = to_string t.network ^ "/" ^ string_of_int t.bits
  let network t = t.network
  let bits t = t.bits
  let netmask t = mask_of_bits t.bits

  let broadcast_addr t =
    Int32.logor t.network (Int32.lognot (mask_of_bits t.bits))

  let mem a t = Int32.equal (Int32.logand a (mask_of_bits t.bits)) t.network

  let host t n =
    let host_count = if t.bits >= 31 then 0 else (1 lsl (32 - t.bits)) - 2 in
    if n < 1 || n > host_count then invalid_arg "Ip.Prefix.host";
    add t.network n
end
