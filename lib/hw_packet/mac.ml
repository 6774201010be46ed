type t = string (* exactly 6 bytes *)

let of_bytes s =
  if String.length s <> 6 then invalid_arg "Mac.of_bytes: need exactly 6 bytes";
  s

let to_bytes t = t

let hex_digits = "0123456789abcdef"

(* "aa:bb:cc:dd:ee:ff" written straight into its 17 bytes, without
   Printf: trace export and Links rows render every MAC through here. *)
let to_string t =
  let b = Bytes.make 17 ':' in
  for i = 0 to 5 do
    let c = Char.code (String.unsafe_get t i) in
    Bytes.unsafe_set b (3 * i) hex_digits.[c lsr 4];
    Bytes.unsafe_set b ((3 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string b

let add_to_buffer buf t =
  for i = 0 to 5 do
    let c = Char.code (String.unsafe_get t i) in
    if i > 0 then Buffer.add_char buf ':';
    Buffer.add_char buf hex_digits.[c lsr 4];
    Buffer.add_char buf hex_digits.[c land 15]
  done

let hex_value c =
  match c with
  | '0' .. '9' -> Some (Char.code c - 48)
  | 'a' .. 'f' -> Some (Char.code c - 87)
  | 'A' .. 'F' -> Some (Char.code c - 55)
  | _ -> None

(* exactly two hex digits per byte: unlike [int_of_string "0x.."] this
   refuses [_] and signs *)
let of_string s =
  let byte p =
    if String.length p <> 2 then None
    else
      match hex_value p.[0], hex_value p.[1] with
      | Some hi, Some lo -> Some (Char.chr ((hi lsl 4) lor lo))
      | _ -> None
  in
  match List.map byte (String.split_on_char (if String.contains s '-' then '-' else ':') s) with
  | [ Some a; Some b; Some c; Some d; Some e; Some f ] ->
      Some (String.of_seq (List.to_seq [ a; b; c; d; e; f ]))
  | _ -> None

let of_string_exn s =
  match of_string s with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Mac.of_string_exn: %S" s)

let broadcast = String.make 6 '\xff'
let zero = String.make 6 '\000'
let is_broadcast t = String.equal t broadcast
let is_multicast t = Char.code t.[0] land 1 = 1

let of_int64 v =
  String.init 6 (fun i ->
      Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * (5 - i))) 0xffL)))

let to_int64 t =
  let v = ref 0L in
  String.iter (fun c -> v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c))) t;
  !v

let compare = String.compare
let equal = String.equal
let hash = Hashtbl.hash
let pp fmt t = Format.pp_print_string fmt (to_string t)

let local n =
  (* 0x02 = locally administered, unicast *)
  of_int64 (Int64.logor 0x020000000000L (Int64.of_int (n land 0xffffffff)))
