exception Truncated of string

module Reader = struct
  type t = { buf : string; mutable pos : int }

  let of_string buf = { buf; pos = 0 }
  let of_bytes b = of_string (Bytes.to_string b)
  let pos t = t.pos
  let length t = String.length t.buf
  let remaining t = String.length t.buf - t.pos

  let seek t p =
    if p < 0 || p > String.length t.buf then invalid_arg "Wire.Reader.seek";
    t.pos <- p

  let need t ~field n = if remaining t < n then raise (Truncated field)

  let skip t n =
    need t ~field:"skip" n;
    t.pos <- t.pos + n

  let u8 t ~field =
    need t ~field 1;
    let v = String.get_uint8 t.buf t.pos in
    t.pos <- t.pos + 1;
    v

  let peek_u8 t ~field =
    need t ~field 1;
    String.get_uint8 t.buf t.pos

  let u16 t ~field =
    need t ~field 2;
    let v = String.get_uint16_be t.buf t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t ~field =
    need t ~field 4;
    let v = String.get_int32_be t.buf t.pos in
    t.pos <- t.pos + 4;
    v

  let u32_int t ~field =
    need t ~field 4;
    let v = Int32.to_int (String.get_int32_be t.buf t.pos) land 0xffff_ffff in
    t.pos <- t.pos + 4;
    v

  let u64 t ~field =
    need t ~field 8;
    let v = String.get_int64_be t.buf t.pos in
    t.pos <- t.pos + 8;
    v

  let bytes t ~field n =
    need t ~field n;
    let s = String.sub t.buf t.pos n in
    t.pos <- t.pos + n;
    s

  let sub_reader t ~field n = of_string (bytes t ~field n)
end

external get64u : string -> int -> int64 = "%caml_string_get64u"
external get16u : string -> int -> int = "%caml_string_get16u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external bswap16 : int -> int = "%bswap16"

let get64u_be s i = if Sys.big_endian then get64u s i else bswap64 (get64u s i)
let get16u_be s i = if Sys.big_endian then get16u s i else bswap16 (get16u s i)

(* The one ones'-complement loop: every checksum in the code base, over
   a string or over a writer's bytes, sums through here. It reads eight
   bytes a step and adds them as two 32-bit words: 2^16 = 1 modulo
   0xffff, so a 32-bit word adds what its two 16-bit halves add, once
   carries are folded. *)
let ones_complement_sum s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Wire.ones_complement_sum";
  let stop = off + len in
  let sum = ref 0 in
  let i = ref off in
  while !i + 8 <= stop do
    let v = get64u_be s !i in
    sum := !sum + Int64.to_int (Int64.shift_right_logical v 32) + (Int64.to_int v land 0xffff_ffff);
    i := !i + 8
  done;
  while !i + 1 < stop do
    sum := !sum + get16u_be s !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (String.unsafe_get s !i) lsl 8);
  !sum

let checksum_of_sum sum =
  let sum = ref sum in
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  lnot !sum land 0xffff

module Writer = struct
  (* [buf.[0 .. len-1]] holds what was written. [shared]: [contents]
     handed [buf] out as a string (it was exactly full), so the next write
     into the existing bytes must copy them first; appends always grow
     into a fresh buffer when full, so only [patch_u16] checks it. *)
  type t = { mutable buf : bytes; mutable len : int; mutable shared : bool }

  let create ?(initial_capacity = 64) () =
    { buf = Bytes.create (max 0 initial_capacity); len = 0; shared = false }

  let length t = t.len

  let grow t n =
    let cap = ref (max 16 (Bytes.length t.buf)) in
    while !cap < t.len + n do
      cap := 2 * !cap
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger;
    t.shared <- false

  (* claims [n] bytes at the end and returns their offset *)
  let reserve t n =
    if t.len + n > Bytes.length t.buf then grow t n;
    let pos = t.len in
    t.len <- pos + n;
    pos

  let u8 t v = Bytes.set_uint8 t.buf (reserve t 1) (v land 0xff)
  let u16 t v = Bytes.set_uint16_be t.buf (reserve t 2) (v land 0xffff)
  let u32 t v = Bytes.set_int32_be t.buf (reserve t 4) v
  let u32_int t v = Bytes.set_int32_be t.buf (reserve t 4) (Int32.of_int v)
  let u64 t v = Bytes.set_int64_be t.buf (reserve t 8) v

  let string t s =
    let n = String.length s in
    Bytes.blit_string s 0 t.buf (reserve t n) n

  let zeros t n =
    if n < 0 then invalid_arg "Wire.Writer.zeros";
    Bytes.fill t.buf (reserve t n) n '\000'

  let fixed_string t ~len s =
    if len < 0 then invalid_arg "Wire.Writer.fixed_string";
    let n = min len (String.length s) in
    let pos = reserve t len in
    Bytes.blit_string s 0 t.buf pos n;
    Bytes.fill t.buf (pos + n) (len - n) '\000'

  let patch_u16 t ~pos v =
    if pos < 0 || pos > t.len - 2 then invalid_arg "Wire.Writer.patch_u16";
    if t.shared then begin
      t.buf <- Bytes.copy t.buf;
      t.shared <- false
    end;
    Bytes.set_uint16_be t.buf pos (v land 0xffff)

  let ones_complement_sum t ~off ~len =
    if off < 0 || len < 0 || off > t.len - len then
      invalid_arg "Wire.Writer.ones_complement_sum";
    ones_complement_sum (Bytes.unsafe_to_string t.buf) ~off ~len

  let contents t =
    if t.len = Bytes.length t.buf then begin
      t.shared <- true;
      Bytes.unsafe_to_string t.buf
    end
    else Bytes.sub_string t.buf 0 t.len
end

let hex_dump s =
  let buf = Buffer.create (String.length s * 4) in
  let n = String.length s in
  let rec line off =
    if off < n then begin
      Buffer.add_string buf (Printf.sprintf "%04x  " off);
      for i = 0 to 15 do
        if off + i < n then Buffer.add_string buf (Printf.sprintf "%02x " (Char.code s.[off + i]))
        else Buffer.add_string buf "   ";
        if i = 7 then Buffer.add_char buf ' '
      done;
      Buffer.add_string buf " |";
      for i = 0 to min 15 (n - off - 1) do
        let c = s.[off + i] in
        Buffer.add_char buf (if c >= ' ' && c <= '~' then c else '.')
      done;
      Buffer.add_string buf "|\n";
      line (off + 16)
    end
  in
  line 0;
  Buffer.contents buf

let checksum_ones_complement_range s ~off ~len = checksum_of_sum (ones_complement_sum s ~off ~len)

let checksum_ones_complement s = checksum_ones_complement_range s ~off:0 ~len:(String.length s)
