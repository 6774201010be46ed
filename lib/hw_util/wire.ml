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
    let v = Char.code t.buf.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let peek_u8 t ~field =
    need t ~field 1;
    Char.code t.buf.[t.pos]

  let u16 t ~field =
    need t ~field 2;
    let v = (Char.code t.buf.[t.pos] lsl 8) lor Char.code t.buf.[t.pos + 1] in
    t.pos <- t.pos + 2;
    v

  let u32 t ~field =
    need t ~field 4;
    let b i = Int32.of_int (Char.code t.buf.[t.pos + i]) in
    let v =
      Int32.logor
        (Int32.shift_left (b 0) 24)
        (Int32.logor
           (Int32.shift_left (b 1) 16)
           (Int32.logor (Int32.shift_left (b 2) 8) (b 3)))
    in
    t.pos <- t.pos + 4;
    v

  let u32_int t ~field =
    need t ~field 4;
    let b i = Char.code t.buf.[t.pos + i] in
    let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    t.pos <- t.pos + 4;
    v

  let u64 t ~field =
    need t ~field 8;
    let b i = Int64.of_int (Char.code t.buf.[t.pos + i]) in
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor (Int64.shift_left !v 8) (b i)
    done;
    t.pos <- t.pos + 8;
    !v

  let bytes t ~field n =
    need t ~field n;
    let s = String.sub t.buf t.pos n in
    t.pos <- t.pos + n;
    s

  let sub_reader t ~field n = of_string (bytes t ~field n)
end

module Writer = struct
  type t = Buffer.t

  let create ?(initial_capacity = 64) () = Buffer.create initial_capacity
  let length = Buffer.length
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xff))

  let u16 t v =
    u8 t (v lsr 8);
    u8 t v

  let u32 t v =
    let b n = Int32.to_int (Int32.logand (Int32.shift_right_logical v n) 0xffl) in
    u8 t (b 24);
    u8 t (b 16);
    u8 t (b 8);
    u8 t (b 0)

  let u32_int t v =
    u8 t (v lsr 24);
    u8 t (v lsr 16);
    u8 t (v lsr 8);
    u8 t v

  let u64 t v =
    for i = 7 downto 0 do
      u8 t (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL))
    done

  let string t s = Buffer.add_string t s
  let zeros t n = Buffer.add_string t (String.make n '\000')

  let fixed_string t ~len s =
    let n = String.length s in
    if n >= len then Buffer.add_string t (String.sub s 0 len)
    else begin
      Buffer.add_string t s;
      zeros t (len - n)
    end

  let patch_u16 t ~pos v =
    (* Buffer has no in-place mutation; rebuild via an intermediate copy.
       Length patching is rare (once per message), so this is acceptable. *)
    let s = Buffer.to_bytes t in
    Bytes.set s pos (Char.chr ((v lsr 8) land 0xff));
    Bytes.set s (pos + 1) (Char.chr (v land 0xff));
    Buffer.clear t;
    Buffer.add_bytes t s

  let contents = Buffer.contents
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

let checksum_ones_complement_range s ~off ~len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Wire.checksum_ones_complement_range";
  let stop = off + len in
  let sum = ref 0 in
  let i = ref off in
  while !i + 1 < stop do
    sum :=
      !sum + ((Char.code (String.unsafe_get s !i) lsl 8) lor Char.code (String.unsafe_get s (!i + 1)));
    i := !i + 2
  done;
  if len land 1 = 1 then sum := !sum + (Char.code (String.unsafe_get s (stop - 1)) lsl 8);
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  lnot !sum land 0xffff

let checksum_ones_complement s = checksum_ones_complement_range s ~off:0 ~len:(String.length s)
