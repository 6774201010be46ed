open Hw_util

type t = { typ : int; code : int; rest : int32; payload : string }

let echo_request ~id ~seq payload =
  {
    typ = 8;
    code = 0;
    rest = Int32.logor (Int32.shift_left (Int32.of_int (id land 0xffff)) 16) (Int32.of_int (seq land 0xffff));
    payload;
  }

let echo_reply_to t = { t with typ = 0 }

let header_size = 8

let write w t =
  let off = Wire.Writer.length w in
  Wire.Writer.u8 w t.typ;
  Wire.Writer.u8 w t.code;
  Wire.Writer.u16 w 0;
  Wire.Writer.u32 w t.rest;
  Wire.Writer.string w t.payload;
  let sum = Wire.Writer.ones_complement_sum w ~off ~len:(Wire.Writer.length w - off) in
  Wire.Writer.patch_u16 w ~pos:(off + 2) (Wire.checksum_of_sum sum)

let encode t =
  let w = Wire.Writer.create ~initial_capacity:(header_size + String.length t.payload) () in
  write w t;
  Wire.Writer.contents w

let decode buf =
  try
    let r = Wire.Reader.of_string buf in
    let typ = Wire.Reader.u8 r ~field:"icmp.type" in
    let code = Wire.Reader.u8 r ~field:"icmp.code" in
    let _checksum = Wire.Reader.u16 r ~field:"icmp.csum" in
    let rest = Wire.Reader.u32 r ~field:"icmp.rest" in
    let payload = Wire.Reader.bytes r ~field:"icmp.payload" (Wire.Reader.remaining r) in
    if Wire.checksum_ones_complement buf <> 0 then Error "icmp: bad checksum"
    else Ok { typ; code; rest; payload }
  with Wire.Truncated f -> Error (Printf.sprintf "icmp: truncated at %s" f)

let pp fmt t = Format.fprintf fmt "icmp{type=%d code=%d}" t.typ t.code
