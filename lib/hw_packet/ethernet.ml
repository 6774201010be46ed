open Hw_util

type t = { dst : Mac.t; src : Mac.t; ethertype : int; payload : string }

let ethertype_ipv4 = 0x0800
let ethertype_arp = 0x0806
let header_size = 14

let write_header w t =
  Wire.Writer.string w (Mac.to_bytes t.dst);
  Wire.Writer.string w (Mac.to_bytes t.src);
  Wire.Writer.u16 w t.ethertype

let encode t =
  let w = Wire.Writer.create ~initial_capacity:(header_size + String.length t.payload) () in
  write_header w t;
  Wire.Writer.string w t.payload;
  Wire.Writer.contents w

let decode buf =
  try
    let r = Wire.Reader.of_string buf in
    let dst = Mac.of_bytes (Wire.Reader.bytes r ~field:"eth.dst" 6) in
    let src = Mac.of_bytes (Wire.Reader.bytes r ~field:"eth.src" 6) in
    let ethertype = Wire.Reader.u16 r ~field:"eth.type" in
    let payload = Wire.Reader.bytes r ~field:"eth.payload" (Wire.Reader.remaining r) in
    Ok { dst; src; ethertype; payload }
  with Wire.Truncated f -> Error (Printf.sprintf "ethernet: truncated at %s" f)

let pp fmt t =
  Format.fprintf fmt "eth{%a -> %a, type=0x%04x, %d bytes}" Mac.pp t.src Mac.pp t.dst
    t.ethertype (String.length t.payload)
