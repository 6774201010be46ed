open Hw_util

type t = { src_port : int; dst_port : int; payload : string }

let header_size = 8

let write_raw w t =
  Wire.Writer.u16 w t.src_port;
  Wire.Writer.u16 w t.dst_port;
  Wire.Writer.u16 w (header_size + String.length t.payload);
  Wire.Writer.u16 w 0;
  Wire.Writer.string w t.payload

let write w t ~pseudo_sum =
  let off = Wire.Writer.length w in
  write_raw w t;
  let sum = pseudo_sum + Wire.Writer.ones_complement_sum w ~off ~len:(Wire.Writer.length w - off) in
  let csum =
    match Wire.checksum_of_sum sum with
    | 0 -> 0xffff (* RFC 768: transmitted zero means "no checksum" *)
    | c -> c
  in
  Wire.Writer.patch_u16 w ~pos:(off + 6) csum

let encode t ~pseudo_header =
  let w = Wire.Writer.create ~initial_capacity:(header_size + String.length t.payload) () in
  write w t
    ~pseudo_sum:(Wire.ones_complement_sum pseudo_header ~off:0 ~len:(String.length pseudo_header));
  Wire.Writer.contents w

let encode_nochecksum t =
  let w = Wire.Writer.create ~initial_capacity:(header_size + String.length t.payload) () in
  write_raw w t;
  Wire.Writer.contents w

let decode ?pseudo_header buf =
  try
    let r = Wire.Reader.of_string buf in
    let src_port = Wire.Reader.u16 r ~field:"udp.sport" in
    let dst_port = Wire.Reader.u16 r ~field:"udp.dport" in
    let len = Wire.Reader.u16 r ~field:"udp.len" in
    let checksum = Wire.Reader.u16 r ~field:"udp.csum" in
    if len < header_size || len > String.length buf then Error "udp: bad length"
    else begin
      let payload = String.sub buf header_size (len - header_size) in
      let csum_ok =
        match pseudo_header with
        | Some ph when checksum <> 0 ->
            Wire.checksum_ones_complement (ph ^ String.sub buf 0 len) = 0
        | _ -> true
      in
      if not csum_ok then Error "udp: bad checksum" else Ok { src_port; dst_port; payload }
    end
  with Wire.Truncated f -> Error (Printf.sprintf "udp: truncated at %s" f)

let pp fmt t =
  Format.fprintf fmt "udp{%d -> %d, %d bytes}" t.src_port t.dst_port (String.length t.payload)
