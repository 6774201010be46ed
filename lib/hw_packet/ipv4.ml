open Hw_util

type t = {
  dscp : int;
  ident : int;
  dont_fragment : bool;
  more_fragments : bool;
  fragment_offset : int;
  ttl : int;
  protocol : int;
  src : Ip.t;
  dst : Ip.t;
  options : string;
  payload : string;
}

let proto_icmp = 1
let proto_tcp = 6
let proto_udp = 17

let make ?(ttl = 64) ?(ident = 0) ~protocol ~src ~dst payload =
  {
    dscp = 0;
    ident;
    dont_fragment = true;
    more_fragments = false;
    fragment_offset = 0;
    ttl;
    protocol;
    src;
    dst;
    options = "";
    payload;
  }

let header_len t = 20 + String.length t.options

let write_header w t ~payload_len =
  if String.length t.options mod 4 <> 0 then invalid_arg "Ipv4.encode: options must pad to 32 bits";
  let off = Wire.Writer.length w in
  let hlen = header_len t in
  Wire.Writer.u8 w ((4 lsl 4) lor (hlen / 4));
  Wire.Writer.u8 w (t.dscp lsl 2);
  Wire.Writer.u16 w (hlen + payload_len);
  Wire.Writer.u16 w t.ident;
  let flags = (if t.dont_fragment then 2 else 0) lor if t.more_fragments then 1 else 0 in
  Wire.Writer.u16 w ((flags lsl 13) lor (t.fragment_offset land 0x1fff));
  Wire.Writer.u8 w t.ttl;
  Wire.Writer.u8 w t.protocol;
  Wire.Writer.u16 w 0;
  Wire.Writer.u32 w (Ip.to_int32 t.src);
  Wire.Writer.u32 w (Ip.to_int32 t.dst);
  Wire.Writer.string w t.options;
  let sum = Wire.Writer.ones_complement_sum w ~off ~len:hlen in
  Wire.Writer.patch_u16 w ~pos:(off + 10) (Wire.checksum_of_sum sum)

let encode t =
  let w = Wire.Writer.create ~initial_capacity:(header_len t + String.length t.payload) () in
  write_header w t ~payload_len:(String.length t.payload);
  Wire.Writer.string w t.payload;
  Wire.Writer.contents w

let decode buf =
  try
    let r = Wire.Reader.of_string buf in
    let vi = Wire.Reader.u8 r ~field:"ip.version_ihl" in
    let version = vi lsr 4 in
    let ihl = vi land 0xf in
    if version <> 4 then Error (Printf.sprintf "ipv4: version %d" version)
    else if ihl < 5 then Error "ipv4: ihl too small"
    else begin
      let dscp_ecn = Wire.Reader.u8 r ~field:"ip.dscp" in
      let total_len = Wire.Reader.u16 r ~field:"ip.total_len" in
      let ident = Wire.Reader.u16 r ~field:"ip.ident" in
      let flags_frag = Wire.Reader.u16 r ~field:"ip.flags" in
      let ttl = Wire.Reader.u8 r ~field:"ip.ttl" in
      let protocol = Wire.Reader.u8 r ~field:"ip.proto" in
      let _checksum = Wire.Reader.u16 r ~field:"ip.csum" in
      let src = Ip.of_int32 (Wire.Reader.u32 r ~field:"ip.src") in
      let dst = Ip.of_int32 (Wire.Reader.u32 r ~field:"ip.dst") in
      let options = Wire.Reader.bytes r ~field:"ip.options" ((ihl * 4) - 20) in
      if total_len < ihl * 4 || total_len > String.length buf then Error "ipv4: bad total length"
      else begin
        let payload = String.sub buf (ihl * 4) (total_len - (ihl * 4)) in
        if Wire.checksum_ones_complement_range buf ~off:0 ~len:(ihl * 4) <> 0 then
          Error "ipv4: bad header checksum"
        else
          Ok
            {
              dscp = dscp_ecn lsr 2;
              ident;
              dont_fragment = flags_frag land 0x4000 <> 0;
              more_fragments = flags_frag land 0x2000 <> 0;
              fragment_offset = flags_frag land 0x1fff;
              ttl;
              protocol;
              src;
              dst;
              options;
              payload;
            }
      end
    end
  with Wire.Truncated f -> Error (Printf.sprintf "ipv4: truncated at %s" f)

let pseudo_sum t l4_len =
  let word32 a = (Int32.to_int a lsr 16 land 0xffff) + (Int32.to_int a land 0xffff) in
  word32 (Ip.to_int32 t.src) + word32 (Ip.to_int32 t.dst) + (t.protocol land 0xff)
  + (l4_len land 0xffff)

let pseudo_header t l4_len =
  let w = Wire.Writer.create ~initial_capacity:12 () in
  Wire.Writer.u32 w (Ip.to_int32 t.src);
  Wire.Writer.u32 w (Ip.to_int32 t.dst);
  Wire.Writer.u8 w 0;
  Wire.Writer.u8 w t.protocol;
  Wire.Writer.u16 w l4_len;
  Wire.Writer.contents w

let pp fmt t =
  Format.fprintf fmt "ipv4{%a -> %a, proto=%d, ttl=%d, %d bytes}" Ip.pp t.src Ip.pp t.dst
    t.protocol t.ttl (String.length t.payload)
