open Hw_util

type flags = {
  fin : bool;
  syn : bool;
  rst : bool;
  psh : bool;
  ack : bool;
  urg : bool;
}

let no_flags = { fin = false; syn = false; rst = false; psh = false; ack = false; urg = false }
let syn_flag = { no_flags with syn = true }
let syn_ack = { no_flags with syn = true; ack = true }
let ack_flag = { no_flags with ack = true }
let fin_ack = { no_flags with fin = true; ack = true }
let rst_flag = { no_flags with rst = true }

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_no : int32;
  flags : flags;
  window : int;
  options : string;
  payload : string;
}

let make ?(seq = 0l) ?(ack_no = 0l) ?(flags = no_flags) ?(window = 65535) ~src_port ~dst_port
    payload =
  { src_port; dst_port; seq; ack_no; flags; window; options = ""; payload }

let flags_to_int f =
  (if f.fin then 1 else 0)
  lor (if f.syn then 2 else 0)
  lor (if f.rst then 4 else 0)
  lor (if f.psh then 8 else 0)
  lor (if f.ack then 16 else 0)
  lor if f.urg then 32 else 0

let flags_of_int v =
  {
    fin = v land 1 <> 0;
    syn = v land 2 <> 0;
    rst = v land 4 <> 0;
    psh = v land 8 <> 0;
    ack = v land 16 <> 0;
    urg = v land 32 <> 0;
  }

let header_len t = 20 + String.length t.options

let write w t ~pseudo_sum =
  if String.length t.options mod 4 <> 0 then invalid_arg "Tcp.encode: options must pad to 32 bits";
  let off = Wire.Writer.length w in
  Wire.Writer.u16 w t.src_port;
  Wire.Writer.u16 w t.dst_port;
  Wire.Writer.u32 w t.seq;
  Wire.Writer.u32 w t.ack_no;
  Wire.Writer.u8 w ((header_len t / 4) lsl 4);
  Wire.Writer.u8 w (flags_to_int t.flags);
  Wire.Writer.u16 w t.window;
  Wire.Writer.u16 w 0;
  Wire.Writer.u16 w 0 (* urgent pointer *);
  Wire.Writer.string w t.options;
  Wire.Writer.string w t.payload;
  let sum = pseudo_sum + Wire.Writer.ones_complement_sum w ~off ~len:(Wire.Writer.length w - off) in
  Wire.Writer.patch_u16 w ~pos:(off + 16) (Wire.checksum_of_sum sum)

let encode t ~pseudo_header =
  let w = Wire.Writer.create ~initial_capacity:(header_len t + String.length t.payload) () in
  write w t
    ~pseudo_sum:(Wire.ones_complement_sum pseudo_header ~off:0 ~len:(String.length pseudo_header));
  Wire.Writer.contents w

let decode ?pseudo_header buf =
  try
    let r = Wire.Reader.of_string buf in
    let src_port = Wire.Reader.u16 r ~field:"tcp.sport" in
    let dst_port = Wire.Reader.u16 r ~field:"tcp.dport" in
    let seq = Wire.Reader.u32 r ~field:"tcp.seq" in
    let ack_no = Wire.Reader.u32 r ~field:"tcp.ack" in
    let data_off = Wire.Reader.u8 r ~field:"tcp.off" lsr 4 in
    let flags = flags_of_int (Wire.Reader.u8 r ~field:"tcp.flags") in
    let window = Wire.Reader.u16 r ~field:"tcp.window" in
    let _checksum = Wire.Reader.u16 r ~field:"tcp.csum" in
    let _urgent = Wire.Reader.u16 r ~field:"tcp.urg" in
    if data_off < 5 || data_off * 4 > String.length buf then Error "tcp: bad data offset"
    else begin
      let options = Wire.Reader.bytes r ~field:"tcp.options" ((data_off * 4) - 20) in
      let payload = String.sub buf (data_off * 4) (String.length buf - (data_off * 4)) in
      let csum_ok =
        match pseudo_header with
        | Some ph -> Wire.checksum_ones_complement (ph ^ buf) = 0
        | None -> true
      in
      if not csum_ok then Error "tcp: bad checksum"
      else Ok { src_port; dst_port; seq; ack_no; flags; window; options; payload }
    end
  with Wire.Truncated f -> Error (Printf.sprintf "tcp: truncated at %s" f)

let pp fmt t =
  let flag_str =
    String.concat ""
      [
        (if t.flags.syn then "S" else "");
        (if t.flags.ack then "A" else "");
        (if t.flags.fin then "F" else "");
        (if t.flags.rst then "R" else "");
        (if t.flags.psh then "P" else "");
        (if t.flags.urg then "U" else "");
      ]
  in
  Format.fprintf fmt "tcp{%d -> %d [%s], seq=%ld, %d bytes}" t.src_port t.dst_port flag_str
    t.seq (String.length t.payload)
