open Hw_util

type op = Request | Reply

type t = {
  op : op;
  sender_mac : Mac.t;
  sender_ip : Ip.t;
  target_mac : Mac.t;
  target_ip : Ip.t;
}

let op_code = function Request -> 1 | Reply -> 2

let size = 28

let write w t =
  Wire.Writer.u16 w 1 (* htype ethernet *);
  Wire.Writer.u16 w 0x0800 (* ptype ipv4 *);
  Wire.Writer.u8 w 6;
  Wire.Writer.u8 w 4;
  Wire.Writer.u16 w (op_code t.op);
  Wire.Writer.string w (Mac.to_bytes t.sender_mac);
  Wire.Writer.u32 w (Ip.to_int32 t.sender_ip);
  Wire.Writer.string w (Mac.to_bytes t.target_mac);
  Wire.Writer.u32 w (Ip.to_int32 t.target_ip)

let encode t =
  let w = Wire.Writer.create ~initial_capacity:size () in
  write w t;
  Wire.Writer.contents w

let decode buf =
  try
    let r = Wire.Reader.of_string buf in
    let htype = Wire.Reader.u16 r ~field:"arp.htype" in
    let ptype = Wire.Reader.u16 r ~field:"arp.ptype" in
    let hlen = Wire.Reader.u8 r ~field:"arp.hlen" in
    let plen = Wire.Reader.u8 r ~field:"arp.plen" in
    if htype <> 1 || ptype <> 0x0800 || hlen <> 6 || plen <> 4 then
      Error "arp: not IPv4-over-Ethernet"
    else
      let opcode = Wire.Reader.u16 r ~field:"arp.op" in
      let sender_mac = Mac.of_bytes (Wire.Reader.bytes r ~field:"arp.sha" 6) in
      let sender_ip = Ip.of_int32 (Wire.Reader.u32 r ~field:"arp.spa") in
      let target_mac = Mac.of_bytes (Wire.Reader.bytes r ~field:"arp.tha" 6) in
      let target_ip = Ip.of_int32 (Wire.Reader.u32 r ~field:"arp.tpa") in
      match opcode with
      | 1 -> Ok { op = Request; sender_mac; sender_ip; target_mac; target_ip }
      | 2 -> Ok { op = Reply; sender_mac; sender_ip; target_mac; target_ip }
      | n -> Error (Printf.sprintf "arp: unknown opcode %d" n)
  with Wire.Truncated f -> Error (Printf.sprintf "arp: truncated at %s" f)

let request ~sender_mac ~sender_ip ~target_ip =
  { op = Request; sender_mac; sender_ip; target_mac = Mac.zero; target_ip }

let reply_to req ~responder_mac =
  {
    op = Reply;
    sender_mac = responder_mac;
    sender_ip = req.target_ip;
    target_mac = req.sender_mac;
    target_ip = req.sender_ip;
  }

let pp fmt t =
  match t.op with
  | Request -> Format.fprintf fmt "arp-request{who-has %a tell %a}" Ip.pp t.target_ip Ip.pp t.sender_ip
  | Reply -> Format.fprintf fmt "arp-reply{%a is-at %a}" Ip.pp t.sender_ip Mac.pp t.sender_mac
