open Hw_util

(* The acceptance test reads with unchecked accessors, each behind the
   length test that makes it safe; the field readers use checked ones. *)
let[@inline] u8 s i = Char.code (String.unsafe_get s i)
let[@inline] u16 s i = (u8 s i lsl 8) lor u8 s (i + 1)

(* the ARP packet or IPv4 header follows the Ethernet header *)
let l3 = Ethernet.header_size

let[@inline] is_fragment frame = u16 frame (l3 + 6) land 0x3fff <> 0

(* [Arp.decode]: 28 bytes of IPv4-over-Ethernet with a known opcode *)
let arp_ok frame =
  String.length frame - l3 >= 28
  && u16 frame l3 = 1
  && u16 frame (l3 + 2) = Ethernet.ethertype_ipv4
  && u8 frame (l3 + 4) = 6
  && u8 frame (l3 + 5) = 4
  && (u16 frame (l3 + 6) = 1 || u16 frame (l3 + 6) = 2)

(* The transport decoder [Packet.decode] picks for a well-formed IPv4
   header, as [check] reports it: a fragment is not parsed *)
let ipv4_transport frame ~l4 ~l4_len =
  if is_fragment frame then 0
  else
    let proto = u8 frame (l3 + 9) in
    if proto = Ipv4.proto_udp then
      if l4_len >= 8 && u16 frame (l4 + 4) >= 8 && u16 frame (l4 + 4) <= l4_len then proto else -1
    else if proto = Ipv4.proto_tcp then
      let data_off = if l4_len >= 20 then u8 frame (l4 + 12) lsr 4 else 0 in
      if data_off >= 5 && data_off * 4 <= l4_len then proto else -1
    else if proto = Ipv4.proto_icmp then
      if l4_len >= 8 && Wire.checksum_ones_complement_range frame ~off:l4 ~len:l4_len = 0 then proto
      else -1
    else 0

(* [Ipv4.decode]: version 4, a header of at least 20 bytes inside the
   frame, a total length between the header's and the frame's, and a
   header checksum that verifies *)
let ipv4_check frame =
  let avail = String.length frame - l3 in
  if avail < 20 || u8 frame l3 lsr 4 <> 4 then -1
  else
    let hlen = (u8 frame l3 land 0xf) * 4 in
    let total = u16 frame (l3 + 2) in
    if
      hlen < 20 || hlen > avail || total < hlen || total > avail
      || Wire.checksum_ones_complement_range frame ~off:l3 ~len:hlen <> 0
    then -1
    else ipv4_transport frame ~l4:(l3 + hlen) ~l4_len:(total - hlen)

let check frame =
  if String.length frame < Ethernet.header_size then -1
  else
    let ethertype = u16 frame 12 in
    if ethertype = Ethernet.ethertype_arp then if arp_ok frame then 0 else -1
    else if ethertype = Ethernet.ethertype_ipv4 then ipv4_check frame
    else 0

let[@inline] ethertype frame = String.get_uint16_be frame 12
let[@inline] dst_mac frame = Mac.of_bytes (String.sub frame 0 6)
let[@inline] src_mac frame = Mac.of_bytes (String.sub frame 6 6)
let[@inline] arp_op frame = String.get_uint16_be frame (l3 + 6)
let[@inline] arp_sender_ip frame = Ip.of_int32 (String.get_int32_be frame (l3 + 14))
let[@inline] arp_target_ip frame = Ip.of_int32 (String.get_int32_be frame (l3 + 24))
let[@inline] ip_tos frame = String.get_uint8 frame (l3 + 1) land 0xfc
let[@inline] ip_proto frame = String.get_uint8 frame (l3 + 9)
let[@inline] ip_src frame = Ip.of_int32 (String.get_int32_be frame (l3 + 12))
let[@inline] ip_dst frame = Ip.of_int32 (String.get_int32_be frame (l3 + 16))

let[@inline] l4 frame = l3 + ((String.get_uint8 frame l3 land 0xf) * 4)
let[@inline] src_port frame = String.get_uint16_be frame (l4 frame)
let[@inline] dst_port frame = String.get_uint16_be frame (l4 frame + 2)
let[@inline] icmp_type frame = String.get_uint8 frame (l4 frame)
let[@inline] icmp_code frame = String.get_uint8 frame (l4 frame + 1)
let[@inline] tcp_seq frame = String.get_int32_be frame (l4 frame + 4)
let tcp_flags frame = Tcp.flags_of_int (String.get_uint8 frame (l4 frame + 13))

let payload_length frame =
  let l4 = l4 frame in
  if ip_proto frame = Ipv4.proto_udp then String.get_uint16_be frame (l4 + 4) - Udp.header_size
  else
    let ip_payload = String.get_uint16_be frame (l3 + 2) - (l4 - l3) in
    ip_payload - ((String.get_uint8 frame (l4 + 12) lsr 4) * 4)
