(* The string-per-layer frame encoder that [Packet.encode] replaced, kept
   as the differential reference for the one-pass encoder. Each layer is
   serialised to its own string through a plain [Buffer] and copied into
   the layer above; the UDP and TCP checksums are taken over
   [pseudo_header ^ segment]. It shares no code with the library's
   writers or checksum loop. *)

open Hw_packet

let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let u16 b v =
  u8 b (v lsr 8);
  u8 b v

let u32 b v =
  let byte n = Int32.to_int (Int32.logand (Int32.shift_right_logical v n) 0xffl) in
  u8 b (byte 24);
  u8 b (byte 16);
  u8 b (byte 8);
  u8 b (byte 0)

let checksum s =
  let n = String.length s in
  let sum = ref 0 in
  for i = 0 to (n / 2) - 1 do
    sum := !sum + (Char.code s.[2 * i] lsl 8) + Char.code s.[(2 * i) + 1]
  done;
  if n land 1 = 1 then sum := !sum + (Char.code s.[n - 1] lsl 8);
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xffff) + (!sum lsr 16)
  done;
  lnot !sum land 0xffff

let build f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

let ethernet (e : Ethernet.t) payload =
  build (fun b ->
      Buffer.add_string b (Mac.to_bytes e.Ethernet.dst);
      Buffer.add_string b (Mac.to_bytes e.Ethernet.src);
      u16 b e.Ethernet.ethertype;
      Buffer.add_string b payload)

let arp (a : Arp.t) =
  build (fun b ->
      u16 b 1;
      u16 b 0x0800;
      u8 b 6;
      u8 b 4;
      u16 b (match a.Arp.op with Arp.Request -> 1 | Arp.Reply -> 2);
      Buffer.add_string b (Mac.to_bytes a.Arp.sender_mac);
      u32 b (Ip.to_int32 a.Arp.sender_ip);
      Buffer.add_string b (Mac.to_bytes a.Arp.target_mac);
      u32 b (Ip.to_int32 a.Arp.target_ip))

let ipv4_header (ip : Ipv4.t) ~payload_len ~csum =
  let hlen = 20 + String.length ip.Ipv4.options in
  build (fun b ->
      u8 b ((4 lsl 4) lor (hlen / 4));
      u8 b (ip.Ipv4.dscp lsl 2);
      u16 b (hlen + payload_len);
      u16 b ip.Ipv4.ident;
      let flags =
        (if ip.Ipv4.dont_fragment then 2 else 0) lor if ip.Ipv4.more_fragments then 1 else 0
      in
      u16 b ((flags lsl 13) lor (ip.Ipv4.fragment_offset land 0x1fff));
      u8 b ip.Ipv4.ttl;
      u8 b ip.Ipv4.protocol;
      u16 b csum;
      u32 b (Ip.to_int32 ip.Ipv4.src);
      u32 b (Ip.to_int32 ip.Ipv4.dst);
      Buffer.add_string b ip.Ipv4.options)

let ipv4 (ip : Ipv4.t) payload =
  if String.length ip.Ipv4.options mod 4 <> 0 then
    invalid_arg "Ipv4.encode: options must pad to 32 bits";
  let payload_len = String.length payload in
  let csum = checksum (ipv4_header ip ~payload_len ~csum:0) in
  ipv4_header ip ~payload_len ~csum ^ payload

let pseudo_header (ip : Ipv4.t) l4_len =
  build (fun b ->
      u32 b (Ip.to_int32 ip.Ipv4.src);
      u32 b (Ip.to_int32 ip.Ipv4.dst);
      u8 b 0;
      u8 b ip.Ipv4.protocol;
      u16 b l4_len)

let udp_raw (u : Udp.t) ~csum =
  build (fun b ->
      u16 b u.Udp.src_port;
      u16 b u.Udp.dst_port;
      u16 b (8 + String.length u.Udp.payload);
      u16 b csum;
      Buffer.add_string b u.Udp.payload)

let udp u ~pseudo_header =
  let csum =
    match checksum (pseudo_header ^ udp_raw u ~csum:0) with 0 -> 0xffff | c -> c
  in
  udp_raw u ~csum

let tcp_raw (seg : Tcp.t) ~csum =
  let flags =
    let f = seg.Tcp.flags in
    (if f.Tcp.fin then 1 else 0)
    lor (if f.Tcp.syn then 2 else 0)
    lor (if f.Tcp.rst then 4 else 0)
    lor (if f.Tcp.psh then 8 else 0)
    lor (if f.Tcp.ack then 16 else 0)
    lor if f.Tcp.urg then 32 else 0
  in
  build (fun b ->
      u16 b seg.Tcp.src_port;
      u16 b seg.Tcp.dst_port;
      u32 b seg.Tcp.seq;
      u32 b seg.Tcp.ack_no;
      u8 b (((20 + String.length seg.Tcp.options) / 4) lsl 4);
      u8 b flags;
      u16 b seg.Tcp.window;
      u16 b csum;
      u16 b 0;
      Buffer.add_string b seg.Tcp.options;
      Buffer.add_string b seg.Tcp.payload)

let tcp seg ~pseudo_header =
  if String.length seg.Tcp.options mod 4 <> 0 then
    invalid_arg "Tcp.encode: options must pad to 32 bits";
  tcp_raw seg ~csum:(checksum (pseudo_header ^ tcp_raw seg ~csum:0))

let icmp_raw (i : Icmp.t) ~csum =
  build (fun b ->
      u8 b i.Icmp.typ;
      u8 b i.Icmp.code;
      u16 b csum;
      u32 b i.Icmp.rest;
      Buffer.add_string b i.Icmp.payload)

let icmp i = icmp_raw i ~csum:(checksum (icmp_raw i ~csum:0))

let encode (t : Packet.t) =
  let payload =
    match t.Packet.l3 with
    | Packet.Arp a -> arp a
    | Packet.Raw_l3 s -> s
    | Packet.Ipv4 (ip, l4) ->
        let l4_bytes =
          match l4 with
          | Packet.Udp u ->
              let len = 8 + String.length u.Udp.payload in
              udp u ~pseudo_header:(pseudo_header ip len)
          | Packet.Tcp seg ->
              let len = 20 + String.length seg.Tcp.options + String.length seg.Tcp.payload in
              tcp seg ~pseudo_header:(pseudo_header ip len)
          | Packet.Icmp i -> icmp i
          | Packet.Raw_l4 s -> s
        in
        ipv4 ip l4_bytes
  in
  ethernet t.Packet.eth payload
