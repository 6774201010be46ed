open Hw_util

type l4 = Udp of Udp.t | Tcp of Tcp.t | Icmp of Icmp.t | Raw_l4 of string
type l3 = Arp of Arp.t | Ipv4 of Ipv4.t * l4 | Raw_l3 of string
type t = { eth : Ethernet.t; l3 : l3 }

let ( let* ) = Result.bind

let decode buf =
  let* eth = Ethernet.decode buf in
  if eth.Ethernet.ethertype = Ethernet.ethertype_arp then
    let* arp = Arp.decode eth.Ethernet.payload in
    Ok { eth; l3 = Arp arp }
  else if eth.Ethernet.ethertype = Ethernet.ethertype_ipv4 then
    let* ip = Ipv4.decode eth.Ethernet.payload in
    let* l4 =
      (* OF 1.0's OFPC_FRAG_NORMAL (and OVS's "normal" fragment mode): a
         fragment's transport header is not parsed — only the first
         fragment carries it, and its length fields describe the whole
         datagram *)
      if ip.Ipv4.more_fragments || ip.Ipv4.fragment_offset <> 0 then Ok (Raw_l4 ip.Ipv4.payload)
      else if ip.Ipv4.protocol = Ipv4.proto_udp then
        let* u = Udp.decode ip.Ipv4.payload in
        Ok (Udp u)
      else if ip.Ipv4.protocol = Ipv4.proto_tcp then
        let* t = Tcp.decode ip.Ipv4.payload in
        Ok (Tcp t)
      else if ip.Ipv4.protocol = Ipv4.proto_icmp then
        let* i = Icmp.decode ip.Ipv4.payload in
        Ok (Icmp i)
      else Ok (Raw_l4 ip.Ipv4.payload)
    in
    Ok { eth; l3 = Ipv4 (ip, l4) }
  else Ok { eth; l3 = Raw_l3 eth.Ethernet.payload }

let l4_size = function
  | Udp u -> Udp.header_size + String.length u.Udp.payload
  | Tcp seg -> Tcp.header_len seg + String.length seg.Tcp.payload
  | Icmp i -> Icmp.header_size + String.length i.Icmp.payload
  | Raw_l4 s -> String.length s

let wire_size t =
  Ethernet.header_size
  +
  match t.l3 with
  | Arp _ -> Arp.size
  | Ipv4 (ip, l4) -> Ipv4.header_len ip + l4_size l4
  | Raw_l3 s -> String.length s

(* The [payload] fields of [eth] and of the IPv4 record are not
   consulted: the layers below supply them. *)
let encode t =
  let w = Wire.Writer.create ~initial_capacity:(wire_size t) () in
  Ethernet.write_header w t.eth;
  (match t.l3 with
  | Arp a -> Arp.write w a
  | Raw_l3 s -> Wire.Writer.string w s
  | Ipv4 (ip, l4) -> (
      let l4_len = l4_size l4 in
      Ipv4.write_header w ip ~payload_len:l4_len;
      match l4 with
      | Udp u -> Udp.write w u ~pseudo_sum:(Ipv4.pseudo_sum ip l4_len)
      | Tcp seg -> Tcp.write w seg ~pseudo_sum:(Ipv4.pseudo_sum ip l4_len)
      | Icmp i -> Icmp.write w i
      | Raw_l4 s -> Wire.Writer.string w s));
  Wire.Writer.contents w

type five_tuple = {
  proto : int;
  src_ip : Ip.t;
  dst_ip : Ip.t;
  src_port : int;
  dst_port : int;
}

let five_tuple_compare a b =
  let c = compare a.proto b.proto in
  if c <> 0 then c
  else
    let c = Ip.compare a.src_ip b.src_ip in
    if c <> 0 then c
    else
      let c = Ip.compare a.dst_ip b.dst_ip in
      if c <> 0 then c
      else
        let c = compare a.src_port b.src_port in
        if c <> 0 then c else compare a.dst_port b.dst_port

let pp_five_tuple fmt ft =
  Format.fprintf fmt "%a:%d -> %a:%d proto=%d" Ip.pp ft.src_ip ft.src_port Ip.pp ft.dst_ip
    ft.dst_port ft.proto

let five_tuple t =
  match t.l3 with
  | Arp _ | Raw_l3 _ -> None
  | Ipv4 (ip, l4) ->
      let src_port, dst_port =
        match l4 with
        | Udp u -> (u.Udp.src_port, u.Udp.dst_port)
        | Tcp seg -> (seg.Tcp.src_port, seg.Tcp.dst_port)
        | Icmp _ | Raw_l4 _ -> (0, 0)
      in
      Some { proto = ip.Ipv4.protocol; src_ip = ip.Ipv4.src; dst_ip = ip.Ipv4.dst; src_port; dst_port }

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let eth ~src_mac ~dst_mac ethertype =
  { Ethernet.dst = dst_mac; src = src_mac; ethertype; payload = "" }

let udp_packet ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port payload =
  let u = { Udp.src_port; dst_port; payload } in
  let ip = Ipv4.make ~protocol:Ipv4.proto_udp ~src:src_ip ~dst:dst_ip "" in
  { eth = eth ~src_mac ~dst_mac Ethernet.ethertype_ipv4; l3 = Ipv4 (ip, Udp u) }

let tcp_packet ?(flags = Tcp.ack_flag) ?(seq = 0l) ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port
    ~dst_port payload =
  let seg = Tcp.make ~seq ~flags ~src_port ~dst_port payload in
  let ip = Ipv4.make ~protocol:Ipv4.proto_tcp ~src:src_ip ~dst:dst_ip "" in
  { eth = eth ~src_mac ~dst_mac Ethernet.ethertype_ipv4; l3 = Ipv4 (ip, Tcp seg) }

let icmp_echo ~src_mac ~dst_mac ~src_ip ~dst_ip ~id ~seq =
  let i = Icmp.echo_request ~id ~seq "homework-ping" in
  let ip = Ipv4.make ~protocol:Ipv4.proto_icmp ~src:src_ip ~dst:dst_ip "" in
  { eth = eth ~src_mac ~dst_mac Ethernet.ethertype_ipv4; l3 = Ipv4 (ip, Icmp i) }

let arp_packet ~src_mac arp =
  let dst_mac =
    match arp.Arp.op with Arp.Request -> Mac.broadcast | Arp.Reply -> arp.Arp.target_mac
  in
  { eth = eth ~src_mac ~dst_mac Ethernet.ethertype_arp; l3 = Arp arp }

let dhcp_packet ~src_mac ~dst_mac ~src_ip ~dst_ip dhcp =
  let src_port, dst_port =
    match dhcp.Dhcp_wire.op with
    | Dhcp_wire.Bootrequest -> (Dhcp_wire.client_port, Dhcp_wire.server_port)
    | Dhcp_wire.Bootreply -> (Dhcp_wire.server_port, Dhcp_wire.client_port)
  in
  udp_packet ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port (Dhcp_wire.encode dhcp)

let dns_query_packet ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port dns =
  udp_packet ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port:53 (Dns_wire.encode dns)

let dns_response_packet ~src_mac ~dst_mac ~src_ip ~dst_ip ~dst_port dns =
  udp_packet ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port:53 ~dst_port (Dns_wire.encode dns)

let pp fmt t =
  match t.l3 with
  | Arp a -> Arp.pp fmt a
  | Raw_l3 _ -> Format.fprintf fmt "raw{type=0x%04x}" t.eth.Ethernet.ethertype
  | Ipv4 (ip, l4) -> (
      match l4 with
      | Udp u -> Format.fprintf fmt "%a/%a" Ipv4.pp ip Udp.pp u
      | Tcp seg -> Format.fprintf fmt "%a/%a" Ipv4.pp ip Tcp.pp seg
      | Icmp i -> Format.fprintf fmt "%a/%a" Ipv4.pp ip Icmp.pp i
      | Raw_l4 _ -> Ipv4.pp fmt ip)
