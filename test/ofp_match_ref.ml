(* The field extraction that [Ofp_match.fields_of_frame] replaced: the
   12-tuple taken from a decoded [Packet.t]. It is kept as the
   differential reference for the in-place reader, which must agree with
   [Result.map (fields_of_packet ~in_port) (Packet.decode frame)] on every
   string, and to build exact matches in tests from a packet value. *)

open Hw_packet
open Hw_openflow.Ofp_match

let fields_of_packet ~in_port (pkt : Packet.t) =
  let base =
    {
      f_in_port = in_port;
      f_dl_src = pkt.Packet.eth.Ethernet.src;
      f_dl_dst = pkt.Packet.eth.Ethernet.dst;
      f_dl_vlan = 0xffff;
      f_dl_vlan_pcp = 0;
      f_dl_type = pkt.Packet.eth.Ethernet.ethertype;
      f_nw_tos = 0;
      f_nw_proto = 0;
      f_nw_src = Ip.any;
      f_nw_dst = Ip.any;
      f_tp_src = 0;
      f_tp_dst = 0;
    }
  in
  match pkt.Packet.l3 with
  | Packet.Raw_l3 _ -> base
  | Packet.Arp arp ->
      {
        base with
        f_nw_proto = (match arp.Arp.op with Arp.Request -> 1 | Arp.Reply -> 2);
        f_nw_src = arp.Arp.sender_ip;
        f_nw_dst = arp.Arp.target_ip;
      }
  | Packet.Ipv4 (ip, l4) ->
      let tp_src, tp_dst =
        match l4 with
        | Packet.Udp u -> (u.Udp.src_port, u.Udp.dst_port)
        | Packet.Tcp seg -> (seg.Tcp.src_port, seg.Tcp.dst_port)
        | Packet.Icmp i -> (i.Icmp.typ, i.Icmp.code)
        | Packet.Raw_l4 _ -> (0, 0)
      in
      {
        base with
        f_nw_tos = ip.Ipv4.dscp lsl 2;
        f_nw_proto = ip.Ipv4.protocol;
        f_nw_src = ip.Ipv4.src;
        f_nw_dst = ip.Ipv4.dst;
        f_tp_src = tp_src;
        f_tp_dst = tp_dst;
      }
