open Hw_packet

let log_src = Logs.Src.create "hw.sim.internet" ~doc:"Upstream internet node"

module Log = (val Logs.src_log log_src : Logs.LOG)

let mac = Mac.of_string_exn "02:ff:ff:ff:ff:fe"
let resolver_ip = Ip.of_octets 8 8 8 8

type t = {
  loop : Event_loop.t;
  send : string -> unit;
  latency : float;
  lan_prefix : Ip.Prefix.t;
  zone : (string, Ip.t) Hashtbl.t;
  reverse : (Ip.t, string) Hashtbl.t;
  factors : (int, float) Hashtbl.t;
  lan_sources : (Ip.t, int) Hashtbl.t;
  mutable rx : int;
  mutable tx : int;
}

let create ?(latency = 0.02) ?lan_prefix ~loop ~send () =
  let lan_prefix =
    Option.value lan_prefix ~default:(Ip.Prefix.make (Ip.of_octets 10 0 0 0) 24)
  in
  let t =
    {
      loop;
      send;
      latency;
      lan_prefix;
      zone = Hashtbl.create 32;
      reverse = Hashtbl.create 32;
      factors = Hashtbl.create 16;
      lan_sources = Hashtbl.create 16;
      rx = 0;
      tx = 0;
    }
  in
  List.iter
    (fun (port, f) -> Hashtbl.replace t.factors port f)
    [ (80, 20.); (443, 15.); (8080, 100.); (5060, 1.); (6881, 3.); (8883, 0.5) ];
  t

let add_zone t name ip =
  let name = Dns_wire.normalize_name name in
  Hashtbl.replace t.zone name ip;
  Hashtbl.replace t.reverse ip name

let add_default_zone t =
  List.iteri
    (fun i (name : string) -> add_zone t name (Ip.of_octets 93 184 216 (10 + i)))
    [
      "www.example.com";
      "secure.example.com";
      "video.example.com";
      "sip.example.com";
      "tracker.example.com";
      "iot.example.com";
      "www.facebook.com";
      "facebook.com";
      "fbcdn.net";
      "www.youtube.com";
      "youtube.com";
      "googlevideo.com";
      "www.bbc.co.uk";
      "bbc.co.uk";
      "school.example.org";
      "news.example.com";
    ]

let lookup_zone t name = Hashtbl.find_opt t.zone (Dns_wire.normalize_name name)

let lan_source_leaks t =
  Hashtbl.fold (fun ip n acc -> (ip, n) :: acc) t.lan_sources []
  |> List.sort (fun (a, _) (b, _) -> Ip.compare a b)
let set_response_factor t ~port f = Hashtbl.replace t.factors port f
let rx_bytes t = t.rx
let tx_bytes t = t.tx

let transmit t frame =
  Event_loop.after t.loop t.latency (fun () ->
      t.tx <- t.tx + String.length frame;
      t.send frame)

(* ------------------------------------------------------------------ *)
(* DNS authority                                                       *)
(* ------------------------------------------------------------------ *)

let answer_dns t (query : Dns_wire.t) =
  match query.Dns_wire.questions with
  | [] -> Dns_wire.response ~rcode:Dns_wire.Format_error query
  | { Dns_wire.qname; qtype } :: _ -> (
      match qtype with
      | Dns_wire.A -> (
          match lookup_zone t qname with
          | Some ip -> Dns_wire.response ~answers:[ Dns_wire.a_record qname ip ] query
          | None -> Dns_wire.response ~rcode:Dns_wire.Name_error query)
      | Dns_wire.PTR -> (
          (* parse x.y.z.w.in-addr.arpa *)
          let name = Dns_wire.normalize_name qname in
          let ip =
            match String.split_on_char '.' name with
            | [ a; b; c; d; "in-addr"; "arpa" ] -> (
                match
                  ( int_of_string_opt a,
                    int_of_string_opt b,
                    int_of_string_opt c,
                    int_of_string_opt d )
                with
                | Some a, Some b, Some c, Some d -> (
                    try Some (Ip.of_octets d c b a) with Invalid_argument _ -> None)
                | _ -> None)
            | _ -> None
          in
          match Option.bind ip (Hashtbl.find_opt t.reverse) with
          | Some hostname ->
              Dns_wire.response
                ~answers:[ Dns_wire.ptr_record (Option.get ip) hostname ]
                query
          | None -> Dns_wire.response ~rcode:Dns_wire.Name_error query)
      | _ -> Dns_wire.response ~rcode:Dns_wire.Not_implemented query)

(* ------------------------------------------------------------------ *)
(* Frame handling                                                      *)
(* ------------------------------------------------------------------ *)

let reply_ip t ~dst_mac ~dst_ip ~src_ip l4 =
  let protocol =
    match l4 with
    | Packet.Udp _ -> Ipv4.proto_udp
    | Packet.Tcp _ -> Ipv4.proto_tcp
    | Packet.Icmp _ -> Ipv4.proto_icmp
    | Packet.Raw_l4 _ -> invalid_arg "Internet.reply_ip: no protocol for a raw payload"
  in
  let reply =
    {
      Packet.eth =
        { Ethernet.dst = dst_mac; src = mac; ethertype = Ethernet.ethertype_ipv4; payload = "" };
      l3 = Packet.Ipv4 (Ipv4.make ~protocol ~src:src_ip ~dst:dst_ip "", l4);
    }
  in
  transmit t (Packet.encode reply)

(* Server responses are filler: one string per chunk size, shared by
   every node and reply (strings are immutable). *)
let chunk = 1400
let fillers = Array.make (chunk + 1) ""

let filler size =
  if String.length fillers.(size) <> size then fillers.(size) <- String.make size 'd';
  fillers.(size)

(* [respond t ~request_bytes ~port k] sends the response to a request
   of [request_bytes] to [port]: its size scaled by the port's factor,
   in [chunk]-byte pieces, [k size] for piece [i] 2 ms after piece
   [i - 1], the first after the node's latency *)
let respond t ~request_bytes ~port k =
  let factor = Option.value (Hashtbl.find_opt t.factors port) ~default:1. in
  let total = int_of_float (float_of_int request_bytes *. factor) in
  let rec piece i remaining =
    if remaining > 0 then begin
      let size = min chunk remaining in
      Event_loop.after t.loop (t.latency +. (0.002 *. float_of_int i)) (fun () -> k size);
      piece (i + 1) (remaining - chunk)
    end
  in
  piece 0 total

(* A TCP segment or a UDP datagram (other than a query to the resolver),
   read in place: the reply goes back to the sender's MAC and address,
   from the address it was sent to, with the ports swapped. *)
let handle_data t frame ~l4 ~src_ip ~dst_ip =
  let dst_mac = Frame.src_mac frame in
  let src_port = Frame.dst_port frame and dst_port = Frame.src_port frame in
  let reply l4 = reply_ip t ~dst_mac ~dst_ip:src_ip ~src_ip:dst_ip l4 in
  if l4 = Ipv4.proto_udp then
    respond t ~request_bytes:(Frame.payload_length frame) ~port:src_port (fun size ->
        reply (Packet.Udp { Udp.src_port; dst_port; payload = filler size }))
  else
    let flags = Frame.tcp_flags frame in
    let answer flags =
      Tcp.make ~flags ~ack_no:(Int32.add (Frame.tcp_seq frame) 1l) ~src_port ~dst_port ""
    in
    if flags.Tcp.syn && not flags.Tcp.ack then reply (Packet.Tcp (answer Tcp.syn_ack))
    else if flags.Tcp.fin then reply (Packet.Tcp (answer Tcp.fin_ack))
    else
      respond t ~request_bytes:(Frame.payload_length frame) ~port:src_port (fun size ->
          reply (Packet.Tcp (Tcp.make ~flags:Tcp.ack_flag ~src_port ~dst_port (filler size))))

let answered_in_place frame ~l4 =
  l4 = Ipv4.proto_tcp
  || l4 = Ipv4.proto_udp
     && not (Frame.dst_port frame = 53 && Ip.equal (Frame.ip_dst frame) resolver_ip)

(* Private source addresses reaching the ISP are a leak unless the
   router NATs (the NAT tests read them); a datagram addressed into the
   LAN is not upstream traffic (a bridged switch may flood it here) and
   is not answered. *)
let upstream t ~src_ip ~dst_ip =
  if Ip.Prefix.mem src_ip t.lan_prefix then
    Hashtbl.replace t.lan_sources src_ip
      (1 + Option.value (Hashtbl.find_opt t.lan_sources src_ip) ~default:0);
  not (Ip.Prefix.mem dst_ip t.lan_prefix)

(* Data frames are read in place; ARP, DNS, ICMP, and every frame the
   in-place reader rejects, are decoded. *)
let deliver t frame =
  t.rx <- t.rx + String.length frame;
  let l4 = Frame.check frame in
  if answered_in_place frame ~l4 then begin
    let src_ip = Frame.ip_src frame and dst_ip = Frame.ip_dst frame in
    if upstream t ~src_ip ~dst_ip then handle_data t frame ~l4 ~src_ip ~dst_ip
  end
  else
    match Packet.decode frame with
    | Error msg -> Log.debug (fun m -> m "undecodable upstream frame: %s" msg)
    | Ok pkt -> (
        match pkt.Packet.l3 with
        | Packet.Arp arp when arp.Arp.op = Arp.Request ->
            (* proxy-ARP for everything outside the home prefix *)
            if not (Ip.Prefix.mem arp.Arp.target_ip t.lan_prefix) then begin
              let reply = Arp.reply_to arp ~responder_mac:mac in
              transmit t (Packet.encode (Packet.arp_packet ~src_mac:mac reply))
            end
        | Packet.Arp _ | Packet.Raw_l3 _ -> ()
        | Packet.Ipv4 (ip_hdr, l4) -> (
            let src_ip = ip_hdr.Ipv4.src and dst_ip = ip_hdr.Ipv4.dst in
            if upstream t ~src_ip ~dst_ip then
              let dst_mac = pkt.Packet.eth.Ethernet.src in
              let reply = reply_ip t ~dst_mac ~dst_ip:src_ip ~src_ip:dst_ip in
              match l4 with
              | Packet.Udp u when u.Udp.dst_port = 53 && Ip.equal dst_ip resolver_ip -> (
                  match Dns_wire.decode u.Udp.payload with
                  | Ok query when not query.Dns_wire.is_response ->
                      let resp = answer_dns t query in
                      let payload = Dns_wire.encode resp in
                      reply (Packet.Udp { Udp.src_port = 53; dst_port = u.Udp.src_port; payload })
                  | Ok _ | Error _ -> ())
              | Packet.Icmp icmp when icmp.Icmp.typ = 8 ->
                  reply (Packet.Icmp (Icmp.echo_reply_to icmp))
              | Packet.Udp _ | Packet.Tcp _ | Packet.Icmp _ | Packet.Raw_l4 _ -> ()))
