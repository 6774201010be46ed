(* hw_sim: event loop, PRNG, RSSI model, internet node, device basics *)

open Hw_packet
open Hw_sim

(* ------------------------------------------------------------------ *)
(* Event loop                                                          *)
(* ------------------------------------------------------------------ *)

let test_loop_ordering () =
  let loop = Event_loop.create () in
  let log = ref [] in
  Event_loop.at loop 3. (fun () -> log := "c" :: !log);
  Event_loop.at loop 1. (fun () -> log := "a" :: !log);
  Event_loop.at loop 2. (fun () -> log := "b" :: !log);
  Event_loop.run_until loop 10.;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at deadline" 10. (Event_loop.now loop)

let test_loop_same_time_fifo () =
  let loop = Event_loop.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Event_loop.at loop 1. (fun () -> log := i :: !log)
  done;
  Event_loop.run_until loop 1.;
  Alcotest.(check (list int)) "stable at same instant" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_loop_cascading () =
  let loop = Event_loop.create () in
  let fired = ref 0. in
  Event_loop.after loop 1. (fun () ->
      Event_loop.after loop 2. (fun () -> fired := Event_loop.now loop));
  Event_loop.run_until loop 5.;
  Alcotest.(check (float 1e-9)) "chained event time" 3. !fired

let test_loop_run_until_boundary () =
  let loop = Event_loop.create () in
  let count = ref 0 in
  Event_loop.at loop 5. (fun () -> incr count);
  Event_loop.at loop 5.0001 (fun () -> incr count);
  Event_loop.run_until loop 5.;
  Alcotest.(check int) "inclusive boundary" 1 !count;
  Alcotest.(check int) "later event pending" 1 (Event_loop.pending loop)

let test_loop_every () =
  let loop = Event_loop.create () in
  let count = ref 0 in
  Event_loop.every loop 1. (fun () -> incr count);
  Event_loop.run_until loop 5.5;
  Alcotest.(check int) "five firings" 5 !count

let test_loop_past_events_run_now () =
  let loop = Event_loop.create ~start:10. () in
  let at = ref 0. in
  Event_loop.at loop 1. (fun () -> at := Event_loop.now loop);
  ignore (Event_loop.step loop);
  Alcotest.(check (float 1e-9)) "clamped to now" 10. !at

let test_loop_every_survives_exception () =
  let metrics = Hw_metrics.Registry.create () in
  let loop = Event_loop.create ~metrics () in
  let fired = ref 0 in
  Event_loop.every loop 1. (fun () ->
      incr fired;
      if !fired <= 2 then failwith "boom");
  Event_loop.run_until loop 5.;
  Alcotest.(check int) "kept firing after the exceptions" 5 !fired;
  Alcotest.(check int) "exceptions counted" 2
    (Hw_metrics.Counter.value
       (Hw_metrics.Registry.counter metrics "event_loop_timer_errors_total"))

(* Model-based qcheck property for the event queue: run a random script
   of root events, each of which schedules further events from inside
   its handler (interleaved pushes and pops), and compare the observed
   firing order against a reference model that pops strictly by
   (time, insertion seq).  Equal timestamps are common by construction
   (integer times), so the FIFO tie-break is exercised heavily. *)
let prop_loop_pop_order =
  let script_gen =
    QCheck.(
      list_of_size (Gen.int_range 0 40) (pair (int_bound 9) (small_list (int_bound 3))))
  in
  let model_run roots =
    let seq = ref 0 in
    let q = ref [] in
    let push time label children =
      q := (time, !seq, label, children) :: !q;
      incr seq
    in
    List.iteri (fun i (t, cs) -> push t (Printf.sprintf "r%d" i) cs) roots;
    let order = ref [] in
    let rec go () =
      match List.sort compare !q with
      | [] -> ()
      | (time, s, label, children) :: _ ->
          q := List.filter (fun (_, s', _, _) -> s' <> s) !q;
          order := label :: !order;
          List.iteri
            (fun j d -> push (time + d) (Printf.sprintf "%s.%d" label j) [])
            children;
          go ()
    in
    go ();
    List.rev !order
  in
  let loop_run roots =
    let loop = Event_loop.create () in
    let order = ref [] in
    List.iteri
      (fun i (t, children) ->
        Event_loop.at loop (float_of_int t) (fun () ->
            order := Printf.sprintf "r%d" i :: !order;
            List.iteri
              (fun j d ->
                Event_loop.after loop (float_of_int d) (fun () ->
                    order := Printf.sprintf "r%d.%d" i j :: !order))
              children))
      roots;
    Event_loop.run_until loop 1000.;
    List.rev !order
  in
  QCheck.Test.make ~name:"events fire in (time, seq) order under interleaved scheduling"
    ~count:300 script_gen (fun roots -> loop_run roots = model_run roots)

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:1 in
  let xs = List.init 10 (fun _ -> Prng.float a) in
  let ys = List.init 10 (fun _ -> Prng.float b) in
  Alcotest.(check bool) "same seed, same stream" true (xs = ys);
  let c = Prng.create ~seed:2 in
  let zs = List.init 10 (fun _ -> Prng.float c) in
  Alcotest.(check bool) "different seed differs" false (xs = zs)

let test_prng_ranges () =
  let r = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let f = Prng.float r in
    if f < 0. || f >= 1. then Alcotest.fail "float out of range";
    let i = Prng.int r 7 in
    if i < 0 || i >= 7 then Alcotest.fail "int out of range";
    let e = Prng.exponential r ~mean:5. in
    if e < 0. then Alcotest.fail "exponential negative"
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int r 0))

let test_prng_exponential_mean () =
  let r = Prng.create ~seed:4 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Prng.exponential r ~mean:5.
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean close to 5" true (mean > 4.5 && mean < 5.5)

(* ------------------------------------------------------------------ *)
(* RSSI                                                                *)
(* ------------------------------------------------------------------ *)

let test_rssi_monotone_with_distance () =
  let p = Rssi.default_params in
  let r1 = Rssi.rssi_at p ~distance_m:1. in
  let r10 = Rssi.rssi_at p ~distance_m:10. in
  let r50 = Rssi.rssi_at p ~distance_m:50. in
  Alcotest.(check bool) "closer is stronger" true (r1 >= r10 && r10 >= r50);
  Alcotest.(check bool) "clamped" true (r1 <= -20 && r50 >= -100)

let test_rssi_quality_and_retries () =
  Alcotest.(check (float 0.01)) "strong quality" 1.0 (Rssi.quality (-40));
  Alcotest.(check (float 0.01)) "dead quality" 0.0 (Rssi.quality (-98));
  Alcotest.(check bool) "retry grows as signal fades" true
    (Rssi.retry_probability (-90) > Rssi.retry_probability (-60));
  Alcotest.(check (float 0.001)) "no loss when strong" 0. (Rssi.loss_probability (-50))

(* ------------------------------------------------------------------ *)
(* Internet node                                                       *)
(* ------------------------------------------------------------------ *)

let client_mac = Mac.local 1
let client_ip = Ip.of_octets 10 0 0 100

let make_internet () =
  let loop = Event_loop.create () in
  let received = ref [] in
  let net = Internet.create ~loop ~send:(fun frame -> received := frame :: !received) () in
  Internet.add_default_zone net;
  (loop, net, received)

let drain loop = Event_loop.run_for loop 1.

let decode_all frames = List.filter_map (fun f -> Result.to_option (Packet.decode f)) frames

let test_internet_proxy_arp () =
  let loop, net, received = make_internet () in
  let req =
    Packet.arp_packet ~src_mac:client_mac
      (Arp.request ~sender_mac:client_mac ~sender_ip:client_ip
         ~target_ip:(Ip.of_octets 93 184 216 10))
  in
  Internet.deliver net (Packet.encode req);
  drain loop;
  (match decode_all !received with
  | [ { Packet.l3 = Packet.Arp arp; _ } ] ->
      Alcotest.(check bool) "reply" true (arp.Arp.op = Arp.Reply);
      Alcotest.(check bool) "from internet mac" true (Mac.equal arp.Arp.sender_mac Internet.mac)
  | _ -> Alcotest.fail "no proxy-arp reply");
  (* LAN addresses are not proxied *)
  received := [];
  let req_lan =
    Packet.arp_packet ~src_mac:client_mac
      (Arp.request ~sender_mac:client_mac ~sender_ip:client_ip ~target_ip:(Ip.of_octets 10 0 0 1))
  in
  Internet.deliver net (Packet.encode req_lan);
  drain loop;
  Alcotest.(check int) "no reply for lan" 0 (List.length !received)

let test_internet_dns_authority () =
  let loop, net, received = make_internet () in
  let query = Dns_wire.query ~id:9 "www.facebook.com" Dns_wire.A in
  let pkt =
    Packet.udp_packet ~src_mac:client_mac ~dst_mac:Internet.mac ~src_ip:client_ip
      ~dst_ip:Internet.resolver_ip ~src_port:5353 ~dst_port:53 (Dns_wire.encode query)
  in
  Internet.deliver net (Packet.encode pkt);
  drain loop;
  (match decode_all !received with
  | [ { Packet.l3 = Packet.Ipv4 (_, Packet.Udp u); _ } ] -> (
      match Dns_wire.decode u.Udp.payload with
      | Ok resp ->
          Alcotest.(check int) "id echoed" 9 resp.Dns_wire.id;
          Alcotest.(check bool) "has answer" true (List.length resp.Dns_wire.answers = 1)
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "no dns answer");
  (* unknown name -> NXDOMAIN *)
  received := [];
  let query = Dns_wire.query ~id:10 "no.such.zone" Dns_wire.A in
  let pkt =
    Packet.udp_packet ~src_mac:client_mac ~dst_mac:Internet.mac ~src_ip:client_ip
      ~dst_ip:Internet.resolver_ip ~src_port:5353 ~dst_port:53 (Dns_wire.encode query)
  in
  Internet.deliver net (Packet.encode pkt);
  drain loop;
  match decode_all !received with
  | [ { Packet.l3 = Packet.Ipv4 (_, Packet.Udp u); _ } ] -> (
      match Dns_wire.decode u.Udp.payload with
      | Ok resp -> Alcotest.(check bool) "nxdomain" true (resp.Dns_wire.rcode = Dns_wire.Name_error)
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "no answer for unknown"

let test_internet_reverse_zone () =
  let loop, net, received = make_internet () in
  let fb = Option.get (Internet.lookup_zone net "www.facebook.com") in
  let query = Dns_wire.query ~id:11 (Dns_wire.reverse_name fb) Dns_wire.PTR in
  let pkt =
    Packet.udp_packet ~src_mac:client_mac ~dst_mac:Internet.mac ~src_ip:client_ip
      ~dst_ip:Internet.resolver_ip ~src_port:5353 ~dst_port:53 (Dns_wire.encode query)
  in
  Internet.deliver net (Packet.encode pkt);
  drain loop;
  match decode_all !received with
  | [ { Packet.l3 = Packet.Ipv4 (_, Packet.Udp u); _ } ] -> (
      match (Result.get_ok (Dns_wire.decode u.Udp.payload)).Dns_wire.answers with
      | [ { Dns_wire.rdata = Dns_wire.Ptr_data name; _ } ] ->
          Alcotest.(check bool) "ptr names a facebook host" true
            (name = "www.facebook.com" || name = "facebook.com")
      | _ -> Alcotest.fail "no PTR answer")
  | _ -> Alcotest.fail "no reverse answer"

let test_internet_tcp_behaviour () =
  let loop, net, received = make_internet () in
  let dst_ip = Option.get (Internet.lookup_zone net "www.example.com") in
  (* SYN -> SYN/ACK *)
  let syn =
    Packet.tcp_packet ~flags:Tcp.syn_flag ~src_mac:client_mac ~dst_mac:Internet.mac
      ~src_ip:client_ip ~dst_ip ~src_port:40000 ~dst_port:80 ""
  in
  Internet.deliver net (Packet.encode syn);
  drain loop;
  (match decode_all !received with
  | [ { Packet.l3 = Packet.Ipv4 (_, Packet.Tcp seg); _ } ] ->
      Alcotest.(check bool) "syn/ack" true (seg.Tcp.flags.Tcp.syn && seg.Tcp.flags.Tcp.ack)
  | _ -> Alcotest.fail "no syn/ack");
  (* data -> response sized by the port factor (80 -> 20x) *)
  received := [];
  let data =
    Packet.tcp_packet ~src_mac:client_mac ~dst_mac:Internet.mac ~src_ip:client_ip ~dst_ip
      ~src_port:40000 ~dst_port:80 (String.make 100 'q')
  in
  Internet.deliver net (Packet.encode data);
  Event_loop.run_for loop 2.;
  let response_bytes =
    List.fold_left
      (fun acc pkt ->
        match pkt.Packet.l3 with
        | Packet.Ipv4 (_, Packet.Tcp seg) -> acc + String.length seg.Tcp.payload
        | _ -> acc)
      0 (decode_all !received)
  in
  Alcotest.(check int) "20x response" 2000 response_bytes

(* [tx_bytes] counts each frame the node sends once, TCP responses
   included: one 100-byte segment to port 80 is answered with 2,000
   payload bytes in frames of 2,108 bytes in all (the payload used to
   be counted again, reading 4,108), and a 300-byte datagram to 5060
   with one frame of 342. *)
let test_internet_tx_bytes_counts_frames () =
  let dst_ip =
    let _, net, _ = make_internet () in
    Option.get (Internet.lookup_zone net "www.example.com")
  in
  List.iter
    (fun (name, request, frames) ->
      let loop, net, received = make_internet () in
      Internet.deliver net (Packet.encode request);
      Event_loop.run_for loop 2.;
      let sent = List.fold_left (fun acc f -> acc + String.length f) 0 !received in
      Alcotest.(check int) (name ^ ": bytes of the frames sent") frames sent;
      Alcotest.(check int) (name ^ ": tx_bytes") sent (Internet.tx_bytes net))
    [
      ( "tcp",
        Packet.tcp_packet ~src_mac:client_mac ~dst_mac:Internet.mac ~src_ip:client_ip ~dst_ip
          ~src_port:40000 ~dst_port:80 (String.make 100 'q'),
        2108 );
      ( "udp",
        Packet.udp_packet ~src_mac:client_mac ~dst_mac:Internet.mac ~src_ip:client_ip ~dst_ip
          ~src_port:40000 ~dst_port:5060 (String.make 300 'u'),
        342 );
    ]

let test_internet_icmp_echo () =
  let loop, net, received = make_internet () in
  let dst_ip = Ip.of_octets 93 184 216 99 in
  let ping =
    Packet.icmp_echo ~src_mac:client_mac ~dst_mac:Internet.mac ~src_ip:client_ip ~dst_ip ~id:1
      ~seq:1
  in
  Internet.deliver net (Packet.encode ping);
  drain loop;
  match decode_all !received with
  | [ { Packet.l3 = Packet.Ipv4 (ip, Packet.Icmp icmp); _ } ] ->
      Alcotest.(check int) "echo reply" 0 icmp.Icmp.typ;
      Alcotest.(check bool) "from pinged address" true (Ip.equal ip.Ipv4.src dst_ip)
  | _ -> Alcotest.fail "no echo reply"

(* Data frames are answered from the fields read in place: the reply
   goes to the sender's MAC and address, from the address it was sent
   to, ports swapped, sized by the port's factor. *)
let with_ip_options (pkt : Packet.t) =
  match pkt.Packet.l3 with
  | Packet.Ipv4 (ip, l4) ->
      { pkt with Packet.l3 = Packet.Ipv4 ({ ip with Ipv4.options = "\001\001\001\000" }, l4) }
  | Packet.Arp _ | Packet.Raw_l3 _ -> pkt

let test_internet_answers_data_frames () =
  let loop, net, received = make_internet () in
  let sip = Option.get (Internet.lookup_zone net "sip.example.com") in
  Internet.deliver net
    (Packet.encode
       (Packet.udp_packet ~src_mac:client_mac ~dst_mac:Internet.mac ~src_ip:client_ip ~dst_ip:sip
          ~src_port:40001 ~dst_port:5060 (String.make 300 'u')));
  drain loop;
  (match decode_all !received with
  | [ { Packet.eth; l3 = Packet.Ipv4 (ip, Packet.Udp u) } ] ->
      Alcotest.(check bool) "to the sender's MAC" true (Mac.equal eth.Ethernet.dst client_mac);
      Alcotest.(check bool) "from the address sent to" true (Ip.equal ip.Ipv4.src sip);
      Alcotest.(check bool) "to the sender" true (Ip.equal ip.Ipv4.dst client_ip);
      Alcotest.(check (pair int int))
        "ports swapped" (5060, 40001) (u.Udp.src_port, u.Udp.dst_port);
      Alcotest.(check int) "1x response" 300 (String.length u.Udp.payload)
  | _ -> Alcotest.fail "no UDP reply");
  (* a TCP segment whose IPv4 header carries options *)
  received := [];
  let web = Option.get (Internet.lookup_zone net "www.example.com") in
  let segment ?flags ?seq payload =
    Packet.encode
      (with_ip_options
         (Packet.tcp_packet ?flags ?seq ~src_mac:client_mac ~dst_mac:Internet.mac ~src_ip:client_ip
            ~dst_ip:web ~src_port:40002 ~dst_port:80 payload))
  in
  Internet.deliver net (segment ~flags:Tcp.syn_flag ~seq:1000l "");
  drain loop;
  (match decode_all !received with
  | [ { Packet.l3 = Packet.Ipv4 (ip, Packet.Tcp seg); _ } ] ->
      Alcotest.(check bool) "syn/ack" true (seg.Tcp.flags.Tcp.syn && seg.Tcp.flags.Tcp.ack);
      Alcotest.(check int32) "acks seq + 1" 1001l seg.Tcp.ack_no;
      Alcotest.(check (pair int int))
        "ports swapped" (80, 40002) (seg.Tcp.src_port, seg.Tcp.dst_port);
      Alcotest.(check bool) "from the server" true (Ip.equal ip.Ipv4.src web)
  | _ -> Alcotest.fail "no syn/ack");
  received := [];
  Internet.deliver net (segment (String.make 100 'q'));
  Event_loop.run_for loop 2.;
  let response_bytes =
    List.fold_left
      (fun acc pkt ->
        match pkt.Packet.l3 with
        | Packet.Ipv4 (_, Packet.Tcp seg) -> acc + String.length seg.Tcp.payload
        | _ -> acc)
      0 (decode_all !received)
  in
  Alcotest.(check int) "20x response to the payload past the options" 2000 response_bytes

(* A fragment is not parsed and a frame with a bad IP header checksum
   does not decode: neither is answered, as neither was when every
   frame went through [Packet.decode]. *)
let test_internet_ignores_fragments_and_bad_checksums () =
  let loop, net, received = make_internet () in
  let sip = Option.get (Internet.lookup_zone net "sip.example.com") in
  let udp =
    Packet.udp_packet ~src_mac:client_mac ~dst_mac:Internet.mac ~src_ip:client_ip ~dst_ip:sip
      ~src_port:40001 ~dst_port:5060 (String.make 300 'u')
  in
  let fragment =
    match udp.Packet.l3 with
    | Packet.Ipv4 (ip, l4) ->
        Packet.encode
          {
            udp with
            Packet.l3 =
              Packet.Ipv4 ({ ip with Ipv4.more_fragments = true; dont_fragment = false }, l4);
          }
    | Packet.Arp _ | Packet.Raw_l3 _ -> assert false
  in
  let bad_checksum = Bytes.of_string (Packet.encode udp) in
  Bytes.set_uint8 bad_checksum 25 (Bytes.get_uint8 bad_checksum 25 lxor 1);
  Internet.deliver net fragment;
  Internet.deliver net (Bytes.to_string bad_checksum);
  drain loop;
  Alcotest.(check int) "no reply" 0 (List.length !received);
  Alcotest.(check int) "both received" (2 * String.length fragment) (Internet.rx_bytes net)

(* ------------------------------------------------------------------ *)
(* Device against a scripted wire                                      *)
(* ------------------------------------------------------------------ *)

let test_device_dhcp_against_script () =
  let loop = Event_loop.create () in
  let sent = ref [] in
  let device =
    Device.create
      ~config:(Device.wired ~name:"probe" ~mac:client_mac [])
      ~loop
      ~send:(fun frame -> sent := frame :: !sent)
      ()
  in
  Device.start device;
  Event_loop.run_for loop 0.1;
  (* expect a DISCOVER *)
  let discover =
    match decode_all !sent with
    | [ { Packet.l3 = Packet.Ipv4 (_, Packet.Udp u); _ } ] ->
        Result.get_ok (Dhcp_wire.decode u.Udp.payload)
    | _ -> Alcotest.fail "no discover"
  in
  Alcotest.(check bool) "discover" true
    (Dhcp_wire.find_message_type discover = Some Dhcp_wire.Discover);
  Alcotest.(check bool) "hostname option" true
    (Dhcp_wire.find_hostname discover = Some "probe");
  (* script an OFFER back *)
  sent := [];
  let server_ip = Ip.of_octets 10 0 0 1 in
  let yiaddr = Ip.of_octets 10 0 0 123 in
  let offer =
    Dhcp_wire.make_reply
      ~options:
        [
          Dhcp_wire.Server_id server_ip;
          Dhcp_wire.Lease_time 60l;
          Dhcp_wire.Dns_servers [ server_ip ];
        ]
      ~xid:discover.Dhcp_wire.xid ~chaddr:client_mac ~yiaddr ~siaddr:server_ip Dhcp_wire.Offer
  in
  Device.deliver device
    (Packet.encode
       (Packet.dhcp_packet ~src_mac:(Mac.local 0xaa) ~dst_mac:Mac.broadcast ~src_ip:server_ip
          ~dst_ip:Ip.broadcast offer));
  (* expect a REQUEST *)
  let request =
    match decode_all !sent with
    | [ { Packet.l3 = Packet.Ipv4 (_, Packet.Udp u); _ } ] ->
        Result.get_ok (Dhcp_wire.decode u.Udp.payload)
    | _ -> Alcotest.fail "no request"
  in
  Alcotest.(check bool) "request" true
    (Dhcp_wire.find_message_type request = Some Dhcp_wire.Request);
  Alcotest.(check bool) "requests offered ip" true
    (Dhcp_wire.find_requested_ip request = Some yiaddr);
  (* ACK binds the device *)
  let ack = { offer with Dhcp_wire.options = Dhcp_wire.Message_type Dhcp_wire.Ack :: List.tl offer.Dhcp_wire.options } in
  Device.deliver device
    (Packet.encode
       (Packet.dhcp_packet ~src_mac:(Mac.local 0xaa) ~dst_mac:Mac.broadcast ~src_ip:server_ip
          ~dst_ip:Ip.broadcast ack));
  Alcotest.(check bool) "bound" true (Device.dhcp_state device = Device.Bound);
  Alcotest.(check bool) "ip" true (Device.ip device = Some yiaddr)

let test_device_nak_denies_and_retries () =
  let loop = Event_loop.create () in
  let sent = ref [] in
  let device =
    Device.create
      ~config:(Device.wired ~name:"probe" ~mac:client_mac [])
      ~loop
      ~send:(fun frame -> sent := frame :: !sent)
      ()
  in
  let denied = ref 0 in
  Device.on_denied device (fun () -> incr denied);
  Device.start device;
  Event_loop.run_for loop 0.1;
  let discover =
    match decode_all !sent with
    | [ { Packet.l3 = Packet.Ipv4 (_, Packet.Udp u); _ } ] ->
        Result.get_ok (Dhcp_wire.decode u.Udp.payload)
    | _ -> Alcotest.fail "no discover"
  in
  sent := [];
  (* the device in Selecting state receives a NAK... it ignores it and only
     handles OFFER; send an OFFER then NAK the REQUEST *)
  let server_ip = Ip.of_octets 10 0 0 1 in
  let offer =
    Dhcp_wire.make_reply
      ~options:[ Dhcp_wire.Server_id server_ip ]
      ~xid:discover.Dhcp_wire.xid ~chaddr:client_mac ~yiaddr:(Ip.of_octets 10 0 0 50)
      ~siaddr:server_ip Dhcp_wire.Offer
  in
  Device.deliver device
    (Packet.encode
       (Packet.dhcp_packet ~src_mac:(Mac.local 0xaa) ~dst_mac:Mac.broadcast ~src_ip:server_ip
          ~dst_ip:Ip.broadcast offer));
  let nak =
    Dhcp_wire.make_reply
      ~options:[ Dhcp_wire.Server_id server_ip ]
      ~xid:discover.Dhcp_wire.xid ~chaddr:client_mac ~yiaddr:Ip.any ~siaddr:server_ip
      Dhcp_wire.Nak
  in
  Device.deliver device
    (Packet.encode
       (Packet.dhcp_packet ~src_mac:(Mac.local 0xaa) ~dst_mac:Mac.broadcast ~src_ip:server_ip
          ~dst_ip:Ip.broadcast nak));
  Alcotest.(check bool) "denied state" true (Device.dhcp_state device = Device.Denied);
  Alcotest.(check int) "denied callback" 1 !denied;
  (* after the 30 s backoff the device discovers again *)
  sent := [];
  Event_loop.run_for loop 31.;
  Alcotest.(check bool) "retries" true (List.length !sent > 0)

let test_device_wireless_stats () =
  let loop = Event_loop.create () in
  let device =
    Device.create ~seed:5
      ~config:(Device.wireless ~distance_m:40. ~name:"far" ~mac:client_mac [])
      ~loop
      ~send:(fun _ -> ())
      ()
  in
  Alcotest.(check bool) "has rssi" true (Device.rssi device <> None);
  Device.set_distance device 2.;
  let near = Option.get (Device.rssi device) in
  Device.set_distance device 60.;
  let far = Option.get (Device.rssi device) in
  Alcotest.(check bool) "near stronger" true (near > far)

(* A station parses only frames addressed to it (or broadcast): a who-has
   for its own address, unicast to another MAC on the shared medium, is
   neither counted nor answered. *)
let test_device_ignores_other_stations_frames () =
  let loop = Event_loop.create () in
  let sent = ref [] in
  let device =
    Device.create
      ~config:(Device.wired ~name:"station" ~mac:client_mac [])
      ~loop
      ~send:(fun frame -> sent := frame :: !sent)
      ()
  in
  Device.start device;
  Event_loop.run_for loop 0.1;
  let xid =
    match decode_all !sent with
    | [ { Packet.l3 = Packet.Ipv4 (_, Packet.Udp u); _ } ] ->
        (Result.get_ok (Dhcp_wire.decode u.Udp.payload)).Dhcp_wire.xid
    | _ -> Alcotest.fail "no discover"
  in
  let server_mac = Mac.local 0xaa and server_ip = Ip.of_octets 10 0 0 1 in
  let yiaddr = Ip.of_octets 10 0 0 77 in
  let reply kind =
    Packet.encode
      (Packet.dhcp_packet ~src_mac:server_mac ~dst_mac:Mac.broadcast ~src_ip:server_ip
         ~dst_ip:Ip.broadcast
         (Dhcp_wire.make_reply ~options:[ Dhcp_wire.Server_id server_ip ] ~xid ~chaddr:client_mac
            ~yiaddr ~siaddr:server_ip kind))
  in
  Device.deliver device (reply Dhcp_wire.Offer);
  Device.deliver device (reply Dhcp_wire.Ack);
  Alcotest.(check bool) "bound" true (Device.ip device = Some yiaddr);
  let who_has ~dst =
    let pkt =
      Packet.arp_packet ~src_mac:server_mac
        (Arp.request ~sender_mac:server_mac ~sender_ip:server_ip ~target_ip:yiaddr)
    in
    Packet.encode { pkt with Packet.eth = { pkt.Packet.eth with Ethernet.dst } }
  in
  let rx () = (Device.stats device).Device.rx_packets in
  let before = rx () in
  sent := [];
  Device.deliver device (who_has ~dst:(Mac.local 2));
  Alcotest.(check int) "not counted" before (rx ());
  Alcotest.(check int) "not answered" 0 (List.length !sent);
  Device.deliver device (who_has ~dst:client_mac);
  Alcotest.(check int) "counted when addressed to it" (before + 1) (rx ());
  match decode_all !sent with
  | [ { Packet.l3 = Packet.Arp { Arp.op = Arp.Reply; _ }; _ } ] -> ()
  | _ -> Alcotest.fail "no ARP reply when addressed to it"

(* A device on a scripted wire: a server at 10.0.0.1 answers its DHCP
   messages and DNS queries 1 ms later (a lease too long to renew here;
   every name resolves to [stream_ip]) and every ARP request at once.
   [data] holds the send instants of the device's UDP frames to 5060,
   newest first; [dns_answered] the instant the last DNS answer was
   delivered. *)
type wire = {
  loop : Event_loop.t;
  device : Device.t;
  data : float list ref;
  dns_answered : float ref;
}

let server_mac = Mac.local 0xaa
let server_ip = Ip.of_octets 10 0 0 1
let lease_ip = Ip.of_octets 10 0 0 77
let stream_ip = Ip.of_octets 93 184 216 12

let scripted_device apps =
  let loop = Event_loop.create () in
  let data = ref [] and dns_answered = ref nan and device = ref None in
  let deliver frame = Device.deliver (Option.get !device) frame in
  let later f = Event_loop.after loop 0.001 f in
  let answer frame =
    match Packet.decode frame with
    | Ok { Packet.l3 = Packet.Arp ({ Arp.op = Arp.Request; _ } as req); _ } ->
        deliver
          (Packet.encode
             (Packet.arp_packet ~src_mac:server_mac (Arp.reply_to req ~responder_mac:server_mac)))
    | Ok { Packet.l3 = Packet.Ipv4 (_, Packet.Udp u); _ }
      when u.Udp.dst_port = Dhcp_wire.server_port -> (
        let req = Result.get_ok (Dhcp_wire.decode u.Udp.payload) in
        let reply kind =
          later (fun () ->
              deliver
                (Packet.encode
                   (Packet.dhcp_packet ~src_mac:server_mac ~dst_mac:Mac.broadcast ~src_ip:server_ip
                      ~dst_ip:Ip.broadcast
                      (Dhcp_wire.make_reply
                         ~options:
                           [
                             Dhcp_wire.Server_id server_ip;
                             Dhcp_wire.Lease_time 1_000_000l;
                             Dhcp_wire.Dns_servers [ server_ip ];
                           ]
                         ~xid:req.Dhcp_wire.xid ~chaddr:client_mac ~yiaddr:lease_ip
                         ~siaddr:server_ip kind))))
        in
        match Dhcp_wire.find_message_type req with
        | Some Dhcp_wire.Discover -> reply Dhcp_wire.Offer
        | Some Dhcp_wire.Request -> reply Dhcp_wire.Ack
        | _ -> ())
    | Ok { Packet.l3 = Packet.Ipv4 (_, Packet.Udp u); _ } when u.Udp.dst_port = 53 ->
        let query = Result.get_ok (Dns_wire.decode u.Udp.payload) in
        let qname = (List.hd query.Dns_wire.questions).Dns_wire.qname in
        let resp = Dns_wire.response ~answers:[ Dns_wire.a_record qname stream_ip ] query in
        later (fun () ->
            dns_answered := Event_loop.now loop;
            deliver
              (Packet.encode
                 (Packet.dns_response_packet ~src_mac:server_mac ~dst_mac:client_mac
                    ~src_ip:server_ip ~dst_ip:lease_ip ~dst_port:u.Udp.src_port resp)))
    | Ok { Packet.l3 = Packet.Ipv4 (_, Packet.Udp u); _ } when u.Udp.dst_port = 5060 ->
        data := Event_loop.now loop :: !data
    | _ -> ()
  in
  let d =
    Device.create
      ~config:(Device.wired ~name:"streamer" ~mac:client_mac apps)
      ~loop ~send:answer ()
  in
  device := Some d;
  Device.start d;
  { loop; device = d; data; dns_answered }

(* 780 packets of 100 bytes over 10 s, and sessions rare enough that the
   first one starts well after the lease is bound and no second one
   starts within these tests *)
let stream_app =
  {
    App_profile.voip with
    App_profile.app_name = "stream";
    session_mean_interval = 10_000.;
    session_duration = 10.;
    request_bytes = 78_000;
    packet_size = 100;
  }

let packets = 780
let spacing = 10. /. float_of_int packets

(* bound, past the DHCP request's timeout, and before the first session:
   the events pending now (the next session's start, the renewal) are
   the device's own, not a session's *)
let idle_stream_device () =
  let w = scripted_device [ stream_app ] in
  Event_loop.run_for w.loop 10.;
  Alcotest.(check bool) "bound" true (Device.dhcp_state w.device = Device.Bound);
  Alcotest.(check int) "no session yet" 0 (List.length !(w.data));
  (w, Event_loop.pending w.loop)

let step_until w n =
  let most = ref 0 in
  while List.length !(w.data) < n do
    ignore (Event_loop.step w.loop);
    if !(w.data) <> [] then most := max !most (Event_loop.pending w.loop)
  done;
  !most

(* A session keeps one pending event (plus its DNS lookup's timeout for
   the first 5 s), and each packet leaves at exactly [t0 + spacing * i],
   [t0] being the instant the lookup was answered. *)
let test_session_keeps_one_event () =
  let w, idle = idle_stream_device () in
  let most = step_until w packets in
  Alcotest.(check bool)
    (Printf.sprintf "%d events pending during the session, %d before it" most idle)
    true
    (most <= idle + 2);
  let t0 = !(w.dns_answered) in
  List.iteri
    (fun i at ->
      Alcotest.(check (float 0.)) (Printf.sprintf "packet %d" (i + 1))
        (t0 +. (spacing *. float_of_int (i + 1)))
        at)
    (List.rev !(w.data));
  Event_loop.run_for w.loop 10.;
  Alcotest.(check int) "only the device's own events after it" idle (Event_loop.pending w.loop)

(* A device stopped mid-session sends nothing more, and once the
   session's next packet instant has passed none of its events is left. *)
let test_stopped_session_ends () =
  let w, idle = idle_stream_device () in
  ignore (step_until w 400);
  Device.stop w.device;
  Event_loop.run_until w.loop (!(w.dns_answered) +. (spacing *. 401.));
  Alcotest.(check int) "no packet after the stop" 400 (List.length !(w.data));
  Alcotest.(check int) "no event of the session pending" idle (Event_loop.pending w.loop)

(* A data frame is counted from its bytes in place; one whose IP header
   checksum fails does not decode and is not counted, as before. *)
let test_device_counts_data_frames () =
  let w = scripted_device [] in
  Event_loop.run_for w.loop 1.;
  let st = Device.stats w.device in
  let rx () = (st.Device.rx_packets, st.Device.rx_bytes) in
  let before_packets, before_bytes = rx () in
  let udp =
    Packet.encode
      (Packet.udp_packet ~src_mac:server_mac ~dst_mac:client_mac ~src_ip:stream_ip ~dst_ip:lease_ip
         ~src_port:5060 ~dst_port:40001 (String.make 300 'd'))
  in
  let tcp =
    Packet.encode
      (with_ip_options
         (Packet.tcp_packet ~src_mac:server_mac ~dst_mac:client_mac ~src_ip:stream_ip
            ~dst_ip:lease_ip ~src_port:80 ~dst_port:40002 (String.make 200 'd')))
  in
  Device.deliver w.device udp;
  Device.deliver w.device tcp;
  Alcotest.(check (pair int int)) "both counted"
    (before_packets + 2, before_bytes + String.length udp + String.length tcp)
    (rx ());
  let corrupt = Bytes.of_string udp in
  Bytes.set_uint8 corrupt 25 (Bytes.get_uint8 corrupt 25 lxor 1);
  Device.deliver w.device (Bytes.to_string corrupt);
  Alcotest.(check (pair int int)) "corrupt frame not counted"
    (before_packets + 2, before_bytes + String.length udp + String.length tcp)
    (rx ())

(* ------------------------------------------------------------------ *)
(* Delay line                                                          *)
(* ------------------------------------------------------------------ *)

let test_delay_line_batches () =
  let loop = Event_loop.create () in
  let got = ref [] in
  let line =
    Delay_line.create ~loop ~delay:0.5 ~deliver:(fun items ->
        got := (Event_loop.now loop, items) :: !got)
  in
  List.iter (Delay_line.push line) [ 1; 2; 3 ];
  Alcotest.(check int) "one batch for one instant" 1 (Delay_line.pending_batches line);
  Event_loop.run_until loop 0.25;
  Delay_line.push line 4;
  Alcotest.(check int) "a later push opens a second" 2 (Delay_line.pending_batches line);
  Event_loop.run_until loop 0.5;
  Alcotest.(check (list (pair (float 0.) (list int)))) "first batch, in push order"
    [ (0.5, [ 1; 2; 3 ]) ] (List.rev !got);
  Alcotest.(check int) "second still pending" 1 (Delay_line.pending_batches line);
  Event_loop.run_until loop 1.;
  Alcotest.(check (list (pair (float 0.) (list int)))) "each at its first item's instant"
    [ (0.5, [ 1; 2; 3 ]); (0.75, [ 4 ]) ]
    (List.rev !got);
  Alcotest.(check int) "none pending" 0 (Delay_line.pending_batches line)

(* With no delay a batch flushes at the instant it opened; a push made
   after that (here from its own delivery) opens a new batch. *)
let test_delay_line_zero_delay () =
  let loop = Event_loop.create ~start:1. () in
  let got = ref [] and line = ref None in
  let deliver items =
    got := (Event_loop.now loop, items) :: !got;
    if items = [ "a"; "b" ] then Delay_line.push (Option.get !line) "c"
  in
  line := Some (Delay_line.create ~loop ~delay:0. ~deliver);
  Delay_line.push (Option.get !line) "a";
  Delay_line.push (Option.get !line) "b";
  Event_loop.run_until loop 1.;
  Alcotest.(check (list (pair (float 0.) (list string)))) "two batches at one instant"
    [ (1., [ "a"; "b" ]); (1., [ "c" ]) ]
    (List.rev !got);
  Alcotest.(check int) "none pending" 0 (Delay_line.pending_batches (Option.get !line))

let () =
  Alcotest.run "hw_sim"
    [
      ( "event_loop",
        [
          Alcotest.test_case "ordering" `Quick test_loop_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_loop_same_time_fifo;
          Alcotest.test_case "cascading" `Quick test_loop_cascading;
          Alcotest.test_case "run_until boundary" `Quick test_loop_run_until_boundary;
          Alcotest.test_case "every" `Quick test_loop_every;
          Alcotest.test_case "past events" `Quick test_loop_past_events_run_now;
          Alcotest.test_case "every survives exceptions" `Quick
            test_loop_every_survives_exception;
          QCheck_alcotest.to_alcotest prop_loop_pop_order;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "ranges" `Quick test_prng_ranges;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
        ] );
      ( "rssi",
        [
          Alcotest.test_case "monotone" `Quick test_rssi_monotone_with_distance;
          Alcotest.test_case "quality/retries" `Quick test_rssi_quality_and_retries;
        ] );
      ( "internet",
        [
          Alcotest.test_case "proxy arp" `Quick test_internet_proxy_arp;
          Alcotest.test_case "dns authority" `Quick test_internet_dns_authority;
          Alcotest.test_case "reverse zone" `Quick test_internet_reverse_zone;
          Alcotest.test_case "tcp behaviour" `Quick test_internet_tcp_behaviour;
          Alcotest.test_case "icmp echo" `Quick test_internet_icmp_echo;
          Alcotest.test_case "tx_bytes counts each frame once" `Quick
            test_internet_tx_bytes_counts_frames;
          Alcotest.test_case "answers data frames" `Quick test_internet_answers_data_frames;
          Alcotest.test_case "ignores fragments, bad checksums" `Quick
            test_internet_ignores_fragments_and_bad_checksums;
        ] );
      ( "device",
        [
          Alcotest.test_case "dhcp against script" `Quick test_device_dhcp_against_script;
          Alcotest.test_case "nak denies + retries" `Quick test_device_nak_denies_and_retries;
          Alcotest.test_case "wireless stats" `Quick test_device_wireless_stats;
          Alcotest.test_case "ignores other stations' frames" `Quick
            test_device_ignores_other_stations_frames;
          Alcotest.test_case "counts data frames" `Quick test_device_counts_data_frames;
          Alcotest.test_case "session keeps one event" `Quick test_session_keeps_one_event;
          Alcotest.test_case "stopped session ends" `Quick test_stopped_session_ends;
        ] );
      ( "delay_line",
        [
          Alcotest.test_case "batches" `Quick test_delay_line_batches;
          Alcotest.test_case "zero delay" `Quick test_delay_line_zero_delay;
        ] );
    ]
