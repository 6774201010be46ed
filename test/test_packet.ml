(* hw_packet: addresses, Ethernet/ARP/IPv4/UDP/TCP/ICMP and DHCP codecs *)

open Hw_packet

let mac_a = Mac.of_string_exn "aa:bb:cc:dd:ee:ff"
let mac_b = Mac.of_string_exn "02:00:00:00:00:01"
let ip_a = Ip.of_octets 10 0 0 5
let ip_b = Ip.of_octets 93 184 216 34

let ok = function Ok v -> v | Error e -> Alcotest.failf "decode failed: %s" e

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)
(* ------------------------------------------------------------------ *)

let test_mac_parse_print () =
  Alcotest.(check string) "roundtrip" "aa:bb:cc:dd:ee:ff" (Mac.to_string mac_a);
  Alcotest.(check bool) "dash separated" true
    (Mac.of_string "AA-BB-CC-DD-EE-FF" = Some mac_a);
  Alcotest.(check bool) "bad length" true (Mac.of_string "aa:bb:cc" = None);
  Alcotest.(check bool) "bad hex" true (Mac.of_string "zz:bb:cc:dd:ee:ff" = None)

let test_mac_properties () =
  Alcotest.(check bool) "broadcast" true (Mac.is_broadcast Mac.broadcast);
  Alcotest.(check bool) "multicast bit" true (Mac.is_multicast (Mac.of_string_exn "01:00:5e:00:00:01"));
  Alcotest.(check bool) "unicast" false (Mac.is_multicast mac_b);
  Alcotest.(check int64) "int64 roundtrip" (Mac.to_int64 mac_a)
    (Mac.to_int64 (Mac.of_int64 (Mac.to_int64 mac_a)));
  Alcotest.(check bool) "local distinct" false (Mac.equal (Mac.local 1) (Mac.local 2))

let test_ip_parse_print () =
  Alcotest.(check string) "print" "10.0.0.5" (Ip.to_string ip_a);
  Alcotest.(check bool) "parse" true (Ip.of_string "10.0.0.5" = Some ip_a);
  Alcotest.(check bool) "octet range" true (Ip.of_string "256.0.0.1" = None);
  Alcotest.(check bool) "too few" true (Ip.of_string "10.0.0" = None);
  Alcotest.(check string) "high bit" "255.255.255.255" (Ip.to_string Ip.broadcast)

(* Octets and prefix lengths are plain decimal: OCaml literal syntax (hex,
   octal, binary, underscores, signs) and leading zeros are refused, so
   each address has one spelling. MAC bytes are two hex digits each. *)
let test_strict_parsing () =
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " rejected") true (Ip.of_string s = None))
    [
      "0x0a.0.0.1"; "0o12.0.0.1"; "0b1.0.0.1"; "1_0.0.0.1"; "+10.0.0.1"; "-0.0.0.0";
      "010.0.0.1"; "10.0.0.00"; "10.0.0.0255"; "10.0.0."; "10..0.1"; " 10.0.0.1"; "10.0.0.1 ";
    ];
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " rejected") true (Ip.Prefix.of_string s = None))
    [ "10.0.0.0/0x18"; "10.0.0.0/+24"; "10.0.0.0/024"; "10.0.0.0/2_4"; "10.0.0.0/33"; "10.0.0.0/" ];
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " rejected") true (Mac.of_string s = None))
    [ "_a:bb:cc:dd:ee:ff"; "aa:bb:cc:dd:ee:_f"; "+1:bb:cc:dd:ee:ff"; "aa:bb:cc:dd:ee:f" ];
  Alcotest.(check bool) "0.0.0.0" true (Ip.of_string "0.0.0.0" = Some Ip.any);
  Alcotest.(check bool) "/0" true
    (Option.map Ip.Prefix.bits (Ip.Prefix.of_string "0.0.0.0/0") = Some 0);
  Alcotest.(check bool) "upper-case hex" true (Mac.of_string "AA:BB:CC:DD:EE:FF" = Some mac_a)

let test_ip_arith () =
  Alcotest.(check string) "succ" "10.0.0.6" (Ip.to_string (Ip.succ ip_a));
  Alcotest.(check string) "add" "10.0.0.15" (Ip.to_string (Ip.add ip_a 10));
  Alcotest.(check int) "diff" 10 (Ip.diff (Ip.add ip_a 10) ip_a);
  (* unsigned compare across the sign boundary *)
  Alcotest.(check bool) "unsigned order" true (Ip.compare (Ip.of_octets 200 0 0 1) (Ip.of_octets 10 0 0 1) > 0)

let test_prefix () =
  let p = Option.get (Ip.Prefix.of_string "192.168.1.0/24") in
  Alcotest.(check string) "print" "192.168.1.0/24" (Ip.Prefix.to_string p);
  Alcotest.(check bool) "mem inside" true (Ip.Prefix.mem (Ip.of_octets 192 168 1 77) p);
  Alcotest.(check bool) "mem outside" false (Ip.Prefix.mem (Ip.of_octets 192 168 2 1) p);
  Alcotest.(check string) "netmask" "255.255.255.0" (Ip.to_string (Ip.Prefix.netmask p));
  Alcotest.(check string) "broadcast" "192.168.1.255" (Ip.to_string (Ip.Prefix.broadcast_addr p));
  Alcotest.(check string) "host" "192.168.1.3" (Ip.to_string (Ip.Prefix.host p 3));
  Alcotest.(check bool) "host bits zeroed" true
    (Ip.Prefix.of_string "192.168.1.99/24"
    |> Option.map Ip.Prefix.network
    = Some (Ip.of_octets 192 168 1 0));
  Alcotest.check_raises "host out of range" (Invalid_argument "Ip.Prefix.host") (fun () ->
      ignore (Ip.Prefix.host p 255))

(* ------------------------------------------------------------------ *)
(* Frame codecs                                                        *)
(* ------------------------------------------------------------------ *)

let test_ethernet_roundtrip () =
  let f = { Ethernet.dst = mac_a; src = mac_b; ethertype = 0x0800; payload = "hello" } in
  let f' = ok (Ethernet.decode (Ethernet.encode f)) in
  Alcotest.(check string) "payload" "hello" f'.Ethernet.payload;
  Alcotest.(check bool) "dst" true (Mac.equal mac_a f'.Ethernet.dst);
  Alcotest.(check int) "type" 0x0800 f'.Ethernet.ethertype

let test_ethernet_truncated () =
  match Ethernet.decode "short" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error on truncated frame"

let test_arp_roundtrip () =
  let req = Arp.request ~sender_mac:mac_a ~sender_ip:ip_a ~target_ip:ip_b in
  let req' = ok (Arp.decode (Arp.encode req)) in
  Alcotest.(check bool) "op" true (req'.Arp.op = Arp.Request);
  Alcotest.(check bool) "target" true (Ip.equal ip_b req'.Arp.target_ip);
  let rep = Arp.reply_to req ~responder_mac:mac_b in
  Alcotest.(check bool) "reply swaps" true (Ip.equal ip_a rep.Arp.target_ip);
  Alcotest.(check bool) "reply claims target ip" true (Ip.equal ip_b rep.Arp.sender_ip);
  let rep' = ok (Arp.decode (Arp.encode rep)) in
  Alcotest.(check bool) "reply op" true (rep'.Arp.op = Arp.Reply)

let test_ipv4_roundtrip_and_checksum () =
  let ip = Ipv4.make ~ttl:17 ~protocol:Ipv4.proto_udp ~src:ip_a ~dst:ip_b "payload!" in
  let bytes = Ipv4.encode ip in
  let ip' = ok (Ipv4.decode bytes) in
  Alcotest.(check int) "ttl" 17 ip'.Ipv4.ttl;
  Alcotest.(check string) "payload" "payload!" ip'.Ipv4.payload;
  (* flip a header byte: checksum must catch it *)
  let corrupted = Bytes.of_string bytes in
  Bytes.set corrupted 8 '\xEE';
  match Ipv4.decode (Bytes.to_string corrupted) with
  | Error msg -> Alcotest.(check bool) "checksum error" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "corrupted header accepted"

let test_udp_roundtrip_checksum () =
  let ip = Ipv4.make ~protocol:Ipv4.proto_udp ~src:ip_a ~dst:ip_b "" in
  let u = { Udp.src_port = 1234; dst_port = 53; payload = "query" } in
  let ph = Ipv4.pseudo_header ip (Udp.header_size + 5) in
  let bytes = Udp.encode u ~pseudo_header:ph in
  let u' = ok (Udp.decode ~pseudo_header:ph bytes) in
  Alcotest.(check int) "dst port" 53 u'.Udp.dst_port;
  Alcotest.(check string) "payload" "query" u'.Udp.payload;
  (* corrupt payload -> checksum failure *)
  let corrupted = Bytes.of_string bytes in
  Bytes.set corrupted (Bytes.length corrupted - 1) 'X';
  (match Udp.decode ~pseudo_header:ph (Bytes.to_string corrupted) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad checksum accepted");
  (* zero checksum is always accepted *)
  let nocsum = Udp.encode_nochecksum u in
  ignore (ok (Udp.decode ~pseudo_header:ph nocsum))

let test_tcp_roundtrip () =
  let seg = Tcp.make ~seq:1000l ~flags:Tcp.syn_flag ~src_port:40000 ~dst_port:80 "" in
  let ip = Ipv4.make ~protocol:Ipv4.proto_tcp ~src:ip_a ~dst:ip_b "" in
  let ph = Ipv4.pseudo_header ip 20 in
  let seg' = ok (Tcp.decode ~pseudo_header:ph (Tcp.encode seg ~pseudo_header:ph)) in
  Alcotest.(check bool) "syn" true seg'.Tcp.flags.Tcp.syn;
  Alcotest.(check bool) "not ack" false seg'.Tcp.flags.Tcp.ack;
  Alcotest.(check int32) "seq" 1000l seg'.Tcp.seq;
  Alcotest.(check int) "sport" 40000 seg'.Tcp.src_port

let test_icmp_echo () =
  let req = Icmp.echo_request ~id:7 ~seq:3 "ping" in
  let req' = ok (Icmp.decode (Icmp.encode req)) in
  Alcotest.(check int) "type" 8 req'.Icmp.typ;
  let rep = Icmp.echo_reply_to req' in
  let rep' = ok (Icmp.decode (Icmp.encode rep)) in
  Alcotest.(check int) "reply type" 0 rep'.Icmp.typ;
  Alcotest.(check string) "payload" "ping" rep'.Icmp.payload

(* ------------------------------------------------------------------ *)
(* Whole packets                                                       *)
(* ------------------------------------------------------------------ *)

let test_packet_udp_roundtrip () =
  let pkt =
    Packet.udp_packet ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:5000
      ~dst_port:53 "dns bytes"
  in
  let pkt' = ok (Packet.decode (Packet.encode pkt)) in
  match pkt'.Packet.l3 with
  | Packet.Ipv4 (_, Packet.Udp u) -> Alcotest.(check string) "payload" "dns bytes" u.Udp.payload
  | _ -> Alcotest.fail "wrong shape"

let test_five_tuple () =
  let pkt =
    Packet.tcp_packet ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:40001
      ~dst_port:443 "x"
  in
  match Packet.five_tuple pkt with
  | Some ft ->
      Alcotest.(check int) "proto" 6 ft.Packet.proto;
      Alcotest.(check int) "sport" 40001 ft.Packet.src_port;
      Alcotest.(check int) "dport" 443 ft.Packet.dst_port
  | None -> Alcotest.fail "no five tuple"

let test_five_tuple_arp_none () =
  let pkt =
    Packet.arp_packet ~src_mac:mac_a (Arp.request ~sender_mac:mac_a ~sender_ip:ip_a ~target_ip:ip_b)
  in
  Alcotest.(check bool) "arp has no 5-tuple" true (Packet.five_tuple pkt = None)

(* ------------------------------------------------------------------ *)
(* DHCP wire                                                           *)
(* ------------------------------------------------------------------ *)

let test_dhcp_roundtrip () =
  let msg =
    Dhcp_wire.make_request
      ~options:[ Dhcp_wire.Hostname "laptop"; Dhcp_wire.Requested_ip ip_a ]
      ~xid:0x1234l ~chaddr:mac_a Dhcp_wire.Discover
  in
  let msg' = ok (Dhcp_wire.decode (Dhcp_wire.encode msg)) in
  Alcotest.(check bool) "type" true (Dhcp_wire.find_message_type msg' = Some Dhcp_wire.Discover);
  Alcotest.(check bool) "hostname" true (Dhcp_wire.find_hostname msg' = Some "laptop");
  Alcotest.(check bool) "requested" true (Dhcp_wire.find_requested_ip msg' = Some ip_a);
  Alcotest.(check int32) "xid" 0x1234l msg'.Dhcp_wire.xid;
  Alcotest.(check bool) "chaddr" true (Mac.equal mac_a msg'.Dhcp_wire.chaddr)

let test_dhcp_reply_options () =
  let reply =
    Dhcp_wire.make_reply
      ~options:
        [
          Dhcp_wire.Subnet_mask (Ip.of_octets 255 255 255 0);
          Dhcp_wire.Router [ ip_a ];
          Dhcp_wire.Dns_servers [ ip_a; ip_b ];
          Dhcp_wire.Lease_time 3600l;
          Dhcp_wire.Server_id ip_a;
          Dhcp_wire.Renewal_time 1800l;
        ]
      ~xid:9l ~chaddr:mac_a ~yiaddr:ip_b ~siaddr:ip_a Dhcp_wire.Ack
  in
  let reply' = ok (Dhcp_wire.decode (Dhcp_wire.encode reply)) in
  Alcotest.(check bool) "yiaddr" true (Ip.equal ip_b reply'.Dhcp_wire.yiaddr);
  Alcotest.(check bool) "lease time" true (Dhcp_wire.find_lease_time reply' = Some 3600l);
  Alcotest.(check bool) "server id" true (Dhcp_wire.find_server_id reply' = Some ip_a);
  Alcotest.(check int) "all options survive" 7 (List.length reply'.Dhcp_wire.options)

let test_dhcp_bad_cookie () =
  let bytes = Dhcp_wire.encode (Dhcp_wire.make_request ~xid:1l ~chaddr:mac_a Dhcp_wire.Discover) in
  let corrupted = Bytes.of_string bytes in
  Bytes.set corrupted 236 '\x00';
  match Dhcp_wire.decode (Bytes.to_string corrupted) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic cookie accepted"

let test_dhcp_unknown_option_preserved () =
  let msg =
    Dhcp_wire.make_request ~options:[ Dhcp_wire.Unknown (200, "opaque") ] ~xid:1l ~chaddr:mac_a
      Dhcp_wire.Inform
  in
  let msg' = ok (Dhcp_wire.decode (Dhcp_wire.encode msg)) in
  Alcotest.(check bool) "unknown kept" true
    (List.exists (function Dhcp_wire.Unknown (200, "opaque") -> true | _ -> false)
       msg'.Dhcp_wire.options)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let mac_gen = QCheck.Gen.map (fun i -> Mac.of_int64 (Int64.of_int i)) QCheck.Gen.big_nat
let ip_gen = QCheck.Gen.map (fun i -> Ip.of_int32 (Int32.of_int i)) QCheck.Gen.big_nat

let prop_mac_string_roundtrip =
  QCheck.Test.make ~name:"mac of_string/to_string roundtrip" ~count:200
    (QCheck.make mac_gen ~print:Mac.to_string)
    (fun mac -> Mac.of_string (Mac.to_string mac) = Some mac)

let prop_ip_string_roundtrip =
  QCheck.Test.make ~name:"ip of_string/to_string roundtrip" ~count:200
    (QCheck.make ip_gen ~print:Ip.to_string)
    (fun ip -> Ip.of_string (Ip.to_string ip) = Some ip)

(* Strings near the dotted-quad grammar: renderings with one character
   changed or inserted, and short strings over the characters a lax
   parser might accept. [of_string] must accept exactly the renderings. *)
let prop_ip_of_string_accepts_only_renderings =
  let near =
    let open QCheck.Gen in
    let alphabet = oneofl [ '0'; '1'; '2'; '5'; '9'; '.'; '+'; '-'; '_'; 'x'; 'o'; 'b'; ' ' ] in
    let mutate s =
      let* i = int_bound (String.length s - 1) in
      let* c = alphabet in
      let* replace = bool in
      let rest = if replace then i + 1 else i in
      return (String.sub s 0 i ^ String.make 1 c ^ String.sub s rest (String.length s - rest))
    in
    oneof
      [
        map Ip.to_string ip_gen;
        ip_gen >>= (fun ip -> mutate (Ip.to_string ip));
        string_size ~gen:alphabet (int_range 1 15);
      ]
  in
  QCheck.Test.make ~name:"ip parse inverts print (10k)" ~count:10_000
    (QCheck.make near ~print:(Printf.sprintf "%S"))
    (fun s -> match Ip.of_string s with None -> true | Some ip -> Ip.to_string ip = s)

(* The renderers against the Printf formats they replaced, with the
   octets and bytes where the digit count or a hex nibble changes forced
   into most cases. *)
let prop_renderers_match_printf =
  let open QCheck.Gen in
  let octet = oneof [ oneofl [ 0; 9; 10; 99; 100; 255 ]; int_bound 255 ] in
  let byte = oneof [ oneofl [ 0x00; 0x0f; 0xf0; 0xff ]; int_bound 255 ] in
  let gen = pair (list_repeat 4 octet) (list_repeat 6 byte) in
  QCheck.Test.make ~name:"renderers = Printf (10k)" ~count:10_000
    (QCheck.make gen)
    (fun (octets, bytes) ->
      let ip = match octets with [ a; b; c; d ] -> Ip.of_octets a b c d | _ -> assert false in
      let mac = Mac.of_bytes (String.of_seq (List.to_seq (List.map Char.chr bytes))) in
      let b i = Char.code (Mac.to_bytes mac).[i] in
      Ip.to_string ip
      = Printf.sprintf "%d.%d.%d.%d" (List.nth octets 0) (List.nth octets 1) (List.nth octets 2)
          (List.nth octets 3)
      && Mac.to_string mac
         = Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x" (b 0) (b 1) (b 2) (b 3) (b 4) (b 5))

let packet_gen =
  let open QCheck.Gen in
  let payload = string_size ~gen:printable (int_bound 40) in
  oneof
    [
      map2
        (fun body (sp, dp) ->
          Packet.udp_packet ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b
            ~src_port:(1 + (sp mod 65535))
            ~dst_port:(1 + (dp mod 65535))
            body)
        payload (pair nat nat);
      map2
        (fun body (sp, dp) ->
          Packet.tcp_packet ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b
            ~src_port:(1 + (sp mod 65535))
            ~dst_port:(1 + (dp mod 65535))
            body)
        payload (pair nat nat);
      map
        (fun ipv ->
          Packet.arp_packet ~src_mac:mac_a
            (Arp.request ~sender_mac:mac_a ~sender_ip:ip_a ~target_ip:(Ip.of_int32 (Int32.of_int ipv))))
        nat;
    ]

let prop_packet_roundtrip =
  QCheck.Test.make ~name:"packet encode/decode roundtrip preserves wire bytes" ~count:200
    (QCheck.make packet_gen ~print:(Format.asprintf "%a" Packet.pp))
    (fun pkt ->
      let bytes = Packet.encode pkt in
      match Packet.decode bytes with
      | Ok pkt' -> String.equal bytes (Packet.encode pkt')
      | Error _ -> false)

let prop_dhcp_roundtrip =
  QCheck.Test.make ~name:"dhcp message roundtrip" ~count:200
    QCheck.(pair (make mac_gen ~print:Mac.to_string) small_nat)
    (fun (mac, xid) ->
      let msg =
        Dhcp_wire.make_request
          ~options:[ Dhcp_wire.Hostname "h"; Dhcp_wire.Param_request_list [ 1; 3; 6 ] ]
          ~xid:(Int32.of_int xid) ~chaddr:mac Dhcp_wire.Request
      in
      match Dhcp_wire.decode (Dhcp_wire.encode msg) with
      | Ok msg' ->
          Mac.equal msg'.Dhcp_wire.chaddr mac
          && Dhcp_wire.find_message_type msg' = Some Dhcp_wire.Request
      | Error _ -> false)

let prop_truncated_never_crashes =
  QCheck.Test.make ~name:"decoding arbitrary prefixes never raises" ~count:300
    QCheck.(pair (make packet_gen ~print:(fun _ -> "pkt")) (int_bound 60))
    (fun (pkt, cut) ->
      let bytes = Packet.encode pkt in
      let cut = min cut (String.length bytes) in
      match Packet.decode (String.sub bytes 0 cut) with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* One-pass encoder against the string-per-layer reference             *)
(* ------------------------------------------------------------------ *)

(* Frames of every shape [Packet.encode] handles, with full-range
   addresses (the pseudo-header sum must handle an int32's sign bit),
   payloads of 0-1,500 bytes, IPv4 and TCP options and fragment flags.
   The Ethernet and IPv4 records' own [payload] fields hold bytes the
   encoders must ignore. *)
let frame_gen =
  let open QCheck.Gen in
  let u16 = int_bound 0xffff in
  let u32 =
    map2 (fun hi lo -> Int32.logor (Int32.shift_left (Int32.of_int hi) 16) (Int32.of_int lo)) u16 u16
  in
  let ip = map Ip.of_int32 u32 in
  let mac = map Mac.of_bytes (string_size ~gen:char (return 6)) in
  let payload = string_size ~gen:char (oneof [ int_bound 64; int_bound 1500 ]) in
  let options = string_size ~gen:char (map (fun n -> 4 * n) (int_bound 10)) in
  let ipv4 protocol =
    map3
      (fun (src, dst) (dscp, ident, ttl) (df, mf, frag, opts) ->
        {
          (Ipv4.make ~ttl ~ident ~protocol ~src ~dst "ignored by encode") with
          Ipv4.dscp;
          dont_fragment = df;
          more_fragments = mf;
          fragment_offset = frag;
          options = opts;
        })
      (pair ip ip)
      (triple (int_bound 63) u16 (int_bound 255))
      (quad bool bool (oneof [ return 0; int_bound 0x1fff ]) (oneof [ return ""; options ]))
  in
  let flags =
    map (fun v -> { Tcp.fin = v land 1 <> 0; syn = v land 2 <> 0; rst = v land 4 <> 0;
                    psh = v land 8 <> 0; ack = v land 16 <> 0; urg = v land 32 <> 0 })
      (int_bound 63)
  in
  let l4 =
    oneof
      [
        map2
          (fun (sp, dp) p ->
            (Ipv4.proto_udp, Packet.Udp { Udp.src_port = sp; dst_port = dp; payload = p }))
          (pair u16 u16) payload;
        map3
          (fun (sp, dp) (seq, ack_no, window) (f, opts, p) ->
            ( Ipv4.proto_tcp,
              Packet.Tcp
                { Tcp.src_port = sp; dst_port = dp; seq; ack_no; flags = f; window;
                  options = opts; payload = p } ))
          (pair u16 u16) (triple u32 u32 u16)
          (triple flags (oneof [ return ""; options ]) payload);
        map3
          (fun (typ, code) rest p ->
            (Ipv4.proto_icmp, Packet.Icmp { Icmp.typ; code; rest; payload = p }))
          (pair (int_bound 255) (int_bound 255)) u32 payload;
        map2 (fun proto p -> (proto, Packet.Raw_l4 p)) (int_bound 255) payload;
      ]
  in
  let l3 =
    frequency
      [
        ( 6,
          l4 >>= fun (proto, l4) ->
          map (fun ip -> (Ethernet.ethertype_ipv4, Packet.Ipv4 (ip, l4))) (ipv4 proto) );
        ( 1,
          map3
            (fun op (sm, tm) (si, ti) ->
              ( Ethernet.ethertype_arp,
                Packet.Arp
                  { Arp.op = (if op then Arp.Request else Arp.Reply); sender_mac = sm;
                    sender_ip = si; target_mac = tm; target_ip = ti } ))
            bool (pair mac mac) (pair ip ip) );
        (1, map2 (fun ty p -> (ty, Packet.Raw_l3 p)) u16 payload);
      ]
  in
  map3
    (fun dst src (ethertype, l3) ->
      { Packet.eth = { Ethernet.dst; src; ethertype; payload = "ignored by encode" }; l3 })
    mac mac l3

let arb_frame = QCheck.make frame_gen ~print:(Format.asprintf "%a" Packet.pp)

let prop_encode_matches_reference =
  QCheck.Test.make ~name:"one-pass encode = string-per-layer reference" ~count:10_000 arb_frame
    (fun pkt ->
      let bytes = Packet.encode pkt in
      String.equal bytes (Packet_ref.encode pkt) && Packet.wire_size pkt = String.length bytes)

(* Every generated unfragmented UDP/TCP frame passes the decoders'
   checksum check, which sums a pseudo-header built as a string: this
   pins [Ipv4.pseudo_sum]'s arithmetic against it. *)
let prop_decoders_accept_checksums =
  QCheck.Test.make ~name:"udp/tcp decode ~pseudo_header accept encode" ~count:2_000 arb_frame
    (fun pkt ->
      match pkt.Packet.l3 with
      | Packet.Ipv4 (ip, ((Packet.Udp _ | Packet.Tcp _) as l4))
        when not (ip.Ipv4.more_fragments || ip.Ipv4.fragment_offset <> 0) -> (
          let frame = Packet.encode pkt in
          let ip' = ok (Ipv4.decode (String.sub frame 14 (String.length frame - 14))) in
          let seg = ip'.Ipv4.payload in
          let pseudo_header = Ipv4.pseudo_header ip (String.length seg) in
          match l4 with
          | Packet.Udp _ -> Result.is_ok (Udp.decode ~pseudo_header seg)
          | _ -> Result.is_ok (Tcp.decode ~pseudo_header seg))
      | _ -> true)

(* A datagram whose checksum computes to 0 must carry 0xffff (RFC 768:
   0 means "no checksum"). The 2-byte payload is chosen to bring the
   ones'-complement sum to 0xffff. *)
let test_udp_zero_checksum_sent_as_ffff () =
  let frame payload =
    Packet.udp_packet ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:5000
      ~dst_port:53 payload
  in
  let csum_at f = (Char.code f.[40] lsl 8) lor Char.code f.[41] in
  (* with a zero payload word the sum is 0xffff minus the checksum sent;
     a payload word equal to that checksum brings the sum to 0xffff *)
  let x = csum_at (Packet.encode (frame "\000\000")) in
  let pkt = frame (String.init 2 (fun i -> Char.chr (if i = 0 then x lsr 8 else x land 0xff))) in
  let bytes = Packet.encode pkt in
  Alcotest.(check int) "checksum field" 0xffff (csum_at bytes);
  Alcotest.(check string) "same as the reference" (Packet_ref.encode pkt) bytes;
  let ph = Ipv4.pseudo_header (Ipv4.make ~protocol:Ipv4.proto_udp ~src:ip_a ~dst:ip_b "") 10 in
  ignore (ok (Udp.decode ~pseudo_header:ph (String.sub bytes 34 10)))

let () =
  Alcotest.run "hw_packet"
    [
      ( "addresses",
        [
          Alcotest.test_case "mac parse/print" `Quick test_mac_parse_print;
          Alcotest.test_case "mac properties" `Quick test_mac_properties;
          Alcotest.test_case "ip parse/print" `Quick test_ip_parse_print;
          Alcotest.test_case "ip arithmetic" `Quick test_ip_arith;
          Alcotest.test_case "prefix" `Quick test_prefix;
          QCheck_alcotest.to_alcotest prop_mac_string_roundtrip;
          QCheck_alcotest.to_alcotest prop_ip_string_roundtrip;
          Alcotest.test_case "strict parsing" `Quick test_strict_parsing;
          QCheck_alcotest.to_alcotest prop_ip_of_string_accepts_only_renderings;
          QCheck_alcotest.to_alcotest prop_renderers_match_printf;
        ] );
      ( "frames",
        [
          Alcotest.test_case "ethernet roundtrip" `Quick test_ethernet_roundtrip;
          Alcotest.test_case "ethernet truncated" `Quick test_ethernet_truncated;
          Alcotest.test_case "arp roundtrip" `Quick test_arp_roundtrip;
          Alcotest.test_case "ipv4 roundtrip + checksum" `Quick test_ipv4_roundtrip_and_checksum;
          Alcotest.test_case "udp roundtrip + checksum" `Quick test_udp_roundtrip_checksum;
          Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip;
          Alcotest.test_case "icmp echo" `Quick test_icmp_echo;
          Alcotest.test_case "packet udp roundtrip" `Quick test_packet_udp_roundtrip;
          Alcotest.test_case "five tuple" `Quick test_five_tuple;
          Alcotest.test_case "five tuple arp" `Quick test_five_tuple_arp_none;
          QCheck_alcotest.to_alcotest prop_packet_roundtrip;
          QCheck_alcotest.to_alcotest prop_truncated_never_crashes;
        ] );
      ( "dhcp_wire",
        [
          Alcotest.test_case "request roundtrip" `Quick test_dhcp_roundtrip;
          Alcotest.test_case "reply options" `Quick test_dhcp_reply_options;
          Alcotest.test_case "bad cookie" `Quick test_dhcp_bad_cookie;
          Alcotest.test_case "unknown option preserved" `Quick test_dhcp_unknown_option_preserved;
          QCheck_alcotest.to_alcotest prop_dhcp_roundtrip;
        ] );
      ( "encode",
        [
          QCheck_alcotest.to_alcotest prop_encode_matches_reference;
          QCheck_alcotest.to_alcotest prop_decoders_accept_checksums;
          Alcotest.test_case "udp zero checksum sent as 0xffff" `Quick
            test_udp_zero_checksum_sent_as_ffff;
        ] );
    ]
