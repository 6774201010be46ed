(* Failure injection: the router must degrade gracefully under malformed
   input, resource exhaustion, lossy links and misbehaving clients. *)

open Hw_packet
module Home = Hw_router.Home
module Router = Hw_router.Router
module Device = Hw_sim.Device
module Dhcp_server = Hw_dhcp.Dhcp_server

let mac i = Mac.local (0x80 + i)

(* ------------------------------------------------------------------ *)
(* DHCP pool exhaustion                                                *)
(* ------------------------------------------------------------------ *)

let test_lease_pool_exhaustion () =
  (* a /29-sized pool (6 addresses) with 10 clients: 6 bind, 4 are NAKed
     but keep retrying; nothing crashes and the pool never over-allocates *)
  let config =
    {
      Dhcp_server.default_config with
      Dhcp_server.pool_start = Ip.of_octets 10 0 0 100;
      pool_end = Ip.of_octets 10 0 0 105;
      default_permit = true;
    }
  in
  let home = Home.create ~config:(Router.config ~dhcp_config:config ()) () in
  let devices =
    List.init 10 (fun i ->
        Home.add_device home (Device.wired ~name:(Printf.sprintf "d%d" i) ~mac:(mac i) []))
  in
  Home.run_for home 120.;
  let bound = List.filter (fun d -> Device.dhcp_state d = Device.Bound) devices in
  Alcotest.(check int) "exactly pool-size devices bound" 6 (List.length bound);
  let lease_db = Dhcp_server.lease_db (Router.dhcp (Home.router home)) in
  Alcotest.(check (float 0.001)) "pool saturated" 1.0 (Hw_dhcp.Lease_db.utilisation lease_db);
  let ips = List.filter_map Device.ip devices in
  Alcotest.(check int) "no duplicate addresses" (List.length bound)
    (List.length (List.sort_uniq Ip.compare ips))

let test_pool_recycles_after_release () =
  let config =
    {
      Dhcp_server.default_config with
      Dhcp_server.pool_start = Ip.of_octets 10 0 0 100;
      pool_end = Ip.of_octets 10 0 0 100 (* one address! *);
      default_permit = true;
    }
  in
  let home = Home.create ~config:(Router.config ~dhcp_config:config ()) () in
  let d1 = Home.add_device home (Device.wired ~name:"first" ~mac:(mac 1) []) in
  Home.run_for home 10.;
  Alcotest.(check bool) "first bound" true (Device.dhcp_state d1 = Device.Bound);
  let d2 = Home.add_device home (Device.wired ~name:"second" ~mac:(mac 2) []) in
  Home.run_for home 10.;
  Alcotest.(check bool) "second starved" false (Device.dhcp_state d2 = Device.Bound);
  (* first leaves; second's retries must eventually win the address *)
  Device.stop d1;
  Home.run_for home 120.;
  Alcotest.(check bool) "second bound after release" true (Device.dhcp_state d2 = Device.Bound)

(* ------------------------------------------------------------------ *)
(* Malformed control-channel input                                     *)
(* ------------------------------------------------------------------ *)

let test_datapath_survives_garbage_from_controller () =
  let sent = ref 0 in
  let dp =
    Hw_datapath.Datapath.create ~dpid:1L
      ~ports:[ { Hw_datapath.Datapath.port_no = 1; name = "p1"; mac = mac 1 } ]
      ~transmit:(fun ~port_no:_ _ -> ())
      ~to_controller:(fun _ -> incr sent)
      ~now:(fun () -> 0.) ()
  in
  Hw_datapath.Datapath.input_from_controller dp "\xff\xff\xff\xff total garbage";
  (* the stream is dead but the datapath still switches *)
  let frame =
    Packet.encode
      (Packet.udp_packet ~src_mac:(mac 1) ~dst_mac:(mac 2) ~src_ip:(Ip.of_octets 10 0 0 1)
         ~dst_ip:(Ip.of_octets 10 0 0 2) ~src_port:1 ~dst_port:2 "x")
  in
  Hw_datapath.Datapath.receive_frame dp ~in_port:1 frame;
  Alcotest.(check bool) "still emits packet-ins" true (!sent >= 1)

let test_router_survives_rpc_garbage () =
  let home = Home.standard_home () in
  Home.permit_all home;
  let router = Home.router home in
  (* datagram fuzz: none of these may raise *)
  List.iter
    (fun junk -> Router.rpc_datagram router ~from:"fuzzer" junk)
    [ ""; "\x00"; String.make 10_000 '\xff'; "Hw\x01\x01"; "GET / HTTP/1.1\r\n\r\n" ];
  (* HTTP fuzz through the raw entry point *)
  List.iter
    (fun junk -> ignore (Router.http_raw router junk))
    [ ""; "POST"; "GET /api/devices HTTP/1.1\r\ncontent-length: zork\r\n\r\n" ];
  Home.run_for home 5.;
  Alcotest.(check bool) "router still alive" true (Router.flows_installed router >= 0)

let test_malformed_frames_on_the_wire () =
  let home = Home.standard_home () in
  Home.permit_all home;
  let router = Home.router home in
  Home.run_for home 10.;
  let before = Router.packet_ins router in
  (* inject garbage frames on every port *)
  List.iter
    (fun port ->
      Router.receive_frame router ~in_port:port "short";
      Router.receive_frame router ~in_port:port (String.make 64 '\x00');
      Router.receive_frame router ~in_port:port (String.make 2000 '\xaa'))
    [ Router.wireless_port; Router.wired_port 0; Router.upstream_port ];
  Home.run_for home 5.;
  Alcotest.(check bool) "no packet-in storm from garbage" true
    (Router.packet_ins router - before < 40);
  Alcotest.(check bool) "network still works" true (Router.flows_installed router >= 0)

(* ------------------------------------------------------------------ *)
(* Lossy wireless                                                      *)
(* ------------------------------------------------------------------ *)

let test_distant_station_suffers_but_the_router_survives () =
  let home = Home.create () in
  let router = Home.router home in
  Dhcp_server.permit (Router.dhcp router) (mac 1);
  let far =
    Home.add_device home
      (Device.wireless ~distance_m:60. ~name:"garden-cam" ~mac:(mac 1)
         [ Hw_sim.App_profile.iot_telemetry ])
  in
  (* the artifact's Mode 3 red flashes must fire for the retry storm *)
  let artifact = Hw_ui.Artifact.create () in
  let driver =
    Hw_ui.Artifact_driver.attach ~period:5. ~retry_threshold:0.1 ~db:(Router.db router)
      ~artifact ()
  in
  Home.run_for home 180.;
  let st = Device.stats far in
  Alcotest.(check bool) "link-layer retries observed" true (st.Device.retries > 0);
  Alcotest.(check bool) "artifact raised retry alarms" true
    (Hw_ui.Artifact_driver.retry_alarms driver > 0);
  (* the DHCP retry loop must eventually get it online despite losses *)
  Alcotest.(check bool) "eventually bound" true (Device.dhcp_state far = Device.Bound);
  (* and the retries are visible to the measurement plane *)
  match
    Hw_hwdb.Database.query (Router.db router)
      "SELECT MAX(retries) AS r FROM Links"
  with
  | Ok { Hw_hwdb.Query.rows = [ [ v ] ]; _ } ->
      Alcotest.(check bool) "Links shows retries" true
        (Option.value (Hw_hwdb.Value.as_float v) ~default:0. > 0.)
  | _ -> Alcotest.fail "no Links data"

(* ------------------------------------------------------------------ *)
(* hwdb overload                                                       *)
(* ------------------------------------------------------------------ *)

let test_hwdb_bounded_under_sustained_load () =
  let now = ref 0. in
  let db = Hw_hwdb.Database.create ~default_capacity:512 ~now:(fun () -> !now) () in
  for i = 1 to 50_000 do
    now := float_of_int i *. 0.001;
    Hw_hwdb.Database.record_flow db ~proto:6
      ~src_ip:(Hw_hwdb.Value.Str (Printf.sprintf "10.0.0.%d" (i mod 200)))
      ~dst_ip:(Hw_hwdb.Value.Str "1.2.3.4") ~src_port:i ~dst_port:80 ~packets:1 ~bytes:i
  done;
  let table = Option.get (Hw_hwdb.Database.table db "Flows") in
  Alcotest.(check int) "capacity bound" 512 (Hw_hwdb.Table.length table);
  Alcotest.(check int) "everything counted" 50_000 (Hw_hwdb.Table.total_inserted table);
  (* only the newest rows survive *)
  match Hw_hwdb.Database.query db "SELECT MIN(src_port), MAX(src_port) FROM Flows" with
  | Ok { Hw_hwdb.Query.rows = [ [ lo; hi ] ]; _ } ->
      Alcotest.(check bool) "fifo eviction" true
        (Hw_hwdb.Value.equal hi (Hw_hwdb.Value.Int 50_000)
        && Hw_hwdb.Value.equal lo (Hw_hwdb.Value.Int (50_000 - 512 + 1)))
  | _ -> Alcotest.fail "query failed"

let test_subscription_survives_failing_query () =
  (* a subscription on a table that gets dropped... tables cannot be
     dropped; instead make the query fail via a type error at runtime:
     comparing str and int in WHERE *)
  let now = ref 0. in
  let db = Hw_hwdb.Database.create ~now:(fun () -> !now) () in
  let bad = Result.get_ok (Hw_hwdb.Parser.parse_select "SELECT * FROM Flows WHERE src_ip > 5") in
  let good = Result.get_ok (Hw_hwdb.Parser.parse_select "SELECT COUNT(*) FROM Flows") in
  let deliveries = ref 0 in
  ignore (Hw_hwdb.Database.subscribe db ~query:bad ~period:1. ~callback:(fun _ -> ()));
  ignore
    (Hw_hwdb.Database.subscribe db ~query:good ~period:1. ~callback:(fun _ -> incr deliveries));
  Hw_hwdb.Database.record_flow db ~proto:6 ~src_ip:(Hw_hwdb.Value.Str "a")
    ~dst_ip:(Hw_hwdb.Value.Str "b") ~src_port:1 ~dst_port:2 ~packets:1 ~bytes:1;
  now := 1.;
  Hw_hwdb.Database.tick db;
  now := 2.;
  Hw_hwdb.Database.tick db;
  (* the failing subscription is logged and skipped; the good one flows *)
  Alcotest.(check int) "good subscription unaffected" 2 !deliveries

(* ------------------------------------------------------------------ *)
(* USB keys via the router                                             *)
(* ------------------------------------------------------------------ *)

let test_broken_usb_key_lifts_nothing () =
  let home = Home.create ~start:(Hw_time.at ~day:Hw_time.Mon ~hour:17 ~min:0) () in
  let router = Home.router home in
  Hw_policy.Policy.define_group (Router.policy router) "kids" [ mac 1 ];
  Hw_policy.Policy.add_rule (Router.policy router)
    {
      Hw_policy.Policy.rule_id = "r";
      group = "kids";
      services = [];
      schedule = Hw_policy.Schedule.always;
      requires_token = Some "good-token";
    };
  let kid = Home.add_device home (Device.wired ~name:"kid" ~mac:(mac 1) []) in
  Home.run_for home 20.;
  Alcotest.(check bool) "offline" true (Device.dhcp_state kid <> Device.Bound);
  (* a key with a corrupt rules directory must be rejected wholesale *)
  let broken =
    Hw_policy.Usb_key.Dir
      [
        ( "homework",
          Hw_policy.Usb_key.Dir
            [
              ("token", Hw_policy.Usb_key.File "good-token");
              ( "rules",
                Hw_policy.Usb_key.Dir [ ("oops", Hw_policy.Usb_key.File "no colons here") ] );
            ] );
      ]
  in
  (match Router.insert_usb router ~device:"sdb1" broken with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "broken key accepted");
  Home.run_for home 60.;
  Alcotest.(check bool) "still offline (fail closed)" true (Device.dhcp_state kid <> Device.Bound);
  (* a key missing the homework directory entirely *)
  (match Router.insert_usb router ~device:"sdb2" (Hw_policy.Usb_key.Dir [ ("photos", Hw_policy.Usb_key.Dir []) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "random storage device treated as a policy key")

(* ------------------------------------------------------------------ *)
(* Misbehaving DHCP client                                             *)
(* ------------------------------------------------------------------ *)

let test_client_requesting_foreign_address () =
  let now = ref 0. in
  let server =
    Dhcp_server.create
      ~config:{ Dhcp_server.default_config with Dhcp_server.default_permit = true }
      ~now:(fun () -> !now)
      ()
  in
  (* give mac 1 an address *)
  let discover m =
    Packet.dhcp_packet ~src_mac:m ~dst_mac:Mac.broadcast ~src_ip:Ip.any ~dst_ip:Ip.broadcast
      (Dhcp_wire.make_request ~xid:1l ~chaddr:m Dhcp_wire.Discover)
  in
  let request m ip =
    Packet.dhcp_packet ~src_mac:m ~dst_mac:Mac.broadcast ~src_ip:Ip.any ~dst_ip:Ip.broadcast
      (Dhcp_wire.make_request
         ~options:[ Dhcp_wire.Requested_ip ip ]
         ~xid:2l ~chaddr:m Dhcp_wire.Request)
  in
  let ip1 =
    match Dhcp_server.handle_packet server (discover (mac 1)) with
    | [ offer ] -> (
        match offer.Packet.l3 with
        | Packet.Ipv4 (_, Packet.Udp u) ->
            (Result.get_ok (Dhcp_wire.decode u.Udp.payload)).Dhcp_wire.yiaddr
        | _ -> Alcotest.fail "bad offer")
    | _ -> Alcotest.fail "no offer"
  in
  ignore (Dhcp_server.handle_packet server (request (mac 1) ip1));
  (* a hijacker requests mac 1's address *)
  (match Dhcp_server.handle_packet server (request (mac 2) ip1) with
  | [ reply ] -> (
      match reply.Packet.l3 with
      | Packet.Ipv4 (_, Packet.Udp u) ->
          Alcotest.(check bool) "NAK for hijack" true
            (Dhcp_wire.find_message_type (Result.get_ok (Dhcp_wire.decode u.Udp.payload))
            = Some Dhcp_wire.Nak)
      | _ -> Alcotest.fail "bad reply")
  | _ -> Alcotest.fail "expected NAK");
  (* the victim's binding is untouched *)
  match Hw_dhcp.Lease_db.lookup_mac (Dhcp_server.lease_db server) (mac 1) with
  | Some lease -> Alcotest.(check bool) "binding intact" true (Ip.equal lease.Hw_dhcp.Lease_db.ip ip1)
  | None -> Alcotest.fail "victim lost its lease"

let () =
  Alcotest.run "failures"
    [
      ( "exhaustion",
        [
          Alcotest.test_case "lease pool exhaustion" `Quick test_lease_pool_exhaustion;
          Alcotest.test_case "pool recycles" `Quick test_pool_recycles_after_release;
          Alcotest.test_case "hwdb bounded under load" `Quick test_hwdb_bounded_under_sustained_load;
        ] );
      ( "malformed_input",
        [
          Alcotest.test_case "datapath vs controller garbage" `Quick
            test_datapath_survives_garbage_from_controller;
          Alcotest.test_case "router vs rpc/http garbage" `Quick test_router_survives_rpc_garbage;
          Alcotest.test_case "garbage frames" `Quick test_malformed_frames_on_the_wire;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "lossy wireless station" `Quick
            test_distant_station_suffers_but_the_router_survives;
          Alcotest.test_case "failing subscription isolated" `Quick
            test_subscription_survives_failing_query;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "broken usb key fail-closed" `Quick test_broken_usb_key_lifts_nothing;
          Alcotest.test_case "dhcp address hijack" `Quick test_client_requesting_foreign_address;
        ] );
    ]
