(* End-to-end tests of the composed Homework router: simulated devices,
   the full OpenFlow path, DHCP/DNS modules, hwdb, control API, policy. *)

open Hw_packet
module Home = Hw_router.Home
module Router = Hw_router.Router
module Device = Hw_sim.Device
module App_profile = Hw_sim.App_profile
module Dhcp_server = Hw_dhcp.Dhcp_server
module Json = Hw_json.Json
module Http = Hw_control_api.Http

let mac i = Mac.local (0x60 + i)

let small_home ?(permit = true) ?start ?(apps = [ App_profile.web ]) n =
  let home = Home.create ?start () in
  let devices =
    List.init n (fun i ->
        let config =
          if i mod 2 = 0 then
            Device.wireless ~distance_m:(4. +. float_of_int i) ~name:(Printf.sprintf "dev%d" i)
              ~mac:(mac i) apps
          else Device.wired ~name:(Printf.sprintf "dev%d" i) ~mac:(mac i) apps
        in
        if permit then Dhcp_server.permit (Router.dhcp (Home.router home)) (mac i);
        Home.add_device home config)
  in
  (home, devices)

let query_rows home q =
  match Hw_hwdb.Database.query (Router.db (Home.router home)) q with
  | Ok rs -> rs.Hw_hwdb.Query.rows
  | Error e -> Alcotest.failf "query %S: %s" q e

let http home req = Router.http (Home.router home) req

(* ------------------------------------------------------------------ *)

let test_devices_join_and_get_distinct_leases () =
  let home, devices = small_home 4 in
  Home.run_for home 20.;
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Device.name d ^ " bound")
        true
        (Device.dhcp_state d = Device.Bound))
    devices;
  let ips = List.filter_map Device.ip devices in
  Alcotest.(check int) "all addressed" 4 (List.length ips);
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq Ip.compare ips));
  (* Leases hwdb table saw the grants *)
  let grants = query_rows home "SELECT mac FROM Leases WHERE action = 'grant'" in
  Alcotest.(check int) "four grants" 4 (List.length grants)

let test_traffic_reaches_internet_and_flows_recorded () =
  let home, _ = small_home 2 in
  Home.run_for home 60.;
  Alcotest.(check bool) "internet saw traffic" true (Hw_sim.Internet.rx_bytes (Home.internet home) > 0);
  let rows = query_rows home "SELECT SUM(bytes) AS b FROM Flows" in
  (match rows with
  | [ [ v ] ] ->
      Alcotest.(check bool) "bytes recorded" true
        (Option.value (Hw_hwdb.Value.as_float v) ~default:0. > 0.)
  | _ -> Alcotest.fail "no flow sum");
  (* flows get installed so the fast path carries most packets *)
  Alcotest.(check bool) "flows installed" true (Router.flows_installed (Home.router home) > 0)

let test_wireless_links_recorded () =
  let home, _ = small_home 3 in
  Home.run_for home 10.;
  let rows = query_rows home "SELECT mac, AVG(rssi) AS r FROM Links GROUP BY mac" in
  (* devices 0 and 2 are wireless *)
  Alcotest.(check int) "two stations" 2 (List.length rows);
  List.iter
    (fun row ->
      match row with
      | [ _; r ] ->
          let rssi = Option.value (Hw_hwdb.Value.as_float r) ~default:0. in
          Alcotest.(check bool) "plausible rssi" true (rssi < -20. && rssi > -100.)
      | _ -> Alcotest.fail "bad row")
    rows

let test_unpermitted_device_stays_off () =
  let home, devices = small_home ~permit:false 1 in
  Home.run_for home 30.;
  let d = List.hd devices in
  Alcotest.(check bool) "denied" true (Device.dhcp_state d = Device.Denied);
  Alcotest.(check bool) "no address" true (Device.ip d = None);
  (* shows up as pending in the control API *)
  let resp = http home (Http.request Http.GET "/api/devices") in
  match Json.of_string resp.Http.body with
  | Json.List [ dev ] ->
      Alcotest.(check string) "pending" "pending" (Json.get_string (Json.member "state" dev))
  | _ -> Alcotest.fail "device list wrong"

let test_control_api_permit_end_to_end () =
  let home, devices = small_home ~permit:false 1 in
  Home.run_for home 5.;
  let d = List.hd devices in
  let resp =
    http home
      (Http.request Http.POST
         (Printf.sprintf "/api/devices/%s/permit" (Mac.to_string (mac 0))))
  in
  Alcotest.(check int) "permit accepted" 200 resp.Http.status;
  (* the device keeps retrying; within a backoff period it joins *)
  Home.run_for home 40.;
  Alcotest.(check bool) "bound after permit" true (Device.dhcp_state d = Device.Bound)

let test_control_api_deny_revokes_and_blocks () =
  let home, devices = small_home 1 in
  Home.run_for home 15.;
  let d = List.hd devices in
  Alcotest.(check bool) "bound first" true (Device.dhcp_state d = Device.Bound);
  let flows_before = Router.flows_installed (Home.router home) in
  Alcotest.(check bool) "has flows" true (flows_before >= 0);
  let resp =
    http home
      (Http.request Http.POST (Printf.sprintf "/api/devices/%s/deny" (Mac.to_string (mac 0))))
  in
  Alcotest.(check int) "deny accepted" 200 resp.Http.status;
  (* lease revoked server-side *)
  Alcotest.(check int) "no active leases" 0
    (List.length (Hw_dhcp.Lease_db.active (Dhcp_server.lease_db (Router.dhcp (Home.router home)))));
  (* revocation recorded in hwdb *)
  let revokes = query_rows home "SELECT mac FROM Leases WHERE action = 'revoke'" in
  Alcotest.(check bool) "revoke recorded" true (List.length revokes >= 1)

let test_denied_device_cannot_reuse_released_address () =
  (* Fig. 3 deny must survive address reuse: once a denied device's
     former address is leased to another device, frames from the denied
     MAC with that address are still an unleased source *)
  let home = Home.create () in
  let router = Home.router home in
  let dhcp = Router.dhcp router in
  Dhcp_server.permit dhcp (mac 0);
  Dhcp_server.permit dhcp (mac 1);
  let a = Home.add_device home (Device.wired ~name:"a" ~mac:(mac 0) []) in
  Home.run_for home 10.;
  let a_ip = Option.get (Device.ip a) in
  Dhcp_server.deny dhcp (mac 0);
  let b = Home.add_device home (Device.wired ~name:"b" ~mac:(mac 1) []) in
  Home.run_for home 10.;
  Alcotest.(check bool) "b leased a's former address" true
    (match Device.ip b with Some ip -> Ip.equal ip a_ip | None -> false);
  let blocked = Router.blocked_flow_count router in
  let isp_rx = Hw_sim.Internet.rx_bytes (Home.internet home) in
  Router.receive_frame router ~in_port:(Router.wired_port 0)
    (Packet.encode
       (Packet.udp_packet ~src_mac:(mac 0) ~dst_mac:Hw_sim.Internet.mac ~src_ip:a_ip
          ~dst_ip:(Ip.of_octets 93 184 216 34) ~src_port:40000 ~dst_port:443 "hello"));
  Home.run_for home 1.;
  Alcotest.(check int) "drop flow installed" (blocked + 1) (Router.blocked_flow_count router);
  Alcotest.(check int) "nothing reached the ISP" isp_rx
    (Hw_sim.Internet.rx_bytes (Home.internet home))

let test_dns_policy_blocks_lookup () =
  let home, devices = small_home ~apps:[] 1 in
  Home.run_for home 10.;
  let d = List.hd devices in
  (* restrict the device to facebook only *)
  Hw_dns.Dns_proxy.set_policy (Router.dns (Home.router home)) (mac 0)
    (Hw_dns.Dns_proxy.Allow_only [ "facebook.com" ]);
  let fb = ref None and yt = ref None in
  Device.resolve d "www.facebook.com" (fun r -> fb := Some r);
  Home.run_for home 6.;
  Device.resolve d "www.youtube.com" (fun r -> yt := Some r);
  Home.run_for home 6.;
  (match !fb with
  | Some (Some _) -> ()
  | _ -> Alcotest.fail "facebook lookup failed");
  match !yt with
  | Some None -> ()
  | _ -> Alcotest.fail "youtube lookup should have been blocked"

let test_upstream_flow_admission_blocks_traffic () =
  let home, devices = small_home ~apps:[] 1 in
  Home.run_for home 10.;
  let d = List.hd devices in
  (* learn both addresses while unrestricted *)
  let fb = ref None and yt = ref None in
  Device.resolve d "www.facebook.com" (fun r -> fb := r);
  Device.resolve d "www.youtube.com" (fun r -> yt := r);
  Home.run_for home 6.;
  let fb_ip = Option.get !fb and yt_ip = Option.get !yt in
  Hw_dns.Dns_proxy.set_policy (Router.dns (Home.router home)) (mac 0)
    (Hw_dns.Dns_proxy.Allow_only [ "facebook.com" ]);
  let rx_before = (Device.stats d).Device.rx_packets in
  (* traffic to facebook flows: SYN elicits a SYN/ACK back *)
  Device.send_tcp_segment d ~dst_ip:fb_ip ~dst_port:80 ~src_port:41000
    ~flags:Hw_packet.Tcp.syn_flag "";
  Home.run_for home 2.;
  let rx_after_fb = (Device.stats d).Device.rx_packets in
  Alcotest.(check bool) "facebook traffic answered" true (rx_after_fb > rx_before);
  (* traffic to youtube is dropped at the router. The first attempt also
     triggers an ARP exchange (which the device does receive), so warm it
     up once, then verify the second attempt is completely dead. *)
  Device.send_tcp_segment d ~dst_ip:yt_ip ~dst_port:80 ~src_port:41001
    ~flags:Hw_packet.Tcp.syn_flag "";
  Home.run_for home 2.;
  Alcotest.(check bool) "drop flow installed" true
    (Router.blocked_flow_count (Home.router home) >= 1);
  let rx_snapshot = (Device.stats d).Device.rx_packets in
  Device.send_tcp_segment d ~dst_ip:yt_ip ~dst_port:80 ~src_port:41001
    ~flags:Hw_packet.Tcp.syn_flag "";
  Home.run_for home 2.;
  let rx_after_yt = (Device.stats d).Device.rx_packets in
  Alcotest.(check int) "youtube traffic dead" rx_snapshot rx_after_yt

let test_policy_usb_cycle () =
  (* compressed family_policy scenario *)
  let start = Hw_time.at ~day:Hw_time.Tue ~hour:17 ~min:0 in
  let home, devices = small_home ~permit:false ~start ~apps:[] 1 in
  let router = Home.router home in
  Hw_policy.Policy.define_group (Router.policy router) "kids" [ mac 0 ];
  Hw_policy.Policy.add_rule (Router.policy router)
    {
      Hw_policy.Policy.rule_id = "r1";
      group = "kids";
      services = [ Hw_policy.Policy.facebook ];
      schedule = Hw_policy.Schedule.weekdays ~start_hour:16 ~end_hour:21 ();
      requires_token = Some "tok";
    };
  Router.apply_policies_now router;
  Home.run_for home 40.;
  let d = List.hd devices in
  Alcotest.(check bool) "offline without key" true (Device.dhcp_state d = Device.Denied);
  (* insert the key *)
  (match
     Router.insert_usb router ~device:"sdb1"
       (Hw_policy.Usb_key.render { Hw_policy.Usb_key.token = "tok"; rules = [] })
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  Home.run_for home 60.;
  Alcotest.(check bool) "online with key" true (Device.dhcp_state d = Device.Bound);
  (* dns restricted to facebook *)
  let yt = ref None in
  Device.resolve d "www.youtube.com" (fun r -> yt := Some r);
  Home.run_for home 6.;
  Alcotest.(check bool) "youtube blocked" true (!yt = Some None);
  (* pull the key: device loses the network *)
  Router.remove_usb router ~device:"sdb1";
  Home.run_for home 2.;
  Alcotest.(check int) "lease revoked" 0
    (List.length (Hw_dhcp.Lease_db.active (Dhcp_server.lease_db (Router.dhcp router))))

let test_bandwidth_view_reflects_traffic () =
  (* p2p sessions start every ~8 s, so traffic is guaranteed in a minute *)
  let home, _ = small_home ~apps:[ App_profile.p2p ] 2 in
  Home.run_for home 90.;
  let view =
    Hw_ui.Bandwidth_view.create ~window_seconds:60. ~label_of_ip:(Home.label_of_ip home)
      ~db:(Router.db (Home.router home)) ()
  in
  match Hw_ui.Bandwidth_view.refresh view with
  | Ok rows ->
      Alcotest.(check bool) "has devices" true (List.length rows >= 1);
      let top = List.hd rows in
      Alcotest.(check bool) "labelled with device name" true
        (String.length top.Hw_ui.Bandwidth_view.device_label >= 3
        && String.sub top.Hw_ui.Bandwidth_view.device_label 0 3 = "dev");
      Alcotest.(check bool) "p2p classified" true
        (List.exists
           (fun a -> a.Hw_ui.Bandwidth_view.app = "p2p")
           top.Hw_ui.Bandwidth_view.apps);
      Alcotest.(check bool) "render mentions device" true
        (String.length (Hw_ui.Bandwidth_view.render view) > 0)
  | Error e -> Alcotest.fail e

let test_control_ui_drag_cycle () =
  let home, _ = small_home ~permit:false 2 in
  Home.run_for home 10.;
  let ui = Hw_ui.Control_ui.create ~http:(Router.http (Home.router home)) in
  (match Hw_ui.Control_ui.refresh ui with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "both requesting" 2
    (List.length (Hw_ui.Control_ui.tabs_in ui Hw_ui.Control_ui.Requesting));
  (match Hw_ui.Control_ui.drag ui ~mac:(Mac.to_string (mac 0)) Hw_ui.Control_ui.Permitted_col with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Hw_ui.Control_ui.drag ui ~mac:(Mac.to_string (mac 1)) Hw_ui.Control_ui.Denied_col with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one permitted" 1
    (List.length (Hw_ui.Control_ui.tabs_in ui Hw_ui.Control_ui.Permitted_col));
  Alcotest.(check int) "one denied" 1
    (List.length (Hw_ui.Control_ui.tabs_in ui Hw_ui.Control_ui.Denied_col));
  Home.run_for home 40.;
  let d0 = Option.get (Home.device_by_name home "dev0") in
  let d1 = Option.get (Home.device_by_name home "dev1") in
  Alcotest.(check bool) "permitted joined" true (Device.dhcp_state d0 = Device.Bound);
  Alcotest.(check bool) "denied stayed off" true (Device.dhcp_state d1 = Device.Denied)

let test_artifact_fed_from_router_events () =
  let home, _ = small_home ~permit:false 1 in
  let artifact = Hw_ui.Artifact.create () in
  Hw_ui.Artifact.set_mode artifact Hw_ui.Artifact.Event_flashes;
  Dhcp_server.on_event (Router.dhcp (Home.router home)) (fun ev ->
      match ev with
      | Dhcp_server.Lease_granted _ -> Hw_ui.Artifact.notify_lease artifact `Grant
      | _ -> ());
  Dhcp_server.permit (Router.dhcp (Home.router home)) (mac 0);
  Home.run_for home 40.;
  Hw_ui.Artifact.tick artifact ~dt:0.25;
  Alcotest.(check bool) "grant flashing green" true
    (String.contains (Hw_ui.Artifact.render_ascii artifact) 'G')

let test_artifact_driver_from_measurement_plane () =
  let home, _ = small_home ~apps:[ App_profile.p2p ] 2 in
  let router = Home.router home in
  let artifact = Hw_ui.Artifact.create () in
  let driver =
    Hw_ui.Artifact_driver.attach ~period:5. ~db:(Router.db router) ~artifact ()
  in
  Home.run_for home 60.;
  Alcotest.(check bool) "subscriptions delivered" true
    (Hw_ui.Artifact_driver.deliveries driver > 5);
  Alcotest.(check bool) "bandwidth flowed into the artifact" true
    (Hw_ui.Artifact_driver.last_bandwidth_bps driver > 0.);
  Alcotest.(check bool) "peak tracked" true (Hw_ui.Artifact.peak_bps artifact > 0.);
  (* a lease grant during the run must queue a green flash *)
  Hw_ui.Artifact.set_mode artifact Hw_ui.Artifact.Event_flashes;
  Hw_dhcp.Dhcp_server.permit (Router.dhcp router) (mac 9);
  let late = Home.add_device home (Device.wired ~name:"late" ~mac:(mac 9) []) in
  Home.run_for home 10.;
  Alcotest.(check bool) "late device bound" true (Device.dhcp_state late = Device.Bound);
  Hw_ui.Artifact.tick artifact ~dt:0.25;
  Alcotest.(check bool) "green flash from Leases trigger" true
    (String.contains (Hw_ui.Artifact.render_ascii artifact) 'G');
  (* detach stops further updates *)
  Hw_ui.Artifact_driver.detach driver;
  let before = Hw_ui.Artifact_driver.deliveries driver in
  Home.run_for home 20.;
  Alcotest.(check int) "no deliveries after detach" before
    (Hw_ui.Artifact_driver.deliveries driver)

let test_rpc_through_router () =
  let home, _ = small_home 1 in
  let router = Home.router home in
  let inbox = ref [] in
  Router.set_rpc_send router (fun ~to_:_ datagram -> inbox := datagram :: !inbox);
  Home.run_for home 10.;
  let client = Hw_hwdb.Rpc.Client.create ~send:(fun d -> Router.rpc_datagram router ~from:"app" d) () in
  let rows = ref None in
  Hw_hwdb.Rpc.Client.request client "SELECT COUNT(*) AS n FROM Leases" ~on_reply:(fun r ->
      rows := Some r);
  (* replies arrive via the send hook; feed them back *)
  List.iter (Hw_hwdb.Rpc.Client.handle_datagram client) !inbox;
  match !rows with
  | Some (Ok (Some rs)) -> Alcotest.(check int) "one column" 1 (List.length rs.Hw_hwdb.Query.columns)
  | _ -> Alcotest.fail "rpc through the router failed"

let test_nat_mode () =
  let wan_ip = Ip.of_octets 81 2 3 4 in
  let home = Home.create ~config:(Router.config ~nat:wan_ip ()) () in
  let router = Home.router home in
  Alcotest.(check bool) "nat on" true (Router.nat_enabled router);
  Dhcp_server.permit (Router.dhcp router) (mac 0);
  let d =
    Home.add_device home (Device.wired ~name:"natted" ~mac:(mac 0) [ App_profile.web ])
  in
  Home.run_for home 60.;
  Alcotest.(check bool) "device bound" true (Device.dhcp_state d = Device.Bound);
  (* traffic flowed both ways despite translation *)
  let st = Device.stats d in
  Alcotest.(check bool) "responses returned through NAT" true (st.Device.rx_bytes > 1000);
  Alcotest.(check bool) "bindings allocated" true (Router.nat_binding_count router > 0);
  (* every concurrent inbound translation flow has a distinct WAN port *)
  let inbound_ports =
    Hw_datapath.Flow_table.entries (Hw_datapath.Datapath.flow_table (Router.datapath router))
    |> List.filter_map (fun (e : Hw_datapath.Flow_entry.t) ->
           match e.Hw_datapath.Flow_entry.entry_match.Hw_openflow.Ofp_match.nw_dst with
           | Some (ip, 32) when Ip.equal ip wan_ip ->
               e.Hw_datapath.Flow_entry.entry_match.Hw_openflow.Ofp_match.tp_dst
           | _ -> None)
  in
  Alcotest.(check int) "wan ports unique" (List.length inbound_ports)
    (List.length (List.sort_uniq compare inbound_ports));
  (* the ISP never saw a private source address except the router's own
     DNS-forwarding address *)
  let leaks = Hw_sim.Internet.lan_source_leaks (Home.internet home) in
  let device_ip = Option.get (Device.ip d) in
  Alcotest.(check bool) "device address never leaked" true
    (not (List.exists (fun (ip, _) -> Ip.equal ip device_ip) leaks));
  (* per-device attribution survives NAT in the measurement plane *)
  (match
     Hw_hwdb.Database.query (Router.db router)
       (Printf.sprintf "SELECT SUM(bytes) AS b FROM Flows WHERE dst_ip = '%s'"
          (Ip.to_string device_ip))
   with
  | Ok { Hw_hwdb.Query.rows = [ [ v ] ]; _ } ->
      Alcotest.(check bool) "downloads attributed to the device" true
        (Option.value (Hw_hwdb.Value.as_float v) ~default:0. > 0.)
  | _ -> Alcotest.fail "no Flows data");
  (match
     Hw_hwdb.Database.query (Router.db router)
       (Printf.sprintf "SELECT COUNT(*) AS n FROM Flows WHERE dst_ip = '%s'"
          (Ip.to_string wan_ip))
   with
  | Ok { Hw_hwdb.Query.rows = [ [ Hw_hwdb.Value.Int 0 ] ]; _ } -> ()
  | _ -> Alcotest.fail "WAN address leaked into the measurement plane");
  (* bindings are garbage-collected when flows idle out *)
  Device.stop d;
  Home.run_for home 30.;
  Alcotest.(check int) "bindings collected" 0 (Router.nat_binding_count router);
  Alcotest.(check int) "flows drained" 0 (Router.flows_installed router);
  Alcotest.(check int) "measurement baselines forgotten" 0 (Router.flow_baseline_count router)

let test_flows_idle_out () =
  let home, _ = small_home ~apps:[ App_profile.web ] 1 in
  Home.run_for home 30.;
  let had = Router.flows_installed (Home.router home) in
  Alcotest.(check bool) "flows existed" true (had > 0);
  (* stop traffic and wait beyond the idle timeout *)
  List.iter Device.stop (Home.devices home);
  Home.run_for home 30.;
  Alcotest.(check int) "table drained" 0 (Router.flows_installed (Home.router home))

(* 1,000 installed flows make the 1 s poll's flow-stats reply ~96 KB,
   more than one OpenFlow message can carry: it must cross the channel
   in parts rather than as one message with a wrapped length, which the
   controller would misparse, detaching the datapath and wiping the
   table on the reconnect's resync. *)
let test_flow_stats_reply_over_64k () =
  let home = Home.create () in
  let router = Home.router home in
  Home.run_for home 0.5;
  let conn =
    match Hw_controller.Controller.connections (Router.controller router) with
    | [ conn ] -> conn
    | _ -> Alcotest.fail "no OpenFlow connection"
  in
  for i = 0 to 999 do
    let m =
      {
        Hw_openflow.Ofp_match.wildcard_all with
        Hw_openflow.Ofp_match.dl_type = Some 0x0800;
        nw_proto = Some 17;
        nw_src = Some (Ip.of_octets 10 0 (i / 256) (i mod 256), 32);
        nw_dst = Some (Ip.of_octets 93 184 216 34, 32);
      }
    in
    Hw_controller.Controller.install_flow conn m [ Hw_openflow.Ofp_action.output 1 ]
  done;
  Alcotest.(check int) "installed" 1000 (Router.flows_installed router);
  Home.run_for home 3.;
  let leaves =
    Hw_metrics.Counter.value
      (Hw_metrics.Registry.counter (Router.metrics router) "ctrl_datapath_leave_total")
  in
  Alcotest.(check int) "no datapath leave" 0 leaves;
  Alcotest.(check int) "flows survive three polls" 1000 (Router.flows_installed router);
  Alcotest.(check int) "every flow has a baseline" 1000 (Router.flow_baseline_count router)

(* A home with NAT and four devices, each on its own apps. *)
let nat_home ~seed =
  let home = Home.create ~seed ~config:(Router.config ~nat:(Ip.of_octets 81 2 3 4) ()) () in
  let router = Home.router home in
  List.iteri
    (fun i apps ->
      Dhcp_server.permit (Router.dhcp router) (mac i);
      ignore
        (Home.add_device home
           (if i mod 2 = 0 then
              Device.wireless ~distance_m:(3. +. (3. *. float_of_int i))
                ~name:(Printf.sprintf "nat%d" i) ~mac:(mac i) apps
            else Device.wired ~name:(Printf.sprintf "nat%d" i) ~mac:(mac i) apps)))
    [
      [ App_profile.web; App_profile.video ];
      [ App_profile.p2p ];
      [ App_profile.voip; App_profile.https ];
      [ App_profile.iot_telemetry ];
    ];
  home

let test_soak_one_hour_bounded_state () =
  (* one virtual hour of a full household with NAT: every stateful
     structure must stay bounded (flows idle out, hwdb rings cap, NAT
     bindings die with their flows, leases renew rather than accrete) *)
  let home = nat_home ~seed:7 in
  let router = Home.router home in
  let max_flows = ref 0 and max_bindings = ref 0 and max_baselines = ref 0 in
  (* a measurement baseline belongs to an installed flow: both halves of
     a NAT binding report their removal *)
  let orphan_baselines = ref 0 in
  for _ = 1 to 60 do
    Home.run_for home 60.;
    let flows = Router.flows_installed router
    and bindings = Router.nat_binding_count router
    and baselines = Router.flow_baseline_count router in
    max_flows := max !max_flows flows;
    max_bindings := max !max_bindings bindings;
    max_baselines := max !max_baselines baselines;
    orphan_baselines := max !orphan_baselines (baselines - flows)
  done;
  (* all devices still online after an hour of renewals *)
  List.iter
    (fun d ->
      Alcotest.(check bool) (Device.name d ^ " still bound") true
        (Device.dhcp_state d = Device.Bound))
    (Home.devices home);
  (* state stayed bounded *)
  Alcotest.(check bool) "flow table bounded" true (!max_flows < 500);
  Alcotest.(check bool) "nat bindings bounded" true (!max_bindings < 200);
  Alcotest.(check bool) "flow baselines bounded" true (!max_baselines < 500);
  Alcotest.(check int) "no baseline outlives its flow" 0 !orphan_baselines;
  Alcotest.(check int) "exactly four leases" 4
    (List.length (Hw_dhcp.Lease_db.active (Dhcp_server.lease_db (Router.dhcp router))));
  (* hwdb rings are at their capacity ceiling, not beyond *)
  let flows_table = Option.get (Hw_hwdb.Database.table (Router.db router) "Flows") in
  Alcotest.(check bool) "hwdb ring capped" true
    (Hw_hwdb.Table.length flows_table <= Hw_hwdb.Table.capacity flows_table);
  Alcotest.(check bool) "hwdb saw sustained inserts" true
    (Hw_hwdb.Table.total_inserted flows_table > Hw_hwdb.Table.capacity flows_table);
  (* renewals happened (lease_time 3600, renew at half-life) *)
  let renews = query_rows home "SELECT COUNT(*) AS n FROM Leases WHERE action = 'renew'" in
  (match renews with
  | [ [ Hw_hwdb.Value.Int n ] ] -> Alcotest.(check bool) "renewals recorded" true (n >= 4)
  | _ -> Alcotest.fail "no renew count");
  (* and the internet never saw a private source (NAT held for an hour) *)
  Alcotest.(check int) "no lan leaks" 0
    (List.length (Hw_sim.Internet.lan_source_leaks (Home.internet home)))

(* Every row of the Flows table, timestamps included, as one string. *)
let flows_dump home =
  let tbl = Option.get (Hw_hwdb.Database.table (Router.db (Home.router home)) "Flows") in
  Alcotest.(check bool) "every Flows row retained" true
    (Hw_hwdb.Table.total_inserted tbl <= Hw_hwdb.Table.capacity tbl);
  let row (tu : Hw_hwdb.Value.tuple) =
    Printf.sprintf "%h|%s" tu.Hw_hwdb.Value.ts
      (String.concat "|" (Array.to_list (Array.map Hw_hwdb.Value.to_string tu.Hw_hwdb.Value.values)))
  in
  let rows = Hw_hwdb.Table.scan tbl in
  (List.length rows, Digest.to_hex (Digest.string (String.concat "\n" (List.map row rows))))

(* The Flows rows of two seeded 300 s homes, one with NAT, equal those
   the full-decode poll wrote (its row count and a digest of every row,
   captured before the poll read its reply in place). *)
let test_flows_golden () =
  let standard = Home.standard_home ~seed:11 () in
  Home.permit_all standard;
  Home.run_for standard 300.;
  Alcotest.(check (pair int string))
    "standard home" (1345, "081ad6bf976e15d4467bf07962ab80ee") (flows_dump standard);
  let nat = nat_home ~seed:12 in
  Home.run_for nat 300.;
  Alcotest.(check (pair int string))
    "NAT home" (921, "ebfd203dfd4bc3c45eb0281b09c4b0ad") (flows_dump nat)

(* A simulated home's traffic, pinned to literals: a UDP streamer (the
   perfbench stream profile at a tenth of its packet size) and two web
   clients run 120 s from one seed, the streamer power-cycled in the
   middle of a stream. A simulator change that alters what the router
   sees (a frame, an instant, a count) fails here. *)
let test_home_traffic_pinned () =
  let home = Home.create ~seed:21 () in
  let stream =
    {
      App_profile.voip with
      App_profile.app_name = "stream";
      dst_host = "video.example.com";
      dst_port = 9000;
      session_mean_interval = 5.;
      session_duration = 10.;
      request_bytes = 78_000;
      packet_size = 100;
    }
  in
  let add config =
    Dhcp_server.permit (Router.dhcp (Home.router home)) config.Device.mac;
    Home.add_device home config
  in
  let streamer = add (Device.wired ~name:"streamer" ~mac:(mac 1) [ stream ]) in
  ignore (add (Device.wireless ~distance_m:6. ~name:"laptop" ~mac:(mac 2) [ App_profile.web ]));
  ignore (add (Device.wired ~name:"desktop" ~mac:(mac 3) [ App_profile.web; App_profile.https ]));
  Home.run_for home 60.;
  Device.stop streamer;
  Home.run_for home 1.;
  Device.start streamer;
  Home.run_for home 59.;
  let traffic d =
    let st = Device.stats d in
    ( Device.name d,
      [ st.Device.tx_packets; st.Device.tx_bytes; st.Device.rx_packets; st.Device.rx_bytes ] )
  in
  let rt = Home.router home in
  let counter name =
    match Hw_metrics.Registry.find (Router.metrics rt) name with
    | Some (Hw_metrics.Registry.Counter c) -> Hw_metrics.Counter.value c
    | _ -> Alcotest.failf "no counter %s" name
  in
  let flows =
    Hw_hwdb.Table.total_inserted (Option.get (Hw_hwdb.Database.table (Router.db rt) "Flows"))
  in
  let net = Home.internet home in
  Alcotest.(check (list (pair string (list int))))
    "per device: tx packets, bytes; rx packets, bytes"
    [
      ("streamer", [ 22111; 3140291; 22100; 3138412 ]);
      ("laptop", [ 58; 24621; 355; 439710 ]);
      ("desktop", [ 131; 63377; 787; 1000096 ]);
    ]
    (List.map traffic (Home.devices home));
  Alcotest.(check (list int)) "internet rx, tx bytes; datapath frames; Flows rows"
    [ 3225382; 4575026; 45522; 806 ]
    [
      Hw_sim.Internet.rx_bytes net;
      Hw_sim.Internet.tx_bytes net;
      counter "dp_rx_frames_total";
      flows;
    ]

(* Bytes are conserved from the datapath to Flows in a NAT home whose
   device is denied mid-traffic, 0.6 s after a poll, six times: every
   byte a measured flow counted, inbound halves included, reaches a
   Flows row once the table has drained. The datapath's side is read
   from its flow table, sampled every 0.25 s and just before each deny;
   a removed entry keeps its final counters, so seeing each entry once
   suffices (none lives less than 0.25 s: flows idle out after 10 s and
   the denies are sampled). *)
let test_nat_inbound_tail_conserved () =
  let home = nat_home ~seed:5 in
  let router = Home.router home in
  let table = Hw_datapath.Datapath.flow_table (Router.datapath router) in
  let seen = Hashtbl.create 512 in
  let sample () =
    List.iter
      (fun (e : Hw_datapath.Flow_entry.t) ->
        let m = e.Hw_datapath.Flow_entry.entry_match in
        let open Hw_openflow.Ofp_match in
        match (m.nw_src, m.nw_dst, m.nw_proto) with
        | Some _, Some _, Some proto when proto <> 0 && e.Hw_datapath.Flow_entry.actions <> [] ->
            Hashtbl.replace seen
              (e.Hw_datapath.Flow_entry.priority, m, e.Hw_datapath.Flow_entry.install_time)
              e
        | _ -> ())
      (Hw_datapath.Flow_table.entries table)
  in
  Hw_sim.Event_loop.every (Home.loop home) 0.25 sample;
  let every_device verb =
    List.iter
      (fun d ->
        let path = Printf.sprintf "/api/devices/%s/%s" (Mac.to_string (Device.mac d)) verb in
        Alcotest.(check int) (verb ^ " accepted") 200
          (http home (Http.request Http.POST path)).Http.status)
      (Home.devices home)
  in
  for cycle = 0 to 5 do
    let at = 30. +. (20. *. float_of_int cycle) in
    Home.run_until home (at +. 0.6);
    sample ();
    every_device "deny";
    Home.run_until home (at +. 1.6);
    every_device "permit"
  done;
  List.iter Device.stop (Home.devices home);
  Home.run_for home 40.;
  Alcotest.(check int) "flows drained" 0 (Router.flows_installed router);
  let counted =
    Hashtbl.fold
      (fun _ (e : Hw_datapath.Flow_entry.t) acc -> acc + Int64.to_int e.Hw_datapath.Flow_entry.byte_count)
      seen 0
  in
  ignore (flows_dump home);
  let recorded =
    List.fold_left
      (fun acc (tu : Hw_hwdb.Value.tuple) ->
        match tu.Hw_hwdb.Value.values.(6) with Hw_hwdb.Value.Int b -> acc + b | _ -> acc)
      0
      (Hw_hwdb.Table.scan (Option.get (Hw_hwdb.Database.table (Router.db router) "Flows")))
  in
  Alcotest.(check bool) "traffic was measured" true (counted > 100_000);
  Alcotest.(check int) "datapath bytes = Flows bytes" counted recorded

(* A Links row owns its array and the cells no other row could share:
   its station's MAC cell is the router's one cell for that station, and
   small integers (RSSI, retries) are the hwdb's shared cells. *)
let test_links_rows_share_cells () =
  let router = Router.create ~loop:(Hw_sim.Event_loop.create ()) () in
  let links = Option.get (Hw_hwdb.Database.table (Router.db router) "Links") in
  let before = Obj.reachable_words (Obj.repr links) in
  let rows = 1000 in
  for i = 0 to rows - 1 do
    Router.report_link router ~mac:(mac (i mod 4)) ~rssi:(-40 - (i mod 30)) ~retries:(i mod 7)
      ~packets:(100 * i)
  done;
  Alcotest.(check int) "rows stored" rows (Hw_hwdb.Table.length links);
  let words = Obj.reachable_words (Obj.repr links) - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d words for %d rows" words rows)
    true
    (float_of_int words /. float_of_int rows <= 9.);
  (* the first cell seen for a station, or for a retry count, is the
     cell of every row with that station or count *)
  let first_cell = Hashtbl.create 16 in
  let shares key cell =
    match Hashtbl.find_opt first_cell key with
    | None ->
        Hashtbl.replace first_cell key cell;
        true
    | Some first -> first == cell
  in
  let own_cells =
    Hw_hwdb.Table.fold_window links `All ~init:0 ~f:(fun n row _ ->
        let v = Hw_hwdb.Value.to_string in
        if shares ("mac " ^ v row.(0)) row.(0) && shares ("retries " ^ v row.(2)) row.(2) then n
        else n + 1)
  in
  Alcotest.(check int) "stations and retry counts" (4 + 7) (Hashtbl.length first_cell);
  Alcotest.(check int) "rows with their own station or retry cell" 0 own_cells

(* The 1 s poll of 250 installed flows with no traffic writes no row and
   allocates, per entry, less than one match decode does: an unchanged
   flow is read in place, its match left undecoded. A poll that decodes
   every entry into a record allocates ~200 words an entry; a match
   decode allocates ~50. *)
let test_poll_allocation_bound () =
  let home = Home.create () in
  let router = Home.router home in
  Home.run_for home 0.5;
  let conn =
    match Hw_controller.Controller.connections (Router.controller router) with
    | [ conn ] -> conn
    | _ -> Alcotest.fail "no OpenFlow connection"
  in
  let n = 250 in
  for i = 0 to n - 1 do
    Hw_controller.Controller.install_flow conn
      {
        Hw_openflow.Ofp_match.wildcard_all with
        Hw_openflow.Ofp_match.dl_type = Some 0x0800;
        nw_proto = Some 17;
        nw_src = Some (Ip.of_octets 10 0 (i / 256) (i mod 256), 32);
        nw_dst = Some (Ip.of_octets 93 184 216 34, 32);
        tp_src = Some (1024 + i);
        tp_dst = Some 53;
      }
      [ Hw_openflow.Ofp_action.output Router.upstream_port ]
  done;
  (* the tick's polls have seen every flow once *)
  Home.run_for home 2.;
  Alcotest.(check int) "every flow has a baseline" n (Router.flow_baseline_count router);
  let flows = Option.get (Hw_hwdb.Database.table (Router.db router) "Flows") in
  let rows = Hw_hwdb.Table.total_inserted flows in
  let least f =
    List.fold_left min infinity
      (List.init 3 (fun _ ->
           let before = Gc.minor_words () in
           f ();
           Gc.minor_words () -. before))
  in
  let per_entry = least (fun () -> Router.poll_flow_stats router) /. float_of_int n in
  Alcotest.(check int) "no row written" rows (Hw_hwdb.Table.total_inserted flows);
  let wire =
    let w = Hw_util.Wire.Writer.create () in
    Hw_openflow.Ofp_match.encode w
      (List.hd (Hw_datapath.Flow_table.entries (Hw_datapath.Datapath.flow_table (Router.datapath router))))
        .Hw_datapath.Flow_entry.entry_match;
    Hw_util.Wire.Writer.contents w
  in
  let decode_words =
    least (fun () ->
        ignore (Sys.opaque_identity (Hw_openflow.Ofp_match.decode (Hw_util.Wire.Reader.of_string wire))))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words an entry < %.0f, one match decode" per_entry decode_words)
    true (per_entry < decode_words);
  Alcotest.(check bool) (Printf.sprintf "%.1f words an entry <= 24" per_entry) true (per_entry <= 24.)

let test_device_isolation () =
  let probe ~isolate =
    let home = Home.create ~config:(Router.config ~isolate_devices:isolate ()) () in
    let router = Home.router home in
    Dhcp_server.permit (Router.dhcp router) (mac 0);
    Dhcp_server.permit (Router.dhcp router) (mac 1);
    let a = Home.add_device home (Device.wired ~name:"a" ~mac:(mac 0) []) in
    let b = Home.add_device home (Device.wired ~name:"b" ~mac:(mac 1) []) in
    Home.run_for home 10.;
    let b_ip = Option.get (Device.ip b) in
    (* a sends to b twice (the first send also does ARP, which devices
       answer themselves and isolation does not touch) *)
    let before = (Device.stats b).Device.rx_packets in
    Device.send_udp a ~dst_ip:b_ip ~dst_port:9999 ~src_port:9998 "hello";
    Home.run_for home 2.;
    let mid = (Device.stats b).Device.rx_packets in
    Device.send_udp a ~dst_ip:b_ip ~dst_port:9999 ~src_port:9998 "again";
    Home.run_for home 2.;
    let after = (Device.stats b).Device.rx_packets in
    (* the second send is pure UDP: did it arrive? *)
    (after > mid, mid > before, Router.blocked_flow_count router)
  in
  let open_udp, _, open_blocked = probe ~isolate:false in
  Alcotest.(check bool) "open home: device-to-device flows" true open_udp;
  Alcotest.(check int) "open home: nothing blocked" 0 open_blocked;
  let iso_udp, _, iso_blocked = probe ~isolate:true in
  Alcotest.(check bool) "isolated home: flow refused" false iso_udp;
  Alcotest.(check bool) "isolated home: drop flow installed" true (iso_blocked >= 1)

let test_determinism_per_seed () =
  (* the README promises deterministic runs per seed *)
  let run seed =
    let home = Home.standard_home ~seed () in
    Home.permit_all home;
    Home.run_for home 60.;
    let router = Home.router home in
    ( Router.packet_ins router,
      Router.flows_installed router,
      List.map
        (fun d -> (Device.name d, (Device.stats d).Device.tx_bytes, (Device.stats d).Device.rx_bytes))
        (Home.devices home) )
  in
  let a = run 42 and b = run 42 and c = run 43 in
  Alcotest.(check bool) "same seed identical" true (a = b);
  Alcotest.(check bool) "different seed differs" false (a = c)

let test_status_endpoint () =
  let home, _ = small_home 2 in
  Home.run_for home 10.;
  let resp = http home (Http.request Http.GET "/api/status") in
  Alcotest.(check int) "200" 200 resp.Http.status;
  let j = Json.of_string resp.Http.body in
  Alcotest.(check int) "device count" 2 (Json.to_int (Json.member "devices" j));
  Alcotest.(check bool) "packet_ins positive" true (Json.to_int (Json.member "packet_ins" j) > 0)

(* ------------------------------------------------------------------ *)
(* Packet-in decode                                                    *)
(* ------------------------------------------------------------------ *)

(* How many times the router decodes one frame on its way from
   [Router.receive_frame] to the components, counted by the one copy of
   the Ethernet payload each [Packet.decode] makes: the frame is sent
   with and without [pad] bytes of Ethernet padding, which every header
   ignores, and the words the padding adds beyond what it adds on a bare
   datapath (the packet-in and the OpenFlow channel) are divided by its
   size. Each figure is the least of three sends, so that a one-off
   table resize does not count. *)
let pad = 1024

(* every copy of a padded frame is below the 256-word limit for minor
   allocation, so the minor heap counts all of them *)
let words_allocated f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let padding_words send next_frame =
  let least padding =
    List.fold_left min infinity
      (List.init 3 (fun _ ->
           let frame = next_frame () ^ String.make padding '\000' in
           words_allocated (fun () -> send frame)))
  in
  least pad -. least 0

let bare_datapath_padding_words next_frame =
  let module Datapath = Hw_datapath.Datapath in
  let module Ofp_message = Hw_openflow.Ofp_message in
  let framing = Ofp_message.Framing.create () in
  let port n = { Datapath.port_no = n; name = Printf.sprintf "p%d" n; mac = Mac.local (0xc0 + n) } in
  let dp =
    Datapath.create ~dpid:1L ~ports:[ port 1; port 2 ]
      ~transmit:(fun ~port_no:_ _ -> ())
      ~to_controller:(fun bytes ->
        Ofp_message.Framing.input framing bytes;
        ignore (Ofp_frames.decoded framing))
      ~now:(fun () -> 0.) ()
  in
  (* whole frames in packet-ins, as the router's controller configures *)
  Datapath.input_from_controller dp
    (Ofp_message.encode ~xid:1l (Ofp_message.Set_config { flags = 0; miss_send_len = 0xffff }));
  padding_words (fun frame -> Datapath.receive_frame dp ~in_port:1 frame) next_frame

let test_packet_in_decodes () =
  let home, devices = small_home 1 in
  Home.run_for home 30.;
  let r = Home.router home in
  let dev = List.hd devices in
  let dev_mac = Device.mac dev and dev_ip = Option.get (Device.ip dev) in
  let in_port = Router.wireless_port in
  let decodes what next_frame =
    let extra =
      padding_words (fun frame -> Router.receive_frame r ~in_port frame) next_frame
      -. bare_datapath_padding_words next_frame
    in
    let n = extra /. float_of_int (pad / (Sys.word_size / 8)) in
    Alcotest.(check bool) (Printf.sprintf "%s: a whole number of decodes (%.2f)" what n) true
      (Float.abs (n -. Float.round n) < 0.2);
    Float.to_int (Float.round n)
  in
  (* an outbound TCP flow: a fresh source port each time, so each frame
     is a new flow's first packet *)
  let port = ref 40000 in
  let flows = Router.flows_installed r in
  let tcp () =
    incr port;
    Packet.encode
      (Packet.tcp_packet ~src_mac:dev_mac ~dst_mac:Hw_sim.Internet.mac ~src_ip:dev_ip
         ~dst_ip:(Ip.of_octets 93 184 216 34) ~src_port:!port ~dst_port:80 "GET /")
  in
  Alcotest.(check int) "LAN->WAN TCP setup never decodes" 0 (decodes "tcp" tcp);
  Alcotest.(check bool) "each TCP frame installed a flow" true
    (Router.flows_installed r - flows >= 6);
  let dhcp () =
    Packet.encode
      (Packet.dhcp_packet ~src_mac:dev_mac ~dst_mac:Mac.broadcast ~src_ip:Ip.any
         ~dst_ip:Ip.broadcast
         (Dhcp_wire.make_request ~xid:7l ~chaddr:dev_mac Dhcp_wire.Discover))
  in
  Alcotest.(check int) "DHCP decodes once" 1 (decodes "dhcp" dhcp);
  let dns () =
    Packet.encode
      (Packet.dns_query_packet ~src_mac:dev_mac ~dst_mac:(Router.router_mac r) ~src_ip:dev_ip
         ~dst_ip:(Router.router_ip r) ~src_port:5353
         (Dns_wire.query ~id:9 "example.com" Dns_wire.A))
  in
  Alcotest.(check int) "DNS decodes once" 1 (decodes "dns" dns);
  let arp () =
    Packet.encode
      (Packet.arp_packet ~src_mac:dev_mac
         (Arp.request ~sender_mac:dev_mac ~sender_ip:dev_ip ~target_ip:(Router.router_ip r)))
  in
  Alcotest.(check int) "ARP decodes once" 1 (decodes "arp" arp)

let () =
  Alcotest.run "integration"
    [
      ( "join",
        [
          Alcotest.test_case "devices join, distinct leases" `Quick
            test_devices_join_and_get_distinct_leases;
          Alcotest.test_case "traffic + Flows table" `Quick
            test_traffic_reaches_internet_and_flows_recorded;
          Alcotest.test_case "Links table" `Quick test_wireless_links_recorded;
          Alcotest.test_case "unpermitted stays off" `Quick test_unpermitted_device_stays_off;
        ] );
      ( "control",
        [
          Alcotest.test_case "permit via API" `Quick test_control_api_permit_end_to_end;
          Alcotest.test_case "deny via API" `Quick test_control_api_deny_revokes_and_blocks;
          Alcotest.test_case "denied device cannot reuse its old address" `Quick
            test_denied_device_cannot_reuse_released_address;
          Alcotest.test_case "status endpoint" `Quick test_status_endpoint;
          Alcotest.test_case "determinism per seed" `Quick test_determinism_per_seed;
          Alcotest.test_case "device isolation" `Quick test_device_isolation;
        ] );
      ( "dns",
        [
          Alcotest.test_case "policy blocks lookup" `Quick test_dns_policy_blocks_lookup;
          Alcotest.test_case "flow admission blocks traffic" `Quick
            test_upstream_flow_admission_blocks_traffic;
        ] );
      ( "policy", [ Alcotest.test_case "usb key cycle" `Quick test_policy_usb_cycle ] );
      ( "interfaces",
        [
          Alcotest.test_case "bandwidth view" `Quick test_bandwidth_view_reflects_traffic;
          Alcotest.test_case "control ui drag" `Quick test_control_ui_drag_cycle;
          Alcotest.test_case "artifact events" `Quick test_artifact_fed_from_router_events;
          Alcotest.test_case "artifact driver via hwdb" `Quick
            test_artifact_driver_from_measurement_plane;
          Alcotest.test_case "rpc" `Quick test_rpc_through_router;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "flows idle out" `Quick test_flows_idle_out;
          Alcotest.test_case "nat mode" `Quick test_nat_mode;
          Alcotest.test_case "flow-stats reply over 64 KiB" `Quick test_flow_stats_reply_over_64k;
          Alcotest.test_case "poll allocation bound" `Quick test_poll_allocation_bound;
          Alcotest.test_case "NAT inbound tail conserved" `Quick test_nat_inbound_tail_conserved;
          Alcotest.test_case "Flows golden" `Quick test_flows_golden;
          Alcotest.test_case "home traffic pinned" `Quick test_home_traffic_pinned;
          Alcotest.test_case "one-hour soak" `Slow test_soak_one_hour_bounded_state;
          Alcotest.test_case "Links rows share their cells" `Quick test_links_rows_share_cells;
        ] );
      ( "decode",
        [ Alcotest.test_case "packet-in decodes per path" `Quick test_packet_in_decodes ] );
    ]
