(* Benchmark harness: regenerates the data behind each of the paper's five
   figures from the reproduced system, then runs the system-performance
   microbenchmarks (PERF1-5 in DESIGN.md) with Bechamel.

   Usage: main.exe [fig1|fig2|fig3|fig4|fig5|micro|check|all]   (default all)

   [check] gates the latest BENCH_micro.json against PERF_budget.json
   (exit 1 on violation) — used as the CI perf-regression step. *)

open Hw_packet
module Home = Hw_router.Home
module Router = Hw_router.Router
module Device = Hw_sim.Device
module App_profile = Hw_sim.App_profile

let banner title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

(* ------------------------------------------------------------------ *)
(* FIG1: per-device per-protocol bandwidth display                     *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  banner "FIG1  Per-device per-protocol bandwidth (the iPhone display)";
  let home = Home.standard_home () in
  let router = Home.router home in
  Home.permit_all home;
  let view =
    Hw_ui.Bandwidth_view.create ~window_seconds:10. ~label_of_ip:(Home.label_of_ip home)
      ~db:(Router.db router) ()
  in
  Home.run_for home 30.;
  Printf.printf "\ntime series: total and per-device bandwidth, 1 sample / 10 s\n\n";
  Printf.printf "%8s  %10s   per-device (kb/s)\n" "t (s)" "total";
  for _ = 1 to 9 do
    Home.run_for home 10.;
    ignore (Hw_ui.Bandwidth_view.refresh view);
    let rows = Hw_ui.Bandwidth_view.last view in
    let total = List.fold_left (fun acc r -> acc +. r.Hw_ui.Bandwidth_view.total_bps) 0. rows in
    Printf.printf "%8.0f  %7.1f kb/s  " (Home.now home) (total /. 1e3);
    List.iter
      (fun r ->
        Printf.printf "%s=%.1f " r.Hw_ui.Bandwidth_view.device_label
          (r.Hw_ui.Bandwidth_view.total_bps /. 1e3))
      rows;
    print_newline ()
  done;
  (* the on-screen display smooths over a wider window *)
  let display =
    Hw_ui.Bandwidth_view.create ~window_seconds:60. ~label_of_ip:(Home.label_of_ip home)
      ~db:(Router.db router) ()
  in
  ignore (Hw_ui.Bandwidth_view.refresh display);
  Printf.printf "\nfinal display (left-hand side of the paper's screenshot, 60 s window):\n\n";
  print_string (Hw_ui.Bandwidth_view.render display);
  (match Hw_ui.Bandwidth_view.last display with
  | top :: _ ->
      Printf.printf "\ndrill-down (right-hand side: \"usage per protocol\"):\n\n";
      print_string (Hw_ui.Bandwidth_view.render_device display top.Hw_ui.Bandwidth_view.device_ip)
  | [] -> ());
  Printf.printf "\n[shape check] distinct devices shown: %d; protocols classified: %s\n"
    (List.length (Hw_ui.Bandwidth_view.last display))
    (String.concat ","
       (List.sort_uniq compare
          (List.concat_map
             (fun r -> List.map (fun a -> a.Hw_ui.Bandwidth_view.app) r.Hw_ui.Bandwidth_view.apps)
             (Hw_ui.Bandwidth_view.last display))))

(* ------------------------------------------------------------------ *)
(* FIG2: the network artifact's three modes                            *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  banner "FIG2  Network artifact (ambient physical interface)";
  let home = Home.standard_home () in
  let router = Home.router home in
  Home.permit_all home;
  let artifact = Hw_ui.Artifact.create ~leds:12 () in
  Hw_dhcp.Dhcp_server.on_event (Router.dhcp router) (fun ev ->
      match ev with
      | Hw_dhcp.Dhcp_server.Lease_granted _ -> Hw_ui.Artifact.notify_lease artifact `Grant
      | Hw_dhcp.Dhcp_server.Lease_revoked _ -> Hw_ui.Artifact.notify_lease artifact `Revoke
      | _ -> ());
  Home.run_for home 20.;

  Printf.printf "\nMode 1: RSSI -> number of LEDs lit (a walk through the house)\n\n";
  Hw_ui.Artifact.set_mode artifact Hw_ui.Artifact.Signal_strength;
  let probe =
    Home.add_device home
      (Device.wireless ~distance_m:1. ~name:"artifact-probe" ~mac:(Mac.local 0x7f) [])
  in
  Hw_dhcp.Dhcp_server.permit (Router.dhcp router) (Device.mac probe);
  Printf.printf "%10s %10s %14s %s\n" "dist (m)" "rssi(dBm)" "LEDs lit" "face";
  List.iter
    (fun d ->
      Device.set_distance probe d;
      Home.run_for home 1.;
      let rssi = Option.value (Device.rssi probe) ~default:(-100) in
      Hw_ui.Artifact.update_rssi artifact rssi;
      Printf.printf "%10.1f %10d %10d/12     [%s]\n" d rssi
        (Hw_ui.Artifact.lit_count artifact)
        (Hw_ui.Artifact.render_ascii artifact))
    [ 1.; 2.; 4.; 6.; 9.; 13.; 18.; 25.; 34.; 45. ];

  Printf.printf "\nMode 2: total bandwidth vs daily peak -> animation speed\n\n";
  Hw_ui.Artifact.set_mode artifact Hw_ui.Artifact.Bandwidth_animation;
  Home.run_for home 20.;
  let total_bps window =
    match
      Hw_hwdb.Database.query (Router.db router)
        (Printf.sprintf "SELECT SUM(bytes) AS b FROM Flows [RANGE %g SECONDS]" window)
    with
    | Ok { Hw_hwdb.Query.rows = [ [ v ] ]; _ } ->
        8. *. Option.value (Hw_hwdb.Value.as_float v) ~default:0. /. window
    | _ -> 0.
  in
  let peak = Float.max 1. (total_bps 20.) in
  Printf.printf "%16s %12s\n" "load (vs peak)" "chaser rev/s";
  List.iter
    (fun fraction ->
      Hw_ui.Artifact.update_bandwidth artifact ~current_bps:peak;
      (* fix the peak, then apply the fraction *)
      Hw_ui.Artifact.update_bandwidth artifact ~current_bps:(fraction *. peak);
      Printf.printf "%15.0f%% %12.2f\n" (fraction *. 100.) (Hw_ui.Artifact.chaser_speed artifact))
    [ 0.; 0.1; 0.25; 0.5; 0.75; 1.0 ];

  Printf.printf "\nMode 3: DHCP lease activity and retry storms -> colour flashes\n\n";
  Hw_ui.Artifact.set_mode artifact Hw_ui.Artifact.Event_flashes;
  let show label =
    Printf.printf "%-24s" label;
    for _ = 1 to 6 do
      Hw_ui.Artifact.tick artifact ~dt:0.25;
      Printf.printf "[%s] " (Hw_ui.Artifact.render_ascii artifact)
    done;
    print_newline ()
  in
  let guest =
    Home.add_device home
      (Device.wireless ~distance_m:5. ~name:"guest" ~mac:(Mac.local 0x7e) [])
  in
  Hw_dhcp.Dhcp_server.permit (Router.dhcp router) (Device.mac guest);
  Home.run_for home 3.;
  show "lease granted (green):";
  Hw_dhcp.Dhcp_server.deny (Router.dhcp router) (Device.mac guest);
  show "lease revoked (blue):";
  Hw_ui.Artifact.notify_retry_alarm artifact;
  show "retry storm (red):"

(* ------------------------------------------------------------------ *)
(* FIG3: DHCP permit/deny control interface                            *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  banner "FIG3  Situated control interface: drag devices to permit/deny";
  let home = Home.create () in
  let router = Home.router home in
  let ui = Hw_ui.Control_ui.create ~http:(Router.http router) in
  let names =
    [ "toms-mac-air"; "kids-tablet"; "mums-phone"; "smart-tv"; "printer";
      "unknown-android"; "mystery-box"; "neighbours-phone" ]
  in
  List.iteri
    (fun i name ->
      ignore
        (Home.add_device home
           (Device.wireless ~distance_m:(3. +. float_of_int i) ~name ~mac:(Mac.local (0x40 + i))
              [ App_profile.web ])))
    names;
  Home.run_for home 10.;
  ignore (Hw_ui.Control_ui.refresh ui);
  Printf.printf "\nall eight devices detected while requesting access:\n\n";
  print_string (Hw_ui.Control_ui.render ui);
  (* the householder permits five and denies three *)
  List.iteri
    (fun i _ ->
      let m = Mac.to_string (Mac.local (0x40 + i)) in
      let col = if i < 5 then Hw_ui.Control_ui.Permitted_col else Hw_ui.Control_ui.Denied_col in
      ignore (Hw_ui.Control_ui.drag ui ~mac:m col))
    names;
  ignore (Hw_ui.Control_ui.supply_metadata ui ~mac:(Mac.to_string (Mac.local 0x40)) "Tom's Mac Air");
  Home.run_for home 60.;
  ignore (Hw_ui.Control_ui.refresh ui);
  Printf.printf "\nafter the drags (5 permitted, 3 denied) and a retry period:\n\n";
  print_string (Hw_ui.Control_ui.render ui);
  let bound =
    List.length
      (List.filter (fun d -> Device.dhcp_state d = Device.Bound) (Home.devices home))
  in
  Printf.printf "\n[shape check] devices online: %d/5 permitted; denied remain off: %b\n" bound
    (List.for_all
       (fun d -> Device.dhcp_state d <> Device.Bound)
       (List.filteri (fun i _ -> i >= 5) (Home.devices home)));
  Printf.printf "\nhwdb Leases event log (most recent 12):\n";
  match
    Hw_hwdb.Database.query (Router.db router)
      "SELECT mac, hostname, action FROM Leases [ROWS 12]"
  with
  | Ok rs ->
      List.iter
        (fun row -> Printf.printf "  %s\n" (String.concat " | " row))
        (Hw_hwdb.Query.result_to_strings rs)
  | Error e -> Printf.printf "  error: %s\n" e

(* ------------------------------------------------------------------ *)
(* FIG4: visual policy + USB mediation enforcement matrix              *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  banner "FIG4  Policy language + USB key: enforcement matrix";
  Printf.printf
    "\npolicy: kids may use facebook, weekdays 16:00-21:00, gated on the\n\
     homework USB key. The matrix probes the kid tablet and an adult\n\
     laptop against facebook and youtube under each condition.\n\n";
  let probe ~label ~start ~key_inserted =
    let home = Home.create ~start () in
    let router = Home.router home in
    let kid_mac = Mac.local 0x51 and adult_mac = Mac.local 0x52 in
    Hw_policy.Policy.define_group (Router.policy router) "kids" [ kid_mac ];
    Hw_policy.Policy.add_rule (Router.policy router)
      {
        Hw_policy.Policy.rule_id = "kids-fb";
        group = "kids";
        services = [ Hw_policy.Policy.facebook ];
        schedule = Hw_policy.Schedule.weekdays ~start_hour:16 ~end_hour:21 ();
        requires_token = Some "homework";
      };
    Hw_dhcp.Dhcp_server.permit (Router.dhcp router) adult_mac;
    let kid =
      Home.add_device home (Device.wireless ~distance_m:6. ~name:"kid-tablet" ~mac:kid_mac [])
    in
    let adult =
      Home.add_device home (Device.wireless ~distance_m:4. ~name:"adult-laptop" ~mac:adult_mac [])
    in
    if key_inserted then
      ignore
        (Router.insert_usb router ~device:"sdb1"
           (Hw_policy.Usb_key.render { Hw_policy.Usb_key.token = "homework"; rules = [] }));
    Router.apply_policies_now router;
    Home.run_for home 45.;
    let lookup device site =
      if Device.dhcp_state device <> Device.Bound then "OFFLINE"
      else begin
        let result = ref "timeout" in
        Device.resolve device site (fun r ->
            result := match r with Some _ -> "allow" | None -> "block");
        Home.run_for home 6.;
        !result
      end
    in
    Printf.printf "%-28s kid:fb=%-8s kid:yt=%-8s adult:fb=%-8s adult:yt=%-8s\n" label
      (lookup kid "www.facebook.com") (lookup kid "www.youtube.com")
      (lookup adult "www.facebook.com") (lookup adult "www.youtube.com")
  in
  probe ~label:"Mon 17:00, no key" ~start:(Hw_time.at ~day:Hw_time.Mon ~hour:17 ~min:0)
    ~key_inserted:false;
  probe ~label:"Mon 17:00, key inserted" ~start:(Hw_time.at ~day:Hw_time.Mon ~hour:17 ~min:0)
    ~key_inserted:true;
  probe ~label:"Mon 10:00, key inserted" ~start:(Hw_time.at ~day:Hw_time.Mon ~hour:10 ~min:0)
    ~key_inserted:true;
  probe ~label:"Sat 17:00, key inserted" ~start:(Hw_time.at ~day:Hw_time.Sat ~hour:17 ~min:0)
    ~key_inserted:true;
  Printf.printf
    "\n[shape check] the kid device reaches facebook only on the weekday\n\
     in-window run with the key; the adult is never constrained.\n"

(* ------------------------------------------------------------------ *)
(* FIG5: software architecture: the packet's path through the stack    *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  banner "FIG5  Architecture: one flow's path through datapath, NOX and back";
  (* a traced router: wrap both channel directions *)
  let trace = ref [] in
  let log dir bytes =
    match Hw_openflow.Ofp_message.decode bytes with
    | Ok (_, msg) -> trace := (dir, Hw_openflow.Ofp_message.type_name msg) :: !trace
    | Error _ -> ()
  in
  let loop = Hw_sim.Event_loop.create () in
  let ctrl = Hw_controller.Controller.create ~now:(fun () -> Hw_sim.Event_loop.now loop) () in
  let dp_ref = ref None in
  let conn =
    Hw_controller.Controller.attach_switch ctrl ~send:(fun bytes ->
        log "ctrl->dp" bytes;
        Option.iter (fun dp -> Hw_datapath.Datapath.input_from_controller dp bytes) !dp_ref)
  in
  let forwarded = ref [] in
  let dp =
    Hw_datapath.Datapath.create ~dpid:1L
      ~ports:
        [
          { Hw_datapath.Datapath.port_no = 1; name = "wlan0"; mac = Mac.local 0xa1 };
          { Hw_datapath.Datapath.port_no = 100; name = "upstream"; mac = Mac.local 0xa2 };
        ]
      ~transmit:(fun ~port_no frame -> forwarded := (port_no, String.length frame) :: !forwarded)
      ~to_controller:(fun bytes ->
        log "dp->ctrl" bytes;
        Hw_controller.Controller.input ctrl conn bytes)
      ~now:(fun () -> Hw_sim.Event_loop.now loop) ()
  in
  dp_ref := Some dp;
  (* a minimal reactive forwarding component *)
  Hw_controller.Controller.on_packet_in ctrl ~name:"forward" (fun ev ->
      (match ev.Hw_controller.Controller.fields with
      | Some fields ->
          Hw_controller.Controller.send_flow_mod conn
            {
              (Hw_openflow.Ofp_message.add_flow ~idle_timeout:10
                 (Hw_openflow.Ofp_match.exact_of_fields fields)
                 [ Hw_openflow.Ofp_action.output 100 ])
              with
              Hw_openflow.Ofp_message.fm_buffer_id =
                ev.Hw_controller.Controller.pi.Hw_openflow.Ofp_message.buffer_id;
            }
      | None -> ());
      Hw_controller.Controller.Stop);
  Hw_datapath.Datapath.connect dp;
  let session = !trace in
  trace := [];
  let frame =
    Packet.encode
      (Packet.tcp_packet ~src_mac:(Mac.local 1) ~dst_mac:(Mac.local 2)
         ~src_ip:(Ip.of_octets 10 0 0 100) ~dst_ip:(Ip.of_octets 93 184 216 34)
         ~src_port:40000 ~dst_port:80 "GET /")
  in
  Hw_datapath.Datapath.receive_frame dp ~in_port:1 frame;
  let first_packet = !trace in
  trace := [];
  Hw_datapath.Datapath.receive_frame dp ~in_port:1 frame;
  let second_packet = !trace in
  let show label events =
    Printf.printf "\n%s\n" label;
    if events = [] then Printf.printf "    (no control-plane traffic: datapath fast path)\n"
    else
      List.iter (fun (dir, name) -> Printf.printf "    %-10s %s\n" dir name) (List.rev events)
  in
  show "session setup (secure channel):" session;
  show "packet 1 of the flow (reactive path):" first_packet;
  show "packet 2 of the flow:" second_packet;
  Printf.printf "\nframes forwarded on the upstream port: %d\n" (List.length !forwarded);
  Printf.printf "flow table now holds %d entries; %d packet-in(s) total\n"
    (Hw_datapath.Flow_table.length (Hw_datapath.Datapath.flow_table dp))
    (Hw_datapath.Datapath.packet_in_count dp);
  Printf.printf
    "\n[shape check] only the first packet crosses the controller; the\n\
     second is switched in the datapath, as in the paper's architecture.\n"

(* ------------------------------------------------------------------ *)
(* Microbenchmarks (PERF1-5)                                           *)
(* ------------------------------------------------------------------ *)

let make_flow_table n =
  let table = Hw_datapath.Flow_table.create () in
  for i = 0 to n - 1 do
    let m =
      {
        Hw_openflow.Ofp_match.wildcard_all with
        Hw_openflow.Ofp_match.nw_src = Some (Ip.of_octets 10 0 (i / 256) (i mod 256), 32);
        dl_type = Some 0x0800;
      }
    in
    Hw_datapath.Flow_table.add table ~now:0. ~check_overlap:false
      (Hw_datapath.Flow_entry.create ~now:0. ~priority:(i land 0xff) m
         [ Hw_openflow.Ofp_action.output 1 ])
  done;
  (* one exact-match entry we can hit on the fast path *)
  let fields =
    {
      Hw_openflow.Ofp_match.f_in_port = 1;
      f_dl_src = Mac.local 1;
      f_dl_dst = Mac.local 2;
      f_dl_vlan = 0xffff;
      f_dl_vlan_pcp = 0;
      f_dl_type = 0x0800;
      f_nw_tos = 0;
      f_nw_proto = 6;
      f_nw_src = Ip.of_octets 172 16 0 1;
      f_nw_dst = Ip.of_octets 172 16 0 2;
      f_tp_src = 1234;
      f_tp_dst = 80;
    }
  in
  Hw_datapath.Flow_table.add table ~now:0. ~check_overlap:false
    (Hw_datapath.Flow_entry.create ~now:0. ~priority:1
       (Hw_openflow.Ofp_match.exact_of_fields fields)
       [ Hw_openflow.Ofp_action.output 1 ]);
  (table, fields)

(* Each group's fixtures are built lazily (inside the thunk) so a group is
   measured against a heap holding only its own state: fixtures from other
   groups (hwdb rings especially) would otherwise inflate every
   allocating benchmark with GC work charged to the measured loop. *)
(* PERF12's gated overhead ratio comes from a paired steady-state loop
   (set when the PERF12 group is staged), not from the bechamel
   estimates: the durable insert's cost has rare heavy contributions
   (group-commit flushes, ring snapshots, major-GC cycles over the
   flush strings) that land in some short sampling windows and not
   others, making per-test estimates bimodal run to run. One long loop
   per side, both in the same process state, averages every mode in and
   yields a ratio stable to a few percent. *)
let wal_paired : (float * float) option ref = ref None

let micro_tests () =
  let open Bechamel in
  (* PERF1: flow table lookups *)
  let lookup_tests () =
    List.map
      (fun n ->
        let table, fields = make_flow_table n in
        Test.make
          ~name:(Printf.sprintf "exact_hit/%d_entries" n)
          (Staged.stage (fun () -> ignore (Hw_datapath.Flow_table.lookup table fields))))
      [ 10; 16; 100; 256; 1000 ]
    @ List.map
        (fun n ->
          let table, fields = make_flow_table n in
          let miss = { fields with Hw_openflow.Ofp_match.f_tp_dst = 81 } in
          Test.make
            ~name:(Printf.sprintf "wildcard_scan_miss/%d_entries" n)
            (Staged.stage (fun () -> ignore (Hw_datapath.Flow_table.lookup table miss))))
        [ 10; 16; 100; 256; 1000 ]
  in
  (* PERF2: OpenFlow codec *)
  let codec_tests () =
    let fm =
    Hw_openflow.Ofp_message.Flow_mod
      (Hw_openflow.Ofp_message.add_flow ~idle_timeout:10
         (Hw_openflow.Ofp_match.exact_of_fields (snd (make_flow_table 0)))
         [ Hw_openflow.Ofp_action.output 2 ])
  in
  let fm_bytes = Hw_openflow.Ofp_message.encode ~xid:1l fm in
  (* perfbench stream's frame: the 1,000-byte UDP datagram every
     simulated streaming device sends *)
  let stream_pkt =
    Packet.udp_packet ~src_mac:(Mac.local 1) ~dst_mac:(Mac.local 2)
      ~src_ip:(Ip.of_octets 10 0 0 1) ~dst_ip:(Ip.of_octets 93 184 216 34) ~src_port:40000
      ~dst_port:9000 (String.make 1000 'u')
  in
  let pi_bytes =
    Hw_openflow.Ofp_message.encode ~xid:2l
      (Hw_openflow.Ofp_message.Packet_in
         {
           Hw_openflow.Ofp_message.buffer_id = Some 1l;
           total_len = 128;
           in_port = 1;
           reason = Hw_openflow.Ofp_message.No_match;
           data = String.make 128 'x';
         })
  in
    [
      Test.make ~name:"encode_flow_mod"
        (Staged.stage (fun () -> ignore (Hw_openflow.Ofp_message.encode ~xid:1l fm)));
      Test.make ~name:"decode_flow_mod"
        (Staged.stage (fun () -> ignore (Hw_openflow.Ofp_message.decode fm_bytes)));
      Test.make ~name:"decode_packet_in"
        (Staged.stage (fun () -> ignore (Hw_openflow.Ofp_message.decode pi_bytes)));
      Test.make ~name:"packet_encode_udp_1000B"
        (Staged.stage (fun () -> ignore (Packet.encode stream_pkt)));
    ]
  in
  (* PERF3: hwdb *)
  let hwdb_tests () =
    let now = ref 0. in
  let db = Hw_hwdb.Database.create ~now:(fun () -> !now) () in
  for i = 0 to 4095 do
    now := float_of_int i /. 100.;
    Hw_hwdb.Database.record_flow db ~proto:6
      ~src_ip:(Hw_hwdb.Value.Str (Printf.sprintf "10.0.0.%d" (100 + (i mod 6))))
      ~dst_ip:(Hw_hwdb.Value.Str "93.184.216.34") ~src_port:(40000 + i) ~dst_port:80 ~packets:3
      ~bytes:1500
  done;
  (* window scans at growing ring sizes: the window is fixed (last 500 rows
     by time, last 64 by count, newest instant) so an index-backed scan
     should cost the same at every ring size, while a full-ring scan grows
     linearly with capacity *)
  let window_dbs =
    List.map
      (fun cap ->
        let now = ref 0. in
        let db = Hw_hwdb.Database.create ~default_capacity:cap ~now:(fun () -> !now) () in
        for i = 1 to cap do
          now := float_of_int i /. 100.;
          Hw_hwdb.Database.record_flow db ~proto:6
            ~src_ip:(Hw_hwdb.Value.Str (Printf.sprintf "10.0.0.%d" (i mod 6)))
            ~dst_ip:(Hw_hwdb.Value.Str "93.184.216.34")
            ~src_port:(40000 + (i land 0xfff))
            ~dst_port:80 ~packets:3 ~bytes:1500
        done;
        (cap, db))
      [ 1024; 16384; 65536 ]
  in
  let window_scan_tests =
    List.concat_map
      (fun (cap, db) ->
        [
          Test.make
            ~name:(Printf.sprintf "window_range_5s/ring_%d" cap)
            (Staged.stage (fun () ->
                 ignore (Hw_hwdb.Database.query db "SELECT bytes FROM Flows [RANGE 5 SECONDS]")));
          Test.make
            ~name:(Printf.sprintf "window_rows_64/ring_%d" cap)
            (Staged.stage (fun () ->
                 ignore (Hw_hwdb.Database.query db "SELECT bytes FROM Flows [ROWS 64]")));
          Test.make
            ~name:(Printf.sprintf "window_now/ring_%d" cap)
            (Staged.stage (fun () ->
                 ignore (Hw_hwdb.Database.query db "SELECT bytes FROM Flows [NOW]")));
        ])
      window_dbs
  in
    [
      Test.make ~name:"insert"
        (Staged.stage (fun () ->
             Hw_hwdb.Database.record_flow db ~proto:6 ~src_ip:(Hw_hwdb.Value.Str "10.0.0.100")
               ~dst_ip:(Hw_hwdb.Value.Str "93.184.216.34") ~src_port:40000 ~dst_port:80 ~packets:1
               ~bytes:100));
      Test.make ~name:"select_window"
        (Staged.stage (fun () ->
             ignore (Hw_hwdb.Database.query db "SELECT bytes FROM Flows [RANGE 5 SECONDS]")));
      Test.make ~name:"group_by_sum"
        (Staged.stage (fun () ->
             ignore
               (Hw_hwdb.Database.query db
                  "SELECT src_ip, SUM(bytes) AS b FROM Flows [RANGE 10 SECONDS] GROUP BY src_ip")));
      Test.make ~name:"parse_only"
        (Staged.stage (fun () ->
             ignore
               (Hw_hwdb.Parser.parse
                  "SELECT src_ip, SUM(bytes) AS b FROM Flows [RANGE 10 SECONDS] WHERE dst_port \
                   = 80 GROUP BY src_ip ORDER BY b DESC LIMIT 5")));
    ]
    @ window_scan_tests
  in
  (* PERF3, a stored row's cost: its own group, so the window fixtures
     above (~83k resident rows, which make every per-sample GC
     stabilization compact a large heap) do not distort it *)
  let hwdb_row_tests () =
    (* perfbench's one-shot UI query (and the fleet survey) over 1,000
       Links rows in 16 groups: a grouped scan's per-row cost, with a
       fresh MAC cell per row (as RPC INSERTs write them) and with one
       cell per station (as [Router.report_link] writes them) *)
    let links_db ~mac =
      let now = ref 0. in
      let db = Hw_hwdb.Database.create ~now:(fun () -> !now) () in
      for i = 0 to 999 do
        now := float_of_int i *. 0.05;
        Hw_hwdb.Database.record_link db ~mac:(mac (i mod 16)) ~rssi:(-40 - (i mod 30))
          ~retries:(i mod 7) ~packets:i
      done;
      db
    in
    let station i = Printf.sprintf "02:00:00:00:00:%02x" i in
    let fresh_cells_db = links_db ~mac:(fun i -> Hw_hwdb.Value.Str (station i)) in
    let shared_cells_db =
      let cells = Array.init 16 (fun i -> Hw_hwdb.Value.Str (station i)) in
      links_db ~mac:(Array.get cells)
    in
    let survey db =
      Staged.stage (fun () ->
          ignore
            (Hw_hwdb.Database.query db
               "SELECT mac, AVG(rssi) AS rssi, MAX(retries) AS retries FROM Links [RANGE 60 \
                SECONDS] GROUP BY mac"))
    in
    (* the tick's Metrics/Traces re-stamp: 1,000 rows rendered once,
       appended again at every tick into a full table without hooks. The
       ring is sized so a slot outlives minor collections, as it does in
       a running router, where a Traces row stays ~11 ticks in its 4,096
       slots while the router's other allocation turns the minor heap
       over several times a second; a 4,096-slot ring here, with nothing
       else allocating, would reclaim whatever a re-stamp allocates
       before it is ever promoted *)
    let restamp_table, cached_rows =
      let schema = Hw_hwdb.Database.traces_schema in
      let t = Hw_hwdb.Table.create ~name:"Traces" ~capacity:65536 schema in
      let rows =
        List.init 1000 (fun i ->
            [|
              Hw_hwdb.Value.Int (i / 8);
              Hw_hwdb.Value.Int i;
              Hw_hwdb.Value.Int (i - 1);
              Hw_hwdb.Value.Str "ctrl.handler.dhcp";
              Hw_hwdb.Value.Real (float_of_int i);
              Hw_hwdb.Value.Real 1e-6;
              Hw_hwdb.Value.Str "";
              Hw_hwdb.Value.Str "";
            |])
      in
      for _ = 1 to 66 do
        List.iter (Hw_hwdb.Table.append t ~now:0.) rows
      done;
      (t, rows)
    in
    let tick = ref 0. in
    [
      Test.make ~name:"oneshot_group_by/1000_rows_16_groups" (survey fresh_cells_db);
      Test.make ~name:"oneshot_group_by/1000_rows_16_groups_shared_cells" (survey shared_cells_db);
      Test.make ~name:"restamp/1000_cached_rows"
        (Staged.stage (fun () ->
             tick := !tick +. 1.;
             let now = !tick in
             List.iter (Hw_hwdb.Table.append restamp_table ~now) cached_rows));
    ]
  in
  (* PERF4: DHCP transaction *)
  let dhcp_tests () =
    let server = Hw_dhcp.Dhcp_server.create ~config:{ Hw_dhcp.Dhcp_server.default_config with Hw_dhcp.Dhcp_server.default_permit = true } ~now:(fun () -> 0.) () in
    let counter = ref 0 in
    [
      Test.make ~name:"full_DORA"
        (Staged.stage (fun () ->
             incr counter;
             let m = Mac.of_int64 (Int64.of_int (0x020000000000 lor (!counter land 0xff))) in
             let discover =
               Packet.dhcp_packet ~src_mac:m ~dst_mac:Mac.broadcast ~src_ip:Ip.any
                 ~dst_ip:Ip.broadcast
                 (Dhcp_wire.make_request ~xid:(Int32.of_int !counter) ~chaddr:m Dhcp_wire.Discover)
             in
             match Hw_dhcp.Dhcp_server.handle_packet server discover with
             | [ offer ] -> (
                 match offer.Packet.l3 with
                 | Packet.Ipv4 (_, Packet.Udp u) ->
                     let o = Result.get_ok (Dhcp_wire.decode u.Udp.payload) in
                     let request =
                       Packet.dhcp_packet ~src_mac:m ~dst_mac:Mac.broadcast ~src_ip:Ip.any
                         ~dst_ip:Ip.broadcast
                         (Dhcp_wire.make_request
                            ~options:[ Dhcp_wire.Requested_ip o.Dhcp_wire.yiaddr ]
                            ~xid:(Int32.of_int !counter) ~chaddr:m Dhcp_wire.Request)
                     in
                     ignore (Hw_dhcp.Dhcp_server.handle_packet server request)
                 | _ -> ())
             | _ -> ()));
    ]
  in
  (* PERF5: DNS proxy decision *)
  let dns_tests () =
    let proxy = Hw_dns.Dns_proxy.create ~now:(fun () -> 0.) () in
  let kid = Mac.local 9 in
  let kid_ip = Ip.of_octets 10 0 0 109 in
  Hw_dns.Dns_proxy.set_device_of_ip proxy (fun ip -> if Ip.equal ip kid_ip then Some kid else None);
  Hw_dns.Dns_proxy.set_policy proxy kid (Hw_dns.Dns_proxy.Allow_only [ "facebook.com" ]);
  let fb_ip = Ip.of_octets 93 184 216 16 in
  (* warm the cache *)
  (match Hw_dns.Dns_proxy.handle_query proxy ~src_ip:kid_ip ~src_port:1 (Dns_wire.query ~id:1 "www.facebook.com" Dns_wire.A) with
  | [ Hw_dns.Dns_proxy.Forward_upstream q ] ->
      ignore
        (Hw_dns.Dns_proxy.handle_upstream proxy
           (Dns_wire.response ~answers:[ Dns_wire.a_record "www.facebook.com" fb_ip ] q))
  | _ -> ());
    let blocked_query = Dns_wire.query ~id:2 "www.youtube.com" Dns_wire.A in
    [
      Test.make ~name:"blocked_query_decision"
        (Staged.stage (fun () ->
             ignore (Hw_dns.Dns_proxy.handle_query proxy ~src_ip:kid_ip ~src_port:2 blocked_query)));
      Test.make ~name:"flow_admission_cached"
        (Staged.stage (fun () ->
             ignore (Hw_dns.Dns_proxy.check_flow proxy ~src_ip:kid_ip ~dst_ip:fb_ip)));
    ]
  in
  (* PERF6: end-to-end fast path through the datapath. Each fast-path
     case is a two-port datapath holding one exact flow for its frame;
     the miss case holds none. *)
  let perf6_tests () =
    let port n =
      { Hw_datapath.Datapath.port_no = n; name = Printf.sprintf "p%d" n; mac = Mac.local (0xb0 + n) }
    in
    let dp_with_flow ~dpid frame actions =
      let dp =
        Hw_datapath.Datapath.create ~dpid ~ports:[ port 1; port 2 ]
          ~transmit:(fun ~port_no:_ _ -> ()) ~to_controller:(fun _ -> ()) ~now:(fun () -> 0.) ()
      in
      let fields = Option.get (Hw_openflow.Ofp_match.fields_of_frame ~in_port:1 frame) in
      Hw_datapath.Datapath.input_from_controller dp
        (Hw_openflow.Ofp_message.encode ~xid:1l
           (Hw_openflow.Ofp_message.Flow_mod
              (Hw_openflow.Ofp_message.add_flow (Hw_openflow.Ofp_match.exact_of_fields fields)
                 actions)));
      dp
    in
    let tcp_frame ~dst_ip =
      Packet.encode
        (Packet.tcp_packet ~src_mac:(Mac.local 1) ~dst_mac:(Mac.local 2)
           ~src_ip:(Ip.of_octets 10 0 0 1) ~dst_ip ~src_port:1000 ~dst_port:80 "x")
    in
    let lan = tcp_frame ~dst_ip:(Ip.of_octets 10 0 0 2) in
    let fast = dp_with_flow ~dpid:9L lan [ Hw_openflow.Ofp_action.output 2 ] in
    (* the same fast path but through NAT rewrite actions (re-encode cost) *)
    let wan = tcp_frame ~dst_ip:(Ip.of_octets 93 184 216 34) in
    let nat =
      dp_with_flow ~dpid:10L wan
        [
          Hw_openflow.Ofp_action.Set_nw_src (Ip.of_octets 81 2 3 4);
          Hw_openflow.Ofp_action.Set_tp_src 20001;
          Hw_openflow.Ofp_action.output 2;
        ]
    in
    (* the batched input pipeline: 32 frames per receive_frames call, so
       the reported ns/op is the cost of the whole batch *)
    let batched = dp_with_flow ~dpid:11L lan [ Hw_openflow.Ofp_action.output 2 ] in
    let batch = List.init 32 (fun _ -> (1, lan)) in
    (* perfbench's stream workload frame: a 1,000-byte UDP payload, so
       any per-frame copy of the payload shows here *)
    let stream =
      Packet.encode
        (Packet.udp_packet ~src_mac:(Mac.local 1) ~dst_mac:(Mac.local 2)
           ~src_ip:(Ip.of_octets 10 0 0 1) ~dst_ip:(Ip.of_octets 93 184 216 34) ~src_port:40000
           ~dst_port:9000 (String.make 1000 'u'))
    in
    let big = dp_with_flow ~dpid:12L stream [ Hw_openflow.Ofp_action.output 2 ] in
    (* the datapath's share of a new flow's first packet with tracing on:
       each miss roots a dp.packet_in trace carrying the frame's
       addresses, buffers the frame and sends the packet-in into a sink.
       Its budget fails if the span site renders addresses again. *)
    let missing =
      Hw_datapath.Datapath.create ~dpid:13L ~ports:[ port 1; port 2 ]
        ~trace:
          (Hw_trace.Tracer.create ~metrics:(Hw_metrics.Registry.create ()) ~now:(fun () -> 0.) ())
        ~transmit:(fun ~port_no:_ _ -> ()) ~to_controller:(fun _ -> ()) ~now:(fun () -> 0.) ()
    in
    [
      Test.make ~name:"datapath_fast_path_per_packet"
        (Staged.stage (fun () -> Hw_datapath.Datapath.receive_frame fast ~in_port:1 lan));
      Test.make ~name:"datapath_fast_path_with_NAT_rewrite"
        (Staged.stage (fun () -> Hw_datapath.Datapath.receive_frame nat ~in_port:1 wan));
      Test.make ~name:"datapath_fast_path_batch32"
        (Staged.stage (fun () -> Hw_datapath.Datapath.receive_frames batched batch));
      Test.make ~name:"datapath_fast_path_1000B"
        (Staged.stage (fun () -> Hw_datapath.Datapath.receive_frame big ~in_port:1 stream));
      Test.make ~name:"datapath_miss_traced"
        (Staged.stage (fun () -> Hw_datapath.Datapath.receive_frame missing ~in_port:1 lan));
    ]
  in
  (* PERF7: tracer hot path. The untraced/disabled cases are the cost every
     packet pays when tracing is off or no trace is active (budget: a few
     ns — one branch, no allocation, no clock read); the recorded case is
     the full open/close/ring-push cycle for a kept trace. *)
  let trace_tests () =
    let module Tracer = Hw_trace.Tracer in
    let clock = ref 0. in
    let live =
      Tracer.create ~metrics:(Hw_metrics.Registry.create ()) ~now:(fun () -> !clock) ()
    in
    [
      Test.make ~name:"with_span_disabled"
        (Staged.stage (fun () -> Tracer.with_span Tracer.disabled "bench" (fun () -> ())));
      Test.make ~name:"with_span_untraced"
        (Staged.stage (fun () -> Tracer.with_span live "bench" (fun () -> ())));
      Test.make ~name:"trace_3_spans_recorded"
        (Staged.stage (fun () ->
             Tracer.with_trace live "root" (fun () ->
                 Tracer.with_span live "a" (fun () -> ());
                 Tracer.with_span live "b" (fun () -> ()))));
    ]
  in
  (* PERF8: fault-injector hot path. The disarmed case is the cost every
     transmitted frame / RPC datagram / channel write pays when chaos is
     off (budget: <= 10 ns over the raw send — one load and one branch);
     the armed case prices an active drop regime. *)
  let fault_tests () =
    let module Fault = Hw_fault.Fault in
    let sink = ref 0 in
    let deliver payload = sink := !sink + String.length payload in
    let payload = String.make 64 'x' in
    let disarmed =
      Fault.create ~metrics:(Hw_metrics.Registry.create ()) ~now:(fun () -> 0.) ~point:"bench" ()
    in
    let armed =
      Fault.create ~metrics:(Hw_metrics.Registry.create ()) ~seed:42 ~now:(fun () -> 0.)
        ~point:"bench" ()
    in
    Fault.set_plan armed [ Fault.Drop 0.3 ];
    [
      Test.make ~name:"send_raw" (Staged.stage (fun () -> deliver payload));
      Test.make ~name:"send_injector_disarmed"
        (Staged.stage (fun () ->
             if Fault.armed disarmed then Fault.apply disarmed payload ~deliver
             else deliver payload));
      Test.make ~name:"send_injector_armed_drop30"
        (Staged.stage (fun () -> Fault.apply armed payload ~deliver));
    ]
  in
  (* PERF10: compiled query plans. [prepared_select_cached] is the whole
     hot path (plan-cache lookup + compiled exec); the interpreted
     baseline pays parse + AST walk for the same PERF3-shape statement.
     The sub_eval benches tick a database carrying N distinct standing
     queries over one table with k=32 inserts per tick: incremental
     views charge each tick O(N x k) hook deltas + O(N) O(1)-assemblies,
     never O(N x window) re-scans. *)
  let plan_tests () =
    let now = ref 0. in
    let db = Hw_hwdb.Database.create ~now:(fun () -> !now) () in
    for i = 0 to 4095 do
      now := float_of_int i;
      Hw_hwdb.Database.record_flow db ~proto:6
        ~src_ip:(Hw_hwdb.Value.Str (Printf.sprintf "10.0.0.%d" (100 + (i mod 6))))
        ~dst_ip:(Hw_hwdb.Value.Str "93.184.216.34") ~src_port:(40000 + i) ~dst_port:80 ~packets:3
        ~bytes:1500
    done;
    let q =
      "SELECT src_ip, SUM(bytes) AS b FROM Flows [RANGE 10 SECONDS] WHERE dst_port = 80 \
       GROUP BY src_ip ORDER BY b DESC LIMIT 5"
    in
    ignore (Hw_hwdb.Database.query db q) (* warm the plan cache *);
    let lookup = Hw_hwdb.Database.table db in
    [
      Test.make ~name:"prepared_select_cached"
        (Staged.stage (fun () -> ignore (Hw_hwdb.Database.query db q)));
      Test.make ~name:"interpreted_select_parse_exec"
        (Staged.stage (fun () ->
             match Hw_hwdb.Parser.parse_select q with
             | Ok sel -> ignore (Query_ref.exec ~lookup ~now:!now sel)
             | Error e -> failwith e));
    ]
  in
  (* PERF11: trace-context propagation on the RPC wire. The plain
     encode/decode pair is the path every context-free request pays — it
     must not move when the trailer feature lands (the frame is
     byte-identical). The ctx pair prices the opt-in trailer; their
     difference is emitted as ctx_encode_overhead below. The inert
     builder case is the whole per-query cost an untraced manager adds. *)
  let rpc_ctx_tests () =
    let module Rpc = Hw_hwdb.Rpc in
    let statement = "SELECT name, stat, value FROM Metrics [NOW]" in
    let plain = Rpc.Request { seq = 7l; statement; ctx = None } in
    let traced =
      Rpc.Request
        { seq = 7l; statement; ctx = Some { Rpc.trace_id = 0x12345; parent_span = 17 } }
    in
    let plain_frame = Rpc.encode plain in
    let traced_frame = Rpc.encode traced in
    let module Builder = Hw_trace.Builder in
    [
      Test.make ~name:"encode_request_plain"
        (Staged.stage (fun () -> ignore (Sys.opaque_identity (Rpc.encode plain))));
      Test.make ~name:"encode_request_ctx"
        (Staged.stage (fun () -> ignore (Sys.opaque_identity (Rpc.encode traced))));
      Test.make ~name:"decode_request_plain"
        (Staged.stage (fun () -> ignore (Sys.opaque_identity (Rpc.decode plain_frame))));
      Test.make ~name:"decode_request_ctx"
        (Staged.stage (fun () -> ignore (Sys.opaque_identity (Rpc.decode traced_frame))));
      Test.make ~name:"builder_inert_per_query"
        (Staged.stage (fun () ->
             let b = Builder.start Hw_trace.Tracer.disabled "fleet.query" in
             let s = Builder.open_span b "fleet.rpc" in
             Builder.close_span b s;
             Builder.finish b));
      (* the marginal per-RPC work on an untraced manager: one inert
         open + close — this is the <= 10 ns acceptance number *)
      (let inert = Builder.start Hw_trace.Tracer.disabled "fleet.query" in
       Test.make ~name:"builder_inert_open_close_per_rpc"
         (Staged.stage (fun () ->
              let s = Builder.open_span inert "fleet.rpc" in
              Builder.close_span inert s)));
    ]
  in
  (* separate group: the 10k-subscription fixtures occupy tens of MB, and
     sharing a group would charge their GC pressure to the ratio benches *)
  let plan_sub_tests () =
    List.map
        (fun n ->
          let now = ref 0. in
          let db =
            Hw_hwdb.Database.create_empty ~metrics:(Hw_metrics.Registry.create ())
              ~now:(fun () -> !now)
              ()
          in
          (match Hw_hwdb.Database.execute db "CREATE TABLE E (n INTEGER) CAPACITY 4096" with
          | Ok _ -> ()
          | Error e -> failwith e);
          for i = 1 to n do
            (* distinct texts: N real views, not one shared one *)
            let sel =
              match
                Hw_hwdb.Parser.parse_select
                  (Printf.sprintf
                     "SELECT COUNT(*) AS c FROM E [RANGE 5 SECONDS] WHERE n <> -%d" i)
              with
              | Ok sel -> sel
              | Error e -> failwith e
            in
            ignore (Hw_hwdb.Database.subscribe db ~query:sel ~period:1. ~callback:ignore)
          done;
          Test.make
            ~name:(Printf.sprintf "sub_eval_k32/%d_subs" n)
            (Staged.stage (fun () ->
                 now := !now +. 1.;
                 for j = 1 to 32 do
                   ignore (Hw_hwdb.Database.insert db ~table:"E" [ Hw_hwdb.Value.Int j ])
                 done;
                 Hw_hwdb.Database.tick db)))
      [ 100; 1000; 10000 ]
  in
  (* PERF12: the durability spine. [insert_durable] is the ephemeral
     insert plus the full steady-state durability cost — the on_insert
     WAL hook (row codec encode + frame into the batch buffer) with the
     group commit's deferred work amortized back in (inline flushes:
     CRC seal + store append, plus automatic snapshots).
     [insert_durable]/[insert_ephemeral] is the gated overhead ratio;
     [group_commit_flush_64] prices one 64-record tick batch by itself;
     [recover_64k_rows] is the boot-time cost of snapshot decode + tail
     replay for a 64k-row durable table. *)
  let wal_tests () =
    let row i =
      [
        Hw_hwdb.Value.Str (Printf.sprintf "00:16:3e:00:%02x:%02x" (i / 256 mod 256) (i mod 256));
        Hw_hwdb.Value.Str (Printf.sprintf "10.0.0.%d" (100 + (i mod 100)));
        Hw_hwdb.Value.Str "bench-host";
        Hw_hwdb.Value.Str "renew";
      ]
    in
    let mk_db ?recover_from ?wal_max_pending () =
      let now = ref 0. in
      let db =
        Hw_hwdb.Database.create ~metrics:(Hw_metrics.Registry.create ()) ?recover_from
          ?wal_max_pending
          ~now:(fun () -> !now)
          ()
      in
      (db, now)
    in
    let edb, enow = mk_db () in
    let ddb, dnow = mk_db ~recover_from:(Hw_wal.Store.mem ()) () in
    let i = ref 0 in
    (* the paired loop behind durable_over_ephemeral_insert_ratio_x1000
       (see [wal_paired]): 300k inserts per side, fresh databases,
       compaction before each side, best of two passes per side *)
    (let paired_side recover_from =
       let db, now = mk_db ?recover_from () in
       let n = 300_000 in
       let best = ref infinity in
       for _ = 1 to 2 do
         Gc.compact ();
         let t0 = Unix.gettimeofday () in
         for j = 1 to n do
           now := !now +. 0.001;
           ignore (Hw_hwdb.Database.insert db ~table:"Leases" (row j))
         done;
         let per_op = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n in
         if per_op < !best then best := per_op
       done;
       !best
     in
     let eph = paired_side None in
     let dur = paired_side (Some (Hw_wal.Store.mem ())) in
     wal_paired := Some (eph, dur));
    (* a bare WAL for the flush bench: empty snapshots keep the mem store
       bounded while the measured loop appends forever *)
    let flush_wal, _ =
      Hw_wal.Wal.open_ ~metrics:(Hw_metrics.Registry.create ()) ~snapshot_every:1024
        ~store:(Hw_wal.Store.mem ()) ~name:"bench" ()
    in
    Hw_wal.Wal.set_snapshot_source flush_wal (fun () -> "");
    let record = String.make 48 'r' in
    (* a store holding a 64k-row durable Leases table (as a snapshot plus
       log tail), built once; each recovery replays it from scratch.
       Lazy so the ~30MB builder heap is not live while the insert
       benches run — major-GC marking of a big resident fixture would
       bleed into their numbers. *)
    let store64 =
      lazy
        (let store = Hw_wal.Store.mem () in
         let now = ref 0. in
         let db =
           Hw_hwdb.Database.create ~default_capacity:65536
             ~metrics:(Hw_metrics.Registry.create ()) ~recover_from:store
             ~now:(fun () -> !now)
             ()
         in
         for j = 1 to 65536 do
           now := !now +. 1.;
           ignore (Hw_hwdb.Database.insert db ~table:"Leases" (row j))
         done;
         Hw_hwdb.Database.flush_wal db;
         store)
    in
    [
      Test.make ~name:"insert_ephemeral"
        (Staged.stage (fun () ->
             incr i;
             enow := !enow +. 0.001;
             ignore (Hw_hwdb.Database.insert edb ~table:"Leases" (row !i))));
      Test.make ~name:"insert_durable"
        (Staged.stage (fun () ->
             incr i;
             dnow := !dnow +. 0.001;
             ignore (Hw_hwdb.Database.insert ddb ~table:"Leases" (row !i))));
      Test.make ~name:"group_commit_flush_64"
        (Staged.stage (fun () ->
             for _ = 1 to 64 do
               Hw_wal.Wal.append flush_wal record
             done;
             Hw_wal.Wal.flush flush_wal));
      Test.make ~name:"recover_64k_rows"
        (Staged.stage (fun () ->
             let db =
               Hw_hwdb.Database.create ~default_capacity:65536
                 ~metrics:(Hw_metrics.Registry.create ())
                 ~recover_from:(Lazy.force store64)
                 ~now:(fun () -> 1e6)
                 ()
             in
             ignore (Sys.opaque_identity (Hw_hwdb.Database.table db "Leases"))));
    ]
  in
  (* PERF13: the discrete-event simulator's queue, modelled deep. One
     step pops the earliest of 6,700 pending events and runs it; the
     event schedules its successor at a pseudo-random delay, so the
     queue holds its size and shape. 6,700 was perfbench stream's mean
     queue length while each session scheduled all its packets up
     front; with one pending event per session a home of eight
     streamers holds a median of 85-96, so this now models a deep queue
     (a larger home or a fleet on one loop), not stream's. *)
  let sim_tests () =
    let loop = Hw_sim.Event_loop.create ~metrics:(Hw_metrics.Registry.create ()) () in
    let next = ref 0 in
    let rec event () =
      next := (!next + 7919) land 0xffff;
      Hw_sim.Event_loop.after loop (float_of_int (1 + !next) /. 65536.) event
    in
    for _ = 1 to 6700 do
      event ()
    done;
    [
      Test.make ~name:"event_loop_step/6700_pending"
        (Staged.stage (fun () -> ignore (Hw_sim.Event_loop.step loop)));
    ]
  in
  (* PERF14: the measurement poll in its 1 s tick. An otherwise idle
     home holds 250 installed flows; before each tick 25 of them (the
     next 25 in turn) count one more packet, so the tick polls 250
     entries and writes 25 Flows rows, near churn's 215 entries for 28
     rows. One op is one tick. *)
  let poll_tests () =
    let module Router = Hw_router.Router in
    let module Home = Hw_router.Home in
    let home = Home.create () in
    let router = Home.router home in
    Home.run_for home 0.5;
    let conn = List.hd (Hw_controller.Controller.connections (Router.controller router)) in
    for i = 0 to 249 do
      Hw_controller.Controller.install_flow conn
        {
          Hw_openflow.Ofp_match.wildcard_all with
          Hw_openflow.Ofp_match.dl_type = Some 0x0800;
          nw_proto = Some 17;
          nw_src = Some (Ip.of_octets 10 0 0 (1 + (i mod 200)), 32);
          nw_dst = Some (Ip.of_octets 93 184 216 34, 32);
          tp_src = Some (1024 + i);
          tp_dst = Some 53;
        }
        [ Hw_openflow.Ofp_action.output Router.upstream_port ]
    done;
    Home.run_for home 2.;
    let entries =
      Array.of_list (Hw_datapath.Flow_table.entries (Hw_datapath.Datapath.flow_table (Router.datapath router)))
    in
    let next = ref 0 in
    [
      Test.make ~name:"tick/250_flows_25_moved"
        (Staged.stage (fun () ->
             for _ = 1 to 25 do
               Hw_datapath.Flow_entry.touch entries.(!next) ~now:(Home.now home) ~bytes:100;
               next := (!next + 1) mod Array.length entries
             done;
             Home.run_for home 1.0));
    ]
  in
  (* PERF15: the telemetry export in the 1 s tick. A database whose
     flight recorder holds 128 traces of 7 spans (a packet-in's shape,
     with address attributes) and whose registry holds ~100 instruments;
     before each tick 12 counters move and, in the second case, 25 new
     traces arrive (churn renders ~25 a tick), handed in through
     [Tracer.record] from a pool built once, so the op times the export
     rather than the span sites. One op is one [Database.tick]. *)
  let export_tests () =
    let module Tracer = Hw_trace.Tracer in
    let module Registry = Hw_metrics.Registry in
    let fixture () =
      let clock = ref 0. in
      let now () = !clock in
      let reg = Registry.create () in
      let trace = Tracer.create ~capacity:128 ~metrics:reg ~now () in
      let db = Hw_hwdb.Database.create ~metrics:reg ~trace ~now () in
      let counters =
        Array.init 80 (fun i -> Registry.counter reg (Printf.sprintf "bench_%d_total" i))
      in
      for i = 1 to 3 do
        let h = Registry.histogram reg (Printf.sprintf "bench_%d_seconds" i) in
        Hw_metrics.Histogram.observe h 1e-3
      done;
      let mac i =
        Mac.of_bytes (Printf.sprintf "\002\000\000\000\000%c" (Char.chr (i land 0xff)))
      in
      for i = 1 to 153 do
        Tracer.with_trace trace "dp.packet_in"
          ~attrs:
            [
              ("in_port", Tracer.Int (1 + (i mod 4)));
              ("eth_src", Tracer.Mac (mac i));
              ("eth_dst", Tracer.Mac (mac (i + 1)));
              ("nw_src", Tracer.Ip (Ip.of_octets 10 0 0 (i land 0xff)));
              ("nw_dst", Tracer.Ip (Ip.of_octets 93 184 216 34));
            ]
          (fun () ->
            Tracer.with_span trace "ctrl.dispatch" (fun () ->
                List.iter
                  (fun h ->
                    Tracer.with_span trace h ~attrs:[ ("verdict", Tracer.Str "continue") ] ignore)
                  [ "ctrl.handler.dhcp"; "ctrl.handler.dns"; "ctrl.handler.switching" ];
                Tracer.with_span trace "of.flow_mod" ~attrs:[ ("priority", Tracer.Int 100) ] ignore;
                Tracer.with_span trace "hwdb.insert" ~attrs:[ ("table", Tracer.Str "Flows") ] ignore))
      done;
      let pool = Array.of_list (List.rev (Tracer.traces trace)) in
      (* the recorder's newest 128 are rendered before timing starts *)
      clock := 1.;
      Hw_hwdb.Database.tick db;
      (clock, trace, db, counters, pool)
    in
    let tick ~fresh (clock, trace, db, counters, pool) =
      let next = ref 0 in
      fun () ->
        clock := !clock +. 1.;
        for i = 0 to 11 do
          Hw_metrics.Counter.incr counters.(i)
        done;
        for _ = 1 to fresh do
          Tracer.record trace pool.(!next);
          next := (!next + 1) mod Array.length pool
        done;
        Hw_hwdb.Database.tick db
    in
    [
      Test.make ~name:"tick/128_traces_0_new_12_moved" (Staged.stage (tick ~fresh:0 (fixture ())));
      Test.make ~name:"tick/128_traces_25_new_12_moved"
        (Staged.stage (tick ~fresh:25 (fixture ())));
    ]
  in
  [
    ("PERF1 flow table", lookup_tests);
    ("PERF2 openflow codec", codec_tests);
    ("PERF3 hwdb", hwdb_tests);
    ("PERF3 hwdb rows", hwdb_row_tests);
    ("PERF4 dhcp", dhcp_tests);
    ("PERF5 dns proxy", dns_tests);
    ("PERF6 pipeline", perf6_tests);
    ("PERF7 tracer", trace_tests);
    ("PERF8 fault injector", fault_tests);
    ("PERF10 hwdb plans", plan_tests);
    ("PERF10 hwdb subs", plan_sub_tests);
    ("PERF11 rpc ctx", rpc_ctx_tests);
    ("PERF12 wal durability", wal_tests);
    ("PERF13 simulator", sim_tests);
    ("PERF14 measurement poll", poll_tests);
    ("PERF15 telemetry export", export_tests);
  ]

(* Rows computed from a group's measured rows (looked up by name) and
   added to it, so PERF_budget.json gates them like any latency. Each
   entry is (group, row, derivation); [None] leaves the row out. *)
let derived_rows =
  let ratio_x1000 num den = num /. den *. 1000. in
  [
    (* PERF10's headline claim: prepared exec vs parse+interpret, as
       prepared/interpreted x1000 (100 means 10x faster; smaller is
       better, the gate's direction) *)
    ( "PERF10 hwdb plans",
      "prepared_over_parse_exec_ratio_x1000",
      fun find ->
        match (find "prepared_select_cached", find "interpreted_select_parse_exec") with
        | Some prep, Some interp when prep > 0. ->
            Some
              (ratio_x1000 prep interp, Printf.sprintf "(= %.1fx faster prepared)" (interp /. prep))
        | _ -> None );
    (* PERF11's acceptance number is the marginal cost of the trace-context
       trailer: the difference of the two medians, clamped at 0 (the pair
       is within noise of each other on fast machines) *)
    ( "PERF11 rpc ctx",
      "ctx_encode_overhead",
      fun find ->
        match (find "encode_request_plain", find "encode_request_ctx") with
        | Some plain, Some ctx -> Some (Float.max 0. (ctx -. plain), "ns/op (ctx - plain)")
        | _ -> None );
    (* PERF12's gated number is the durable-insert overhead over the
       ephemeral insert (x1000), from the paired steady-state loop: see
       [wal_paired] for why not the bechamel estimates *)
    ( "PERF12 wal durability",
      "insert_ephemeral_paired",
      fun _ -> Option.map (fun (eph, _) -> (eph, "ns/op (paired loop)")) !wal_paired );
    ( "PERF12 wal durability",
      "insert_durable_paired",
      fun _ -> Option.map (fun (_, dur) -> (dur, "ns/op (paired loop)")) !wal_paired );
    ( "PERF12 wal durability",
      "durable_over_ephemeral_insert_ratio_x1000",
      fun _ ->
        match !wal_paired with
        | Some (eph, dur) when eph > 0. ->
            Some (ratio_x1000 dur eph, Printf.sprintf "(= %.2fx ephemeral)" (dur /. eph))
        | _ -> None );
  ]

let run_micro () =
  banner "PERF1-7  System microbenchmarks (Bechamel, monotonic clock)";
  (* identify the build in the snapshot below *)
  ignore (Hw_metrics.Build_info.register ());
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  let groups_json =
    List.map
      (fun (group, make_tests) ->
        Printf.printf "\n%s\n" group;
        (* build this group's fixtures only now, and compact first so the
           measured loops run against a minimal heap: with tens of MB of
           other groups' fixtures live, the GC work their allocations
           trigger is charged to the loop and dominates sub-µs costs *)
        let tests = make_tests () in
        Gc.compact ();
        let grouped = Test.make_grouped ~name:"g" tests in
        let raw = Benchmark.all cfg [ instance ] grouped in
        let results = Analyze.all ols instance raw in
        let rows =
          Hashtbl.fold
            (fun name ols acc ->
              match Analyze.OLS.estimates ols with
              | Some [ ns ] -> (name, ns) :: acc
              | _ -> acc)
            results []
          |> List.sort compare
        in
        let rows =
          List.map
            (fun (name, ns) ->
              let name =
                match String.index_opt name '/' with
                | Some i -> String.sub name (i + 1) (String.length name - i - 1)
                | None -> name
              in
              let human =
                if ns > 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
                else if ns > 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
                else Printf.sprintf "%8.0f ns" ns
              in
              Printf.printf "  %-40s %s/op\n" name human;
              (name, ns))
            rows
        in
        ( group,
          Hw_json.Json.Obj (List.map (fun (name, ns) -> (name, Hw_json.Json.Float ns)) rows) ))
      (micro_tests ())
  in
  let groups_json =
    List.map
      (fun (group, obj) ->
        let rows = Hw_json.Json.get_obj obj in
        let find n = Option.map Hw_json.Json.to_float (List.assoc_opt n rows) in
        let derived =
          List.filter_map
            (fun (g, name, derive) ->
              if not (String.equal g group) then None
              else
                Option.map
                  (fun (value, note) ->
                    Printf.printf "  %-40s %8.0f %s\n" name value note;
                    (name, Hw_json.Json.Float value))
                  (derive find))
            derived_rows
        in
        (group, Hw_json.Json.Obj (rows @ derived)))
      groups_json
  in
  (* The benched components report into Hw_metrics.Registry.default, so the
     snapshot records what the run actually exercised (hwdb insert/query
     counts, sampled latency percentiles, ...). *)
  let report =
    Hw_json.Json.Obj
      [
        ("ns_per_op", Hw_json.Json.Obj groups_json);
        ("hw_metrics", Hw_metrics.Snapshot.to_json Hw_metrics.Registry.default);
      ]
  in
  let path = "BENCH_micro.json" in
  let oc = open_out path in
  output_string oc (Hw_json.Json.to_string report);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* PERF9: fleet management plane (lib/hw_fleet)                        *)
(* ------------------------------------------------------------------ *)

(* Macro benchmarks: wall-clock over whole fleet operations rather than
   Bechamel per-op loops (one iteration builds thousands of routers).
   Everything is still recorded as ns so `check` gates them with the
   same budget logic as the micro groups; results go to BENCH_fleet.json
   and `check` merges that file when present. *)
let run_fleet () =
  banner "PERF9  Fleet: bring-up, federated fan-out/merge, rollup";
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1e9)
  in
  let module Fleet_sim = Hw_fleet.Fleet_sim in
  let module Manager = Hw_fleet.Manager in
  let bring_up n =
    wall (fun () ->
        let fleet = Fleet_sim.create ~n () in
        let mgr = Fleet_sim.manager fleet in
        let rec wait () =
          if Manager.session_count mgr < n then begin
            Fleet_sim.run_for fleet 0.25;
            wait ()
          end
        in
        wait ();
        fleet)
  in
  (* median of 3 bring-ups at 1k *)
  let samples =
    List.init 3 (fun _ ->
        let f, ns = bring_up 1000 in
        ignore (Sys.opaque_identity f);
        Gc.compact ();
        ns)
    |> List.sort compare
  in
  let bring_up_1k_ns = List.nth samples 1 in
  Printf.printf "  %-40s %8.1f ms\n" "fleet_bring_up_1k" (bring_up_1k_ns /. 1e6);
  (* federated SELECT fan-out + merge at 100 and 1k routers: median of 5
     queries against a registered fleet *)
  let fed_select n =
    let fleet, _ = bring_up n in
    let one () =
      let _, ns =
        wall (fun () ->
            match Fleet_sim.query_sync fleet "SELECT COUNT(ts) AS n FROM Leases" with
            | Some o when o.Manager.ok = n -> ()
            | Some o -> failwith (Printf.sprintf "fed select: %d/%d answered" o.Manager.ok n)
            | None -> failwith "fed select: did not complete")
      in
      ns
    in
    let s = List.init 5 (fun _ -> one ()) |> List.sort compare in
    List.nth s 2
  in
  let fed_100_ns = fed_select 100 in
  Printf.printf "  %-40s %8.2f ms\n" "fed_select_100" (fed_100_ns /. 1e6);
  let fed_1k_ns = fed_select 1000 in
  Printf.printf "  %-40s %8.2f ms\n" "fed_select_1k" (fed_1k_ns /. 1e6);
  (* steady-state rollup: 1k routers publishing a 2 s continuous query,
     20 simulated seconds; report wall ns per rolled-up event *)
  let rollup_event_ns =
    let fleet, _ = bring_up 1000 in
    let mgr = Fleet_sim.manager fleet in
    let _fs =
      Manager.subscribe mgr
        ~statement:"SUBSCRIBE SELECT COUNT(ts) AS n FROM Leases EVERY 2 SECONDS" ~period:2.
        ~on_event:(fun ~router:_ _ -> ())
    in
    (* let every subscription attach before timing *)
    Fleet_sim.run_for fleet 3.;
    let before = Manager.rollup_events_total mgr in
    let _, ns = wall (fun () -> Fleet_sim.run_for fleet 20.) in
    let events = Manager.rollup_events_total mgr - before in
    Printf.printf "  %-40s %8d events, %6.0f ns/event (%.0f events/s)\n" "rollup_20s_1k"
      events (ns /. float_of_int events)
      (float_of_int events /. (ns /. 1e9));
    ns /. float_of_int events
  in
  (* PERF11: the observability plane at 1k routers. One scrape cycle =
     one traced federated query + ingest into per-router records + health
     accounting + FleetMetrics refresh, reported per router; the health
     tick is the every-second sweep over all tracked routers. *)
  banner "PERF11  Fleet observability: scrape cycle, health tick at 1k";
  let scrape_per_router_ns, health_tick_1k_ns =
    let module Observer = Hw_obs.Observer in
    let fleet, _ = bring_up 1000 in
    let mgr = Fleet_sim.manager fleet in
    (* a huge scrape_period parks the automatic cycle: each measured
       scrape is triggered by hand, so cycles never overlap *)
    let obs =
      Observer.create ~scrape_period:1e6 ~loop:(Fleet_sim.loop fleet) ~manager:mgr ()
    in
    let scrape () =
      let before = Observer.scrapes_total obs in
      let _, ns =
        wall (fun () ->
            Observer.scrape_now obs;
            while Observer.scrapes_total obs = before do
              Fleet_sim.run_for fleet 0.25
            done)
      in
      ns
    in
    ignore (scrape ()) (* warm: router and health records allocate once *);
    let s = List.init 3 (fun _ -> scrape ()) |> List.sort compare in
    let per_router = List.nth s 1 /. 1000. in
    Printf.printf "  %-40s %8.2f us/router (%.1f ms/cycle)\n" "scrape_cycle_per_router_1k"
      (per_router /. 1e3) (List.nth s 1 /. 1e6);
    let _, tick_ns = wall (fun () -> for _ = 1 to 100 do Observer.health_tick obs done) in
    let tick_ns = tick_ns /. 100. in
    Printf.printf "  %-40s %8.2f us/tick\n" "health_tick_1k" (tick_ns /. 1e3);
    (per_router, tick_ns)
  in
  (* per-router heap cost at the fleet configuration, for EXPERIMENTS.md *)
  let router_heap_words =
    Gc.compact ();
    let loop = Hw_sim.Event_loop.create () in
    let cfg = Hw_router.Router.config ~hwdb_capacity:256 () in
    let live0 = (Gc.stat ()).Gc.live_words in
    let routers = Array.init 200 (fun _ -> Hw_router.Router.create ~config:cfg ~loop ()) in
    Gc.compact ();
    let live1 = (Gc.stat ()).Gc.live_words in
    ignore (Sys.opaque_identity routers);
    (live1 - live0) / 200
  in
  Printf.printf "  %-40s %8d words (%d bytes)\n" "router_heap_words_fleet_cfg"
    router_heap_words (8 * router_heap_words);
  let report =
    Hw_json.Json.Obj
      [
        ( "ns_per_op",
          Hw_json.Json.Obj
            [
              ( "PERF9 fleet",
                Hw_json.Json.Obj
                  [
                    ("fleet_bring_up_1k", Hw_json.Json.Float bring_up_1k_ns);
                    ("fed_select_100", Hw_json.Json.Float fed_100_ns);
                    ("fed_select_1k", Hw_json.Json.Float fed_1k_ns);
                    ("rollup_event", Hw_json.Json.Float rollup_event_ns);
                  ] );
              ( "PERF11 obs fleet",
                Hw_json.Json.Obj
                  [
                    ("scrape_cycle_per_router_1k", Hw_json.Json.Float scrape_per_router_ns);
                    ("health_tick_1k", Hw_json.Json.Float health_tick_1k_ns);
                  ] );
            ] );
        ("router_heap_words_fleet_cfg", Hw_json.Json.Float (float_of_int router_heap_words));
      ]
  in
  let path = "BENCH_fleet.json" in
  let oc = open_out path in
  output_string oc (Hw_json.Json.to_string report);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Budget gate: compare BENCH_micro.json against PERF_budget.json      *)
(* ------------------------------------------------------------------ *)

(* CI regression gate: every row in PERF_budget.json names a measurement
   from the latest micro run; the gate fails when a median exceeds its
   budget by more than the file's headroom factor (default 1.25). *)
let run_check () =
  banner "CHECK  Microbenchmark budgets (PERF_budget.json vs BENCH_micro.json)";
  let read path =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Hw_json.Json.of_string s
  in
  let budget_file =
    try read "PERF_budget.json"
    with Sys_error _ ->
      Printf.eprintf "PERF_budget.json not found (run from the repo root)\n";
      exit 1
  in
  let measured =
    try read "BENCH_micro.json"
    with Sys_error _ ->
      Printf.eprintf "BENCH_micro.json not found; run `bench micro` first\n";
      exit 1
  in
  let headroom =
    match Hw_json.Json.member_opt "headroom" budget_file with
    | Some v -> Hw_json.Json.to_float v
    | None -> 1.25
  in
  let ns = Hw_json.Json.member "ns_per_op" measured in
  (* the fleet macro benches land in their own file; fold the group in
     when it exists so one budget table gates both *)
  let ns =
    match read "BENCH_fleet.json" with
    | fleet ->
        Hw_json.Json.Obj
          (Hw_json.Json.get_obj ns @ Hw_json.Json.get_obj (Hw_json.Json.member "ns_per_op" fleet))
    | exception Sys_error _ -> ns
  in
  let failures = ref 0 in
  Printf.printf "\n%-24s %-40s %12s %12s  %s\n" "group" "benchmark" "budget" "measured" "";
  List.iter
    (fun (group, entries) ->
      List.iter
        (fun (name, budget) ->
          let budget = Hw_json.Json.to_float budget in
          let limit = budget *. headroom in
          let value =
            Option.bind (Hw_json.Json.member_opt group ns) (Hw_json.Json.member_opt name)
          in
          match value with
          | None ->
              incr failures;
              Printf.printf "%-24s %-40s %10.0fns %12s  MISSING\n" group name budget "-"
          | Some v ->
              let v = Hw_json.Json.to_float v in
              let ok = v <= limit in
              if not ok then incr failures;
              Printf.printf "%-24s %-40s %10.0fns %10.0fns  %s\n" group name budget v
                (if ok then "ok" else Printf.sprintf "FAIL (> %.0fns)" limit))
        (Hw_json.Json.get_obj entries))
    (Hw_json.Json.get_obj (Hw_json.Json.member "budgets_ns" budget_file));
  if !failures > 0 then begin
    Printf.printf "\n%d budget violation(s); headroom factor %.2f\n" !failures headroom;
    exit 1
  end;
  Printf.printf "\nall budgets met (headroom factor %.2f)\n" headroom

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)
(* ------------------------------------------------------------------ *)

let ablation_idle_timeout () =
  banner "ABL1  Reactive flow idle-timeout: controller load vs table state";
  Printf.printf
    "\nThe Homework controller installs exact-match flows with an idle\n\
     timeout. The workload is 16 recurring flows (fixed five-tuples, one\n\
     burst every 8 s for 120 s): a short timeout expires each flow between\n\
     bursts and re-punts it to the controller; a long one keeps the state.\n\n";
  Printf.printf "%12s %14s %16s %14s\n" "idle (s)" "packet-ins" "mean tbl size" "max tbl size";
  List.iter
    (fun idle ->
      let home = Home.create ~seed:11 ~config:(Router.config ~flow_idle_timeout:idle ()) () in
      let router = Home.router home in
      let mac = Mac.local 1 in
      Hw_dhcp.Dhcp_server.permit (Router.dhcp router) mac;
      let device = Home.add_device home (Device.wired ~name:"recurrer" ~mac []) in
      Home.run_for home 10.;
      let baseline = Router.packet_ins router in
      let dst_ip = Hw_sim.Internet.lookup_zone (Home.internet home) "www.example.com" in
      let dst_ip = Option.get dst_ip in
      (* 16 recurring flows, bursting every 8 s *)
      Hw_sim.Event_loop.every (Home.loop home) 8. (fun () ->
          for flow = 0 to 15 do
            for _ = 1 to 3 do
              Device.send_tcp_segment device ~dst_ip ~dst_port:80 ~src_port:(42000 + flow)
                "recurring"
            done
          done);
      let samples = ref [] in
      for _ = 1 to 120 do
        Home.run_for home 1.;
        samples := Router.flows_installed router :: !samples
      done;
      let n = List.length !samples in
      let mean = float_of_int (List.fold_left ( + ) 0 !samples) /. float_of_int n in
      let maxv = List.fold_left max 0 !samples in
      Printf.printf "%12d %14d %16.1f %14d\n" idle
        (Router.packet_ins router - baseline)
        mean maxv)
    [ 1; 2; 5; 10; 30 ];
  Printf.printf
    "\n[shape check] packet-ins fall and table occupancy rises with the idle\n\
     timeout: the reactive-control tradeoff. Past the burst period (8 s)\n\
     extra timeout only adds table state.\n"

let ablation_hwdb_capacity () =
  banner "ABL2  hwdb ring capacity: memory bound vs query cost";
  Printf.printf "\n%12s %18s %18s\n" "capacity" "windowed query" "group-by query";
  List.iter
    (fun cap ->
      let now = ref 0. in
      let db = Hw_hwdb.Database.create ~default_capacity:cap ~now:(fun () -> !now) () in
      for i = 1 to 2 * cap do
        now := float_of_int i *. 0.01;
        Hw_hwdb.Database.record_flow db ~proto:6
          ~src_ip:(Hw_hwdb.Value.Str (Printf.sprintf "10.0.0.%d" (i mod 8)))
          ~dst_ip:(Hw_hwdb.Value.Str "1.2.3.4") ~src_port:i ~dst_port:80 ~packets:1 ~bytes:i
      done;
      let time_query q =
        let reps = 50 in
        let t0 = Sys.time () in
        for _ = 1 to reps do
          ignore (Hw_hwdb.Database.query db q)
        done;
        (Sys.time () -. t0) /. float_of_int reps *. 1e3
      in
      let w = time_query "SELECT bytes FROM Flows [RANGE 5 SECONDS]" in
      let g = time_query "SELECT src_ip, SUM(bytes) AS b FROM Flows GROUP BY src_ip" in
      Printf.printf "%12d %15.3f ms %15.3f ms\n" cap w g)
    [ 256; 1024; 4096; 16384 ];
  Printf.printf
    "\n[shape check] whole-ring queries (group-by) grow linearly with the\n\
     ring capacity, so the paper's fixed-size buffers bound both memory\n\
     and query latency; the windowed query pays only for the rows inside\n\
     its window (index-backed scan), staying ~flat across capacities.\n"

let ablation_dns_cache () =
  banner "ABL3  DNS proxy cache: reverse lookups avoided by caching answers";
  let run ~cache_ttl ~label =
    let now = ref 0. in
    let proxy = Hw_dns.Dns_proxy.create ~cache_ttl ~now:(fun () -> !now) () in
    let kid = Mac.local 1 in
    let kid_ip = Ip.of_octets 10 0 0 100 in
    Hw_dns.Dns_proxy.set_device_of_ip proxy (fun ip ->
        if Ip.equal ip kid_ip then Some kid else None);
    Hw_dns.Dns_proxy.set_policy proxy kid (Hw_dns.Dns_proxy.Allow_only [ "facebook.com" ]);
    (* the device resolves 8 facebook hosts, then opens 100 flows to each *)
    for i = 0 to 7 do
      let name = Printf.sprintf "cdn%d.facebook.com" i in
      let ip = Ip.of_octets 93 184 216 (50 + i) in
      match
        Hw_dns.Dns_proxy.handle_query proxy ~src_ip:kid_ip ~src_port:1000
          (Dns_wire.query ~id:i name Dns_wire.A)
      with
      | [ Hw_dns.Dns_proxy.Forward_upstream q ] ->
          ignore
            (Hw_dns.Dns_proxy.handle_upstream proxy
               (Dns_wire.response ~answers:[ Dns_wire.a_record name ip ] q))
      | _ -> ()
    done;
    (* time passes; with a tiny TTL the cache is gone *)
    now := 10.;
    Hw_dns.Dns_proxy.expire_cache proxy;
    for _ = 1 to 100 do
      for i = 0 to 7 do
        ignore
          (Hw_dns.Dns_proxy.check_flow proxy ~src_ip:kid_ip
             ~dst_ip:(Ip.of_octets 93 184 216 (50 + i)))
      done
    done;
    let st = Hw_dns.Dns_proxy.stats proxy in
    Printf.printf "%-28s reverse lookups issued: %5d / 800 admission checks\n" label
      st.Hw_dns.Dns_proxy.reverse_lookups
  in
  print_newline ();
  run ~cache_ttl:3600. ~label:"cache TTL 3600 s:";
  run ~cache_ttl:1. ~label:"cache TTL 1 s (disabled):";
  Printf.printf
    "\n[shape check] without the name cache every unknown destination pays\n\
     a reverse lookup, exactly the paper's fallback path.\n"

let ablation_path_loss () =
  banner "ABL4  Wireless environment: path-loss exponent vs link quality";
  Printf.printf
    "\nretry probability at each distance, for free-space (2.0), indoor\n\
     (3.0, default) and cluttered (4.0) propagation:\n\n";
  Printf.printf "%10s %12s %12s %12s\n" "dist (m)" "n=2.0" "n=3.0" "n=4.0";
  List.iter
    (fun d ->
      let p n =
        let params = { Hw_sim.Rssi.default_params with Hw_sim.Rssi.path_loss_exponent = n } in
        Hw_sim.Rssi.retry_probability (Hw_sim.Rssi.rssi_at params ~distance_m:d)
      in
      Printf.printf "%10.0f %11.0f%% %11.0f%% %11.0f%%\n" d
        (100. *. p 2.0) (100. *. p 3.0) (100. *. p 4.0))
    [ 1.; 5.; 10.; 20.; 35.; 50. ];
  Printf.printf
    "\n[shape check] retries grow with distance and with the exponent; in a\n\
     cluttered home the artifact's Mode 1 gradient is much steeper.\n"

let ablation_household_scale () =
  banner "ABL5  Household size: controller and measurement-plane load";
  Printf.printf
    "\n120 s of mixed traffic at growing household sizes (half wireless,\n\
     half wired, web+p2p mixes):\n\n";
  Printf.printf "%10s %13s %13s %14s %16s\n" "devices" "packet-ins" "peak flows" "hwdb rows"
    "dns queries";
  List.iter
    (fun n ->
      let home = Home.create ~seed:23 () in
      let router = Home.router home in
      for i = 0 to n - 1 do
        let mac = Mac.local (0x100 + i) in
        Hw_dhcp.Dhcp_server.permit (Router.dhcp router) mac;
        let apps =
          match i mod 3 with
          | 0 -> [ App_profile.web; App_profile.https ]
          | 1 -> [ App_profile.p2p ]
          | _ -> [ App_profile.web; App_profile.iot_telemetry ]
        in
        ignore
          (Home.add_device home
             (if i mod 2 = 0 then
                Device.wireless ~distance_m:(3. +. float_of_int (i mod 12))
                  ~name:(Printf.sprintf "n%d" i) ~mac apps
              else Device.wired ~name:(Printf.sprintf "n%d" i) ~mac apps))
      done;
      let peak_flows = ref 0 in
      for _ = 1 to 120 do
        Home.run_for home 1.;
        peak_flows := max !peak_flows (Router.flows_installed router)
      done;
      let hwdb_rows =
        match Hw_hwdb.Database.table (Router.db router) "Flows" with
        | Some table -> Hw_hwdb.Table.total_inserted table
        | None -> 0
      in
      Printf.printf "%10d %13d %13d %14d %16d\n" n (Router.packet_ins router) !peak_flows
        hwdb_rows
        (Hw_dns.Dns_proxy.stats (Router.dns router)).Hw_dns.Dns_proxy.queries)
    [ 3; 6; 12; 24 ];
  Printf.printf
    "\n[shape check] controller load and measurement volume grow roughly\n\
     linearly with household size; the flow table stays proportional to\n\
     concurrently active sessions, not devices squared.\n"

let run_ablations () =
  ablation_idle_timeout ();
  ablation_hwdb_capacity ();
  ablation_dns_cache ();
  ablation_path_loss ();
  ablation_household_scale ()

(* ------------------------------------------------------------------ *)

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let all =
    [ ("fig1", fig1); ("fig2", fig2); ("fig3", fig3); ("fig4", fig4); ("fig5", fig5);
      ("micro", run_micro); ("fleet", run_fleet); ("check", run_check);
      ("ablation", run_ablations) ]
  in
  match which with
  | "all" -> List.iter (fun (_, f) -> f ()) all
  | name -> (
      match List.assoc_opt name all with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown bench %S; expected fig1..fig5, micro, fleet, check or all\n"
            name;
          exit 1)
