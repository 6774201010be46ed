(* Unit tests of the benchmark's own machinery: order statistics, the call
   classifier, calibration scaling and the tick bracket. The quartile
   helper of the steadiness report and the workloads' determinism are
   checked by [perfbench/run.py --selftest]. *)

open Perfbench
module Packet = Hw_packet.Packet
module Mac = Hw_packet.Mac
module Ip = Hw_packet.Ip
module Loop = Hw_sim.Event_loop

let close ?(rel = 1e-9) what expected got =
  if Float.abs (got -. expected) > rel *. Float.max 1. (Float.abs expected) then
    Alcotest.failf "%s: expected %g, got %g" what expected got

(* ---- order statistics ---- *)

let test_percentile () =
  let xs = Array.init 10 (fun i -> float_of_int (10 - i)) in
  close "p0" 1. (Stats.percentile xs 0.);
  close "p50" 5.5 (Stats.percentile xs 0.5);
  close "p90" 9.1 (Stats.percentile xs 0.9);
  close "p100" 10. (Stats.percentile xs 1.);
  close "median of one" 3. (Stats.median [| 3. |]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile [||] 0.5))

let test_hist () =
  let h = Stats.Hist.create () in
  let xs = Array.init 2000 (fun i -> 100. *. (1.003 ** float_of_int i)) in
  Array.iter (Stats.Hist.add h) xs;
  Alcotest.(check int) "count" 2000 (Stats.Hist.count h);
  close "sum" (Array.fold_left ( +. ) 0. xs) (Stats.Hist.sum h) ~rel:1e-9;
  List.iter
    (fun p -> close (Printf.sprintf "p%g within a bucket" p) (Stats.percentile xs p) (Stats.Hist.percentile h p) ~rel:0.011)
    [ 0.1; 0.5; 0.9; 0.99 ];
  close "empty" 0. (Stats.Hist.percentile (Stats.Hist.create ()) 0.5)

(* ---- the call classifier ---- *)

let dev = Mac.local 7
let router = Mac.of_string_exn "02:00:00:00:aa:01"
let dev_ip = Ip.of_octets 10 0 0 107
let router_ip = Ip.of_octets 10 0 0 1
let far = Ip.of_octets 93 184 216 10

let dhcp_frame =
  Packet.encode
    (Packet.dhcp_packet ~src_mac:dev ~dst_mac:Mac.broadcast ~src_ip:Ip.any ~dst_ip:Ip.broadcast
       (Hw_packet.Dhcp_wire.make_request ~xid:7l ~chaddr:dev Hw_packet.Dhcp_wire.Discover))

let dns_frame =
  Packet.encode
    (Packet.dns_query_packet ~src_mac:dev ~dst_mac:router ~src_ip:dev_ip ~dst_ip:router_ip
       ~src_port:40001
       (Hw_packet.Dns_wire.query ~id:1 "www.example.com" Hw_packet.Dns_wire.A))

let arp_frame =
  Packet.encode
    (Packet.arp_packet ~src_mac:dev
       (Hw_packet.Arp.request ~sender_mac:dev ~sender_ip:dev_ip ~target_ip:router_ip))

let ip_frame =
  Packet.encode
    (Packet.tcp_packet ~src_mac:dev ~dst_mac:router ~src_ip:dev_ip ~dst_ip:far ~src_port:40002
       ~dst_port:80 "payload")

let udp_frame =
  Packet.encode
    (Packet.udp_packet ~src_mac:dev ~dst_mac:router ~src_ip:dev_ip ~dst_ip:far ~src_port:40003
       ~dst_port:9000 "payload")

let path =
  Alcotest.testable
    (fun ppf p ->
      Format.pp_print_string ppf
        (match p with
        | Frames.Forward -> "forward"
        | Frames.Dhcp_call -> "dhcp"
        | Frames.Flow_setup c -> "setup." ^ Frames.setup_name c))
    ( = )

let test_kinds () =
  let kind = Alcotest.testable (fun ppf _ -> Format.pp_print_string ppf "<kind>") ( = ) in
  Alcotest.check kind "dhcp" Frames.Dhcp (Frames.kind dhcp_frame);
  Alcotest.check kind "dns" Frames.Dns (Frames.kind dns_frame);
  Alcotest.check kind "arp" Frames.Arp (Frames.kind arp_frame);
  Alcotest.check kind "tcp" Frames.Ip (Frames.kind ip_frame);
  Alcotest.check kind "udp" Frames.Ip (Frames.kind udp_frame);
  Alcotest.check kind "runt" Frames.Other (Frames.kind "short");
  Alcotest.(check int) "dhcp client" (Int64.to_int (Mac.to_int64 dev)) (Frames.src_mac dhcp_frame)

let test_classify () =
  let on frames = List.map (fun f -> (1, f)) frames in
  let c ?(upstream = false) packet_ins frames =
    Frames.classify ~upstream ~packet_ins (on frames)
  in
  Alcotest.check path "no packet-in forwards" Frames.Forward (c 0 [ dhcp_frame; ip_frame ]);
  Alcotest.check path "dhcp" Frames.Dhcp_call (c 1 [ ip_frame; dhcp_frame ]);
  Alcotest.check path "dns" (Frames.Flow_setup Frames.Setup_dns) (c 1 [ ip_frame; dns_frame ]);
  Alcotest.check path "arp" (Frames.Flow_setup Frames.Setup_arp) (c 1 [ arp_frame ]);
  Alcotest.check path "ip" (Frames.Flow_setup Frames.Setup_ip) (c 2 [ ip_frame; udp_frame ]);
  Alcotest.check path "upstream" (Frames.Flow_setup Frames.Setup_upstream)
    (c ~upstream:true 1 [ ip_frame ]);
  Alcotest.(check int) "dhcp client of a batch" (Int64.to_int (Mac.to_int64 dev))
    (Frames.dhcp_client (on [ ip_frame; dhcp_frame ]))

(* ---- calibration ---- *)

let test_scaling () =
  (* the same work, timed in a second when the host ran at half speed
     (kernel twice as slow, sample twice as long) and in a fast one *)
  let slow = Calib.scale ~kernel_ns:(2. *. Calib.nominal_kernel_ns) 2_000. in
  let fast = Calib.scale ~kernel_ns:Calib.nominal_kernel_ns 1_000. in
  close "same calibrated value" fast slow;
  close "nominal host is identity" 1_000. fast;
  let m = World.create_meter ~traced:false in
  m.World.on <- true;
  m.World.factor <- Calib.factor ~kernel_ns:(2. *. Calib.nominal_kernel_ns);
  World.sample m m.World.fwd 2_000.;
  m.World.factor <- Calib.factor ~kernel_ns:(0.5 *. Calib.nominal_kernel_ns);
  World.sample m m.World.fwd 500.;
  (* both land on the nominal-host value: 2000 ns at half speed, 500 ns at
     double speed, 1000 ns each once calibrated *)
  close "calibrated samples agree" 2_000. (Stats.Hist.sum m.World.fwd.World.cal);
  close "raw samples differ" 2_500. (Stats.Hist.sum m.World.fwd.World.raw)

let test_window () =
  let w = Calib.Window.create 5 in
  close "empty window is nominal" Calib.nominal_kernel_ns (Calib.Window.median w);
  List.iter (Calib.Window.push w) [ 5.; 1.; 4. ];
  close "median of three" 4. (Calib.Window.median w);
  List.iter (Calib.Window.push w) [ 100.; 2.; 3. ];
  (* the window keeps the last five: 1 4 100 2 3 *)
  close "outlier ignored" 3. (Calib.Window.median w)

(* ---- the tick bracket ---- *)

let hwdb_ticks rt =
  match Hw_metrics.Registry.find (Hw_router.Router.metrics rt) "hwdb_ticks_total" with
  | Some (Hw_metrics.Registry.Counter c) -> Hw_metrics.Counter.value c
  | _ -> 0

let test_bracket () =
  (* a timer created just before Router.create fires before the router's
     1 s tick, one created just after fires after it, every second *)
  let loop = Loop.create () in
  let order = ref [] in
  let rt = ref None in
  let ticks () = match !rt with Some r -> hwdb_ticks r | None -> -1 in
  Loop.every loop 1.0 (fun () -> order := `Before (ticks ()) :: !order);
  rt := Some (Hw_router.Router.create ~loop ());
  Loop.every loop 1.0 (fun () -> order := `After (ticks ()) :: !order);
  Loop.run_for loop 5.;
  let expected =
    List.concat_map (fun s -> [ `Before (s - 1); `After s ]) [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "before, tick, after" true (List.rev !order = expected)

let test_world_bracket () =
  (* the benchmark's own home times exactly one tick per second *)
  let w = World.create_world ~traced:true ~start:0. in
  let config = Hw_router.Router.config () in
  let h = World.add_home w ~seed:1 ~config () in
  ignore
    (World.add_device w h ~gated:false ~cyclable:false
       (Hw_sim.Device.wireless ~name:"d" ~mac:(Mac.local 1) [ Hw_sim.App_profile.web ]));
  w.World.meter.World.on <- true;
  Loop.run_for w.World.loop 20.;
  Alcotest.(check int) "one tick sample per second" 20
    (Stats.Hist.count w.World.meter.World.tick.World.cal);
  Alcotest.(check int) "router ticked inside" 20 (hwdb_ticks h.World.rt);
  Alcotest.(check bool) "device joined" true
    (Stats.Hist.count w.World.meter.World.join.World.cal = 1)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile on known arrays" `Quick test_percentile;
          Alcotest.test_case "histogram percentiles within a bucket" `Quick test_hist;
        ] );
      ( "classifier",
        [
          Alcotest.test_case "frame kinds" `Quick test_kinds;
          Alcotest.test_case "call paths" `Quick test_classify;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "slow and fast seconds agree" `Quick test_scaling;
          Alcotest.test_case "sliding kernel median" `Quick test_window;
        ] );
      ( "tick bracket",
        [
          Alcotest.test_case "timers around Router.create" `Quick test_bracket;
          Alcotest.test_case "world times one tick per second" `Quick test_world_bracket;
        ] );
    ]
