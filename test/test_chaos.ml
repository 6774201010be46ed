(* Chaos suite: the whole system run under seeded fault injection.

   Every test draws its fault schedule from one seed, taken from the
   CHAOS_SEED environment variable (default 7), so a CI failure is
   replayed exactly by exporting the printed seed.  The assertions are
   end-state invariants — convergence, exactly-once, no-fail-open,
   bounded state — not packet-by-packet expectations, so they hold for
   any seed the schedules were vetted on. *)

open Hw_packet
open Hw_hwdb
module Fault = Hw_fault.Fault
module Loop = Hw_sim.Event_loop
module Registry = Hw_metrics.Registry
module Counter = Hw_metrics.Counter
module Router = Hw_router.Router
module Home = Hw_router.Home

let seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 7)
  | None -> 7

let counter_value metrics name = Counter.value (Registry.counter metrics name)

let fault_count metrics kind =
  Counter.value
    (Registry.labeled_counter metrics "fault_injected_total" ~labels:[ ("kind", kind) ])

(* A lossy hwdb RPC loop: client and server wired back-to-back through
   one injector per direction, with retry timers and injected delays
   running on a shared event loop. *)
let lossy_rpc_pair ~metrics ~loop ~db ~plan_c2s ~plan_s2c ?(retry = Rpc.Client.default_retry) ()
    =
  let now () = Loop.now loop in
  let schedule d f = Loop.after loop d f in
  let c2s = Fault.create ~metrics ~schedule ~seed ~now ~point:"rpc.c2s" () in
  let s2c = Fault.create ~metrics ~schedule ~seed:(seed + 1) ~now ~point:"rpc.s2c" () in
  Fault.set_plan c2s plan_c2s;
  Fault.set_plan s2c plan_s2c;
  let client_ref = ref None in
  let server =
    Rpc.Server.create ~metrics ~db
      ~send:(fun ~to_:_ datagram ->
        Fault.apply s2c datagram
          ~deliver:(fun d ->
            match !client_ref with Some c -> Rpc.Client.handle_datagram c d | None -> ()))
      ()
  in
  let client =
    Rpc.Client.create ~metrics ~schedule ~retry ~seed
      ~send:(fun datagram ->
        Fault.apply c2s datagram ~deliver:(fun d -> Rpc.Server.handle_datagram server ~from:"c1" d))
      ()
  in
  client_ref := Some client;
  (server, client)

(* --- SUBSCRIBE under 30% datagram loss, both directions ------------- *)

let test_subscribe_under_drop () =
  let metrics = Registry.create () in
  let loop = Loop.create ~metrics () in
  let db = Database.create ~metrics ~now:(fun () -> Loop.now loop) () in
  let server, client =
    lossy_rpc_pair ~metrics ~loop ~db ~plan_c2s:[ Fault.Drop 0.3 ] ~plan_s2c:[ Fault.Drop 0.3 ]
      ()
  in
  let received = ref 0 in
  let sub =
    Rpc.Subscriber.attach ~metrics
      ~now:(fun () -> Loop.now loop)
      ~schedule:(fun d f -> Loop.after loop d f)
      ~client ~statement:"SUBSCRIBE SELECT COUNT(*) AS n FROM Flows EVERY 2 SECONDS" ~period:2.
      ~on_result:(fun _ -> incr received)
      ()
  in
  Loop.every loop 1.0 (fun () -> Database.tick db);
  Loop.run_for loop 120.;
  Alcotest.(check bool) "subscription established" true (Rpc.Subscriber.sub_id sub <> None);
  Alcotest.(check bool)
    (Printf.sprintf "publishes got through (%d)" !received)
    true (!received >= 10);
  (* renewals and re-subscribes must not multiply the server-side state *)
  Alcotest.(check int) "exactly one server subscription" 1 (Rpc.Server.subscriber_count server)

(* --- retried INSERTs apply exactly once ----------------------------- *)

let test_insert_exactly_once () =
  let metrics = Registry.create () in
  let loop = Loop.create ~metrics () in
  let db = Database.create ~metrics ~now:(fun () -> Loop.now loop) () in
  (match Database.execute db "CREATE TABLE chaos (n INTEGER) CAPACITY 64" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let retry = { Rpc.Client.default_retry with max_attempts = 10 } in
  let _server, client =
    lossy_rpc_pair ~metrics ~loop ~db
      ~plan_c2s:[ Fault.Drop 0.25; Fault.Duplicate 0.25 ]
      ~plan_s2c:[ Fault.Drop 0.25; Fault.Duplicate 0.25 ]
      ~retry ()
  in
  let acked = ref 0 in
  for i = 1 to 20 do
    Rpc.Client.request client
      (Printf.sprintf "INSERT INTO chaos VALUES (%d)" i)
      ~on_reply:(function Ok _ -> incr acked | Error _ -> ())
  done;
  Loop.run_for loop 600.;
  let rows =
    match Database.query db "SELECT n FROM chaos" with
    | Ok rs -> List.map (function [ Value.Int n ] -> n | _ -> -1) rs.Query.rows
    | Error e -> Alcotest.fail e
  in
  let distinct = List.sort_uniq compare rows in
  Alcotest.(check int) "no duplicated inserts" (List.length rows) (List.length distinct);
  Alcotest.(check int) "every acked insert applied once" !acked (List.length rows);
  Alcotest.(check int) "all inserts eventually acked" 20 !acked;
  Alcotest.(check bool) "losses forced retries" true (counter_value metrics "rpc_retries_total" > 0);
  Alcotest.(check bool) "server deduplicated retransmits" true
    (counter_value metrics "rpc_dedup_hits_total" > 0)

(* --- DHCP converges under dataplane loss and delay ------------------ *)

let test_dhcp_converges_under_faults () =
  let home = Home.standard_home ~seed () in
  Home.permit_all home;
  let faults = Router.faults (Home.router home) in
  Fault.set_plan faults.Fault.tx
    [ Fault.Drop 0.2; Fault.Delay { p = 0.3; min_s = 0.01; max_s = 0.2 } ];
  Home.run_for home 600.;
  let ips =
    List.filter_map
      (fun d ->
        Alcotest.(check bool)
          (Hw_sim.Device.name d ^ " bound")
          true
          (Hw_sim.Device.dhcp_state d = Hw_sim.Device.Bound);
        Hw_sim.Device.ip d)
      (Home.devices home)
  in
  Alcotest.(check int) "every device has an address" (List.length (Home.devices home))
    (List.length ips);
  Alcotest.(check int) "no duplicate addresses" (List.length ips)
    (List.length (List.sort_uniq compare ips));
  let metrics = Router.metrics (Home.router home) in
  Alcotest.(check bool) "frames were dropped" true (fault_count metrics "drop" > 0);
  Alcotest.(check bool) "frames were delayed" true (fault_count metrics "delay" > 0)

(* --- DNS enforcement never fails open under faults ------------------ *)

let test_dns_never_fails_open () =
  let home = Home.standard_home ~seed () in
  Home.permit_all home;
  Home.run_for home 60.;
  let rt = Home.router home in
  let kid_mac = Mac.local 2 (* kids-tablet *) in
  Hw_dns.Dns_proxy.set_policy (Router.dns rt) kid_mac Hw_dns.Dns_proxy.Block_all;
  let faults = Router.faults rt in
  Fault.set_plan faults.Fault.tx [ Fault.Drop 0.3; Fault.Corrupt 0.2 ];
  Home.run_for home 120.;
  Fault.disarm_plane faults;
  let kid =
    match Home.device_by_name home "kids-tablet" with
    | Some d -> d
    | None -> Alcotest.fail "kids-tablet missing"
  in
  (match Hw_sim.Device.ip kid with
  | None -> () (* never even bound: certainly not allowed through *)
  | Some kid_ip ->
      List.iter
        (fun dst_ip ->
          match Hw_dns.Dns_proxy.check_flow (Router.dns rt) ~src_ip:kid_ip ~dst_ip with
          | Hw_dns.Dns_proxy.Flow_allow ->
              Alcotest.fail
                (Printf.sprintf "blocked device allowed to %s under faults" (Ip.to_string dst_ip))
          | _ -> ())
        [ Ip.of_octets 93 184 216 34; Ip.of_octets 8 8 8 8; Ip.of_octets 203 0 113 7 ]);
  Alcotest.(check bool) "corruption actually exercised" true
    (fault_count (Router.metrics rt) "corrupt" > 0)

(* --- restarted DHCP server re-serves identical addresses ------------ *)

let lease_map server =
  Hw_dhcp.Lease_db.active (Hw_dhcp.Dhcp_server.lease_db server)
  |> List.filter (fun l -> l.Hw_dhcp.Lease_db.committed)
  |> List.map (fun l -> (Mac.to_string l.Hw_dhcp.Lease_db.mac, Ip.to_string l.Hw_dhcp.Lease_db.ip))
  |> List.sort compare

let test_dhcp_crash_recovery () =
  let store = Hw_wal.Store.mem () in
  let home = Home.standard_home ~seed ~wal_store:store () in
  Home.permit_all home;
  Home.run_for home 120.;
  let rt1 = Home.router home in
  let before = lease_map (Router.dhcp rt1) in
  Alcotest.(check bool) "leases were granted before the crash" true (List.length before >= 6);
  (* group-commit the last tick's appends, then "crash": the router
     process is gone; only the WAL store survives *)
  Database.flush_wal (Router.db rt1);
  let loop2 = Loop.create ~start:(Home.now home) () in
  let rt2 = Router.create ~wal_store:store ~loop:loop2 () in
  let after = lease_map (Router.dhcp rt2) in
  Alcotest.(check (list (pair string string))) "identical mac->ip bindings" before after;
  Alcotest.(check int) "recovery counted"
    (List.length before)
    (counter_value (Router.metrics rt2) "dhcp_leases_recovered_total");
  (* the restored devices are still permitted: their next REQUEST renews *)
  List.iter
    (fun (mac, _) ->
      match Hw_dhcp.Dhcp_server.device_state (Router.dhcp rt2) (Option.get (Mac.of_string mac)) with
      | Hw_dhcp.Dhcp_server.Permitted -> ()
      | _ -> Alcotest.fail (mac ^ " not permitted after recovery"))
    before

(* --- torn/corrupt/crashing WAL writes; recover the durable prefix --- *)

let test_disk_fault_crash_recovery () =
  let msg m = Printf.sprintf "seed %d: %s" seed m in
  let store = Hw_wal.Store.mem () in
  let home = Home.standard_home ~seed ~wal_store:store () in
  Home.permit_all home;
  Home.run_for home 120.;
  let rt1 = Home.router home in
  let metrics1 = Router.metrics rt1 in
  let faults = Router.faults rt1 in
  let before = lease_map (Router.dhcp rt1) in
  Alcotest.(check bool) (msg "leases granted before the faults") true
    (List.length before >= 6);
  (* the storage stack starts failing mid-write: short writes, bit flips
     and crash-at-boundary.  The event loop absorbs the injected crashes
     (the timer stays alive), modelling a router that limps on with a
     dying disk until we kill it below.  Keep the durable tables chatty
     through the window — lease renewals of real bindings plus policy
     tokens — so every group commit passes through the injector. *)
  Fault.set_plan faults.Fault.disk [ Fault.Drop 0.2; Fault.Corrupt 0.1; Fault.Crash 0.1 ];
  for i = 1 to 60 do
    (match List.nth_opt before (i mod List.length before) with
    | Some (mac, ip) ->
        Database.record_lease (Router.db rt1) ~mac:(Value.Str mac) ~ip:(Value.Str ip)
          ~hostname:"chaos" ~action:"renew"
    | None -> ());
    Database.record_policy (Router.db rt1) ~kind:"token"
      ~id:(Printf.sprintf "chaos%d" i) ~payload:"" ~action:"set";
    Home.run_for home 1.0
  done;
  Fault.disarm_plane faults;
  Alcotest.(check bool) (msg "disk faults actually fired") true
    (fault_count metrics1 "drop" + fault_count metrics1 "corrupt"
     + fault_count metrics1 "crash"
    > 0);
  (* every (mac, ip) the dying router ever granted or renewed: whatever
     the recovery yields must come from this set — a durable prefix can
     be stale, never invented *)
  let ever_bound =
    match Database.table (Router.db rt1) "Leases" with
    | None -> []
    | Some t ->
        List.filter_map
          (fun (tu : Value.tuple) ->
            match tu.Value.values with
            | [| Value.Str mac; Value.Str ip; _; Value.Str action |]
              when action = "grant" || action = "renew" ->
                Some (mac, ip)
            | _ -> None)
          (Table.scan t)
  in
  Alcotest.(check bool) (msg "bindings existed before the kill") true
    (List.length ever_bound >= 6);
  (* kill mid-flight: pending appends die with the process.  Recovery
     must truncate at the tear and never raise. *)
  let loop2 = Loop.create ~start:(Home.now home) () in
  let rt2 = Router.create ~wal_store:store ~loop:loop2 () in
  let recovered = lease_map (Router.dhcp rt2) in
  List.iter
    (fun (mac, ip) ->
      Alcotest.(check bool)
        (msg (Printf.sprintf "recovered %s -> %s was really granted" mac ip))
        true
        (List.mem (mac, ip) ever_bound))
    recovered;
  (* a full restarted home on the same store honours the recovered
     bindings: each such device renews its old address *)
  let home2 = Home.standard_home ~seed ~start:(Home.now home) ~wal_store:store () in
  Home.permit_all home2;
  Home.run_for home2 120.;
  let final = lease_map (Router.dhcp (Home.router home2)) in
  List.iter
    (fun (mac, ip) ->
      match List.assoc_opt mac final with
      | Some ip' -> Alcotest.(check string) (msg (mac ^ " keeps its recovered address")) ip ip'
      | None -> Alcotest.fail (msg (mac ^ " vanished after restart")))
    recovered

(* --- control-channel partition: detect, reconnect, resync ----------- *)

let test_channel_partition_recovery () =
  let home = Home.standard_home ~seed () in
  Home.permit_all home;
  Home.run_for home 30.;
  let rt = Home.router home in
  let faults = Router.faults rt in
  let t0 = Home.now home in
  Fault.set_plan faults.Fault.chan [ Fault.Partition { from_s = t0; until_s = t0 +. 200. } ];
  Home.run_for home 400.;
  Fault.disarm_plane faults;
  let metrics = Router.metrics rt in
  Alcotest.(check bool) "missed echoes detected" true
    (counter_value metrics "echo_timeouts_total" >= 1);
  (* the supervisor re-established exactly one live, feature-complete
     connection *)
  let conns = Hw_controller.Controller.connections (Router.controller rt) in
  Alcotest.(check int) "one connection after recovery" 1 (List.length conns);
  Alcotest.(check bool) "handshake completed" true
    (List.for_all
       (fun c -> Hw_controller.Controller.conn_features c <> None)
       conns);
  (* and the network is functional again: a brand-new device can join *)
  Hw_dhcp.Dhcp_server.permit (Router.dhcp rt) (Mac.local 9);
  let late =
    Home.add_device home
      (Hw_sim.Device.wireless ~distance_m:5. ~name:"late-joiner" ~mac:(Mac.local 9)
         [ Hw_sim.App_profile.web ])
  in
  Home.run_for home 120.;
  Alcotest.(check bool) "late joiner bound after recovery" true
    (Hw_sim.Device.dhcp_state late = Hw_sim.Device.Bound)

(* --- dead subscribers are evicted: client_subs is bounded ----------- *)

let test_subscriber_eviction_bounds_leak () =
  let now = ref 0. in
  let metrics = Registry.create () in
  let db = Database.create ~metrics ~now:(fun () -> !now) () in
  let server = Rpc.Server.create ~metrics ~db ~send:(fun ~to_:_ _ -> ()) () in
  (* a renewal is a fresh request (new seq); only retransmits reuse one,
     and those are absorbed by the dedup window without renewing *)
  let next_seq = ref 0l in
  let subscribe i =
    next_seq := Int32.add !next_seq 1l;
    Rpc.Server.handle_datagram server
      ~from:(Printf.sprintf "dead-client-%d" i)
      (Rpc.encode
         (Rpc.Request
            {
              seq = !next_seq;
              statement = "SUBSCRIBE SELECT COUNT(*) AS n FROM Flows EVERY 1 SECONDS";
              ctx = None;
            }))
  in
  for i = 1 to 25 do
    subscribe i
  done;
  Alcotest.(check int) "all subscribed" 25 (Rpc.Server.subscriber_count server);
  (* none of them ever renews; the lease is 4 periods, so a few ticks
     past expiry every one must be gone *)
  for t = 1 to 8 do
    now := float_of_int t;
    Database.tick db
  done;
  Alcotest.(check int) "every dead subscriber evicted" 0 (Rpc.Server.subscriber_count server);
  Alcotest.(check int) "evictions counted" 25 (counter_value metrics "subs_evicted_total");
  Alcotest.(check int) "database subscriptions reclaimed" 0 (Database.subscription_count db);
  (* a live subscriber that keeps renewing is never evicted *)
  subscribe 99;
  for t = 9 to 20 do
    now := float_of_int t;
    subscribe 99 (* renewal: same address, same statement *);
    Database.tick db
  done;
  Alcotest.(check int) "renewing subscriber survives" 1 (Rpc.Server.subscriber_count server)

(* --- RPC server fuzz: hostile datagrams never take the server down -- *)

let test_rpc_server_fuzz () =
  let prng = Hw_sim.Prng.create ~seed in
  let now = ref 0. in
  let metrics = Registry.create () in
  let db = Database.create ~metrics ~now:(fun () -> !now) () in
  let replies = ref [] in
  let server =
    Rpc.Server.create ~metrics ~db
      ~send:(fun ~to_ datagram -> if to_ = "good-client" then replies := datagram :: !replies)
      ()
  in
  let valid = Rpc.encode (Rpc.Request { seq = 7l; statement = "SELECT mac FROM Leases"; ctx = None }) in
  let random_bytes n = String.init n (fun _ -> Char.chr (Hw_sim.Prng.int prng 256)) in
  let dropped_before = counter_value metrics "rpc_datagrams_dropped_total" in
  for _ = 1 to 500 do
    let datagram =
      match Hw_sim.Prng.int prng 4 with
      | 0 -> random_bytes (Hw_sim.Prng.int prng 64)
      | 1 ->
          (* truncated valid encoding *)
          String.sub valid 0 (Hw_sim.Prng.int prng (String.length valid))
      | 2 ->
          (* oversized garbage *)
          random_bytes (4096 + Hw_sim.Prng.int prng 65536)
      | _ ->
          (* valid header, corrupted body *)
          let b = Bytes.of_string valid in
          let i = Hw_sim.Prng.int prng (Bytes.length b) in
          Bytes.set b i (Char.chr (Hw_sim.Prng.int prng 256));
          Bytes.to_string b
    in
    (* must never raise — UDP garbage is dropped, not fatal *)
    Rpc.Server.handle_datagram server ~from:"fuzzer" datagram
  done;
  Alcotest.(check bool) "garbage counted as dropped" true
    (counter_value metrics "rpc_datagrams_dropped_total" > dropped_before);
  (* the server still works for well-formed clients afterwards *)
  Rpc.Server.handle_datagram server ~from:"good-client" valid;
  match List.rev !replies with
  | reply :: _ -> (
      match Rpc.decode reply with
      | Ok (Rpc.Response_ok { seq = 7l; _ }) -> ()
      | _ -> Alcotest.fail "expected a well-formed OK response after the fuzz run")
  | [] -> Alcotest.fail "no response to a valid request after the fuzz run"

(* --- injected handler crashes never kill a periodic timer ----------- *)

let test_timer_survives_injected_crashes () =
  let metrics = Registry.create () in
  let loop = Loop.create ~metrics () in
  let inj = Fault.create ~metrics ~seed ~now:(fun () -> Loop.now loop) ~point:"handler" () in
  Fault.set_plan inj [ Fault.Crash 0.5 ];
  let completed = ref 0 in
  Loop.every loop 1.0 (fun () ->
      Fault.maybe_crash inj;
      incr completed);
  Loop.run_for loop 100.;
  let crashes = fault_count metrics "crash" in
  Alcotest.(check bool) "some iterations crashed" true (crashes > 0);
  Alcotest.(check bool) "some iterations completed" true (!completed > 0);
  Alcotest.(check int) "timer fired every period regardless" 100 (!completed + crashes);
  Alcotest.(check int) "crashes surfaced in the error counter" crashes
    (counter_value metrics "event_loop_timer_errors_total")

(* --- standing views equal recomputation inside a live router --------- *)

(* perfbench's four UI views, plus a MIN/AVG/COUNT Links view, over a
   whole home whose hwdb rings hold 64 rows, so every ring wraps and
   every window loses rows to eviction as well as to expiry. Each
   delivery must be what a one-shot query of the same text answers at
   the same instant, reals compared by their bits. *)
let ui_views =
  [
    "SELECT src_ip, dst_ip, proto, src_port, dst_port, SUM(bytes) AS bytes FROM Flows [RANGE 10 \
     SECONDS] GROUP BY src_ip, dst_ip, proto, src_port, dst_port";
    "SELECT SUM(bytes) AS b FROM Flows [RANGE 5 SECONDS]";
    "SELECT mac, MAX(retries) AS r, MAX(packets) AS p FROM Links [ROWS 64] GROUP BY mac";
    "SELECT mac, ip, hostname, action FROM Leases [RANGE 60 SECONDS]";
    "SELECT mac, MIN(rssi) AS lo, AVG(rssi) AS mean, COUNT(*) AS n FROM Links [RANGE 30 SECONDS] \
     GROUP BY mac";
  ]

let same_cell a b =
  match (a, b) with
  | Value.Real x, Value.Real y | Value.Ts x, Value.Ts y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Int x, Value.Int y -> Int.equal x y
  | Value.Str x, Value.Str y -> String.equal x y
  | Value.Bool x, Value.Bool y -> Bool.equal x y
  | _ -> false

let same_rows a b =
  List.equal (fun r1 r2 -> List.equal same_cell r1 r2) a.Query.rows b.Query.rows
  && List.equal String.equal a.Query.columns b.Query.columns

let test_live_views_equal_queries () =
  let config = Router.config ~hwdb_capacity:64 () in
  let home = Home.create ~seed ~config () in
  let open Hw_sim in
  List.iter
    (fun c -> ignore (Home.add_device home c))
    [
      Device.wireless ~distance_m:4. ~name:"laptop" ~mac:(Mac.local 1)
        [ App_profile.web; App_profile.https; App_profile.video ];
      Device.wireless ~distance_m:9. ~name:"tablet" ~mac:(Mac.local 2)
        [ App_profile.web; App_profile.video ];
      Device.wired ~name:"console" ~mac:(Mac.local 3) [ App_profile.p2p ];
      Device.wireless ~distance_m:6. ~name:"phone" ~mac:(Mac.local 4)
        [ App_profile.web; App_profile.voip ];
      Device.wired ~name:"tv" ~mac:(Mac.local 5) [ App_profile.video ];
      Device.wireless ~distance_m:12. ~name:"sensor" ~mac:(Mac.local 6)
        [ App_profile.iot_telemetry ];
    ];
  Home.permit_all home;
  let db = Router.db (Home.router home) in
  let checks = ref 0 and rows = ref 0 and differing = ref [] in
  List.iter
    (fun text ->
      let query = match Parser.parse_select text with Ok q -> q | Error e -> Alcotest.fail e in
      ignore
        (Database.subscribe db ~query ~period:1. ~callback:(fun delivered ->
             incr checks;
             rows := !rows + List.length delivered.Query.rows;
             match Database.query db text with
             | Ok fresh when same_rows delivered fresh -> ()
             | Ok _ | Error _ ->
                 differing := Printf.sprintf "%s at %.3f" text (Home.now home) :: !differing)))
    ui_views;
  Home.run_for home 600.;
  let msg m = Printf.sprintf "seed %d: %s" seed m in
  Alcotest.(check (list string)) (msg "deliveries that differ from a fresh query") []
    (List.rev !differing);
  Alcotest.(check bool) (msg "every view delivered every second") true (!checks >= 5 * 595);
  Alcotest.(check bool) (msg "the views held rows") true (!rows > 0)

(* --- compiled plans stay pinned to the interpreter on every seed ----- *)

let test_plan_differential_seeded () = Plan_diff.check_seeded ~seed ~count:300

let () =
  Printf.printf "CHAOS_SEED=%d (export this to replay a failure)\n%!" seed;
  Alcotest.run "hw_chaos"
    [
      ( "plans",
        [
          Alcotest.test_case "plan/interpreter differential" `Quick test_plan_differential_seeded;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "subscribe under 30% drop" `Quick test_subscribe_under_drop;
          Alcotest.test_case "retried INSERTs exactly-once" `Quick test_insert_exactly_once;
          Alcotest.test_case "server fuzz" `Quick test_rpc_server_fuzz;
          Alcotest.test_case "dead-subscriber eviction" `Quick test_subscriber_eviction_bounds_leak;
        ] );
      ( "home",
        [
          Alcotest.test_case "dhcp converges under drop+delay" `Slow
            test_dhcp_converges_under_faults;
          Alcotest.test_case "dns never fails open" `Slow test_dns_never_fails_open;
          Alcotest.test_case "dhcp crash recovery" `Slow test_dhcp_crash_recovery;
          Alcotest.test_case "disk-fault crash recovery" `Slow
            test_disk_fault_crash_recovery;
          Alcotest.test_case "channel partition recovery" `Slow test_channel_partition_recovery;
          Alcotest.test_case "live views equal fresh queries" `Slow
            test_live_views_equal_queries;
        ] );
      ( "timers",
        [
          Alcotest.test_case "every survives injected crashes" `Quick
            test_timer_survives_injected_crashes;
        ] );
    ]
