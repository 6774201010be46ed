(* Workloads, their probes and checks, and the measured run: set-up and
   warm-up (repeated, median reported), then a fixed number of simulated
   seconds, each preceded by a calibration kernel. The run length is fixed
   in simulated time, so one seed always gives the same inputs and the
   same exact counters. *)

open World
module App_profile = Hw_sim.App_profile
module Prng = Hw_sim.Prng
module Mac = Hw_packet.Mac

(* ------------------------------------------------------------------ *)
(* Workload specifications                                             *)
(* ------------------------------------------------------------------ *)

type spec = {
  name : string;
  n_homes : int;
  hwdb_capacity : int option;  (** None: the Router.config default *)
  devices : home_index:int -> Device.config list;
  cyclable : Device.config -> bool;  (** may be power-cycled *)
  kids : bool;  (** Fig. 4 rule on the kids group, flipped by the USB key *)
  durable : bool;  (** Leases and Policies in a [Hw_wal.Store.mem] *)
  ui_subs : bool;  (** Fig. 1 / Fig. 2 / Leases standing subscriptions *)
  cycle_every : float;  (** power-cycle one device *)
  usb_every : float;  (** insert or remove the USB key *)
  http_every : float;  (** Fig. 3: deny or permit a guest device over HTTP; 0: never *)
  fleet_every : float;
  scrape_every : float;  (** 0: no observer *)
  warmup : int;  (** simulated seconds of warm-up *)
  full_recorders : bool;  (** the warm-up fills the Traces rings and flight recorders *)
  sim_rate : float;  (** simulated seconds per requested wall second *)
}

let stream_profile =
  (* 10 s UDP streams of 78 packets/s, a new one every ~5 s per device (two
     in flight on average), answered 1:1 (port 9000 has no response factor
     upstream): ~2,500 frames/s over eight devices with ~1.6 new flows/s.
     Many 10 s streams rather than a few long ones keep the offered load
     steady from seed to seed. *)
  {
    App_profile.app_name = "stream";
    transport = App_profile.Udp;
    dst_host = "video.example.com";
    dst_port = 9000;
    session_mean_interval = 5.;
    session_duration = 10.;
    request_bytes = 780_000;
    response_factor = 1.;
    packet_size = 1_000;
  }

let churn_profile =
  (* short TCP sessions every ~2 s per device: each one is a new flow *)
  {
    App_profile.app_name = "burst";
    transport = App_profile.Tcp;
    dst_host = "www.example.com";
    dst_port = 80;
    session_mean_interval = 2.;
    session_duration = 0.5;
    request_bytes = 1_500;
    response_factor = 2.;
    packet_size = 500;
  }

let standard_devices ~home_index:_ =
  let open App_profile in
  [
    Device.wireless ~distance_m:4. ~name:"toms-mac-air" ~mac:(Mac.local 1) [ web; https; video ];
    Device.wireless ~distance_m:9. ~name:"kids-tablet" ~mac:(Mac.local 2) [ web; video ];
    Device.wired ~name:"kids-console" ~mac:(Mac.local 3) [ p2p ];
    Device.wireless ~distance_m:6. ~name:"dads-phone" ~mac:(Mac.local 4) [ web; voip ];
    Device.wired ~name:"tv-box" ~mac:(Mac.local 5) [ video ];
    Device.wireless ~distance_m:12. ~name:"sensor-hub" ~mac:(Mac.local 6) [ iot_telemetry ];
  ]

(* Eight streamers, half wired, and a visitor's phone that only comes and
   goes (the joins are measured on it, so the streams run undisturbed). *)
let stream_devices ~home_index:_ =
  List.init 8 (fun i ->
      let name = Printf.sprintf "streamer-%d" i and mac = Mac.local (1 + i) in
      if i mod 2 = 0 then Device.wired ~name ~mac [ stream_profile ]
      else Device.wireless ~distance_m:(3. +. float_of_int i) ~name ~mac [ stream_profile ])
  @ [ Device.wireless ~distance_m:5. ~name:"visitor" ~mac:(Mac.local 9) [] ]

(* The first two are the kids (gated by the Fig. 4 rule), the last one
   the Fig. 3 guest. *)
let churn_devices ~home_index:_ =
  List.init 24 (fun i ->
      let name = Printf.sprintf "churner-%02d" i and mac = Mac.local (1 + i) in
      if i mod 3 = 2 then Device.wired ~name ~mac [ churn_profile ]
      else Device.wireless ~distance_m:(2. +. float_of_int (i mod 10)) ~name ~mac [ churn_profile ])

let fleet_profiles = [| App_profile.web; App_profile.video; App_profile.iot_telemetry |]

let fleet_devices ~home_index =
  List.init
    (1 + (home_index mod 2))
    (fun d ->
      Device.wireless
        ~distance_m:(4. +. (3. *. float_of_int d))
        ~name:(Printf.sprintf "r%04d-dev%d" home_index d)
        ~mac:(Mac.local (1 + d))
        [ fleet_profiles.((home_index + d) mod Array.length fleet_profiles) ])

let household =
  {
    name = "household";
    n_homes = 1;
    hwdb_capacity = None;
    devices = standard_devices;
    cyclable = (fun _ -> true);
    kids = false;
    durable = false;
    ui_subs = true;
    cycle_every = 15.;
    usb_every = 10.;
    http_every = 0.;
    fleet_every = 2.;
    scrape_every = 0.;
    warmup = 200;
    full_recorders = true;
    sim_rate = 1000.;
  }

let stream =
  {
    household with
    name = "stream";
    devices = stream_devices;
    cyclable = (fun c -> c.Device.name = "visitor");
    ui_subs = false;
    cycle_every = 2.5;
    usb_every = 2.5;
    warmup = 60;
    sim_rate = 55.;
  }

let churn =
  {
    household with
    name = "churn";
    devices = churn_devices;
    kids = true;
    durable = true;
    cycle_every = 3.;
    usb_every = 5.;
    http_every = 5.;
    warmup = 90;
    sim_rate = 150.;
  }

let fleet =
  {
    household with
    name = "fleet";
    n_homes = 64;
    hwdb_capacity = Some 256;
    devices = fleet_devices;
    ui_subs = false;
    cycle_every = 2.;
    usb_every = 2.;
    fleet_every = 1.;
    scrape_every = 5.;
    warmup = 40;
    full_recorders = false;
    sim_rate = 40.;
  }

let workloads = [ household; stream; churn; fleet ]
let find name = List.find_opt (fun s -> String.equal s.name name) workloads

(* Monday 16:30: inside the Fig. 4 rule's weekday 16:00-21:00 window for
   every run length the benchmark uses. *)
let start = Hw_time.at ~day:Hw_time.Mon ~hour:16 ~min:30

(* The link-quality panel's read, also the operator's fleet-wide Wi-Fi
   survey: its cost follows the number of wireless stations, not the
   seed's traffic, so its median is steady across seeds. *)
let oneshot_statement =
  "SELECT mac, AVG(rssi) AS rssi, MAX(retries) AS retries FROM Links [RANGE 60 SECONDS] GROUP \
   BY mac"

let fleet_statement = oneshot_statement

let ui_statements =
  [
    (* Fig. 1: per-flow bandwidth over the last 10 s *)
    ( "ui-fig1",
      "SUBSCRIBE SELECT src_ip, dst_ip, proto, src_port, dst_port, SUM(bytes) AS bytes FROM \
       Flows [RANGE 10 SECONDS] GROUP BY src_ip, dst_ip, proto, src_port, dst_port EVERY 1 \
       SECONDS",
      1. );
    (* Fig. 2: the artifact's Flows and Links queries *)
    ("ui-fig2-flows", "SUBSCRIBE SELECT SUM(bytes) AS b FROM Flows [RANGE 5 SECONDS] EVERY 5 SECONDS", 5.);
    ( "ui-fig2-links",
      "SUBSCRIBE SELECT mac, MAX(retries) AS r, MAX(packets) AS p FROM Links [ROWS 64] GROUP BY \
       mac EVERY 5 SECONDS",
      5. );
    ( "ui-leases",
      "SUBSCRIBE SELECT mac, ip, hostname, action FROM Leases [RANGE 60 SECONDS] EVERY 2 SECONDS",
      2. );
  ]

(* ------------------------------------------------------------------ *)
(* Probes: the operations users and operators perform                  *)
(* ------------------------------------------------------------------ *)

type probes = {
  rng : Prng.t;
  subs : (string * float * int ref) list;  (** address, period, publishes *)
  mutable usb_home : home option;  (** where the key is in *)
  mutable guest_denied : bool;
  mutable next_home : int;
  guest : (home * attachment) option;
  kids : (home * attachment) list;
}

(* Periodic benchmark timer, off the integer instants so it never lands
   between a tick bracket's two halves. *)
let every w ~period ~offset f = if period > 0. then Loop.every w.loop ~start_in:offset period f

let counted w f = if w.meter.on then f ()

let next_home w p =
  let h = w.homes.(p.next_home mod Array.length w.homes) in
  p.next_home <- p.next_home + 1;
  h

let oneshot w p () =
  let h = next_home w p in
  match Hashtbl.find_opt h.clients World.query_client with
  | None -> ()
  | Some c ->
      let on = w.meter.on in
      Rpc.Client.request c oneshot_statement ~on_reply:(fun r ->
          if on then begin
            attempt w;
            match r with
            | Ok (Some _) -> ()
            | Ok None -> fail w "one-shot SELECT: no result set"
            | Error e -> fail w ("one-shot SELECT: " ^ e)
          end)

let power_cycle w p () =
  let candidates =
    Array.to_list w.homes
    |> List.concat_map (fun h ->
           List.filter_map
             (fun a ->
               let is_guest = match p.guest with Some (_, g) -> g == a | None -> false in
               if a.cyclable && a.powered && (not a.joining) && (not a.gated) && not is_guest
               then Some a
               else None)
             h.attachments)
  in
  if candidates <> [] then begin
    let a = Prng.choice p.rng candidates in
    power_off a;
    Loop.after w.loop 2. (fun () ->
        power_on a;
        let binds = a.binds in
        Loop.after w.loop 15. (fun () ->
            counted w (fun () ->
                attempt w;
                if a.binds = binds then
                  fail w (Printf.sprintf "%s did not rebind" (Device.name a.device)))))
  end

(* Fig. 4's key carries only the homework token (the rule is composed in
   the UI beforehand). Elsewhere the key carries its own rule, an evening
   allowance for the (empty) guests group, so that inserting it parses,
   installs and records a rule as a householder's key would. *)
let usb_key ~kids =
  if kids then Hw_policy.Usb_key.render { Hw_policy.Usb_key.token = "homework-2026"; rules = [] }
  else
    let rule =
      {
        Hw_policy.Policy.rule_id = "guest-evenings";
        group = "guests";
        services = [];
        schedule = Hw_policy.Schedule.weekdays ~start_hour:18 ~end_hour:23 ();
        requires_token = Some "perfbench-guest";
      }
    in
    Hw_policy.Usb_key.render { Hw_policy.Usb_key.token = "perfbench-guest"; rules = [ rule ] }

let usb_toggle w p ~key () =
  let inserting = p.usb_home = None in
  (* the key comes out of the router it went into *)
  let h =
    match p.usb_home with
    | Some h -> h
    | None -> if p.kids <> [] then fst (List.hd p.kids) else next_home w p
  in
  p.usb_home <- (if inserting then Some h else None);
  let tm = if inserting then w.meter.usb_insert else w.meter.usb_remove in
  let result =
    timed w h C_usb ~tm (fun () ->
        if inserting then Result.map ignore (Router.insert_usb h.rt ~device:"sdb1" key)
        else Ok (Router.remove_usb h.rt ~device:"sdb1"))
  in
  (* while the key is out the kids are denied: none of their traffic may
     reach the Internet *)
  List.iter (fun (h, a) -> if inserting then World.allow w h a else World.deny h a) p.kids;
  counted w (fun () ->
      attempt w;
      (match result with Ok () -> () | Error e -> fail w ("USB insert: " ^ e));
      (* Fig. 4: with the key in (weekday, inside the window) the kids may
         use the network, Facebook only; without it they may not *)
      List.iter
        (fun (h, a) ->
          let d =
            Hw_policy.Policy.evaluate (Router.policy h.rt) ~mac:(Device.mac a.device)
              ~now:(Loop.now w.loop)
          in
          if d.Hw_policy.Policy.network_allowed <> inserting then
            fail w
              (Printf.sprintf "USB key %s did not flip %s's verdict"
                 (if inserting then "insert" else "removal")
                 (Device.name a.device)))
        p.kids)

let http_request verb mac =
  Printf.sprintf "POST /api/devices/%s/%s HTTP/1.1\r\nHost: router\r\n\r\n" (Mac.to_string mac)
    verb

let http_toggle w p () =
  match p.guest with
  | None -> ()
  | Some (h, a) ->
      let deny = not p.guest_denied in
      let mac = Device.mac a.device in
      let resp =
        timed w h C_http ~tm:w.meter.http (fun () ->
            Router.http_raw h.rt (http_request (if deny then "deny" else "permit") mac))
      in
      counted w (fun () ->
          attempt w;
          if not (String.length resp >= 12 && String.sub resp 9 3 = "200") then
            fail w ("Fig. 3 HTTP: " ^ String.sub resp 0 (min 40 (String.length resp))));
      p.guest_denied <- deny;
      if deny then World.deny h a
      else begin
        World.allow w h a;
        (* re-admitted: the guest reboots and joins again *)
        power_off a;
        Loop.after w.loop 1. (fun () -> power_on a)
      end

let fleet_query w () =
  let m = w.meter in
  let on = m.on in
  let n = Array.length w.homes in
  let t0 = Calib.now_ns () in
  Manager.query w.manager fleet_statement ~on_done:(fun o ->
      let t1 = Calib.now_ns () in
      if on then begin
        sample m m.fleet_query (float_of_int (t1 - t0));
        span m ~name:m.span_fleet ~tid:n ~start:t0 ~stop:t1;
        attempt w;
        if o.Manager.ok <> n || o.Manager.errors <> [] then
          fail w (Printf.sprintf "fleet query answered by %d of %d routers" o.Manager.ok n)
      end)

let scrape w () =
  match w.observer with
  | None -> ()
  | Some obs ->
      if w.scrape_pending then counted w (fun () -> attempt w; fail w "scrape did not settle");
      w.scrape_pending <- true;
      w.scrape_before <- Observer.scrapes_total obs;
      w.scrape_t0 <- Calib.now_ns ();
      Observer.scrape_now obs

let check_scrape w =
  match w.observer with
  | Some obs when Observer.scrapes_total obs > w.scrape_before ->
      let t1 = Calib.now_ns () in
      let m = w.meter in
      w.scrape_pending <- false;
      if m.on then begin
        attempt w;
        sample m m.scrape (float_of_int (t1 - w.scrape_t0));
        span m ~name:m.span_scrape ~tid:(Array.length w.homes) ~start:w.scrape_t0 ~stop:t1
      end
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Building a world                                                    *)
(* ------------------------------------------------------------------ *)

let build spec ~seed ~traced =
  let w = create_world ~traced ~start in
  let config = Router.config ?hwdb_capacity:spec.hwdb_capacity () in
  for i = 0 to spec.n_homes - 1 do
    let wal_store = if spec.durable then Some (Hw_wal.Store.mem ()) else None in
    let h = add_home w ~seed:(Prng.stream_seed ~seed ~index:i) ~config ?wal_store () in
    ignore (ui_client w h ~addr:World.query_client);
    List.iteri
      (fun d cfg ->
        ignore (add_device w h ~gated:(spec.kids && d < 2) ~cyclable:(spec.cyclable cfg) cfg))
      (spec.devices ~home_index:i)
  done;
  let h0 = w.homes.(0) in
  let kids = if spec.kids then List.filteri (fun i _ -> i < 2) h0.attachments else [] in
  if spec.kids then begin
    (* Fig. 4: the parents group the kids and compose the rule *)
    let http = Router.http h0.rt in
    let members =
      List.map (fun a -> Hw_json.Json.String (Mac.to_string (Device.mac a.device))) kids
    in
    ignore
      (http
         (Hw_control_api.Http.request
            ~body:(Hw_json.Json.to_string (Hw_json.Json.Obj [ ("members", Hw_json.Json.List members) ]))
            Hw_control_api.Http.PUT "/api/groups/kids"));
    match
      Hw_ui.Policy_ui.submit (Hw_ui.Policy_ui.create ~http) ~rule_id:"kids-facebook"
        ~token:(Some "homework-2026") Hw_ui.Policy_ui.kids_facebook_weekdays
    with
    | Ok () -> ()
    | Error e -> failwith ("Fig. 4 rule rejected: " ^ e)
  end;
  let guest =
    if spec.http_every > 0. then
      Some (h0, List.nth h0.attachments (List.length h0.attachments - 1))
    else None
  in
  let subs =
    if spec.ui_subs then
      List.map
        (fun (addr, statement, period) ->
          let client = ui_client w h0 ~addr in
          let count = ref 0 in
          ignore
            (Rpc.Subscriber.attach
               ~now:(fun () -> Loop.now w.loop)
               ~schedule:(fun d f -> Loop.after w.loop d f)
               ~client ~statement ~period
               ~on_result:(fun _ -> if w.meter.on then incr count)
               ());
          (addr, period, count))
        ui_statements
    else []
  in
  let p =
    {
      rng = Prng.create ~seed:(seed lxor 0xbe7c);
      subs;
      usb_home = None;
      guest_denied = false;
      next_home = 0;
      guest;
      kids = List.map (fun a -> (h0, a)) kids;
    }
  in
  if spec.scrape_every > 0. then
    w.observer <- Some (Observer.create ~scrape_period:1e9 ~loop:w.loop ~manager:w.manager ());
  every w ~period:1. ~offset:0.25 (oneshot w p);
  every w ~period:spec.fleet_every ~offset:0.3 (fleet_query w);
  every w ~period:spec.scrape_every ~offset:0.5 (scrape w);
  every w ~period:spec.cycle_every ~offset:0.6 (power_cycle w p);
  every w ~period:spec.usb_every ~offset:0.7
    (usb_toggle w p ~key:(usb_key ~kids:spec.kids));
  every w ~period:spec.http_every ~offset:0.8 (http_toggle w p);
  (w, p)

(* ------------------------------------------------------------------ *)
(* Driving the loop                                                    *)
(* ------------------------------------------------------------------ *)

(* Advance one simulated second event by event (counting events), with a
   sentinel marking the boundary. *)
let advance w =
  let target = Loop.now w.loop +. 1. in
  let reached = ref false in
  Loop.at w.loop target (fun () -> reached := true);
  while not !reached do
    if not (Loop.step w.loop) then reached := true;
    w.events <- w.events + 1;
    if w.scrape_pending then check_scrape w
  done;
  w.events <- w.events - 1

type second = { kernel_ns : float; wall_ns : float }

(* One calibrated simulated second: the kernel timed right before it
   (smoothed over the last few seconds) sets the factor for every sample
   taken inside it. *)
let run_second w ~kernel_words ~window =
  let words0 = Gc.minor_words () in
  let k = Calib.measure () in
  kernel_words := !kernel_words +. (Gc.minor_words () -. words0);
  Calib.Window.push window k;
  let kernel_ns = Calib.Window.median window in
  w.meter.factor <- Calib.factor ~kernel_ns;
  if w.meter.on then Hist.add w.meter.kernel k;
  let t0 = Calib.now_ns () in
  advance w;
  { kernel_ns; wall_ns = float_of_int (Calib.now_ns () - t0) }

let all_joined w =
  Array.for_all (fun h -> List.for_all (fun a -> a.gated || a.binds > 0) h.attachments) w.homes

let table_total h name =
  match Database.table (Router.db h.rt) name with Some t -> Table.total_inserted t | None -> 0

let table_capacity h name =
  match Database.table (Router.db h.rt) name with Some t -> Table.capacity t | None -> 0

let rings_full w =
  Array.for_all
    (fun h ->
      let tr = Router.tracer h.rt in
      table_total h "Traces" >= table_capacity h "Traces"
      && Hw_trace.Tracer.kept tr >= Hw_trace.Tracer.capacity tr)
    w.homes

(* Warm-up runs a fixed number of simulated seconds per workload, so its
   length does not depend on the seed; at its end every device must have
   joined, every home must be registered with the manager and, where the
   workload's pace allows it, the Traces rings and flight recorders must be
   full (the fleet's recorders fill during measurement instead). The Flows
   rings are not waited for: they fill at the workload's flow rate, which
   takes 5 to 60 simulated minutes, during measurement. Meanwhile the
   periodic queries warm the plan caches. *)
let warm_problems spec w =
  List.filter_map
    (fun (ok, what) -> if ok then None else Some ("after warm-up, not " ^ what))
    [
      (Manager.session_count w.manager = Array.length w.homes, "every home registered");
      (all_joined w, "every device joined");
      ((not spec.full_recorders) || rings_full w, "every Traces ring and flight recorder full");
    ]

(* Build plus warm-up, timed raw and calibrated (the build by the kernel
   measured just before it, each warm-up second by its own kernel). *)
let kernel_window = 9

let setup spec ~seed ~traced =
  (* every set-up starts from a compacted heap, so the garbage of the
     previous one does not tax it *)
  Gc.compact ();
  let window = Calib.Window.create kernel_window in
  Calib.Window.push window (Calib.measure ());
  let f = Calib.factor ~kernel_ns:(Calib.Window.median window) in
  let t0 = Calib.now_ns () in
  let w, p = build spec ~seed ~traced in
  let raw = ref (float_of_int (Calib.now_ns () - t0)) in
  let cal = ref (!raw *. f) in
  let kernel_words = ref 0. in
  for _ = 1 to spec.warmup do
    let s = run_second w ~kernel_words ~window in
    raw := !raw +. s.wall_ns;
    cal := !cal +. Calib.scale ~kernel_ns:s.kernel_ns s.wall_ns
  done;
  (w, p, window, !raw, !cal)

(* ------------------------------------------------------------------ *)
(* The measured run and its metrics                                    *)
(* ------------------------------------------------------------------ *)

let router_counters =
  [|
    "dp_rx_frames_total";
    "dp_flow_lookups_total";
    "dp_flow_misses_total";
    "dhcp_grants_total";
    "dns_queries_total";
    "dns_cache_answers_total";
    "wal_appends_total";
    "wal_flushed_bytes_total";
    "wal_snapshots_total";
    "trace_spans_total";
    "trace_kept_total";
    "hwdb_plan_cache_hits_total";
    "hwdb_plan_cache_misses_total";
  |]

let tables = [| "Flows"; "Links"; "Leases"; "Policies"; "Metrics"; "Traces" |]

let counter_value reg name =
  match Hw_metrics.Registry.find reg name with
  | Some (Hw_metrics.Registry.Counter c) -> Hw_metrics.Counter.value c
  | _ -> 0

type snap = {
  counters : int array;  (** [router_counters], summed over homes *)
  rows : int array;  (** [tables] rows inserted, summed over homes *)
  packet_ins : int;
  fanout : int;
  retries : int;
}

let snapshot w =
  let sum f = Array.fold_left (fun acc h -> acc + f h) 0 w.homes in
  let mreg = Manager.metrics w.manager in
  {
    counters = Array.map (fun n -> sum (fun h -> counter_value (Router.metrics h.rt) n)) router_counters;
    rows = Array.map (fun t -> sum (fun h -> table_total h t)) tables;
    packet_ins = sum (fun h -> Router.packet_ins h.rt);
    fanout = counter_value mreg "fleet_fanout_requests_total";
    retries = counter_value mreg "rpc_retries_total";
  }

let delta s0 s1 name =
  let rec idx i = if router_counters.(i) = name then i else idx (i + 1) in
  let i = idx 0 in
  s1.counters.(i) - s0.counters.(i)

let row_delta s0 s1 name =
  let rec idx i = if tables.(i) = name then i else idx (i + 1) in
  let i = idx 0 in
  s1.rows.(i) - s0.rows.(i)

type metric = { name : string; value : float; unit_ : string }

type result = {
  e2e : metric list;  (** calibrated, gated *)
  twins : metric list;  (** the raw twin of every e2e timing *)
  layer : metric list;  (** per-layer (meaningful from the traced pass) *)
  exact : (string * string) list;  (** counters that must repeat bit-for-bit *)
  router_ms_per_sim_s : float;
  attempted : int;
  failed : int;
  failures : string list;
  problems : string list;  (** failed output checks *)
  spans : Spans.t;
}

let ratio a b = if b = 0. then 0. else a /. b
let median_of xs = Stats.median (Array.of_list xs)

(* Live words after a compaction. The world's share is what remains once
   the world is dropped and the heap compacted again: the benchmark's own
   buffers are fixed-size, so that baseline holds for every snapshot. The
   live heap swings by megabytes within a run, so heap_live_mb is the mean
   of ten snapshots. *)
let live_words () =
  Gc.compact ();
  (Gc.stat ()).Gc.live_words

let heap_snapshots = 10

(* Measures the world in [cell], which it empties: once this returns,
   nothing references the world. Returns the result without the heap
   metric, and the live-word snapshots. *)
let measure spec ~seconds ~traced ~setup_raw ~setup_cal cell =
  let w, p, window = Option.get !cell in
  cell := None;
  let m = w.meter in
  let problems = ref (warm_problems spec w) in
  let problem s = problems := s :: !problems in
  let n = max 1 (int_of_float (Float.round (spec.sim_rate *. seconds))) in
  let s0 = snapshot w in
  let gc0 = Gc.quick_stat () in
  let events0 = w.events in
  let kernel_words = ref 0. in
  let wall_raw = ref 0. and wall_cal = ref 0. in
  let live = ref [] in
  m.on <- true;
  for i = 1 to n do
    let s = run_second w ~kernel_words ~window in
    wall_raw := !wall_raw +. s.wall_ns;
    wall_cal := !wall_cal +. Calib.scale ~kernel_ns:s.kernel_ns s.wall_ns;
    (* the live heap at evenly spaced instants, between timed seconds *)
    if i * heap_snapshots / n <> (i - 1) * heap_snapshots / n then live := live_words () :: !live
  done;
  (* denials still open at the end are enforcement operations too *)
  Array.iter (fun h -> List.iter (fun a -> World.allow w h a) h.attachments) w.homes;
  m.on <- false;
  let gc1 = Gc.quick_stat () in
  let s1 = snapshot w in
  let events = w.events - events0 in
  let nf = float_of_int n in
  (* output checks *)
  Array.iter
    (fun h ->
      List.iter
        (fun a ->
          if (not a.gated) && a.powered && (not a.joining)
             && Device.dhcp_state a.device <> Device.Bound
          then problem (Printf.sprintf "%s/%s is not Bound" h.id (Device.name a.device)))
        h.attachments)
    w.homes;
  List.iter
    (fun (addr, period, count) ->
      let expected = int_of_float (nf /. period) in
      if !count < expected - 3 then
        problem (Printf.sprintf "%s delivered %d of %d publishes" addr !count expected))
    p.subs;
  let timings =
    [
      ("fwd_ns_p50", m.fwd);
      ("flow_setup_us_p50", m.setup);
      ("join_us_p50", m.join);
      ("tick_ms_p50", m.tick);
      ("query_us_p50", m.query);
      ("usb_apply_us_p50", m.usb_insert);
      ("fleet_query_ms_p50", m.fleet_query);
    ]
  in
  List.iter
    (fun (name, tm) ->
      if Hist.count tm.cal < 30 then
        problem (Printf.sprintf "%s has only %d samples" name (Hist.count tm.cal)))
    timings;
  let p50 tm = Hist.percentile tm.cal 0.5 and p50r tm = Hist.percentile tm.raw 0.5 in
  let p90 tm = Hist.percentile tm.cal 0.9 in
  let router_cal = Array.fold_left ( +. ) 0. m.cls_cal in
  let router_raw = Array.fold_left ( +. ) 0. m.cls_raw in
  let mk name value unit_ = { name; value; unit_ } in
  let e2e_pair name unit_ scale tm =
    (mk name (p50 tm /. scale) unit_, mk (name ^ "_raw") (p50r tm /. scale) unit_)
  in
  let timing_pairs =
    [
      e2e_pair "fwd_ns_p50" "ns" 1. m.fwd;
      (* setups of different kinds cost differently (a LAN-side setup runs
         the DNS-proxy admission, an upstream one does not), so the p50
         is the count-weighted mean of the per-kind medians: a median of
         the mixed stream would sit in the gap between the modes *)
      (let mix h =
         let n = Array.fold_left (fun acc tm -> acc + Hist.count (h tm)) 0 m.setup_by in
         Array.fold_left
           (fun acc tm -> acc +. (float_of_int (Hist.count (h tm)) *. Hist.percentile (h tm) 0.5))
           0. m.setup_by
         /. float_of_int (max 1 n) /. 1e3
       in
       ( mk "flow_setup_us_p50" (mix (fun tm -> tm.cal)) "us",
         mk "flow_setup_us_p50_raw" (mix (fun tm -> tm.raw)) "us" ));
      e2e_pair "join_us_p50" "us" 1e3 m.join;
      e2e_pair "tick_ms_p50" "ms" 1e6 m.tick;
      e2e_pair "query_us_p50" "us" 1e3 m.query;
      (* inserts and removes cost differently: the median of the mixed
         stream would sit in the gap between them, so report the mean of
         the two medians *)
      (let pair p tm_i tm_r = 0.5 *. (p tm_i +. p tm_r) /. 1e3 in
       ( mk "usb_apply_us_p50" (pair p50 m.usb_insert m.usb_remove) "us",
         mk "usb_apply_us_p50_raw" (pair p50r m.usb_insert m.usb_remove) "us" ));
      e2e_pair "fleet_query_ms_p50" "ms" 1e6 m.fleet_query;
    ]
  in
  let e2e =
    [
      mk "setup_s" (median_of setup_cal) "s";
      mk "sim_speed_x" (nf /. (!wall_cal /. 1e9)) "sim_s/s";
      mk "router_ms_per_sim_s" (router_cal /. 1e6 /. nf) "ms/sim_s";
    ]
    @ List.map fst timing_pairs
  in
  let twins =
    [
      mk "setup_s_raw" (median_of setup_raw) "s";
      mk "sim_speed_x_raw" (nf /. (!wall_raw /. 1e9)) "sim_s/s";
      mk "router_ms_per_sim_s_raw" (router_raw /. 1e6 /. nf) "ms/sim_s";
    ]
    @ List.map snd timing_pairs
  in
  let d = delta s0 s1 and rows = row_delta s0 s1 in
  let ticks = nf *. float_of_int (Array.length w.homes) in
  let per_s x = float_of_int x /. nf in
  let alloc c = m.alloc.(cls_index c) in
  (* the median tick, split by each phase's share of all tick time *)
  let phase_total = Array.fold_left (fun acc t -> acc +. Hist.sum t.cal) 0. m.phases in
  let phase i = p50 m.tick /. 1e6 *. ratio (Hist.sum m.phases.(i).cal) phase_total in
  let fleet_queries = float_of_int (Hist.count m.fleet_query.cal) in
  let layer =
    [
      mk "datapath.fwd_alloc_words" (ratio (alloc C_fwd) (float_of_int m.fwd_frames)) "words";
      mk "datapath.fwd_ns_p90" (p90 m.fwd) "ns";
      mk "datapath.fwd_ns_p99" (Hist.percentile m.fwd.cal 0.99) "ns";
      mk "datapath.miss_ratio"
        (ratio (float_of_int (d "dp_flow_misses_total")) (float_of_int (d "dp_flow_lookups_total")))
        "ratio";
      mk "datapath.frames_per_sim_s" (per_s (d "dp_rx_frames_total")) "1/sim_s";
      mk "controller.packet_ins_per_sim_s" (per_s (s1.packet_ins - s0.packet_ins)) "1/sim_s";
      mk "controller.setup_alloc_words" (ratio (alloc C_setup) (float_of_int m.packet_ins)) "words";
      mk "controller.setup_us_p90" (p90 m.setup /. 1e3) "us";
    ]
    @ Array.to_list
        (Array.map
           (fun c ->
             mk
               ("controller.setup_us_p50." ^ Frames.setup_name c)
               (p50 m.setup_by.(Frames.setup_index c) /. 1e3)
               "us")
           Frames.setup_classes)
    @ [
        mk "dhcp.frame_us_p50" (p50 m.dhcp_frame /. 1e3) "us";
        mk "dhcp.join_us_p90" (p90 m.join /. 1e3) "us";
        mk "dhcp.grants_per_sim_s" (per_s (d "dhcp_grants_total")) "1/sim_s";
        mk "dns.query_us_p50" (p50 m.setup_by.(Frames.setup_index Frames.Setup_dns) /. 1e3) "us";
        mk "dns.cache_hit_ratio"
          (ratio (float_of_int (d "dns_cache_answers_total")) (float_of_int (d "dns_queries_total")))
          "ratio";
        mk "hwdb.tick_poll_ms" (phase 0) "ms";
        mk "hwdb.tick_metrics_ms" (phase 1) "ms";
        mk "hwdb.tick_traces_ms" (phase 2) "ms";
        mk "hwdb.tick_rest_ms" (phase 3) "ms";
      ]
    @ Array.to_list
        (Array.map
           (fun t -> mk ("hwdb.rows_per_tick." ^ t) (float_of_int (rows t) /. ticks) "rows")
           [| "Flows"; "Links"; "Metrics"; "Traces" |])
    @ [
        mk "hwdb.traces_fresh_ratio"
          (ratio (float_of_int (d "trace_spans_total")) (float_of_int (rows "Traces")))
          "ratio";
        mk "hwdb.tick_alloc_words" (alloc C_tick /. ticks) "words";
        mk "hwdb.query_us_p90" (p90 m.query /. 1e3) "us";
        mk "hwdb.plan_cache_hit_ratio"
          (let h = float_of_int (d "hwdb_plan_cache_hits_total") in
           ratio h (h +. float_of_int (d "hwdb_plan_cache_misses_total")))
          "ratio";
        mk "wal.appends_per_sim_s" (per_s (d "wal_appends_total")) "1/sim_s";
        mk "wal.flush_bytes_per_sim_s" (per_s (d "wal_flushed_bytes_total")) "B/sim_s";
        mk "wal.snapshots" (float_of_int (d "wal_snapshots_total")) "count";
        mk "policy.usb_apply_us_p90" (0.5 *. (p90 m.usb_insert +. p90 m.usb_remove) /. 1e3) "us";
        mk "api.http_us_p50" (p50 m.http /. 1e3) "us";
        mk "api.http_us_p90" (p90 m.http /. 1e3) "us";
        mk "trace.spans_per_sim_s" (per_s (d "trace_spans_total")) "1/sim_s";
        mk "trace.kept_per_sim_s" (per_s (d "trace_kept_total")) "1/sim_s";
        mk "sim.share" (1. -. ratio router_raw !wall_raw) "ratio";
        mk "sim.events_per_sim_s" (per_s events) "1/sim_s";
        mk "fleet.query_ms_p90" (p90 m.fleet_query /. 1e6) "ms";
        mk "fleet.fanout_per_query" (ratio (float_of_int (s1.fanout - s0.fanout)) fleet_queries) "count";
        mk "fleet.rpc_retries" (float_of_int (s1.retries - s0.retries)) "count";
        mk "obs.scrape_ms_p50" (p50 m.scrape /. 1e6) "ms";
        mk "gc.minor_words_per_sim_s"
          ((gc1.Gc.minor_words -. gc0.Gc.minor_words -. !kernel_words) /. nf)
          "words/sim_s";
        mk "gc.promoted_words_per_sim_s"
          ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. nf)
          "words/sim_s";
        mk "gc.major_collections"
          (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections))
          "count";
        mk "calib.kernel_us_p50" (Hist.percentile m.kernel 0.5 /. 1e3) "us";
      ]
  in
  (* traced reconciliation: classes add up to the total; tick phases sum
     to within 10% of the tick median *)
  if traced then begin
    let tick_total = Hist.sum m.tick.cal in
    if Float.abs (phase_total -. tick_total) > 0.1 *. tick_total then
      problem
        (Printf.sprintf "tick phases cover %.1f%% of tick time" (100. *. phase_total /. tick_total));
    let classes = Array.fold_left ( +. ) 0. m.cls_cal in
    let paths =
      Hist.sum m.tick.cal
      +. Array.fold_left (fun acc c -> acc +. m.cls_cal.(cls_index c)) 0.
           [| C_fwd; C_setup; C_dhcp; C_rpc; C_http; C_usb; C_link; C_agent |]
    in
    if Float.abs (paths -. classes) > 1e-6 *. classes then
      problem "path classes, tick and other calls do not add up to the router total"
  end;
  let exact =
    [
      ("sim_seconds", string_of_int n);
      ("events", string_of_int events);
      ("packet_ins", string_of_int (s1.packet_ins - s0.packet_ins));
      ("fwd_frames", string_of_int m.fwd_frames);
      ("timed_packet_ins", string_of_int m.packet_ins);
      ("attempted", string_of_int w.ops.attempted);
      ("failed", string_of_int w.ops.failed);
      ("gc_minor_collections", string_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
      ("gc_major_collections", string_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("gc_minor_words", Printf.sprintf "%.0f" (gc1.Gc.minor_words -. gc0.Gc.minor_words));
    ]
    @ Array.to_list (Array.map (fun c -> (c, string_of_int (d c))) router_counters)
    @ Array.to_list (Array.map (fun t -> ("rows." ^ t, string_of_int (rows t))) tables)
    @ (if traced then
         Array.to_list (Array.mapi (fun i c -> ("alloc_words." ^ c, Printf.sprintf "%.0f" m.alloc.(i))) cls_names)
       else [])
  in
  let attempted = w.ops.attempted and failed = w.ops.failed and failures = w.ops.failures in
  let spans = m.spans in
  ( {
    e2e;
    twins;
    layer;
    exact;
    router_ms_per_sim_s = router_cal /. 1e6 /. nf;
    attempted;
    failed;
    failures;
    problems = List.rev !problems;
    spans;
  },
    !live )

let run spec ~seed ~seconds ~traced ~setups =
  let setup_raw = ref [] and setup_cal = ref [] in
  let cell = ref None in
  for _ = 1 to setups do
    cell := None;
    let w, p, window, raw, cal = setup spec ~seed ~traced in
    setup_raw := (raw /. 1e9) :: !setup_raw;
    setup_cal := (cal /. 1e9) :: !setup_cal;
    cell := Some (w, p, window)
  done;
  let r, live = measure spec ~seconds ~traced ~setup_raw:!setup_raw ~setup_cal:!setup_cal cell in
  let baseline = live_words () in
  let heap_mb =
    float_of_int (List.fold_left (fun acc l -> acc + l - baseline) 0 live * (Sys.word_size / 8))
    /. 1e6
    /. float_of_int (List.length live)
  in
  {
    r with
    e2e = r.e2e @ [ { name = "heap_live_mb"; value = heap_mb; unit_ = "MB" } ];
    exact = r.exact @ [ ("heap_live_mb", Printf.sprintf "%.6f" heap_mb) ];
  }
