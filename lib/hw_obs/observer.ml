let log_src = Logs.Src.create "hw.obs" ~doc:"Fleet observability plane"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Manager = Hw_fleet.Manager
module Database = Hw_hwdb.Database
module Value = Hw_hwdb.Value
module Tracer = Hw_trace.Tracer
module Export = Hw_trace.Export
module Registry = Hw_metrics.Registry
module Counter = Hw_metrics.Counter
module Router = Hw_control_api.Router
module Http = Hw_control_api.Http
module Json = Hw_json.Json

type t = {
  loop : Hw_sim.Event_loop.t;
  manager : Manager.t;
  registry : Registry.t;
  trace : Tracer.t;
  db : Database.t;
  health : Health.t;
  (* router id -> series key -> series *)
  series : (string, (string, Series.t) Hashtbl.t) Hashtbl.t;
  track : (string * string) list;
  error_counters : string list;
  err_baseline : (string, float) Hashtbl.t; (* router \x00 counter -> last value *)
  scrape_statement : string;
  max_series_per_router : int;
  raw_capacity : int;
  s10_capacity : int;
  s60_capacity : int;
  mutable scrape_in_flight : bool;
  mutable scrapes : int;
  mutable last_trace_exported : int;
  m_scrapes : Counter.t;
  m_scrape_rows : Counter.t;
  m_scrape_router_errors : Counter.t;
  m_series_overflow : Counter.t;
  mutable routes : Router.t option;
}

let db t = t.db
let health t = t.health
let tracer (t : t) = t.trace
let scrapes_total t = t.scrapes

let series_count t =
  Hashtbl.fold (fun _ per acc -> acc + Hashtbl.length per) t.series 0

let series t ~router key =
  Option.bind (Hashtbl.find_opt t.series router) (fun per -> Hashtbl.find_opt per key)

let series_footprint_floats t =
  Hashtbl.fold
    (fun _ per acc ->
      Hashtbl.fold (fun _ s acc -> acc + Series.footprint_floats s) per acc)
    t.series 0

(* -- health transitions -> table rows + counters ------------------- *)

let apply_transitions t ~trace transitions =
  List.iter
    (fun (tr : Health.transition) ->
      let state = Health.state_to_string tr.state in
      Counter.incr
        (Registry.labeled_counter t.registry "fleet_health_transitions_total"
           ~help:"Router health state transitions" ~labels:[ ("state", state) ]);
      (match
         Database.insert t.db ~table:"FleetHealth"
           [
             Value.Str tr.router;
             Value.Str state;
             Value.Str (Health.state_to_string tr.prev);
             Value.Str tr.reason;
             Value.Int trace;
           ]
       with
      | Ok () -> ()
      | Error e -> Log.err (fun m -> m "FleetHealth insert: %s" e));
      Log.info (fun m ->
          m "router %s: %s -> %s (%s)" tr.router (Health.state_to_string tr.prev) state
            tr.reason))
    transitions

let health_tick t =
  let now = Hw_sim.Event_loop.now t.loop in
  apply_transitions t ~trace:0 (Health.tick t.health ~now)

(* -- scrape ingest -------------------------------------------------- *)

let value_to_float = function
  | Value.Real f -> f
  | Value.Int i -> float_of_int i
  | Value.Ts f -> f
  | Value.Bool b -> if b then 1. else 0.
  | Value.Str _ -> nan

let series_key name stat = if stat = "value" then name else name ^ "_" ^ stat

let router_series t router key =
  let per =
    match Hashtbl.find_opt t.series router with
    | Some per -> per
    | None ->
        let per = Hashtbl.create 8 in
        Hashtbl.replace t.series router per;
        per
  in
  match Hashtbl.find_opt per key with
  | Some s -> Some s
  | None ->
      if Hashtbl.length per >= t.max_series_per_router then begin
        Counter.incr t.m_series_overflow;
        None
      end
      else begin
        let s =
          Series.create ~raw_capacity:t.raw_capacity ~s10_capacity:t.s10_capacity
            ~s60_capacity:t.s60_capacity ()
        in
        Hashtbl.replace per key s;
        Some s
      end

let column_index columns name =
  let rec go i = function
    | [] -> -1
    | c :: _ when String.equal c name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 columns

(* Refresh the FleetMetrics table: one batch per scrape — per-router
   last values plus __fleet__ sum/max aggregates. For a tracked
   percentile series (hwdb_query_seconds_p99) the fleet max is the
   fleet-wide upper bound of that percentile. *)
let refresh_fleet_metrics t =
  let insert router name stat v =
    match
      Database.insert t.db ~table:"FleetMetrics"
        [ Value.Str router; Value.Str name; Value.Str stat; Value.Real v ]
    with
    | Ok () -> ()
    | Error e -> Log.err (fun m -> m "FleetMetrics insert: %s" e)
  in
  let agg : (string, float * float) Hashtbl.t = Hashtbl.create 16 in
  let routers =
    Hashtbl.fold (fun id per acc -> (id, per) :: acc) t.series []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (router, per) ->
      Hashtbl.iter
        (fun key s ->
          let v = Series.last s in
          if not (Float.is_nan v) then begin
            insert router key "last" v;
            let sum, mx =
              Option.value (Hashtbl.find_opt agg key) ~default:(0., neg_infinity)
            in
            Hashtbl.replace agg key (sum +. v, Float.max mx v)
          end)
        per)
    routers;
  Hashtbl.fold (fun key acc l -> (key, acc) :: l) agg []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (key, (sum, mx)) ->
         insert "__fleet__" key "sum" sum;
         insert "__fleet__" key "max" mx)

(* Export the manager tracer's flight recorder into the Traces table,
   incrementally: trace ids are allocated monotonically, so everything
   newer than the high-water mark is new. (The router-side tick export
   re-stamps the whole recorder every tick, so [Traces [NOW]] is a full
   dump; at fleet scale a 1k-span fleet.query trace makes that
   unaffordable.) *)
let export_traces t =
  let fresh =
    List.filter (fun (c : Tracer.completed) -> c.id > t.last_trace_exported)
      (Tracer.traces t.trace)
    |> List.sort (fun (a : Tracer.completed) (b : Tracer.completed) -> compare a.id b.id)
  in
  List.iter
    (fun (c : Tracer.completed) ->
      t.last_trace_exported <- max t.last_trace_exported c.id;
      Array.iter
        (fun s ->
          match Database.insert t.db ~table:"Traces" (Array.to_list (Database.trace_row c s)) with
          | Ok () -> ()
          | Error e -> Log.err (fun m -> m "Traces insert: %s" e))
        c.spans)
    fresh

let ingest t (o : Manager.outcome) =
  let now = Hw_sim.Event_loop.now t.loop in
  let i_router = column_index o.columns "router" in
  let i_name = column_index o.columns "name" in
  let i_stat = column_index o.columns "stat" in
  let i_value = column_index o.columns "value" in
  (* per-router error-counter advance since the previous scrape *)
  let errors_by_router : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let answered : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  if i_router >= 0 && i_name >= 0 && i_stat >= 0 && i_value >= 0 then
    List.iter
      (fun row ->
        match
          ( List.nth_opt row i_router,
            List.nth_opt row i_name,
            List.nth_opt row i_stat,
            List.nth_opt row i_value )
        with
        | Some (Value.Str router), Some (Value.Str name), Some (Value.Str stat), Some v ->
            Counter.incr t.m_scrape_rows;
            Hashtbl.replace answered router ();
            let v = value_to_float v in
            if List.exists (fun (n, s) -> n = name && s = stat) t.track then begin
              match router_series t router (series_key name stat) with
              | Some s -> Series.push s ~ts:now v
              | None -> ()
            end;
            if stat = "value" && List.mem name t.error_counters then begin
              let bkey = router ^ "\x00" ^ name in
              let prev = Option.value (Hashtbl.find_opt t.err_baseline bkey) ~default:v in
              Hashtbl.replace t.err_baseline bkey v;
              let delta = int_of_float (Float.max 0. (v -. prev)) in
              if delta > 0 then
                Hashtbl.replace errors_by_router router
                  (delta
                  + Option.value (Hashtbl.find_opt errors_by_router router) ~default:0)
            end
        | _ -> ())
      o.rows;
  (* scrape outcomes drive health; transitions are tagged with the
     federated query's trace id *)
  let transitions = ref [] in
  Hashtbl.iter
    (fun router () ->
      let errors = Option.value (Hashtbl.find_opt errors_by_router router) ~default:0 in
      transitions :=
        Health.note_scrape t.health ~router ~now ~ok:true ~errors ~reason:"" @ !transitions)
    answered;
  List.iter
    (fun (router, msg) ->
      Counter.incr t.m_scrape_router_errors;
      transitions :=
        Health.note_scrape t.health ~router ~now ~ok:false ~errors:0 ~reason:msg
        @ !transitions)
    o.errors;
  apply_transitions t ~trace:o.trace !transitions;
  refresh_fleet_metrics t;
  export_traces t;
  t.scrapes <- t.scrapes + 1;
  Counter.incr t.m_scrapes

let scrape_now t =
  if not t.scrape_in_flight then begin
    t.scrape_in_flight <- true;
    Manager.query t.manager t.scrape_statement ~on_done:(fun o ->
        t.scrape_in_flight <- false;
        ingest t o)
  end

(* -- Prometheus rendering ------------------------------------------ *)

let render_prometheus t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Hw_metrics.Snapshot.render_prometheus t.registry);
  (* fleet series: group samples under one # TYPE header per key *)
  let by_key : (string, (string * float) list ref) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun router per ->
      Hashtbl.iter
        (fun key s ->
          let v = Series.last s in
          if not (Float.is_nan v) then begin
            let l =
              match Hashtbl.find_opt by_key key with
              | Some l -> l
              | None ->
                  let l = ref [] in
                  Hashtbl.replace by_key key l;
                  l
            in
            l := (router, v) :: !l
          end)
        per)
    t.series;
  Hashtbl.fold (fun key l acc -> (key, List.sort compare !l) :: acc) by_key []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (key, samples) ->
         let name = "fleet_" ^ Registry.sanitize_name key in
         Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" name);
         let sum = ref 0. and mx = ref neg_infinity in
         List.iter
           (fun (router, v) ->
             sum := !sum +. v;
             if v > !mx then mx := v;
             Buffer.add_string buf
               (Printf.sprintf "%s{router=\"%s\"} %s\n" name
                  (Hw_metrics.Snapshot.escape_label_value router)
                  (Hw_metrics.Snapshot.float_str v)))
           samples;
         if samples <> [] then begin
           Buffer.add_string buf
             (Printf.sprintf "%s{router=\"__fleet__\",stat=\"sum\"} %s\n" name
                (Hw_metrics.Snapshot.float_str !sum));
           Buffer.add_string buf
             (Printf.sprintf "%s{router=\"__fleet__\",stat=\"max\"} %s\n" name
                (Hw_metrics.Snapshot.float_str !mx))
         end);
  Buffer.contents buf

(* -- HTTP ----------------------------------------------------------- *)

let health_json t =
  let h, d, l = Health.counts t.health in
  Json.Obj
    [
      ("healthy", Json.Int h);
      ("degraded", Json.Int d);
      ("lost", Json.Int l);
      ( "routers",
        Json.Obj
          (List.map
             (fun (id, st) -> (id, Json.String (Health.state_to_string st)))
             (Health.routers t.health)) );
    ]

let build_routes t =
  let r = Router.create () in
  Router.route r Http.GET "/metrics" (fun _req _params ->
      Http.response 200
        ~headers:[ ("content-type", "text/plain; version=0.0.4") ]
        ~body:(render_prometheus t));
  Router.route r Http.GET "/traces" (fun _req _params ->
      Http.json_response (Export.summaries t.trace));
  Router.route r Http.GET "/traces/:id" (fun _req params ->
      match Option.bind (List.assoc_opt "id" params) int_of_string_opt with
      | None -> Http.error_response 400 "trace id must be an integer"
      | Some id -> (
          match Tracer.find t.trace id with
          | Some c -> Http.json_response (Export.chrome_json c)
          | None -> Http.error_response 404 "no such trace"));
  Router.route r Http.GET "/fleet/health" (fun _req _params ->
      Http.json_response (health_json t));
  r

let routes t =
  match t.routes with
  | Some r -> r
  | None ->
      let r = build_routes t in
      t.routes <- Some r;
      r

let handle_http t raw = Router.handle_raw (routes t) raw

(* -- construction --------------------------------------------------- *)

let default_track =
  [
    ("hwdb_inserts_total", "value");
    ("hwdb_queries_total", "value");
    ("hwdb_insert_errors_total", "value");
    ("hwdb_query_errors_total", "value");
    ("rpc_datagrams_in_total", "value");
    ("rpc_datagrams_out_total", "value");
    ("hwdb_query_seconds", "p99");
  ]

let default_error_counters =
  [ "hwdb_insert_errors_total"; "hwdb_query_errors_total"; "rpc_datagrams_dropped_total" ]

let fleet_metrics_schema =
  [
    ("router", Value.T_str);
    ("name", Value.T_str);
    ("stat", Value.T_str);
    ("value", Value.T_real);
  ]

let fleet_health_schema =
  [
    ("router", Value.T_str);
    ("state", Value.T_str);
    ("prev", Value.T_str);
    ("reason", Value.T_str);
    ("trace_id", Value.T_int);
  ]

let must_table db ~name ?capacity schema =
  match Database.create_table db ~name ?capacity schema with
  | Ok _ -> ()
  | Error e -> invalid_arg (Printf.sprintf "Hw_obs.Observer: table %s: %s" name e)

let create ?(scrape_period = 10.) ?(tick_period = 1.)
    ?(scrape_statement = "SELECT name, stat, value FROM Metrics [NOW]")
    ?(track = default_track) ?(error_counters = default_error_counters)
    ?(max_series_per_router = 16) ?(raw_capacity = 32) ?(s10_capacity = 32)
    ?(s60_capacity = 32) ?(fleet_metrics_capacity = 16384) ?(fleet_health_capacity = 4096)
    ?degraded_after ?lost_after_failures ?recover_after ~loop ~manager () =
  let registry = Manager.metrics manager in
  let trace = Manager.tracer manager in
  let now () = Hw_sim.Event_loop.now loop in
  (* the observer's own db: Metrics exports the manager registry on
     tick; Traces is filled incrementally by export_traces (NOT the
     tick-time full-recorder dump — see export_traces) *)
  let db = Database.create_empty ~metrics:registry ~now () in
  must_table db ~name:"Metrics" Database.metrics_schema;
  must_table db ~name:"Traces" Database.traces_schema;
  must_table db ~name:"FleetMetrics" ~capacity:fleet_metrics_capacity fleet_metrics_schema;
  must_table db ~name:"FleetHealth" ~capacity:fleet_health_capacity fleet_health_schema;
  let counter name help = Registry.counter registry name ~help in
  let t =
    {
      loop;
      manager;
      registry;
      trace;
      db;
      health = Health.create ?degraded_after ?lost_after_failures ?recover_after ();
      series = Hashtbl.create 64;
      track;
      error_counters;
      err_baseline = Hashtbl.create 256;
      scrape_statement;
      max_series_per_router;
      raw_capacity;
      s10_capacity;
      s60_capacity;
      scrape_in_flight = false;
      scrapes = 0;
      last_trace_exported = 0;
      m_scrapes = counter "obs_scrapes_total" "Completed fleet metric scrape cycles";
      m_scrape_rows = counter "obs_scrape_rows_total" "Metric rows ingested from scrapes";
      m_scrape_router_errors =
        counter "obs_scrape_router_errors_total" "Per-router scrape failures";
      m_series_overflow =
        counter "obs_series_overflow_total"
          "Samples dropped by the per-router series cap";
      routes = None;
    }
  in
  (* session lifecycle -> health; renewals arrive every renew period,
     so these are cheap notes, not sweeps *)
  Manager.on_session_event manager (fun ev ->
      let now = now () in
      let transitions =
        match ev with
        | Manager.Session_up id -> Health.note_up t.health ~router:id ~now
        | Manager.Session_renewed id -> Health.note_renewed t.health ~router:id ~now
        | Manager.Session_down (id, reason) ->
            Health.note_down t.health ~router:id ~now ~reason
      in
      apply_transitions t ~trace:0 transitions);
  Hw_sim.Event_loop.every loop tick_period (fun () ->
      health_tick t;
      Database.tick db);
  Hw_sim.Event_loop.every loop scrape_period (fun () -> scrape_now t);
  t
