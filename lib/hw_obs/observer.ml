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

(* One tracked key across the fleet after a scrape: each router's last
   value in router order, their sum (added in that order) and max. *)
type key_view = { key : string; samples : (string * float) list; sum : float; max : float }

(* What the observer keeps of one router, by position: the last value
   of each tracked pair, and the last value of each error counter (the
   baseline its next advance is measured from). nan is "not seen yet". *)
type router_state = { last : float array; err_base : float array }

type t = {
  loop : Hw_sim.Event_loop.t;
  manager : Manager.t;
  registry : Registry.t;
  trace : Tracer.t;
  db : Database.t;
  health : Health.t;
  routers : (string, router_state) Hashtbl.t; (* every router that answered a scrape *)
  mutable view : key_view list; (* sorted by key; rebuilt by each scrape *)
  mutable scrape_in_flight : bool;
  mutable traces_exported : int; (* the manager tracer's push count at the last export *)
  m_scrapes : Counter.t;
  m_scrape_rows : Counter.t;
  m_scrape_router_errors : Counter.t;
  routes : Router.t;
}

let db t = t.db
let health t = t.health
let scrapes_total t = Counter.value t.m_scrapes

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

(* The (metric, stat) pairs the fleet view carries, with their view
   key (the metric name, suffixed _<stat> for a non-value stat), in
   view order: by key. *)
let tracked =
  [
    ("hwdb_inserts_total", "value");
    ("hwdb_queries_total", "value");
    ("hwdb_insert_errors_total", "value");
    ("hwdb_query_errors_total", "value");
    ("rpc_datagrams_in_total", "value");
    ("rpc_datagrams_out_total", "value");
    ("hwdb_query_seconds", "p99");
  ]
  |> List.map (fun (name, stat) ->
         (name, stat, if stat = "value" then name else name ^ "_" ^ stat))
  |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
  |> Array.of_list

(* the counters whose advance degrades a router's health *)
let error_counters =
  [| "hwdb_insert_errors_total"; "hwdb_query_errors_total"; "rpc_datagrams_dropped_total" |]

(* Positions from [i] on, or -1: loops with no closure, so ingest
   allocates nothing per row to find them. *)
let rec tracked_position name stat i =
  if i = Array.length tracked then -1
  else
    let n, s, _ = tracked.(i) in
    if String.equal n name && String.equal s stat then i
    else tracked_position name stat (i + 1)

let rec error_position name i =
  if i = Array.length error_counters then -1
  else if String.equal error_counters.(i) name then i
  else error_position name (i + 1)

(* Each router ships only the rows ingest reads: the tracked pairs and
   the error counters' values, each pair once. *)
let scrape_statement =
  let pairs =
    List.sort_uniq compare
      (Array.to_list (Array.map (fun (name, stat, _) -> (name, stat)) tracked)
      @ Array.to_list (Array.map (fun name -> (name, "value")) error_counters))
  in
  "SELECT name, stat, value FROM Metrics [NOW] WHERE "
  ^ String.concat " OR "
      (List.map
         (fun (name, stat) -> Printf.sprintf "(name = '%s' AND stat = '%s')" name stat)
         pairs)

let value_to_float = function
  | Value.Real f -> f
  | Value.Int i -> float_of_int i
  | Value.Ts f -> f
  | Value.Bool b -> if b then 1. else 0.
  | Value.Str _ -> nan

let router_state t router =
  match Hashtbl.find t.routers router with
  | r -> r
  | exception Not_found ->
      let r =
        {
          last = Array.make (Array.length tracked) nan;
          err_base = Array.make (Array.length error_counters) nan;
        }
      in
      Hashtbl.replace t.routers router r;
      r

(* Per tracked key, the routers with a value, in router order: a router
   keeps its last value through the scrapes it misses. For a tracked
   percentile (hwdb_query_seconds_p99) the max is the fleet-wide upper
   bound of that percentile. *)
let fleet_view t =
  let routers =
    Hashtbl.fold (fun id r acc -> (id, r) :: acc) t.routers []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.filter_map
    (fun i ->
      let _, _, key = tracked.(i) in
      let samples =
        List.filter_map
          (fun (router, r) ->
            let v = r.last.(i) in
            if Float.is_nan v then None else Some (router, v))
          routers
      in
      if samples = [] then None
      else begin
        let sum = ref 0. and mx = ref neg_infinity in
        List.iter
          (fun (_, v) ->
            sum := !sum +. v;
            mx := Float.max !mx v)
          samples;
        Some { key; samples; sum = !sum; max = !mx }
      end)
    (List.init (Array.length tracked) Fun.id)

(* One FleetMetrics batch per scrape: per-router last values plus
   __fleet__ sum/max aggregates, key by key. *)
let refresh_fleet_metrics t =
  let insert router name stat v =
    match
      Database.insert t.db ~table:"FleetMetrics"
        [ Value.Str router; Value.Str name; Value.Str stat; Value.Real v ]
    with
    | Ok () -> ()
    | Error e -> Log.err (fun m -> m "FleetMetrics insert: %s" e)
  in
  List.iter
    (fun kv ->
      List.iter (fun (router, v) -> insert router kv.key "last" v) kv.samples;
      insert "__fleet__" kv.key "sum" kv.sum;
      insert "__fleet__" kv.key "max" kv.max)
    t.view

(* Export the manager's flight recorder into the Traces table by push
   count, as the router tick's export does: each trace pushed since the
   last export, once, in push order. Trace ids give start order, not
   push order: a federated query that settles after a later scrape is
   pushed after it. Rows are appended once, not re-stamped each tick as
   the router's export does: at fleet scale a 1k-span fleet.query trace
   makes a full dump unaffordable. *)
let export_traces t =
  let pushed = Tracer.pushed t.trace in
  let lo = pushed - Tracer.kept t.trace in
  for p = max lo t.traces_exported to pushed - 1 do
    let c = Tracer.get t.trace (p - lo) in
    Array.iter
      (fun s ->
        match Database.insert t.db ~table:"Traces" (Array.to_list (Database.trace_row c s)) with
        | Ok () -> ()
        | Error e -> Log.err (fun m -> m "Traces insert: %s" e))
      c.spans
  done;
  t.traces_exported <- pushed

let ingest t (o : Manager.outcome) =
  let now = Hw_sim.Event_loop.now t.loop in
  (* per-router error-counter advance since the previous scrape *)
  let errors_by_router : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let answered : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  (* the manager prepends router to the statement's name, stat, value *)
  List.iter
    (function
      | [ Value.Str router; Value.Str name; Value.Str stat; v ] ->
          Counter.incr t.m_scrape_rows;
          Hashtbl.replace answered router ();
          let v = value_to_float v in
          let r = router_state t router in
          let i = tracked_position name stat 0 in
          if i >= 0 then r.last.(i) <- v;
          let j = if stat = "value" then error_position name 0 else -1 in
          if j >= 0 then begin
            let prev = if Float.is_nan r.err_base.(j) then v else r.err_base.(j) in
            r.err_base.(j) <- v;
            let delta = int_of_float (Float.max 0. (v -. prev)) in
            if delta > 0 then
              Hashtbl.replace errors_by_router router
                (delta + Option.value (Hashtbl.find_opt errors_by_router router) ~default:0)
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
  t.view <- fleet_view t;
  refresh_fleet_metrics t;
  export_traces t;
  Counter.incr t.m_scrapes

let scrape_now t =
  if not t.scrape_in_flight then begin
    t.scrape_in_flight <- true;
    Manager.query t.manager scrape_statement ~on_done:(fun o ->
        t.scrape_in_flight <- false;
        ingest t o)
  end

(* -- Prometheus rendering ------------------------------------------ *)

let render_prometheus t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Hw_metrics.Snapshot.render_prometheus t.registry);
  (* the fleet view: one # TYPE header per key *)
  List.iter
    (fun kv ->
      let name = "fleet_" ^ Registry.sanitize_name kv.key in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n" name);
      List.iter
        (fun (router, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s{router=\"%s\"} %s\n" name
               (Hw_metrics.Snapshot.escape_label_value router)
               (Hw_metrics.Snapshot.float_str v)))
        kv.samples;
      Buffer.add_string buf
        (Printf.sprintf "%s{router=\"__fleet__\",stat=\"sum\"} %s\n" name
           (Hw_metrics.Snapshot.float_str kv.sum));
      Buffer.add_string buf
        (Printf.sprintf "%s{router=\"__fleet__\",stat=\"max\"} %s\n" name
           (Hw_metrics.Snapshot.float_str kv.max)))
    t.view;
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

let add_routes t =
  let r = t.routes in
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
      Http.json_response (health_json t))

let handle_http t raw = Router.handle_raw t.routes raw

(* -- construction --------------------------------------------------- *)

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

let create ?(scrape_period = 10.) ~loop ~manager () =
  let registry = Manager.metrics manager in
  let trace = Manager.tracer manager in
  let now () = Hw_sim.Event_loop.now loop in
  (* the observer's own db: Metrics exports the manager registry on
     tick; Traces is filled incrementally by export_traces (NOT the
     tick-time full-recorder dump — see export_traces) *)
  let db = Database.create_empty ~metrics:registry ~now () in
  must_table db ~name:"Metrics" Database.metrics_schema;
  must_table db ~name:"Traces" Database.traces_schema;
  must_table db ~name:"FleetMetrics" ~capacity:16384 fleet_metrics_schema;
  must_table db ~name:"FleetHealth" ~capacity:4096 fleet_health_schema;
  let counter name help = Registry.counter registry name ~help in
  let t =
    {
      loop;
      manager;
      registry;
      trace;
      db;
      health = Health.create ();
      routers = Hashtbl.create 64;
      view = [];
      scrape_in_flight = false;
      traces_exported = 0;
      m_scrapes = counter "obs_scrapes_total" "Completed fleet metric scrape cycles";
      m_scrape_rows = counter "obs_scrape_rows_total" "Metric rows ingested from scrapes";
      m_scrape_router_errors =
        counter "obs_scrape_router_errors_total" "Per-router scrape failures";
      routes = Router.create ();
    }
  in
  add_routes t;
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
  (* the hwdb tick (subscription delivery) and the health silence sweep *)
  Hw_sim.Event_loop.every loop 1. (fun () ->
      health_tick t;
      Database.tick db);
  Hw_sim.Event_loop.every loop scrape_period (fun () -> scrape_now t);
  t
