(* The fleet observability plane: the router health state machine, and
   the end-to-end cross-node tracing + scrape + alerting loop over
   Fleet_sim.

   The e2e tests mirror the acceptance bar: one Manager.query over a
   100+ router fleet yields ONE causal trace whose per-router child
   spans (with router-id attrs) are visible on every export surface —
   the manager's flight recorder, the observer's Traces table, and the
   HTTP Chrome-JSON endpoint — and the scrape's fleet view covers the
   fleet. *)

module Fault = Hw_fault.Fault
module Router = Hw_router.Router
module Manager = Hw_fleet.Manager
module Agent = Hw_fleet.Agent
module Fleet_sim = Hw_fleet.Fleet_sim
module Health = Hw_obs.Health
module Observer = Hw_obs.Observer
module Tracer = Hw_trace.Tracer
module Database = Hw_hwdb.Database
module Value = Hw_hwdb.Value
module Query = Hw_hwdb.Query
module Http = Hw_control_api.Http

let await_registered fleet ~within =
  let mgr = Fleet_sim.manager fleet in
  let n = Fleet_sim.size fleet in
  let deadline = Fleet_sim.now fleet +. within in
  let rec step () =
    if Manager.session_count mgr < n && Fleet_sim.now fleet < deadline then begin
      Fleet_sim.run_for fleet 0.25;
      step ()
    end
  in
  step ()

let int_of_count = function
  | Some { Query.rows = [ [ Value.Int n ] ]; _ } -> n
  | _ -> Alcotest.fail "expected one COUNT row"

(* -- health machine ------------------------------------------------- *)

let states h router = Option.map Health.state_to_string (Health.state h router)

let test_health_machine () =
  let h = Health.create () in
  (* birth is Healthy with no transition row *)
  Alcotest.(check (list string)) "up: no transition" []
    (List.map (fun (t : Health.transition) -> t.reason) (Health.note_up h ~router:"r1" ~now:0.));
  Alcotest.(check (option string)) "healthy" (Some "healthy") (states h "r1");
  (* scrape failures: degraded at 1, lost at 3 *)
  let t1 = Health.note_scrape h ~router:"r1" ~now:1. ~ok:false ~errors:0 ~reason:"timeout" in
  Alcotest.(check int) "one transition" 1 (List.length t1);
  Alcotest.(check (option string)) "degraded" (Some "degraded") (states h "r1");
  ignore (Health.note_scrape h ~router:"r1" ~now:2. ~ok:false ~errors:0 ~reason:"timeout");
  let t3 = Health.note_scrape h ~router:"r1" ~now:3. ~ok:false ~errors:0 ~reason:"timeout" in
  Alcotest.(check (option string)) "lost" (Some "lost") (states h "r1");
  (match t3 with
  | [ tr ] ->
      Alcotest.(check string) "lost reason" "3 consecutive scrape failures" tr.reason;
      Alcotest.(check string) "prev" "degraded" (Health.state_to_string tr.prev)
  | _ -> Alcotest.fail "expected lost transition");
  (* recovery needs recover_after clean scrapes *)
  ignore (Health.note_scrape h ~router:"r1" ~now:4. ~ok:true ~errors:0 ~reason:"");
  Alcotest.(check (option string)) "still lost" (Some "lost") (states h "r1");
  ignore (Health.note_scrape h ~router:"r1" ~now:5. ~ok:true ~errors:0 ~reason:"");
  Alcotest.(check (option string)) "recovered" (Some "healthy") (states h "r1");
  (* error-counter advance degrades a healthy router *)
  (match Health.note_scrape h ~router:"r1" ~now:6. ~ok:true ~errors:7 ~reason:"" with
  | [ tr ] ->
      Alcotest.(check string) "error reason" "error counters advanced (+7)" tr.reason
  | _ -> Alcotest.fail "expected degraded transition");
  (* renewal recovers silence, not scrape failures *)
  Alcotest.(check (list string)) "renewal does not clear errors" []
    (List.map
       (fun (t : Health.transition) -> t.reason)
       (Health.note_renewed h ~router:"r1" ~now:7.));
  ignore (Health.note_scrape h ~router:"r1" ~now:8. ~ok:true ~errors:0 ~reason:"");
  ignore (Health.note_scrape h ~router:"r1" ~now:9. ~ok:true ~errors:0 ~reason:"");
  Alcotest.(check (option string)) "healthy again" (Some "healthy") (states h "r1");
  (* silence sweep: last seen at 9, degraded once silent for over 30 s *)
  Alcotest.(check int) "tick under threshold" 0 (List.length (Health.tick h ~now:39.));
  (match Health.tick h ~now:40. with
  | [ tr ] -> Alcotest.(check string) "silence" "renewal silence" tr.reason
  | _ -> Alcotest.fail "expected silence transition");
  (* renewal clears pure silence *)
  (match Health.note_renewed h ~router:"r1" ~now:41. with
  | [ tr ] -> Alcotest.(check string) "renewed" "lease renewed" tr.reason
  | _ -> Alcotest.fail "expected recovery");
  (* eviction is Lost *)
  (match Health.note_down h ~router:"r1" ~now:45. ~reason:"lease lapsed" with
  | [ tr ] ->
      Alcotest.(check string) "down state" "lost" (Health.state_to_string tr.state)
  | _ -> Alcotest.fail "expected lost transition");
  (* a late scrape failure (in flight across the eviction) must not
     promote a lost router back to merely-degraded *)
  Alcotest.(check int) "late failure on lost: no transition" 0
    (List.length (Health.note_scrape h ~router:"r1" ~now:46. ~ok:false ~errors:0 ~reason:"timeout"));
  Alcotest.(check (option string)) "still lost after late failure" (Some "lost")
    (states h "r1");
  Alcotest.(check (pair int (pair int int))) "counts" (0, (0, 1))
    (let h', (d, l) = (fun (a, b, c) -> (a, (b, c))) (Health.counts h) in
     (h', (d, l)))

(* -- e2e: one cross-node trace on every export surface -------------- *)

let test_e2e_trace_all_surfaces () =
  let n = 120 in
  let fleet = Fleet_sim.create ~n ~trace_capacity:8 ~max_inflight:256 () in
  let mgr = Fleet_sim.manager fleet in
  await_registered fleet ~within:30.;
  Alcotest.(check int) "all registered" n (Manager.session_count mgr);
  let obs =
    Observer.create ~scrape_period:5. ~loop:(Fleet_sim.loop fleet) ~manager:mgr ()
  in
  (* a federated query is one causal trace *)
  let o =
    match Fleet_sim.query_sync fleet "SELECT name, stat, value FROM Metrics [NOW]" with
    | Some o -> o
    | None -> Alcotest.fail "federated query did not settle"
  in
  Alcotest.(check int) "every router answered" n o.Manager.ok;
  Alcotest.(check bool) "outcome carries trace id" true (o.Manager.trace > 0);

  (* surface 1: the manager's flight recorder *)
  let c =
    match Tracer.find (Manager.tracer mgr) o.Manager.trace with
    | Some c -> c
    | None -> Alcotest.fail "trace not in flight recorder"
  in
  let rpc_spans =
    Array.to_list c.Tracer.spans
    |> List.filter (fun (s : Tracer.span) -> s.name = "fleet.rpc")
  in
  Alcotest.(check int) "one child span per router" n (List.length rpc_spans);
  let router_attrs =
    List.filter_map
      (fun (s : Tracer.span) ->
        match List.assoc_opt "router" s.attrs with
        | Some (Tracer.Str id) -> Some id
        | _ -> None)
      rpc_spans
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "router-id attrs on every child" n (List.length router_attrs);
  Alcotest.(check bool) "attempts attr settled" true
    (List.for_all
       (fun (s : Tracer.span) -> List.mem_assoc "attempts" s.attrs)
       rpc_spans);
  Alcotest.(check string) "root is fleet.query" "fleet.query"
    c.Tracer.spans.(0).Tracer.name;
  Alcotest.(check bool) "merge span present" true
    (Array.exists (fun (s : Tracer.span) -> s.Tracer.name = "fleet.merge") c.Tracer.spans);

  (* the routers rooted their handler under the SAME trace id *)
  (match Fleet_sim.agent fleet "r0000" with
  | None -> Alcotest.fail "no agent r0000"
  | Some agent -> (
      match Tracer.find (Router.tracer (Agent.router agent)) o.Manager.trace with
      | None -> Alcotest.fail "router-side trace missing (remote rooting failed)"
      | Some rc ->
          let root = rc.Tracer.spans.(0) in
          Alcotest.(check string) "router root" "rpc.request" root.Tracer.name;
          Alcotest.(check bool) "rooted under a manager span" true
            (root.Tracer.parent > 0)));

  (* surface 2: the observer's Traces table (after a scrape exports it) *)
  Fleet_sim.run_for fleet 6.;
  Alcotest.(check bool) "a scrape completed" true (Observer.scrapes_total obs >= 1);
  let span_count =
    match
      Database.query (Observer.db obs)
        (Printf.sprintf
           "SELECT COUNT(span_id) AS n FROM Traces WHERE trace_id = %d" o.Manager.trace)
    with
    | Ok rs -> int_of_count (Some rs)
    | Error e -> Alcotest.failf "Traces query: %s" e
  in
  Alcotest.(check bool)
    (Printf.sprintf "Traces table holds the full tree (%d spans)" span_count)
    true
    (span_count >= n + 2);

  (* surface 3: HTTP Chrome JSON *)
  let raw =
    Http.encode_request (Http.request Http.GET (Printf.sprintf "/traces/%d" o.Manager.trace))
  in
  let resp =
    match Http.decode_response (Observer.handle_http obs raw) with
    | Ok r -> r
    | Error e -> Alcotest.failf "http decode: %s" e
  in
  Alcotest.(check int) "200" 200 resp.Http.status;
  Alcotest.(check bool) "chrome json has per-router spans" true
    (let contains needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0
     in
     contains "fleet.rpc" resp.Http.body && contains "r0057" resp.Http.body);

  (* the last scrape's fleet view covers most routers *)
  let routers_in_view =
    match
      Database.query (Observer.db obs)
        "SELECT COUNT(router) AS n FROM FleetMetrics [NOW] WHERE name = 'hwdb_inserts_total' \
         AND stat = 'last'"
    with
    | Ok rs -> int_of_count (Some rs)
    | Error e -> Alcotest.failf "FleetMetrics query: %s" e
  in
  Alcotest.(check bool) "fleet view covers most routers" true (routers_in_view >= n / 2)

(* -- satellite: cross-node tracing under fault injection ------------ *)

let test_trace_under_faults () =
  let n = 30 in
  let fleet = Fleet_sim.create ~n ~trace_capacity:8 () in
  let mgr = Fleet_sim.manager fleet in
  await_registered fleet ~within:30.;
  Alcotest.(check int) "all registered" n (Manager.session_count mgr);
  (* 2 dead routers, 30% drop everywhere else *)
  let dead = [ "r0003"; "r0017" ] in
  Array.iter
    (fun agent ->
      let inj = (Router.faults (Agent.router agent)).Fault.rpc in
      if List.mem (Agent.id agent) dead then Fault.set_plan inj [ Fault.Drop 1.0 ]
      else Fault.set_plan inj [ Fault.Drop 0.3 ])
    (Fleet_sim.agents fleet);
  let o =
    match Fleet_sim.query_sync fleet "SELECT COUNT(ts) AS n FROM Leases" with
    | Some o -> o
    | None -> Alcotest.fail "federated query did not settle"
  in
  Alcotest.(check int) "survivors answered" (n - 2) o.Manager.ok;
  Alcotest.(check (list string)) "dead routers errored" dead
    (List.map fst o.Manager.errors |> List.sort compare);
  (* ONE trace holds the whole story *)
  let c =
    match Tracer.find (Manager.tracer mgr) o.Manager.trace with
    | Some c -> c
    | None -> Alcotest.fail "trace not recorded"
  in
  Alcotest.(check bool) "trace marked errored" true c.Tracer.errored;
  let rpc_spans =
    Array.to_list c.Tracer.spans
    |> List.filter (fun (s : Tracer.span) -> s.Tracer.name = "fleet.rpc")
  in
  Alcotest.(check int) "every router has a child span" n (List.length rpc_spans);
  let errored, clean =
    List.partition (fun (s : Tracer.span) -> s.Tracer.error <> None) rpc_spans
  in
  let errored_ids =
    List.filter_map
      (fun (s : Tracer.span) ->
        match List.assoc_opt "router" s.Tracer.attrs with
        | Some (Tracer.Str id) -> Some id
        | _ -> None)
      errored
    |> List.sort compare
  in
  Alcotest.(check (list string)) "timed-out children error-marked" dead errored_ids;
  Alcotest.(check int) "surviving children completed clean" (n - 2) (List.length clean);
  (* under 30% drop some survivors needed retries, and the settled
     attempt count landed on their spans *)
  let retried =
    List.filter
      (fun (s : Tracer.span) ->
        match List.assoc_opt "attempts" s.Tracer.attrs with
        | Some (Tracer.Int a) -> a > 1
        | _ -> false)
      clean
  in
  Alcotest.(check bool) "some survivors retried" true (List.length retried > 0)

(* -- e2e: health transitions + SUBSCRIBE alerting ------------------- *)

let test_health_alerting_via_subscription () =
  let n = 6 in
  (* fast retry so a dead router's scrape settles in ~1.5 s, well inside
     the 20 s lease: Lost must come from scrape failures, not eviction *)
  let retry =
    { Hw_hwdb.Rpc.Client.timeout = 0.5; max_attempts = 2; backoff = 2.;
      max_timeout = 1.; jitter = 0.1 }
  in
  let fleet = Fleet_sim.create ~n ~trace_capacity:8 ~lease_s:20. ~retry () in
  let mgr = Fleet_sim.manager fleet in
  await_registered fleet ~within:30.;
  let obs =
    Observer.create ~scrape_period:2. ~loop:(Fleet_sim.loop fleet) ~manager:mgr ()
  in
  (* alerting = a standing query over FleetHealth *)
  let alerts = ref [] in
  let sub_query =
    match Hw_hwdb.Parser.parse "SELECT router, state, reason FROM FleetHealth [RANGE 10 SECONDS]" with
    | Ok (Hw_hwdb.Ast.Select s) -> s
    | _ -> Alcotest.fail "parse"
  in
  ignore
    (Database.subscribe (Observer.db obs) ~query:sub_query ~period:1. ~callback:(fun rs ->
         List.iter
           (fun row ->
             match row with
             | [ Value.Str router; Value.Str state; Value.Str _reason ] ->
                 if not (List.mem (router, state) !alerts) then
                   alerts := (router, state) :: !alerts
             | _ -> ())
           rs.Query.rows));
  Fleet_sim.run_for fleet 5.;
  (* kill one router: its scrapes start failing *)
  let victim = Option.get (Fleet_sim.agent fleet "r0002") in
  Fault.set_plan (Router.faults (Agent.router victim)).Fault.rpc [ Fault.Drop 1.0 ];
  (* three failed scrape cycles at ~2s each, plus retry tails: run long *)
  let deadline = Fleet_sim.now fleet +. 120. in
  let rec until_lost () =
    if Health.state (Observer.health obs) "r0002" <> Some Health.Lost
       && Fleet_sim.now fleet < deadline
    then begin
      Fleet_sim.run_for fleet 1.;
      until_lost ()
    end
  in
  until_lost ();
  Alcotest.(check (option string)) "victim lost" (Some "lost")
    (Option.map Health.state_to_string (Health.state (Observer.health obs) "r0002"));
  Alcotest.(check bool) "subscription alerted degraded" true
    (List.mem ("r0002", "degraded") !alerts);
  Alcotest.(check bool) "subscription alerted lost" true
    (List.mem ("r0002", "lost") !alerts);
  (* transitions are counted per state and trace-tagged *)
  let lost_count =
    Hw_metrics.Counter.value
      (Hw_metrics.Registry.labeled_counter (Manager.metrics mgr)
         "fleet_health_transitions_total" ~labels:[ ("state", "lost") ])
  in
  Alcotest.(check bool) "transition counted" true (lost_count >= 1);
  (match
     Database.query (Observer.db obs)
       "SELECT COUNT(ts) AS n FROM FleetHealth WHERE trace_id > 0"
   with
  | Ok rs ->
      Alcotest.(check bool) "scrape-driven transitions trace-tagged" true
        (int_of_count (Some rs) >= 1)
  | Error e -> Alcotest.failf "FleetHealth query: %s" e);
  (* revive: clean scrapes bring it back *)
  Fault.set_plan (Router.faults (Agent.router victim)).Fault.rpc [];
  let rec until_healthy () =
    if Health.state (Observer.health obs) "r0002" <> Some Health.Healthy
       && Fleet_sim.now fleet < deadline +. 120.
    then begin
      Fleet_sim.run_for fleet 1.;
      until_healthy ()
    end
  in
  until_healthy ();
  Alcotest.(check (option string)) "victim recovered" (Some "healthy")
    (Option.map Health.state_to_string (Health.state (Observer.health obs) "r0002"))

(* -- fleet metrics + Prometheus surfaces ---------------------------- *)

let test_fleet_metrics_surfaces () =
  let n = 4 in
  let fleet = Fleet_sim.create ~n ~trace_capacity:8 () in
  let mgr = Fleet_sim.manager fleet in
  await_registered fleet ~within:30.;
  let obs =
    Observer.create ~scrape_period:2. ~loop:(Fleet_sim.loop fleet) ~manager:mgr ()
  in
  Fleet_sim.run_for fleet 7.;
  Alcotest.(check bool) "scrapes ran" true (Observer.scrapes_total obs >= 2);
  (* FleetMetrics: per-router rows, one batch per scrape, and __fleet__
     aggregates *)
  let count q =
    match Database.query (Observer.db obs) q with
    | Ok rs -> int_of_count (Some rs)
    | Error e -> Alcotest.failf "%s: %s" q e
  in
  Alcotest.(check bool) "r0000's history: a row per scrape" true
    (count
       "SELECT COUNT(ts) AS n FROM FleetMetrics WHERE router = 'r0000' AND name = \
        'hwdb_inserts_total'"
    >= 2);
  Alcotest.(check bool) "per-router rows" true
    (count "SELECT COUNT(ts) AS n FROM FleetMetrics WHERE router = 'r0000'" >= 1);
  Alcotest.(check bool) "fleet aggregates" true
    (count "SELECT COUNT(ts) AS n FROM FleetMetrics WHERE router = '__fleet__'" >= 2);
  (* Prometheus text with router labels *)
  let text = Observer.render_prometheus obs in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "per-router sample" true
    (contains "fleet_hwdb_inserts_total{router=\"r0000\"}" text);
  Alcotest.(check bool) "fleet sum" true
    (contains "fleet_hwdb_inserts_total{router=\"__fleet__\",stat=\"sum\"}" text);
  Alcotest.(check bool) "manager registry included" true
    (contains "fleet_sessions" text);
  (* HTTP surfaces round-trip *)
  let get path =
    match
      Http.decode_response (Observer.handle_http obs (Http.encode_request (Http.request Http.GET path)))
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "GET %s: %s" path e
  in
  Alcotest.(check int) "/metrics ok" 200 (get "/metrics").Http.status;
  Alcotest.(check int) "/traces ok" 200 (get "/traces").Http.status;
  let hj = get "/fleet/health" in
  Alcotest.(check int) "/fleet/health ok" 200 hj.Http.status;
  Alcotest.(check bool) "health counts" true (contains "healthy" hj.Http.body)

(* -- Traces export: every pushed trace, in push order --------------- *)

let scrape_once fleet obs =
  let before = Observer.scrapes_total obs in
  Observer.scrape_now obs;
  while Observer.scrapes_total obs = before do
    Fleet_sim.run_for fleet 0.25
  done

let count_rows obs q =
  match Database.query (Observer.db obs) q with
  | Ok rs -> int_of_count (Some rs)
  | Error e -> Alcotest.failf "%s: %s" q e

(* A federated query that settles after a later scrape has the smaller
   trace id but is pushed into the manager's recorder second: an export
   keyed on trace ids never sees it. *)
let test_late_trace_exported () =
  let fleet = Fleet_sim.create ~n:4 ~trace_capacity:8 () in
  let mgr = Fleet_sim.manager fleet in
  Fleet_sim.run_for fleet 5.;
  let obs =
    Observer.create ~scrape_period:1e6 ~loop:(Fleet_sim.loop fleet) ~manager:mgr ()
  in
  (* query A loses its request to r0002 and settles only on the retry *)
  let r2 = Option.get (Fleet_sim.agent fleet "r0002") in
  let inj = (Router.faults (Agent.router r2)).Fault.rpc in
  Fault.set_plan inj [ Fault.Drop 1.0 ];
  let a = ref None in
  Manager.query mgr "SELECT COUNT(ts) AS n FROM Leases" ~on_done:(fun o -> a := Some o);
  Fleet_sim.run_for fleet 0.05;
  Fault.disarm inj;
  scrape_once fleet obs;
  Alcotest.(check bool) "A still in flight after the scrape" true (!a = None);
  let deadline = Fleet_sim.now fleet +. 120. in
  while !a = None && Fleet_sim.now fleet < deadline do
    Fleet_sim.run_for fleet 0.25
  done;
  let a = match !a with Some a -> a | None -> Alcotest.fail "A never settled" in
  Alcotest.(check int) "A answered by every router" 4 a.Manager.ok;
  scrape_once fleet obs;
  (* fleet.query, four fleet.rpc and fleet.merge *)
  Alcotest.(check int) "A's spans in Traces" 6
    (count_rows obs
       (Printf.sprintf "SELECT COUNT(span_id) AS n FROM Traces WHERE trace_id = %d"
          a.Manager.trace));
  (* each scrape's own trace is exported once, not once per scrape *)
  Alcotest.(check int) "Traces holds three traces" 18
    (count_rows obs "SELECT COUNT(span_id) AS n FROM Traces")

(* -- pinned fleet: /metrics text and one FleetMetrics batch ---------- *)

(* 8 routers with 2 devices each: two scrapes, 3 s apart *)
let pinned_observer () =
  let fleet = Fleet_sim.create ~seed:42 ~n:8 ~devices_per_home:2 () in
  await_registered fleet ~within:30.;
  Fleet_sim.run_for fleet 5.;
  let obs =
    Observer.create ~scrape_period:1e6 ~loop:(Fleet_sim.loop fleet)
      ~manager:(Fleet_sim.manager fleet) ()
  in
  scrape_once fleet obs;
  Fleet_sim.run_for fleet 3.;
  scrape_once fleet obs;
  obs

let pinned_metrics_text = {|# HELP fleet_rollup_events_total Publishes rolled up fleet-wide
# TYPE fleet_rollup_events_total counter
fleet_rollup_events_total 0
# HELP fleet_fanout_errors_total Per-router federated requests that failed
# TYPE fleet_fanout_errors_total counter
fleet_fanout_errors_total 0
# HELP fleet_fanout_requests_total Federated per-router requests
# TYPE fleet_fanout_requests_total counter
fleet_fanout_requests_total 16
# HELP fleet_evictions_total Sessions evicted on lease lapse
# TYPE fleet_evictions_total counter
fleet_evictions_total 0
# HELP fleet_registrations_total FLEET REGISTER requests accepted
# TYPE fleet_registrations_total counter
fleet_registrations_total 8
# HELP fleet_sessions Registered router sessions
# TYPE fleet_sessions gauge
fleet_sessions 8
# HELP rpc_request_timeouts_total Requests abandoned after exhausting every retry
# TYPE rpc_request_timeouts_total counter
rpc_request_timeouts_total 0
# HELP rpc_retries_total Requests retransmitted after a timeout
# TYPE rpc_retries_total counter
rpc_retries_total 0
# HELP hwdb_plan_cache_evictions_total prepared plans evicted (FIFO, bounded cache)
# TYPE hwdb_plan_cache_evictions_total counter
hwdb_plan_cache_evictions_total 0
# HELP hwdb_plan_cache_misses_total prepared-plan cache misses
# TYPE hwdb_plan_cache_misses_total counter
hwdb_plan_cache_misses_total 0
# HELP hwdb_plan_cache_hits_total prepared-plan cache hits
# TYPE hwdb_plan_cache_hits_total counter
hwdb_plan_cache_hits_total 0
# HELP hwdb_ticks_total database ticks
# TYPE hwdb_ticks_total counter
hwdb_ticks_total 3
# HELP hwdb_trigger_fires_total ECA trigger actions fired
# TYPE hwdb_trigger_fires_total counter
hwdb_trigger_fires_total 0
# HELP hwdb_subscription_evals_total continuous-query evaluations on tick
# TYPE hwdb_subscription_evals_total counter
hwdb_subscription_evals_total 0
# HELP hwdb_query_errors_total hwdb SELECTs that failed
# TYPE hwdb_query_errors_total counter
hwdb_query_errors_total 0
# HELP hwdb_queries_total hwdb SELECTs executed
# TYPE hwdb_queries_total counter
hwdb_queries_total 0
# HELP hwdb_insert_errors_total hwdb inserts refused
# TYPE hwdb_insert_errors_total counter
hwdb_insert_errors_total 0
# HELP hwdb_inserts_total hwdb rows inserted
# TYPE hwdb_inserts_total counter
hwdb_inserts_total 130
# HELP obs_scrape_router_errors_total Per-router scrape failures
# TYPE obs_scrape_router_errors_total counter
obs_scrape_router_errors_total 0
# HELP obs_scrape_rows_total Metric rows ingested from scrapes
# TYPE obs_scrape_rows_total counter
obs_scrape_rows_total 120
# HELP obs_scrapes_total Completed fleet metric scrape cycles
# TYPE obs_scrapes_total counter
obs_scrapes_total 2
# HELP hwdb_insert_seconds insert latency (sampled 1/32)
# TYPE hwdb_insert_seconds summary
hwdb_insert_seconds{quantile="0.5"} 9.31322575e-10
hwdb_insert_seconds{quantile="0.9"} 9.31322575e-10
hwdb_insert_seconds{quantile="0.99"} 9.31322575e-10
hwdb_insert_seconds_sum 0
hwdb_insert_seconds_count 5
# TYPE fleet_hwdb_insert_errors_total gauge
fleet_hwdb_insert_errors_total{router="r0000"} 0
fleet_hwdb_insert_errors_total{router="r0001"} 0
fleet_hwdb_insert_errors_total{router="r0002"} 0
fleet_hwdb_insert_errors_total{router="r0003"} 0
fleet_hwdb_insert_errors_total{router="r0004"} 0
fleet_hwdb_insert_errors_total{router="r0005"} 0
fleet_hwdb_insert_errors_total{router="r0006"} 0
fleet_hwdb_insert_errors_total{router="r0007"} 0
fleet_hwdb_insert_errors_total{router="__fleet__",stat="sum"} 0
fleet_hwdb_insert_errors_total{router="__fleet__",stat="max"} 0
# TYPE fleet_hwdb_inserts_total gauge
fleet_hwdb_inserts_total{router="r0000"} 16
fleet_hwdb_inserts_total{router="r0001"} 16
fleet_hwdb_inserts_total{router="r0002"} 22
fleet_hwdb_inserts_total{router="r0003"} 26
fleet_hwdb_inserts_total{router="r0004"} 21
fleet_hwdb_inserts_total{router="r0005"} 16
fleet_hwdb_inserts_total{router="r0006"} 20
fleet_hwdb_inserts_total{router="r0007"} 16
fleet_hwdb_inserts_total{router="__fleet__",stat="sum"} 153
fleet_hwdb_inserts_total{router="__fleet__",stat="max"} 26
# TYPE fleet_hwdb_queries_total gauge
fleet_hwdb_queries_total{router="r0000"} 1
fleet_hwdb_queries_total{router="r0001"} 1
fleet_hwdb_queries_total{router="r0002"} 1
fleet_hwdb_queries_total{router="r0003"} 1
fleet_hwdb_queries_total{router="r0004"} 1
fleet_hwdb_queries_total{router="r0005"} 1
fleet_hwdb_queries_total{router="r0006"} 1
fleet_hwdb_queries_total{router="r0007"} 1
fleet_hwdb_queries_total{router="__fleet__",stat="sum"} 8
fleet_hwdb_queries_total{router="__fleet__",stat="max"} 1
# TYPE fleet_hwdb_query_errors_total gauge
fleet_hwdb_query_errors_total{router="r0000"} 0
fleet_hwdb_query_errors_total{router="r0001"} 0
fleet_hwdb_query_errors_total{router="r0002"} 0
fleet_hwdb_query_errors_total{router="r0003"} 0
fleet_hwdb_query_errors_total{router="r0004"} 0
fleet_hwdb_query_errors_total{router="r0005"} 0
fleet_hwdb_query_errors_total{router="r0006"} 0
fleet_hwdb_query_errors_total{router="r0007"} 0
fleet_hwdb_query_errors_total{router="__fleet__",stat="sum"} 0
fleet_hwdb_query_errors_total{router="__fleet__",stat="max"} 0
# TYPE fleet_hwdb_query_seconds_p99 gauge
fleet_hwdb_query_seconds_p99{router="r0000"} 9.31322575e-10
fleet_hwdb_query_seconds_p99{router="r0001"} 9.31322575e-10
fleet_hwdb_query_seconds_p99{router="r0002"} 9.31322575e-10
fleet_hwdb_query_seconds_p99{router="r0003"} 9.31322575e-10
fleet_hwdb_query_seconds_p99{router="r0004"} 9.31322575e-10
fleet_hwdb_query_seconds_p99{router="r0005"} 9.31322575e-10
fleet_hwdb_query_seconds_p99{router="r0006"} 9.31322575e-10
fleet_hwdb_query_seconds_p99{router="r0007"} 9.31322575e-10
fleet_hwdb_query_seconds_p99{router="__fleet__",stat="sum"} 7.4505806e-09
fleet_hwdb_query_seconds_p99{router="__fleet__",stat="max"} 9.31322575e-10
# TYPE fleet_rpc_datagrams_in_total gauge
fleet_rpc_datagrams_in_total{router="r0000"} 1
fleet_rpc_datagrams_in_total{router="r0001"} 1
fleet_rpc_datagrams_in_total{router="r0002"} 1
fleet_rpc_datagrams_in_total{router="r0003"} 1
fleet_rpc_datagrams_in_total{router="r0004"} 1
fleet_rpc_datagrams_in_total{router="r0005"} 1
fleet_rpc_datagrams_in_total{router="r0006"} 1
fleet_rpc_datagrams_in_total{router="r0007"} 1
fleet_rpc_datagrams_in_total{router="__fleet__",stat="sum"} 8
fleet_rpc_datagrams_in_total{router="__fleet__",stat="max"} 1
# TYPE fleet_rpc_datagrams_out_total gauge
fleet_rpc_datagrams_out_total{router="r0000"} 1
fleet_rpc_datagrams_out_total{router="r0001"} 1
fleet_rpc_datagrams_out_total{router="r0002"} 1
fleet_rpc_datagrams_out_total{router="r0003"} 1
fleet_rpc_datagrams_out_total{router="r0004"} 1
fleet_rpc_datagrams_out_total{router="r0005"} 1
fleet_rpc_datagrams_out_total{router="r0006"} 1
fleet_rpc_datagrams_out_total{router="r0007"} 1
fleet_rpc_datagrams_out_total{router="__fleet__",stat="sum"} 8
fleet_rpc_datagrams_out_total{router="__fleet__",stat="max"} 1
|}

let test_pinned_metrics_text () =
  Alcotest.(check string) "/metrics" pinned_metrics_text
    (Observer.render_prometheus (pinned_observer ()))

let test_pinned_fleet_metrics_batch () =
  let row router key stat v = Printf.sprintf "%s %s %s %h" router key stat v in
  (* key, last values of r0000..r0007, fleet sum, fleet max *)
  let key_rows key lasts sum max =
    List.mapi (fun i v -> row (Printf.sprintf "r%04d" i) key "last" v) lasts
    @ [ row "__fleet__" key "sum" sum; row "__fleet__" key "max" max ]
  in
  let zeros = List.init 8 (fun _ -> 0.) and ones = List.init 8 (fun _ -> 1.) in
  let p99 = ldexp 1. (-30) (* the query histogram's lowest bucket bound *) in
  let expected =
    List.concat
      [
        key_rows "hwdb_insert_errors_total" zeros 0. 0.;
        key_rows "hwdb_inserts_total" [ 16.; 16.; 22.; 26.; 21.; 16.; 20.; 16. ] 153. 26.;
        key_rows "hwdb_queries_total" ones 8. 1.;
        key_rows "hwdb_query_errors_total" zeros 0. 0.;
        key_rows "hwdb_query_seconds_p99" (List.init 8 (fun _ -> p99)) (8. *. p99) p99;
        key_rows "rpc_datagrams_in_total" ones 8. 1.;
        key_rows "rpc_datagrams_out_total" ones 8. 1.;
      ]
  in
  let batch =
    match
      Database.query (Observer.db (pinned_observer ()))
        "SELECT router, name, stat, value FROM FleetMetrics [NOW]"
    with
    | Ok rs ->
        List.map
          (function
            | [ Value.Str r; Value.Str k; Value.Str st; Value.Real v ] -> row r k st v
            | _ -> Alcotest.fail "unexpected FleetMetrics row")
          rs.Query.rows
    | Error e -> Alcotest.failf "FleetMetrics query: %s" e
  in
  Alcotest.(check (list string)) "last scrape's batch, as a multiset"
    (List.sort compare expected) (List.sort compare batch)

(* A router ships only the rows ingest reads: the seven tracked pairs and
   the error counters' values, eight (name, stat) pairs in all. The first
   scrape finds no hwdb_query_seconds yet (no router has run a query
   before it), so the second is the one that reads all eight. *)
let test_scrape_ships_only_ingested_rows () =
  let fleet = Fleet_sim.create ~seed:42 ~n:8 ~devices_per_home:2 () in
  await_registered fleet ~within:30.;
  Fleet_sim.run_for fleet 5.;
  let obs =
    Observer.create ~scrape_period:1e6 ~loop:(Fleet_sim.loop fleet)
      ~manager:(Fleet_sim.manager fleet) ()
  in
  let rows () =
    Hw_metrics.Counter.value
      (Hw_metrics.Registry.counter (Manager.metrics (Fleet_sim.manager fleet))
         "obs_scrape_rows_total")
  in
  scrape_once fleet obs;
  Fleet_sim.run_for fleet 3.;
  let before = rows () in
  scrape_once fleet obs;
  Alcotest.(check int) "rows ingested by one scrape" (8 * 8) (rows () - before);
  Alcotest.(check (triple int int int)) "every router noted healthy" (8, 0, 0)
    (Health.counts (Observer.health obs))

(* A router that misses a scrape keeps its last values in the fleet view:
   its FleetMetrics rows and /metrics samples after the missed scrape
   read what the scrape before it read, while health marks it degraded. *)
let test_missed_scrape_keeps_last_values () =
  let fleet = Fleet_sim.create ~seed:42 ~n:8 ~devices_per_home:2 () in
  await_registered fleet ~within:30.;
  Fleet_sim.run_for fleet 5.;
  let obs =
    Observer.create ~scrape_period:1e6 ~loop:(Fleet_sim.loop fleet)
      ~manager:(Fleet_sim.manager fleet) ()
  in
  let victim = "r0002" in
  let last_rows () =
    match
      Database.query (Observer.db obs)
        (Printf.sprintf
           "SELECT name, value FROM FleetMetrics [NOW] WHERE router = '%s' AND stat = 'last'"
           victim)
    with
    | Ok rs ->
        List.sort compare
          (List.map
             (function
               | [ Value.Str k; Value.Real v ] -> Printf.sprintf "%s %h" k v
               | _ -> Alcotest.fail "unexpected FleetMetrics row")
             rs.Query.rows)
    | Error e -> Alcotest.failf "FleetMetrics query: %s" e
  in
  let samples () =
    let label = Printf.sprintf "{router=\"%s\"}" victim in
    String.split_on_char '\n' (Observer.render_prometheus obs)
    |> List.filter (fun line ->
           let ll = String.length label and n = String.length line in
           let rec has i = i + ll <= n && (String.sub line i ll = label || has (i + 1)) in
           has 0)
  in
  (* the first scrape finds no hwdb_query_seconds yet: take two *)
  scrape_once fleet obs;
  Fleet_sim.run_for fleet 3.;
  scrape_once fleet obs;
  Fleet_sim.run_for fleet 3.;
  let rows = last_rows () and text = samples () in
  Alcotest.(check int) "seven tracked keys in the view" 7 (List.length rows);
  Alcotest.(check int) "seven /metrics samples" 7 (List.length text);
  let inj = (Router.faults (Agent.router (Option.get (Fleet_sim.agent fleet victim)))).Fault.rpc in
  let now = Fleet_sim.now fleet in
  Fault.set_plan inj [ Fault.Partition { from_s = now; until_s = now +. 1e6 } ];
  scrape_once fleet obs;
  Fault.disarm inj;
  Alcotest.(check int) "the partitioned router's scrape failed" 1
    (Hw_metrics.Counter.value
       (Hw_metrics.Registry.counter (Manager.metrics (Fleet_sim.manager fleet))
          "obs_scrape_router_errors_total"));
  Alcotest.(check (list string)) "FleetMetrics [NOW] keeps the last values" rows (last_rows ());
  Alcotest.(check (list string)) "/metrics keeps the last samples" text (samples ());
  Alcotest.(check (option string)) "health marks it degraded" (Some "degraded")
    (states (Observer.health obs) victim)

let () =
  Alcotest.run "hw_obs"
    [
      ("health", [ Alcotest.test_case "state machine" `Quick test_health_machine ]);
      ( "e2e",
        [
          Alcotest.test_case "one trace on all surfaces (120 routers)" `Slow
            test_e2e_trace_all_surfaces;
          Alcotest.test_case "cross-node trace under faults" `Slow test_trace_under_faults;
          Alcotest.test_case "health alerting via SUBSCRIBE" `Slow
            test_health_alerting_via_subscription;
          Alcotest.test_case "fleet metrics surfaces" `Slow test_fleet_metrics_surfaces;
          Alcotest.test_case "a trace settling after a later scrape is exported" `Quick
            test_late_trace_exported;
          Alcotest.test_case "pinned /metrics text" `Quick test_pinned_metrics_text;
          Alcotest.test_case "pinned FleetMetrics batch" `Quick test_pinned_fleet_metrics_batch;
          Alcotest.test_case "a scrape ships 8 rows per router" `Quick
            test_scrape_ships_only_ingested_rows;
          Alcotest.test_case "a missed scrape keeps the last values" `Quick
            test_missed_scrape_keeps_last_values;
        ] );
    ]
