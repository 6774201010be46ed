(* hw_trace: span recording, tail-sampling, the flight recorder, JSON
   export surfaces, the trace-stamping logger, and the end-to-end causal
   chain of a DHCP handshake through a running home. *)

module Tracer = Hw_trace.Tracer
module Export = Hw_trace.Export
module Log = Hw_trace.Log
module Json = Hw_json.Json
module Database = Hw_hwdb.Database
module Value = Hw_hwdb.Value
module Rpc = Hw_hwdb.Rpc
module Query = Hw_hwdb.Query
module Home = Hw_router.Home
module Router = Hw_router.Router
module Http = Hw_control_api.Http

let make ?(capacity = 16) ?(sample_every = 1) ?(slow_threshold = 1000.) () =
  let t = ref 0. in
  let tracer =
    Tracer.create ~capacity ~sample_every ~slow_threshold
      ~metrics:(Hw_metrics.Registry.create ())
      ~now:(fun () -> !t)
      ()
  in
  (tracer, t)

let span_names (c : Tracer.completed) =
  Array.to_list (Array.map (fun (s : Tracer.span) -> s.Tracer.name) c.Tracer.spans)

let find_span (c : Tracer.completed) name =
  match Array.to_list c.Tracer.spans |> List.find_opt (fun (s : Tracer.span) -> s.Tracer.name = name) with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "no span %s in trace %d" name c.Tracer.id)

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let test_nesting () =
  let tracer, t = make () in
  Tracer.with_trace tracer "root" (fun () ->
      t := 0.1;
      Tracer.with_span tracer "a" (fun () ->
          Tracer.with_span tracer "a.a" (fun () -> t := 0.2));
      Tracer.with_span tracer "b" (fun () -> ()));
  match Tracer.traces tracer with
  | [ c ] ->
      Alcotest.(check (list string)) "spans in open order"
        [ "root"; "a"; "a.a"; "b" ] (span_names c);
      let root = find_span c "root" and a = find_span c "a" in
      let aa = find_span c "a.a" and b = find_span c "b" in
      Alcotest.(check int) "root has no parent" 0 root.Tracer.parent;
      Alcotest.(check int) "a under root" root.Tracer.span_id a.Tracer.parent;
      Alcotest.(check int) "a.a under a" a.Tracer.span_id aa.Tracer.parent;
      Alcotest.(check int) "b under root" root.Tracer.span_id b.Tracer.parent;
      Alcotest.(check bool) "not errored" false c.Tracer.errored;
      Alcotest.(check (float 1e-9)) "root spans the whole trace" 0.2 c.Tracer.duration
  | l -> Alcotest.fail (Printf.sprintf "expected 1 trace, recorder has %d" (List.length l))

let test_reentrant_trace () =
  (* a packet-out re-entering the datapath nests rather than opening a
     second trace *)
  let tracer, _ = make () in
  Tracer.with_trace tracer "outer" (fun () ->
      Tracer.with_trace tracer "inner" (fun () -> ()));
  match Tracer.traces tracer with
  | [ c ] ->
      Alcotest.(check (list string)) "one trace, nested" [ "outer"; "inner" ] (span_names c);
      Alcotest.(check int) "inner is a child span" 1 (find_span c "inner").Tracer.parent
  | l -> Alcotest.fail (Printf.sprintf "expected 1 trace, got %d" (List.length l))

let test_attrs_and_error () =
  let tracer, _ = make () in
  Tracer.with_trace tracer "root" (fun () ->
      Tracer.with_span tracer "hop" ~attrs:[ ("k", Tracer.Str "v") ] (fun () ->
          Tracer.set_attr tracer "n" (Tracer.Int 7);
          Tracer.mark_error tracer "soft failure"));
  let c = List.hd (Tracer.traces tracer) in
  Alcotest.(check bool) "trace errored" true c.Tracer.errored;
  let hop = find_span c "hop" in
  Alcotest.(check (option string)) "error recorded" (Some "soft failure") hop.Tracer.error;
  Alcotest.(check string) "attrs render in insertion order" "k=v,n=7"
    (Tracer.attrs_to_string hop.Tracer.attrs)

let test_exception_marks_error () =
  let tracer, _ = make ~sample_every:1000 () in
  (try
     Tracer.with_trace tracer "root" (fun () ->
         Tracer.with_span tracer "boom" (fun () -> failwith "kaput"))
   with Failure _ -> ());
  (* errored traces are always kept, even at 1-in-1000 sampling *)
  match Tracer.traces tracer with
  | [ c ] ->
      Alcotest.(check bool) "errored" true c.Tracer.errored;
      let boom = find_span c "boom" in
      Alcotest.(check bool) "exception text captured" true
        (match boom.Tracer.error with Some e -> e <> "" | None -> false)
  | l -> Alcotest.fail (Printf.sprintf "expected errored trace kept, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Tail sampling and the flight recorder                               *)
(* ------------------------------------------------------------------ *)

let test_sampling_one_in_n () =
  let tracer, _ = make ~sample_every:3 () in
  for _ = 1 to 7 do
    Tracer.with_trace tracer "t" (fun () -> ())
  done;
  Alcotest.(check int) "started" 7 (Tracer.started tracer);
  (* first completion sampled, then every third: traces 1, 4, 7 *)
  Alcotest.(check (list int)) "kept 1-in-3, newest first" [ 7; 4; 1 ]
    (List.map (fun (c : Tracer.completed) -> c.Tracer.id) (Tracer.traces tracer));
  Alcotest.(check int) "dropped the rest" 4 (Tracer.dropped tracer)

let test_slow_always_kept () =
  let tracer, t = make ~sample_every:1000 ~slow_threshold:0.05 () in
  Tracer.with_trace tracer "fast" (fun () -> ());
  (* the first trace is sampled by the 1-in-N discipline; the next fast
     one must be dropped while a slow one survives *)
  Tracer.with_trace tracer "fast2" (fun () -> ());
  Tracer.with_trace tracer "slow" (fun () -> t := !t +. 0.1);
  let roots =
    List.map (fun (c : Tracer.completed) -> c.Tracer.spans.(0).Tracer.name) (Tracer.traces tracer)
  in
  Alcotest.(check (list string)) "slow kept, unremarkable dropped" [ "slow"; "fast" ] roots

let test_ring_bounded () =
  let tracer, _ = make ~capacity:4 () in
  for _ = 1 to 10 do
    Tracer.with_trace tracer "t" (fun () -> ())
  done;
  Alcotest.(check int) "capacity" 4 (Tracer.capacity tracer);
  Alcotest.(check int) "ring holds the last 4" 4 (Tracer.kept tracer);
  Alcotest.(check (list int)) "newest first, oldest evicted" [ 10; 9; 8; 7 ]
    (List.map (fun (c : Tracer.completed) -> c.Tracer.id) (Tracer.traces tracer));
  Alcotest.(check bool) "find hits a kept trace" true (Tracer.find tracer 8 <> None);
  Alcotest.(check bool) "find misses an evicted trace" true (Tracer.find tracer 3 = None)

let test_untraced_path_touches_nothing () =
  let clock_reads = ref 0 in
  let tracer =
    Tracer.create
      ~metrics:(Hw_metrics.Registry.create ())
      ~now:(fun () ->
        incr clock_reads;
        0.)
      ()
  in
  clock_reads := 0;
  for _ = 1 to 100 do
    Alcotest.(check int) "value passes through" 41 (Tracer.with_span tracer "hot" (fun () -> 41))
  done;
  Alcotest.(check int) "no clock reads outside a trace" 0 !clock_reads;
  Alcotest.(check int) "nothing recorded" 0 (Tracer.kept tracer);
  (* the shared disabled tracer behaves the same, plus with_trace *)
  Alcotest.(check bool) "disabled is disabled" false (Tracer.enabled Tracer.disabled);
  Alcotest.(check int) "disabled with_trace passes through" 42
    (Tracer.with_trace Tracer.disabled "t" (fun () -> 42))

let test_invalid_args () =
  let reject f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "capacity 0 rejected" true
    (reject (fun () ->
         Tracer.create ~capacity:0 ~metrics:(Hw_metrics.Registry.create ()) ~now:(fun () -> 0.) ()));
  Alcotest.(check bool) "sample_every 0 rejected" true
    (reject (fun () ->
         Tracer.create ~sample_every:0 ~metrics:(Hw_metrics.Registry.create ()) ~now:(fun () -> 0.) ()))

(* ------------------------------------------------------------------ *)
(* Export: JSON escaping survives hostile span names and attrs         *)
(* ------------------------------------------------------------------ *)

let nasty = "a \"quoted\" \\back\\slash\ttab\nnewline \x01ctl"

let test_chrome_json_escaping () =
  let tracer, _ = make () in
  Tracer.with_trace tracer nasty ~attrs:[ (nasty, Tracer.Str nasty) ] (fun () -> ());
  let c = List.hd (Tracer.traces tracer) in
  let reparsed = Json.of_string (Json.to_string (Export.chrome_json c)) in
  let events = Json.get_list (Json.member "traceEvents" reparsed) in
  Alcotest.(check int) "one event" 1 (List.length events);
  let ev = List.hd events in
  Alcotest.(check string) "name round-trips" nasty (Json.get_string (Json.member "name" ev));
  Alcotest.(check string) "attr value round-trips" nasty
    (Json.get_string (Json.member nasty (Json.member "args" ev)));
  Alcotest.(check string) "complete event" "X" (Json.get_string (Json.member "ph" ev));
  (* and the plain listing too *)
  let reparsed = Json.of_string (Json.to_string (Export.trace_json c)) in
  let span = List.hd (Json.get_list (Json.member "spans" reparsed)) in
  Alcotest.(check string) "span name round-trips" nasty
    (Json.get_string (Json.member "name" span))

let test_chrome_json_timebase () =
  let tracer, t = make () in
  t := 2.5;
  Tracer.with_trace tracer "root" (fun () ->
      t := 2.75;
      Tracer.with_span tracer "child" (fun () -> t := 3.))
  ;
  let c = List.hd (Tracer.traces tracer) in
  let j = Export.chrome_json c in
  let events = Json.get_list (Json.member "traceEvents" j) in
  let root = List.hd events and child = List.nth events 1 in
  Alcotest.(check (float 1.)) "ts in microseconds" 2.5e6
    (Json.to_float (Json.member "ts" root));
  Alcotest.(check (float 1.)) "dur in microseconds" 0.5e6
    (Json.to_float (Json.member "dur" root));
  Alcotest.(check int) "child links its parent" 1
    (Json.to_int (Json.member "parent" (Json.member "args" child)))

(* ------------------------------------------------------------------ *)
(* The trace-stamping logger                                           *)
(* ------------------------------------------------------------------ *)

let test_log_stamps_trace () =
  let tracer, _ = make () in
  Log.use tracer;
  Log.set_output None;
  Log.info "before any trace";
  let id_inside = ref None in
  Tracer.with_trace tracer "root" (fun () ->
      id_inside := Tracer.trace_id tracer;
      Log.warn ~src:"test" "inside trace %d" (Option.get !id_inside));
  (match Log.recent () with
  | inside :: before :: _ ->
      Alcotest.(check (option int)) "stamped with the active trace" !id_inside
        inside.Log.trace;
      Alcotest.(check bool) "level kept" true (inside.Log.level = Log.Warn);
      Alcotest.(check string) "source kept" "test" inside.Log.src;
      Alcotest.(check (option int)) "no stamp outside a trace" None before.Log.trace
  | _ -> Alcotest.fail "expected two records in the ring");
  (* records below the threshold are discarded *)
  Log.set_level Log.Warn;
  let n = List.length (Log.recent ()) in
  Log.info "filtered out";
  Alcotest.(check int) "below-threshold record dropped" n (List.length (Log.recent ()));
  Log.set_level Log.Info;
  Log.use Tracer.disabled;
  Log.set_output (Some Format.err_formatter)

(* ------------------------------------------------------------------ *)
(* End to end: one DHCP handshake, one causal chain, three surfaces    *)
(* ------------------------------------------------------------------ *)

let test_home_trace_end_to_end () =
  let home = Home.standard_home ~seed:11 () in
  let r = Home.router home in
  (* hwdb RPC plane, as a visualisation UI would attach *)
  let from_router = Queue.create () in
  Router.set_rpc_send r (fun ~to_:_ data -> Queue.add data from_router);
  let client = Rpc.Client.create ~send:(fun d -> Router.rpc_datagram r ~from:"ui:9100" d) () in
  let published = ref [] in
  Rpc.Client.on_publish client (fun ~subscription:_ rs -> published := rs :: !published);
  let pump () =
    while not (Queue.is_empty from_router) do
      Rpc.Client.handle_datagram client (Queue.pop from_router)
    done
  in
  let sub_ok = ref false in
  Rpc.Client.request client "SUBSCRIBE SELECT trace_id, span, parent FROM Traces [NOW] EVERY 2 SECONDS"
    ~on_reply:(fun reply -> sub_ok := Result.is_ok reply);
  pump ();
  Alcotest.(check bool) "SUBSCRIBE ... FROM Traces accepted" true !sub_ok;
  Home.permit_all home;
  Home.run_for home 8.;
  pump ();
  (* 1. the flight recorder holds the DHCP grant's causal chain: packet-in
     rooted at the datapath, through controller dispatch and the DHCP
     handler, down to the hwdb Leases insert *)
  let tracer = Router.tracer r in
  let is_grant (c : Tracer.completed) =
    c.Tracer.spans.(0).Tracer.name = "dp.packet_in"
    && Array.exists
         (fun (s : Tracer.span) ->
           s.Tracer.name = "hwdb.insert"
           && List.exists (fun (k, v) -> k = "table" && v = Tracer.Str "Leases") s.Tracer.attrs)
         c.Tracer.spans
    && Array.exists (fun (s : Tracer.span) -> s.Tracer.name = "dhcp.handle") c.Tracer.spans
  in
  let grant =
    match List.find_opt is_grant (Tracer.traces tracer) with
    | Some c -> c
    | None -> Alcotest.fail "no DHCP-grant trace in the flight recorder"
  in
  Alcotest.(check bool) "at least 4 spans" true (Array.length grant.Tracer.spans >= 4);
  (* the chain is causally linked: each hop is a descendant of the root
     through its parent pointers *)
  let span_by_id id =
    Array.to_list grant.Tracer.spans
    |> List.find (fun (s : Tracer.span) -> s.Tracer.span_id = id)
  in
  let rec depth (s : Tracer.span) =
    if s.Tracer.parent = 0 then 0 else 1 + depth (span_by_id s.Tracer.parent)
  in
  let chain = [ "dp.packet_in"; "ctrl.dispatch"; "ctrl.handler.dhcp"; "dhcp.handle" ] in
  List.iteri
    (fun i name ->
      Alcotest.(check int) (name ^ " at causal depth") i (depth (find_span grant name)))
    chain;
  Alcotest.(check bool) "hwdb.insert under the dhcp handler" true
    (depth (find_span grant "hwdb.insert") > List.length chain - 1);
  (* 2. the hwdb Traces table: plain CQL and the RPC subscription both see
     the same rows *)
  let has_trace_row (rs : Query.result_set) =
    let cols = rs.Query.columns in
    List.exists
      (fun row ->
        match (List.assoc_opt "trace_id" (List.combine cols row),
               List.assoc_opt "span" (List.combine cols row)) with
        | Some (Value.Int id), Some (Value.Str span) ->
            id = grant.Tracer.id && span = "dhcp.handle"
        | _ -> false)
      rs.Query.rows
  in
  (match Database.query (Router.db r) "SELECT trace_id, span, parent FROM Traces [NOW]" with
  | Ok rs -> Alcotest.(check bool) "SELECT FROM Traces sees the grant" true (has_trace_row rs)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "subscription published the grant trace" true
    (List.exists has_trace_row !published);
  (* 3. the control API: the listing carries the trace, the detail is
     loadable Chrome trace-event JSON *)
  let resp = Router.http r (Http.request Http.GET "/traces") in
  Alcotest.(check int) "GET /traces ok" 200 resp.Http.status;
  let listing = Json.of_string resp.Http.body in
  Alcotest.(check bool) "listing has the grant trace" true
    (List.exists
       (fun s -> Json.to_int (Json.member "trace_id" s) = grant.Tracer.id)
       (Json.get_list listing));
  let resp =
    Router.http r (Http.request Http.GET (Printf.sprintf "/traces/%d" grant.Tracer.id))
  in
  Alcotest.(check int) "GET /traces/:id ok" 200 resp.Http.status;
  let chrome = Json.of_string resp.Http.body in
  Alcotest.(check string) "displayTimeUnit for the trace viewer" "ms"
    (Json.get_string (Json.member "displayTimeUnit" chrome));
  let events = Json.get_list (Json.member "traceEvents" chrome) in
  Alcotest.(check int) "every span became an event" (Array.length grant.Tracer.spans)
    (List.length events);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " exported") true
        (List.exists (fun e -> Json.get_string (Json.member "name" e) = name) events))
    chain;
  (* unknown ids are a 404, not a crash *)
  let resp = Router.http r (Http.request Http.GET "/traces/999999") in
  Alcotest.(check int) "unknown trace is 404" 404 resp.Http.status;
  let resp = Router.http r (Http.request Http.GET "/traces/nonsense") in
  Alcotest.(check int) "malformed id is 404" 404 resp.Http.status

(* The exported bytes of two first-packet traces in a running home: a
   DHCP join and an outbound TCP flow. For each pinned span, the Traces
   row's [attrs] column and the span's Chrome-JSON [args] object are
   compared as strings. The expected strings were recorded when every
   address attribute was rendered eagerly at the span site, so any change
   in how or when addresses are rendered must keep them byte-identical. *)

let golden_dhcp_join =
  [
    ( "dp.packet_in",
      "tp_dst=67,tp_src=68,nw_proto=17,nw_dst=255.255.255.255,nw_src=0.0.0.0,\
       eth_dst=ff:ff:ff:ff:ff:ff,eth_src=02:00:00:00:00:01,in_port=1,dpid=1",
      "{\"span_id\":1,\"parent\":0,\"tp_dst\":67,\"tp_src\":68,\"nw_proto\":17,\
       \"nw_dst\":\"255.255.255.255\",\"nw_src\":\"0.0.0.0\",\"eth_dst\":\"ff:ff:ff:ff:ff:ff\",\
       \"eth_src\":\"02:00:00:00:00:01\",\"in_port\":1,\"dpid\":1}" );
    ( "dhcp.handle",
      "mac=02:00:00:00:00:01,msg_type=request,dhcp.event=grant 02:00:00:00:00:01 -> 10.0.0.100",
      "{\"span_id\":4,\"parent\":3,\"mac\":\"02:00:00:00:00:01\",\"msg_type\":\"request\",\
       \"dhcp.event\":\"grant 02:00:00:00:00:01 -> 10.0.0.100\"}" );
  ]

let golden_tcp_flow =
  [
    ( "dp.packet_in",
      "tp_dst=443,tp_src=40003,nw_proto=6,nw_dst=93.184.216.11,nw_src=10.0.0.100,\
       eth_dst=02:ff:ff:ff:ff:fe,eth_src=02:00:00:00:00:01,in_port=1,dpid=1",
      "{\"span_id\":1,\"parent\":0,\"tp_dst\":443,\"tp_src\":40003,\"nw_proto\":6,\
       \"nw_dst\":\"93.184.216.11\",\"nw_src\":\"10.0.0.100\",\"eth_dst\":\"02:ff:ff:ff:ff:fe\",\
       \"eth_src\":\"02:00:00:00:00:01\",\"in_port\":1,\"dpid\":1}" );
    ( "dns.flow_check",
      "src=10.0.0.100,dst=93.184.216.11,verdict=allow",
      "{\"span_id\":6,\"parent\":5,\"src\":\"10.0.0.100\",\"dst\":\"93.184.216.11\",\
       \"verdict\":\"allow\"}" );
  ]

let test_home_trace_export_golden () =
  let home = Home.standard_home ~seed:11 () in
  let r = Home.router home in
  Home.permit_all home;
  Home.run_for home 8.;
  let rows =
    match
      Database.query (Router.db r) "SELECT trace_id, span_id, span, attrs FROM Traces [NOW]"
    with
    | Ok rs -> rs.Query.rows
    | Error e -> Alcotest.fail e
  in
  let attrs_column id span_id =
    match
      List.find_map
        (function
          | [ Value.Int t; Value.Int s; _; Value.Str a ] when t = id && s = span_id -> Some a
          | _ -> None)
        rows
    with
    | Some a -> a
    | None -> Alcotest.failf "trace %d span %d has no Traces row" id span_id
  in
  (* oldest first: the first qualifying trace is the same run to run *)
  let in_table =
    List.rev (Tracer.traces (Router.tracer r))
    |> List.filter (fun (c : Tracer.completed) ->
           List.exists (function Value.Int t :: _ -> t = c.Tracer.id | _ -> false) rows)
  in
  let has_attr (c : Tracer.completed) span key pred =
    Array.exists
      (fun (s : Tracer.span) ->
        s.Tracer.name = span
        && List.exists (fun (k, v) -> k = key && pred (Tracer.attr_to_string v)) s.Tracer.attrs)
      c.Tracer.spans
  in
  let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p in
  let pick what f =
    match List.find_opt f in_table with
    | Some c -> c
    | None -> Alcotest.failf "no %s trace in the exported Traces table" what
  in
  let join = pick "DHCP join" (fun c -> has_attr c "dhcp.handle" "dhcp.event" (starts_with "grant ")) in
  let flow =
    pick "outbound TCP flow" (fun c ->
        has_attr c "dp.packet_in" "nw_proto" (String.equal "6")
        && Array.exists (fun (s : Tracer.span) -> s.Tracer.name = "dns.flow_check") c.Tracer.spans)
  in
  let chrome_events (c : Tracer.completed) =
    let resp = Router.http r (Http.request Http.GET (Printf.sprintf "/traces/%d" c.Tracer.id)) in
    Alcotest.(check int) "GET /traces/:id ok" 200 resp.Http.status;
    Json.get_list (Json.member "traceEvents" (Json.of_string resp.Http.body))
  in
  let actual (c : Tracer.completed) names =
    let events = chrome_events c in
    List.map
      (fun name ->
        let s = find_span c name in
        let args =
          match
            List.find_opt
              (fun e ->
                Json.get_string (Json.member "name" e) = name
                && Json.to_int (Json.member "span_id" (Json.member "args" e)) = s.Tracer.span_id)
              events
          with
          | Some e -> Json.to_string (Json.member "args" e)
          | None -> Alcotest.failf "span %s not in the Chrome JSON" name
        in
        (name, attrs_column c.Tracer.id s.Tracer.span_id, args))
      names
  in
  let show = List.map (fun (n, a, j) -> Printf.sprintf "%s\n  attrs=%s\n  args=%s" n a j) in
  Alcotest.(check (list string)) "DHCP join export" (show golden_dhcp_join)
    (show (actual join [ "dp.packet_in"; "dhcp.handle" ]));
  Alcotest.(check (list string)) "outbound TCP flow export" (show golden_tcp_flow)
    (show (actual flow [ "dp.packet_in"; "dns.flow_check" ]))

(* ------------------------------------------------------------------ *)
(* Cross-node propagation and off-stack assembly                       *)
(* ------------------------------------------------------------------ *)

let test_remote_trace_adopts_context () =
  let tracer, t = make () in
  let result =
    Tracer.with_remote_trace tracer ~trace_id:0xBEEF ~parent_span:42 "rpc.request"
      (fun () ->
        t := !t +. 0.001;
        Tracer.with_span tracer "db.query" (fun () -> 7))
  in
  Alcotest.(check int) "body ran" 7 result;
  match Tracer.traces tracer with
  | [ c ] ->
      Alcotest.(check int) "propagated trace id kept" 0xBEEF c.Tracer.id;
      let root = c.Tracer.spans.(0) in
      Alcotest.(check string) "root name" "rpc.request" root.Tracer.name;
      Alcotest.(check int) "root parent is the remote span" 42 root.Tracer.parent;
      Alcotest.(check int) "local span ids stay dense" 2
        (find_span c "db.query").Tracer.span_id;
      Alcotest.(check bool) "find by propagated id" true
        (Tracer.find tracer 0xBEEF <> None)
  | l -> Alcotest.failf "expected 1 trace, got %d" (List.length l)

let test_remote_trace_degrades () =
  let tracer, _t = make () in
  (* trace_id <= 0: behaves as a local with_trace *)
  Tracer.with_remote_trace tracer ~trace_id:0 ~parent_span:9 "r" (fun () -> ());
  (match Tracer.traces tracer with
  | [ c ] ->
      Alcotest.(check bool) "locally allocated id" true (c.Tracer.id > 0);
      Alcotest.(check int) "root has no parent" 0 c.Tracer.spans.(0).Tracer.parent
  | _ -> Alcotest.fail "expected 1 trace");
  Tracer.clear tracer;
  (* inside an active trace: degrades to a child span, no second trace *)
  Tracer.with_trace tracer "outer" (fun () ->
      Tracer.with_remote_trace tracer ~trace_id:0xABC ~parent_span:3 "inner" (fun () -> ()));
  match Tracer.traces tracer with
  | [ c ] ->
      Alcotest.(check bool) "kept the local id" true (c.Tracer.id <> 0xABC);
      Alcotest.(check int) "inner nested as child" 1 (find_span c "inner").Tracer.parent
  | l -> Alcotest.failf "expected 1 trace, got %d" (List.length l)

module Builder = Hw_trace.Builder

let test_builder_assembles_off_stack () =
  let tracer, t = make () in
  let b = Builder.start tracer "fleet.query" ~attrs:[ ("routers", Tracer.Int 3) ] in
  Alcotest.(check bool) "active" true (Builder.active b);
  Alcotest.(check bool) "trace id allocated" true (Builder.id b > 0);
  Alcotest.(check int) "root is span 1" 1 (Builder.root b);
  (* two spans open at once, closed out of order — the callback shape *)
  let a = Builder.open_span b "fleet.rpc" ~attrs:[ ("router", Tracer.Str "r0") ] in
  let c = Builder.open_span b "fleet.rpc" ~attrs:[ ("router", Tracer.Str "r1") ] in
  t := !t +. 0.002;
  Builder.close_span b c;
  Builder.mark_error b a "timeout";
  Builder.close_span b a;
  (* attrs may settle after close (final retry count) *)
  Builder.set_attr b a "attempts" (Tracer.Int 4);
  Builder.finish b;
  Builder.finish b (* idempotent *);
  Alcotest.(check bool) "inactive after finish" false (Builder.active b);
  Alcotest.(check int) "finished builder opens nothing" 0 (Builder.open_span b "late");
  match Tracer.find tracer (Builder.id b) with
  | None -> Alcotest.fail "builder trace not recorded"
  | Some tr ->
      Alcotest.(check int) "three spans" 3 (Array.length tr.Tracer.spans);
      Alcotest.(check bool) "trace errored" true tr.Tracer.errored;
      let sa = Array.to_list tr.Tracer.spans |> List.find (fun s -> s.Tracer.span_id = a) in
      Alcotest.(check (option string)) "error mark" (Some "timeout") sa.Tracer.error;
      Alcotest.(check bool) "post-close attr present" true
        (List.mem_assoc "attempts" sa.Tracer.attrs);
      Alcotest.(check int) "children parent the root" 1 sa.Tracer.parent

let test_builder_inert_when_disabled () =
  let b = Builder.start Tracer.disabled "x" in
  Alcotest.(check int) "id 0" 0 (Builder.id b);
  Alcotest.(check int) "root 0" 0 (Builder.root b);
  Alcotest.(check bool) "never active" false (Builder.active b);
  let s = Builder.open_span b "y" in
  Alcotest.(check int) "open returns 0" 0 s;
  Builder.set_attr b s "k" (Tracer.Int 1);
  Builder.mark_error b s "e";
  Builder.close_span b s;
  Builder.finish b (* none of the above may raise *)

let () =
  Alcotest.run "hw_trace"
    [
      ( "recording",
        [
          Alcotest.test_case "nesting and parents" `Quick test_nesting;
          Alcotest.test_case "re-entrant with_trace" `Quick test_reentrant_trace;
          Alcotest.test_case "attrs and mark_error" `Quick test_attrs_and_error;
          Alcotest.test_case "exception marks error" `Quick test_exception_marks_error;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "1-in-N tail sampling" `Quick test_sampling_one_in_n;
          Alcotest.test_case "slow always kept" `Quick test_slow_always_kept;
          Alcotest.test_case "ring bounded" `Quick test_ring_bounded;
          Alcotest.test_case "untraced path is inert" `Quick test_untraced_path_touches_nothing;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json escaping" `Quick test_chrome_json_escaping;
          Alcotest.test_case "chrome json timebase" `Quick test_chrome_json_timebase;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "remote trace adopts context" `Quick
            test_remote_trace_adopts_context;
          Alcotest.test_case "remote trace degrades" `Quick test_remote_trace_degrades;
          Alcotest.test_case "builder assembles off-stack" `Quick
            test_builder_assembles_off_stack;
          Alcotest.test_case "builder inert when disabled" `Quick
            test_builder_inert_when_disabled;
        ] );
      ( "log",
        [ Alcotest.test_case "stamps trace id" `Quick test_log_stamps_trace ] );
      ( "end to end",
        [
          Alcotest.test_case "home dhcp causal chain" `Quick test_home_trace_end_to_end;
          Alcotest.test_case "home export golden" `Quick test_home_trace_export_golden;
        ] );
    ]
