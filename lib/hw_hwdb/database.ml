let log_src = Logs.Src.create "hw.hwdb" ~doc:"Homework Database"

module Log = (val Logs.src_log log_src : Logs.LOG)

type subscription_id = int

(* One standing query's evaluation state, shared (refcounted) by every
   subscription with the same canonical query text. *)
type view = {
  v_select : Ast.select;
  mutable v_refs : int;
  mutable v_mode : view_mode;
  mutable v_stamp : int; (* tick generation of v_last *)
  mutable v_last : (Query.result_set, string) result;
}

and view_mode =
  | V_unprepared of string (* prepare failed (e.g. table not yet created); retried per tick *)
  | V_scan of Plan.t (* join plans: compiled, but re-executed per tick *)
  | V_inc of Plan.Inc.t * Table.hook_id (* incrementally maintained off the insert stream *)

type subscription = {
  sub_id : subscription_id;
  sub_view_key : string;
  sub_view : view;
  period : float;
  callback : Query.result_set -> unit;
  mutable next_due : float;
}

type trigger_id = int

(* a live trigger: dropping it detaches its hook from the watched table *)
type trigger = { trig_id : trigger_id; trig_table : Table.t; trig_hook : Table.hook_id }

module Tracer = Hw_trace.Tracer
module Snapshot = Hw_metrics.Snapshot

type t = {
  now : unit -> float;
  trace : Tracer.t;
  default_capacity : int;
  tables : (string, Table.t) Hashtbl.t;
  subs : (subscription_id, subscription) Hashtbl.t;
  views : (string, view) Hashtbl.t; (* by canonical select text *)
  plan_cache : (string, Plan.t) Hashtbl.t; (* by raw query text *)
  plan_order : string Queue.t; (* FIFO eviction order *)
  plan_cache_cap : int;
  (* interned-statement fast path: an in-process caller that re-issues
     one string value (PERF10's loop, the examples) skips even the cache
     hash with a physical-equality check on the last-executed text. An
     RPC statement is freshly decoded each time, so it never hits here;
     it hits the table. *)
  mutable plan_memo : (string * Plan.t) option;
  mutable tick_gen : int;
  mutable next_sub_id : int;
  mutable triggers : trigger list;
  mutable next_trigger_id : int;
  mutable trigger_depth : int;
  (* durable tables' logs, in declaration order; flushed (group commit)
     at the top of every tick *)
  mutable wals : (string * Hw_wal.Wal.t) list;
  (* the rendered Metrics export, re-stamped every tick: instrument [i]
     owns rows [metric_first.(i)] to [metric_first.(i + 1) - 1] of
     [metric_rows], which are in Snapshot.rows order, and they were
     built when its version read [metric_versions.(i)] *)
  mutable metric_instruments : Hw_metrics.Registry.instrument array; (* registration order *)
  mutable metric_versions : int array;
  mutable metric_first : int array; (* one entry more than instruments *)
  mutable metric_rows : Value.t array array;
  (* the rendered Traces export: the rows of the trace the recorder
     pushed at position [p] sit at [trace_blocks.(p mod capacity)], for
     every [p] from [traces_lo] to [traces_synced - 1] *)
  trace_blocks : Value.t array array array;
  mutable traces_lo : int;
  mutable traces_synced : int;
  metrics : Hw_metrics.Registry.t;
  m_inserts : Hw_metrics.Counter.t;
  m_insert_errors : Hw_metrics.Counter.t;
  m_queries : Hw_metrics.Counter.t;
  m_query_errors : Hw_metrics.Counter.t;
  m_sub_evals : Hw_metrics.Counter.t;
  m_trigger_fires : Hw_metrics.Counter.t;
  m_ticks : Hw_metrics.Counter.t;
  m_plan_hits : Hw_metrics.Counter.t;
  m_plan_misses : Hw_metrics.Counter.t;
  m_plan_evictions : Hw_metrics.Counter.t;
  (* lazy: a router whose hwdb never sees an insert/query (the common
     case in a mostly-idle fleet) never materializes the 40-bucket
     latency histograms *)
  m_insert_span : Hw_metrics.Sampled.t Lazy.t;
  m_query_span : Hw_metrics.Sampled.t Lazy.t;
}

let flows_schema =
  [
    ("proto", Value.T_int);
    ("src_ip", Value.T_str);
    ("dst_ip", Value.T_str);
    ("src_port", Value.T_int);
    ("dst_port", Value.T_int);
    ("packets", Value.T_int);
    ("bytes", Value.T_int);
  ]

let links_schema =
  [
    ("mac", Value.T_str);
    ("rssi", Value.T_int);
    ("retries", Value.T_int);
    ("packets", Value.T_int);
  ]

let leases_schema =
  [
    ("mac", Value.T_str);
    ("ip", Value.T_str);
    ("hostname", Value.T_str);
    ("action", Value.T_str);
  ]

(* the declared control plane: policy rules, device groups and DHCP
   permission tokens, recorded as (kind, id, payload, action) events
   where action is set | remove — replayed at recovery to rebuild the
   policy engine *)
let policies_schema =
  [
    ("kind", Value.T_str);
    ("id", Value.T_str);
    ("payload", Value.T_str);
    ("action", Value.T_str);
  ]

(* the self-describing schema of the Metrics export table *)
let metrics_schema =
  [ ("name", Value.T_str); ("kind", Value.T_str); ("stat", Value.T_str); ("value", Value.T_real) ]

(* one row per span of each flight-recorded trace *)
let traces_schema =
  [
    ("trace_id", Value.T_int);
    ("span_id", Value.T_int);
    ("parent", Value.T_int);
    ("span", Value.T_str);
    ("start", Value.T_real);
    ("dur", Value.T_real);
    ("attrs", Value.T_str);
    ("error", Value.T_str);
  ]

let create_empty ?(default_capacity = 4096) ?(metrics = Hw_metrics.Registry.default)
    ?(trace = Tracer.disabled) ~now () =
  let counter = Hw_metrics.Registry.counter metrics in
  {
    now;
    trace;
    default_capacity;
    tables = Hashtbl.create 8;
    subs = Hashtbl.create 16;
    views = Hashtbl.create 16;
    plan_cache = Hashtbl.create 64;
    plan_order = Queue.create ();
    plan_cache_cap = 128;
    plan_memo = None;
    tick_gen = 0;
    next_sub_id = 1;
    triggers = [];
    next_trigger_id = 1;
    trigger_depth = 0;
    wals = [];
    metric_instruments = [||];
    metric_versions = [||];
    metric_first = [| 0 |];
    metric_rows = [||];
    trace_blocks = Array.make (if Tracer.enabled trace then Tracer.capacity trace else 0) [||];
    traces_lo = 0;
    traces_synced = 0;
    metrics;
    m_inserts = counter ~help:"hwdb rows inserted" "hwdb_inserts_total";
    m_insert_errors = counter ~help:"hwdb inserts refused" "hwdb_insert_errors_total";
    m_queries = counter ~help:"hwdb SELECTs executed" "hwdb_queries_total";
    m_query_errors = counter ~help:"hwdb SELECTs that failed" "hwdb_query_errors_total";
    m_sub_evals =
      counter ~help:"continuous-query evaluations on tick" "hwdb_subscription_evals_total";
    m_trigger_fires = counter ~help:"ECA trigger actions fired" "hwdb_trigger_fires_total";
    m_ticks = counter ~help:"database ticks" "hwdb_ticks_total";
    (* registered up front so the family scrapes at zero before the
       first prepared statement runs *)
    m_plan_hits = counter ~help:"prepared-plan cache hits" "hwdb_plan_cache_hits_total";
    m_plan_misses = counter ~help:"prepared-plan cache misses" "hwdb_plan_cache_misses_total";
    m_plan_evictions =
      counter ~help:"prepared plans evicted (FIFO, bounded cache)"
        "hwdb_plan_cache_evictions_total";
    m_insert_span =
      lazy
        (Hw_metrics.Registry.sampled_histogram metrics ~help:"insert latency (sampled 1/32)"
           ~every:32 "hwdb_insert_seconds");
    m_query_span =
      lazy
        (Hw_metrics.Registry.sampled_histogram metrics ~help:"query latency (sampled 1/8)"
           ~every:8 "hwdb_query_seconds");
  }

let create_table t ~name ?capacity schema =
  if Hashtbl.mem t.tables name then Error (Printf.sprintf "table %s already exists" name)
  else if schema = [] then Error "schema cannot be empty"
  else begin
    let capacity = Option.value capacity ~default:t.default_capacity in
    let table = Table.create ~name ~capacity schema in
    Hashtbl.replace t.tables name table;
    Ok table
  end

(* Wire a table to its WAL: recover snapshot + tail into the ring, then
   install the insert hook that logs every later row. The hook goes in
   after replay (and [Table.restore] fires no triggers anyway), so
   recovered rows are never re-logged. *)
let make_durable ?interpose ?wal_max_pending t ~store name =
  match Hashtbl.find_opt t.tables name with
  | None -> failwith (Printf.sprintf "durable table %s does not exist" name)
  | Some tbl ->
      (* snapshot every 4x ring capacity: the log stays bounded by live
         state (at most 4 rings of records before truncation) while the
         amortized snapshot cost per durable insert — rendering the whole
         ring — drops 4x, keeping the insert overhead inside its budget *)
      let wal, (recovered : Hw_wal.Wal.recovered) =
        Hw_wal.Wal.open_ ~metrics:t.metrics ?interpose
          ?max_pending:wal_max_pending
          ~snapshot_every:(4 * Table.capacity tbl) ~store ~name ()
      in
      let restore_payload what payload =
        match Wal_codec.decode_row payload with
        | Some row -> Table.restore tbl row
        | None ->
            (* passed its CRC yet unreadable: a codec bug, not a torn
               tail — skip the row, keep the table *)
            Log.err (fun m -> m "%s: undecodable %s row dropped" name what)
      in
      (match recovered.snapshot with
      | None -> ()
      | Some blob -> (
          match Wal_codec.decode_rows blob with
          | Some rows -> List.iter (Table.restore tbl) rows
          | None -> Log.err (fun m -> m "%s: undecodable snapshot dropped" name)));
      List.iter (restore_payload "log") recovered.records;
      Table.set_durable tbl true;
      Hw_wal.Wal.set_snapshot_source wal (fun () ->
          Wal_codec.encode_rows (Table.scan tbl));
      Table.on_insert tbl (fun tuple ->
          (* encode straight into the framed record: one allocation per
             durable insert, no intermediate payload string *)
          Hw_wal.Wal.append_with wal ~size:(Wal_codec.row_size tuple)
            (fun b pos -> ignore (Wal_codec.blit_row b pos tuple : int)));
      t.wals <- t.wals @ [ (name, wal) ]

let create ?default_capacity ?metrics ?trace
    ?(durable = [ "Leases"; "Policies" ]) ?recover_from ?wal_interpose
    ?wal_max_pending ~now () =
  let t = create_empty ?default_capacity ?metrics ?trace ~now () in
  List.iter
    (fun (name, schema) ->
      match create_table t ~name schema with
      | Ok _ -> ()
      | Error msg -> failwith msg)
    [
      ("Flows", flows_schema);
      ("Links", links_schema);
      ("Leases", leases_schema);
      ("Policies", policies_schema);
      ("Metrics", metrics_schema);
      ("Traces", traces_schema);
    ];
  (match recover_from with
  | None -> ()
  | Some store ->
      List.iter
        (make_durable ?interpose:wal_interpose ?wal_max_pending t ~store)
        durable);
  t

let flush_wal t = List.iter (fun (_, wal) -> Hw_wal.Wal.flush wal) t.wals
let wal t name = List.assoc_opt name t.wals
let table t name = Hashtbl.find_opt t.tables name
let table_names t = Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [] |> List.sort compare
let metrics t = t.metrics
let tracer t = t.trace
let clock t = t.now

let insert_into t tbl row =
  Hw_metrics.Counter.incr t.m_inserts;
  (* branch on [due] rather than wrapping in observe_span: inserts
     are the hottest write path and must not allocate a closure *)
  let res =
    let span = Lazy.force t.m_insert_span in
    if Hw_metrics.Sampled.due span then begin
      let t0 = t.now () in
      let res = Table.insert_row tbl ~now:t0 row in
      Hw_metrics.Histogram.observe (Hw_metrics.Sampled.histogram span) (t.now () -. t0);
      res
    end
    else Table.insert_row tbl ~now:(t.now ()) row
  in
  match res with
  | Ok () as ok -> ok
  | Error msg as e ->
      Hw_metrics.Counter.incr t.m_insert_errors;
      Tracer.mark_error t.trace msg;
      e

let insert_row t ~table:name row =
  match table t name with
  | None ->
      Hw_metrics.Counter.incr t.m_insert_errors;
      Error (Printf.sprintf "unknown table %s" name)
  | Some tbl ->
      (* same discipline as the sampler: the untraced insert path must
         not allocate the span closure *)
      if Tracer.in_trace t.trace then
        Tracer.with_span t.trace "hwdb.insert"
          ~attrs:[ ("table", Tracer.Str name) ]
          (fun () -> insert_into t tbl row)
      else insert_into t tbl row

let insert t ~table values = insert_row t ~table (Array.of_list values)

(* -- prepared statements -------------------------------------------- *)

(* Every SELECT executes as a compiled plan. Plans are cached by the raw
   statement text (bounded FIFO), so repeated query text — the RPC
   server's steady state, and the fleet manager's fan-out — skips both
   the parse and the prepare. *)

let exec_plan t plan =
  Hw_metrics.Counter.incr t.m_queries;
  match
    Hw_metrics.Sampled.observe_span (Lazy.force t.m_query_span) ~now:t.now (fun () ->
        Plan.exec plan ~now:(t.now ()))
  with
  | Ok _ as ok -> ok
  | Error _ as e ->
      Hw_metrics.Counter.incr t.m_query_errors;
      e

let cache_plan t text plan =
  if not (Hashtbl.mem t.plan_cache text) then begin
    Hashtbl.replace t.plan_cache text plan;
    Queue.add text t.plan_order;
    if Queue.length t.plan_order > t.plan_cache_cap then begin
      let victim = Queue.pop t.plan_order in
      Hashtbl.remove t.plan_cache victim;
      t.plan_memo <- None (* the memo must never outlive the cache entry *);
      Hw_metrics.Counter.incr t.m_plan_evictions
    end
  end

(* Prepare [sel], caching the plan under [text] on success. Only
   successful prepares are cached: a statement that fails because its
   table does not exist yet must re-prepare after CREATE TABLE. *)
let prepare_and_exec t ~text sel =
  Hw_metrics.Counter.incr t.m_plan_misses;
  match Plan.prepare ~lookup:(table t) sel with
  | Error msg ->
      Hw_metrics.Counter.incr t.m_queries;
      Hw_metrics.Counter.incr t.m_query_errors;
      Error msg
  | Ok plan ->
      Option.iter (fun txt -> cache_plan t txt plan) text;
      exec_plan t plan

let cached_select t src =
  let run plan =
    Hw_metrics.Counter.incr t.m_plan_hits;
    Some (exec_plan t plan)
  in
  match t.plan_memo with
  | Some (text, plan) when text == src -> run plan
  | _ -> (
      match Hashtbl.find_opt t.plan_cache src with
      | None -> None
      | Some plan ->
          t.plan_memo <- Some (src, plan);
          run plan)

let query t src =
  match cached_select t src with
  | Some r -> r
  | None -> (
      match Parser.parse_select src with
      | Error _ as e -> e
      | Ok sel -> prepare_and_exec t ~text:(Some src) sel)

let plan_cache_stats t =
  Hw_metrics.Counter.
    (value t.m_plan_hits, value t.m_plan_misses, value t.m_plan_evictions)

(* ------------------------------------------------------------------ *)
(* ECA triggers                                                        *)
(* ------------------------------------------------------------------ *)

let max_trigger_depth = 8

(* [f] over a list, left to right, stopping at the first error *)
let rec map_ok f = function
  | [] -> Ok []
  | x :: rest -> Result.bind (f x) (fun y -> Result.map (fun ys -> y :: ys) (map_ok f rest))

let create_trigger t ~watch ?condition ~target ~values () =
  match table t watch, table t target with
  | None, _ -> Error (Printf.sprintf "unknown table %s" watch)
  | _, None -> Error (Printf.sprintf "unknown table %s" target)
  | Some watch_table, Some target_table -> (
      if values = [] then Error "trigger action needs at least one value"
      else if List.length values <> Value.schema_arity (Table.schema target_table) then
        Error
          (Printf.sprintf "trigger action arity %d does not match %s's %d columns"
             (List.length values) target
             (Value.schema_arity (Table.schema target_table)))
      else
        let compile = map_ok (Plan.compile_row watch_table) in
        match compile (Option.to_list condition), compile values with
        | (Error _ as e), _ | _, (Error _ as e) -> e
        | Ok condition, Ok values ->
            let id = t.next_trigger_id in
            t.next_trigger_id <- id + 1;
            let hook =
              Table.add_hook watch_table (fun tuple ->
                  if t.trigger_depth >= max_trigger_depth then
                    Log.warn (fun m -> m "trigger %d: chain depth exceeded, skipping" id)
                  else begin
                    t.trigger_depth <- t.trigger_depth + 1;
                    Fun.protect
                      ~finally:(fun () -> t.trigger_depth <- t.trigger_depth - 1)
                      (fun () ->
                        let row = Array.append [| Value.Ts tuple.Value.ts |] tuple.Value.values in
                        let fire =
                          match condition with
                          | [] -> Ok true
                          | c :: _ -> (
                              match c row with
                              | Ok (Value.Bool b) -> Ok b
                              | Ok v ->
                                  Error
                                    (Printf.sprintf "condition is not boolean: %s"
                                       (Value.to_string v))
                              | Error _ as e -> e)
                        in
                        match fire with
                        | Ok false -> ()
                        | Error msg -> Log.warn (fun m -> m "trigger %d: %s" id msg)
                        | Ok true ->
                            Hw_metrics.Counter.incr t.m_trigger_fires;
                            Tracer.with_span t.trace "hwdb.trigger"
                              ~attrs:
                                (if Tracer.in_trace t.trace then
                                   [
                                     ("trigger_id", Tracer.Int id);
                                     ("target", Tracer.Str target);
                                   ]
                                 else [])
                              (fun () ->
                            match map_ok (fun f -> f row) values with
                            | Error msg -> Log.warn (fun m -> m "trigger %d: %s" id msg)
                            | Ok vs -> (
                                match Table.insert target_table ~now:(t.now ()) vs with
                                | Ok () -> ()
                                | Error msg -> Log.warn (fun m -> m "trigger %d: %s" id msg))))
                  end)
            in
            t.triggers <-
              { trig_id = id; trig_table = watch_table; trig_hook = hook } :: t.triggers;
            Ok id)

let drop_trigger t id =
  match List.find_opt (fun trig -> trig.trig_id = id) t.triggers with
  | Some trig ->
      Table.remove_hook trig.trig_table trig.trig_hook;
      t.triggers <- List.filter (fun other -> other != trig) t.triggers;
      true
  | None -> false

let trigger_count t = List.length t.triggers

(* -- standing-query views ------------------------------------------- *)

(* Attach the view's evaluation machinery: an incremental state fed off
   the table's insert hook when the plan reads one table, a compiled
   plan re-executed per tick for joins. A failed prepare (table not
   created yet) stays unprepared and is retried on each evaluation, so a
   subscription installed before CREATE TABLE starts answering the
   moment the table appears — the interpreter behaved the same way. *)
let install_view_mode t v =
  match Plan.prepare ~lookup:(table t) v.v_select with
  | Error msg -> v.v_mode <- V_unprepared msg
  | Ok plan -> (
      match Plan.Inc.create plan with
      | None -> v.v_mode <- V_scan plan
      | Some inc ->
          let hook = Table.add_hook (Plan.Inc.table inc) (fun tu -> Plan.Inc.observe inc tu) in
          v.v_mode <- V_inc (inc, hook))

let acquire_view t sel =
  let key = Ast.to_string (Ast.Select sel) in
  match Hashtbl.find_opt t.views key with
  | Some v ->
      v.v_refs <- v.v_refs + 1;
      (key, v)
  | None ->
      let v =
        {
          v_select = sel;
          v_refs = 1;
          v_mode = V_unprepared "unprepared";
          v_stamp = 0;
          v_last = Error "unevaluated";
        }
      in
      install_view_mode t v;
      Hashtbl.replace t.views key v;
      (key, v)

let release_view t key v =
  v.v_refs <- v.v_refs - 1;
  if v.v_refs <= 0 then begin
    (match v.v_mode with
    | V_inc (inc, hook) -> Table.remove_hook (Plan.Inc.table inc) hook
    | V_unprepared _ | V_scan _ -> ());
    Hashtbl.remove t.views key
  end

(* One evaluation per view per tick: the first due subscriber computes,
   every later one (and every other subscription sharing the view)
   receives the identical same-instant snapshot. *)
let view_result t v ~now =
  if v.v_stamp = t.tick_gen then v.v_last
  else begin
    Hw_metrics.Counter.incr t.m_sub_evals;
    (match v.v_mode with V_unprepared _ -> install_view_mode t v | V_scan _ | V_inc _ -> ());
    let r =
      match v.v_mode with
      | V_unprepared msg -> Error msg
      | V_scan plan -> Plan.exec plan ~now
      | V_inc (inc, _) -> Plan.Inc.result inc ~now
    in
    v.v_stamp <- t.tick_gen;
    v.v_last <- r;
    r
  end

let subscribe t ~query ~period ~callback =
  let id = t.next_sub_id in
  t.next_sub_id <- id + 1;
  let sub_view_key, sub_view = acquire_view t query in
  let sub =
    { sub_id = id; sub_view_key; sub_view; period; callback; next_due = t.now () +. period }
  in
  Hashtbl.replace t.subs id sub;
  id

let unsubscribe t id =
  match Hashtbl.find_opt t.subs id with
  | None -> false
  | Some sub ->
      Hashtbl.remove t.subs id;
      release_view t sub.sub_view_key sub.sub_view;
      true

let subscription_count t = Hashtbl.length t.subs

(* -- telemetry export ---------------------------------------------- *)

(* Every tick the Metrics and Traces tables re-export the registry and the
   flight recorder, each batch stamped with one instant so
   [SELECT ... FROM Metrics|Traces [NOW]] reads one coherent dump. A row
   is rendered and validated once and then re-stamped through
   Table.append_rows, which stores the cached array again with a new
   stamp, so a tick costs the rendering of what changed since the last
   one, plus a tuple per exported row only while the table has insert
   hooks. The export bypasses [insert]: it must neither count as
   database load nor re-enter the tracer.

   A row's validity depends only on its cells' types, and every row of
   one export has the same types, so a trace's or an instrument's rows
   are kept all or none. *)

let all_valid tbl ~what rows =
  let schema = Table.schema tbl in
  let rec check i =
    i >= Array.length rows
    ||
    match Value.validate schema rows.(i) with
    | Ok () -> check (i + 1)
    | Error msg ->
        Log.warn (fun m -> m "%s refresh: %s" what msg);
        false
  in
  check 0

let render_metric tbl ((_, instrument) as entry) =
  let sh = Snapshot.shape entry in
  let metric = Value.Str sh.sh_metric and kind = Value.Str sh.sh_kind in
  let rows =
    Array.of_list
      (List.mapi
         (fun i stat ->
           [| metric; kind; Value.Str stat; Value.Real (Snapshot.stat_value instrument i) |])
         sh.sh_stats)
  in
  if all_valid tbl ~what:"metrics" rows then rows else [||]

(* a registry only grows, at the end of its registration order *)
let render_new_metrics t tbl =
  let known = Array.length t.metric_instruments in
  let fresh =
    Array.of_list
      (List.filteri (fun i _ -> i >= known) (Hw_metrics.Registry.instruments t.metrics))
  in
  let blocks = Array.map (render_metric tbl) fresh in
  let first = Array.make (Array.length fresh) 0 in
  let next = ref t.metric_first.(known) in
  Array.iteri
    (fun i rows ->
      next := !next + Array.length rows;
      first.(i) <- !next)
    blocks;
  t.metric_instruments <- Array.append t.metric_instruments (Array.map snd fresh);
  t.metric_versions <-
    Array.append t.metric_versions (Array.map (fun (_, i) -> Snapshot.version i) fresh);
  t.metric_first <- Array.append t.metric_first first;
  t.metric_rows <- Array.concat (t.metric_rows :: Array.to_list blocks)

(* A moved instrument's rows are built again in place; the metric, kind
   and stat cells are shared with the old rows, which the table may
   still hold, so each row is a new array. *)
let reread_metric t i =
  let instrument = t.metric_instruments.(i) in
  let first = t.metric_first.(i) in
  for r = first to t.metric_first.(i + 1) - 1 do
    let old = t.metric_rows.(r) in
    t.metric_rows.(r) <-
      [| old.(0); old.(1); old.(2); Value.Real (Snapshot.stat_value instrument (r - first)) |]
  done

(* One row per (instrument, stat), in Snapshot.rows order. *)
let refresh_metrics t =
  match table t "Metrics" with
  | None -> () (* create_empty databases opt out of the export *)
  | Some tbl ->
      let now = t.now () in
      if Hw_metrics.Registry.size t.metrics > Array.length t.metric_instruments then
        render_new_metrics t tbl;
      (* read every instrument before appending any row: insert hooks may
         move instruments, and the batch is one instant's snapshot *)
      for i = 0 to Array.length t.metric_instruments - 1 do
        let v = Snapshot.version t.metric_instruments.(i) in
        if v <> t.metric_versions.(i) then begin
          t.metric_versions.(i) <- v;
          reread_metric t i
        end
      done;
      Table.append_rows tbl ~now t.metric_rows

let no_error = Value.Str ""

let trace_row (c : Tracer.completed) (s : Tracer.span) =
  [|
    Value.Int c.id;
    Value.Int s.span_id;
    Value.Int s.parent;
    Value.Str s.name;
    Value.Real s.start;
    Value.Real s.duration;
    Value.Str (Tracer.attrs_to_string s.attrs);
    (match s.error with None -> no_error | Some e -> Value.Str e);
  |]

let render_trace tbl (c : Tracer.completed) =
  let rows = Array.map (trace_row c) c.spans in
  if all_valid tbl ~what:"traces" rows then rows else [||]

(* One row per span of every trace in the flight recorder, oldest trace
   first, so under ring pressure the newest traces' rows are the ones
   that survive. The recorder's push count says what changed: the
   traces pushed since the last tick are new (a completed trace no
   longer changes, so each is rendered once), and those below
   [pushed - kept] have been evicted or cleared. *)
let refresh_traces t =
  if Tracer.enabled t.trace then
    match table t "Traces" with
    | None -> ()
    | Some tbl ->
        let now = t.now () in
        let blocks = t.trace_blocks in
        let cap = Array.length blocks in
        let pushed = Tracer.pushed t.trace in
        let lo = pushed - Tracer.kept t.trace in
        for p = t.traces_lo to min lo t.traces_synced - 1 do
          blocks.(p mod cap) <- [||]
        done;
        for p = max lo t.traces_synced to pushed - 1 do
          blocks.(p mod cap) <- render_trace tbl (Tracer.get t.trace (p - lo))
        done;
        t.traces_lo <- lo;
        t.traces_synced <- pushed;
        for p = lo to pushed - 1 do
          Table.append_rows tbl ~now blocks.(p mod cap)
        done

let tick t =
  Hw_metrics.Counter.incr t.m_ticks;
  (* group commit: durable rows buffered since the last tick reach the
     store here, before anything else observes this tick *)
  flush_wal t;
  refresh_metrics t;
  refresh_traces t;
  let now = t.now () in
  t.tick_gen <- t.tick_gen + 1;
  let due = Hashtbl.fold (fun _ s acc -> if now >= s.next_due then s :: acc else acc) t.subs [] in
  if due <> [] then
    (* deliver in subscription order regardless of hash layout *)
    let due = List.sort (fun a b -> compare a.sub_id b.sub_id) due in
    List.iter
      (fun sub ->
        (* catch up without replaying a burst of stale deliveries *)
        while now >= sub.next_due do
          sub.next_due <- sub.next_due +. sub.period
        done;
        match view_result t sub.sub_view ~now with
        | Ok result -> sub.callback result
        | Error msg -> Log.warn (fun m -> m "subscription %d failed: %s" sub.sub_id msg))
      due

let execute_stmt t ?text stmt =
  match stmt with
  | Ast.Select sel -> (
      match prepare_and_exec t ~text sel with
      | Ok rs -> Ok (Some rs)
      | Error _ as e -> Error (Result.get_error e))
  | Ast.Insert (name, values) -> (
      match insert t ~table:name values with Ok () -> Ok None | Error msg -> Error msg)
  | Ast.Create { table = name; schema; capacity } -> (
      match create_table t ~name ?capacity schema with
      | Ok _ -> Ok None
      | Error msg -> Error msg)
  | Ast.Subscribe (sel, period) ->
      if period <= 0. then Error "subscription period must be positive"
      else begin
        let id =
          subscribe t ~query:sel ~period ~callback:(fun _ ->
              (* direct-execute subscriptions have no transport; RPC attaches
                 its own callback instead *)
              ())
        in
        Ok (Some { Query.columns = [ "subscription_id" ]; rows = [ [ Value.Int id ] ] })
      end
  | Ast.Unsubscribe id ->
      if unsubscribe t id then Ok None else Error (Printf.sprintf "no subscription %d" id)
  | Ast.Trigger { watch; condition; target; values } -> (
      match create_trigger t ~watch ?condition ~target ~values () with
      | Ok id -> Ok (Some { Query.columns = [ "trigger_id" ]; rows = [ [ Value.Int id ] ] })
      | Error _ as e -> Error (Result.get_error e))
  | Ast.Drop_trigger id ->
      if drop_trigger t id then Ok None else Error (Printf.sprintf "no trigger %d" id)

let execute t src =
  (* a plan-cache hit proves the text is a SELECT: skip the parse *)
  match cached_select t src with
  | Some (Ok rs) -> Ok (Some rs)
  | Some (Error msg) -> Error msg
  | None -> (
      match Parser.parse src with
      | Error _ as e -> Error (Result.get_error e)
      | Ok stmt -> execute_stmt t ~text:src stmt)

let record_flow t ~proto ~src_ip ~dst_ip ~src_port ~dst_port ~packets ~bytes =
  match
    insert_row t ~table:"Flows"
      [|
        Value.Int proto;
        src_ip;
        dst_ip;
        Value.Int src_port;
        Value.Int dst_port;
        Value.Int packets;
        Value.Int bytes;
      |]
  with
  | Ok () -> ()
  | Error msg -> Log.err (fun m -> m "record_flow: %s" msg)

let record_link t ~mac ~rssi ~retries ~packets =
  match
    insert_row t ~table:"Links" [| mac; Value.Int rssi; Value.Int retries; Value.Int packets |]
  with
  | Ok () -> ()
  | Error msg -> Log.err (fun m -> m "record_link: %s" msg)

let record_lease t ~mac ~ip ~hostname ~action =
  match
    insert_row t ~table:"Leases" [| mac; ip; Value.Str hostname; Value.Str action |]
  with
  | Ok () -> ()
  | Error msg -> Log.err (fun m -> m "record_lease: %s" msg)

let record_policy t ~kind ~id ~payload ~action =
  match
    insert_row t ~table:"Policies"
      [| Value.Str kind; Value.Str id; Value.Str payload; Value.Str action |]
  with
  | Ok () -> ()
  | Error msg -> Log.err (fun m -> m "record_policy: %s" msg)
