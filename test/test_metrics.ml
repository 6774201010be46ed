(* hw_metrics: instruments, registry, exports, and the end-to-end path
   from instrumented subsystems through the hwdb Metrics table and the
   RPC subscription plane. *)

open Hw_metrics
module Database = Hw_hwdb.Database
module Value = Hw_hwdb.Value
module Rpc = Hw_hwdb.Rpc
module Query = Hw_hwdb.Query
module Home = Hw_router.Home
module Router = Hw_router.Router
module Http = Hw_control_api.Http

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)
(* ------------------------------------------------------------------ *)

let test_counter () =
  let c = Counter.create ~name:"c" ~help:"" in
  Alcotest.(check int) "starts at zero" 0 (Counter.value c);
  Counter.incr c;
  Counter.incr c;
  Counter.add c 40;
  Alcotest.(check int) "incr and add accumulate" 42 (Counter.value c);
  (try
     Counter.add c (-1);
     Alcotest.fail "negative add accepted"
   with Invalid_argument _ -> ());
  Alcotest.(check int) "failed add leaves value untouched" 42 (Counter.value c)

let test_gauge () =
  let g = Gauge.create ~name:"g" ~help:"" () in
  Gauge.set g 7.5;
  Gauge.add g (-2.5);
  Alcotest.(check (float 1e-9)) "set then add" 5.0 (Gauge.value g)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_get_or_create () =
  let r = Registry.create () in
  let a = Registry.counter r "requests_total" ~help:"first registration" in
  let b = Registry.counter r "requests_total" ~help:"ignored on the get path" in
  Alcotest.(check bool) "same instrument both times" true (a == b);
  Counter.incr a;
  Alcotest.(check int) "shared state" 1 (Counter.value b);
  Alcotest.(check string) "first help wins" "first registration" (Counter.help b);
  Alcotest.(check int) "one registration" 1 (Registry.size r)

let test_registry_kind_mismatch () =
  let r = Registry.create () in
  let _ = Registry.counter r "dispatch" in
  Alcotest.check_raises "counter name reused as histogram"
    (Registry.Kind_mismatch "dispatch") (fun () -> ignore (Registry.histogram r "dispatch"));
  Alcotest.check_raises "counter name reused as gauge" (Registry.Kind_mismatch "dispatch")
    (fun () -> ignore (Registry.gauge r "dispatch"))

let test_registry_names () =
  let r = Registry.create () in
  Alcotest.(check bool) "underscore-led name valid" true (Registry.valid_name "_up");
  Alcotest.(check bool) "hyphen invalid" false (Registry.valid_name "dhcp-grants");
  Alcotest.(check bool) "leading digit invalid" false (Registry.valid_name "9lives");
  Alcotest.(check bool) "empty invalid" false (Registry.valid_name "");
  Alcotest.(check string) "sanitize maps bad chars" "dhcp_grants_2"
    (Registry.sanitize_name "dhcp-grants 2");
  (try
     ignore (Registry.counter r "not a name");
     Alcotest.fail "malformed name accepted"
   with Invalid_argument _ -> ());
  let _ = Registry.counter r "a" in
  let _ = Registry.gauge r "b" in
  match Registry.instruments r with
  | [ ("a", Registry.Counter _); ("b", Registry.Gauge _) ] -> ()
  | l -> Alcotest.fail (Printf.sprintf "unexpected instrument list (%d entries)" (List.length l))

(* ------------------------------------------------------------------ *)
(* Histogram bucket geometry                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_buckets () =
  (* bucket i covers [2^(lo+i-1), 2^(lo+i)); upper edges are exclusive,
     so an exact power of two belongs to the bucket above its edge *)
  Alcotest.(check (float 0.)) "0.99 s rounds up to the 1 s edge" 1.0
    (Histogram.bucket_upper (Histogram.bucket_index 0.99));
  Alcotest.(check (float 0.)) "1.0 s is past the 1 s edge" 2.0
    (Histogram.bucket_upper (Histogram.bucket_index 1.0));
  Alcotest.(check (float 0.)) "1.5 us lands under the 2 us edge"
    (Float.ldexp 1. (-19))
    (Histogram.bucket_upper (Histogram.bucket_index 1.5e-6));
  (* in-range positives: the reported edge is in (v, 2v] *)
  List.iter
    (fun v ->
      let upper = Histogram.bucket_upper (Histogram.bucket_index v) in
      Alcotest.(check bool)
        (Printf.sprintf "edge above %g" v)
        true
        (upper > v && upper <= 2. *. v))
    [ 1e-8; 3.14e-5; 0.25; 0.7; 1.0; 100.; 500. ];
  (* everything unrepresentable collapses into the underflow bucket *)
  List.iter
    (fun v -> Alcotest.(check int) "underflow bucket" 0 (Histogram.bucket_index v))
    [ 0.; -1.; Float.nan; Float.neg_infinity; Float.ldexp 1. (-40) ];
  (* and the far end clamps to the overflow bucket *)
  Alcotest.(check int) "overflow bucket" (Histogram.n_buckets - 1)
    (Histogram.bucket_index 1e12)

let test_histogram_observe () =
  let h = Histogram.create ~name:"h" ~help:"" in
  Histogram.observe h 0.5;
  Histogram.observe h 0.5;
  Histogram.observe h 3.0;
  Histogram.observe h (-1.0);
  Alcotest.(check int) "count includes junk values" 4 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum excludes junk values" 4.0 (Histogram.sum h);
  Alcotest.(check (float 0.)) "max tracked" 3.0 (Histogram.max_value h);
  Alcotest.(check int) "two in the 0.5 bucket" 2
    (Histogram.bucket_count h (Histogram.bucket_index 0.5));
  Alcotest.(check int) "one in the junk bucket" 1 (Histogram.bucket_count h 0)

let test_observe_span () =
  let h = Histogram.create ~name:"h" ~help:"" in
  let t = ref 10.0 in
  let now () = !t in
  let r =
    Histogram.observe_span h ~now (fun () ->
        t := !t +. 0.25;
        "done")
  in
  Alcotest.(check string) "span returns f's result" "done" r;
  Alcotest.(check int) "one observation" 1 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "elapsed span recorded" 0.25 (Histogram.sum h);
  (try
     ignore
       (Histogram.observe_span h ~now (fun () ->
            t := !t +. 1.;
            failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check int) "raising f records nothing" 1 (Histogram.count h)

(* ------------------------------------------------------------------ *)
(* Percentiles vs a naive sorted-array reference                       *)
(* ------------------------------------------------------------------ *)

(* Both the histogram walk and the naive reference use rank
   [max 1 (ceil (p/100 * n))]. bucket_index is monotone, so the bucket
   that first accumulates [rank] observations is exactly the bucket of
   the rank-th smallest value: the histogram answer must equal that
   bucket's upper edge (or the true max, from the overflow bucket). *)
let prop_percentile_matches_naive =
  QCheck.Test.make ~name:"percentile equals bucket edge of naive rank" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 100) (int_range 1 2_000_000)) (int_range 1 100))
    (fun (micros, p) ->
      QCheck.assume (micros <> []);
      let values = List.map (fun us -> float_of_int us *. 1e-6) micros in
      let h = Histogram.create ~name:"h" ~help:"" in
      List.iter (Histogram.observe h) values;
      let sorted = Array.of_list values in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let p = float_of_int p in
      let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n /. 100.))) in
      let v_naive = sorted.(rank - 1) in
      let i = Histogram.bucket_index v_naive in
      let expected =
        if i = Histogram.n_buckets - 1 then Histogram.max_value h else Histogram.bucket_upper i
      in
      let got = Histogram.percentile h p in
      got = expected
      (* and the estimate brackets the true value to one bucket width *)
      && got >= v_naive
      && got <= 2. *. v_naive)

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)
(* ------------------------------------------------------------------ *)

let test_sampled () =
  let h = Histogram.create ~name:"h" ~help:"" in
  let s = Sampled.create ~every:4 h in
  let clock_reads = ref 0 in
  let t = ref 0. in
  let now () =
    incr clock_reads;
    !t
  in
  for _ = 1 to 8 do
    Sampled.observe_span s ~now (fun () -> t := !t +. 0.001)
  done;
  Alcotest.(check int) "1-in-4 of 8 calls recorded" 2 (Histogram.count h);
  Alcotest.(check int) "clock touched only on sampled calls" 4 !clock_reads;
  (try
     ignore (Sampled.create ~every:0 h);
     Alcotest.fail "every:0 accepted"
   with Invalid_argument _ -> ());
  let all = Sampled.create ~every:1 h in
  Sampled.observe all 0.5;
  Alcotest.(check int) "every:1 records all" 3 (Histogram.count h)

(* ------------------------------------------------------------------ *)
(* Snapshot exports                                                    *)
(* ------------------------------------------------------------------ *)

let test_snapshot () =
  let r = Registry.create () in
  let c = Registry.counter r "events_total" ~help:"events" in
  Counter.add c 5;
  Gauge.set (Registry.gauge r "depth") 2.0;
  let h = Registry.histogram r "lat_seconds" in
  Histogram.observe h 0.5;
  let rows = Snapshot.rows r in
  let find metric stat =
    match
      List.find_opt (fun (x : Snapshot.row) -> x.metric = metric && x.stat = stat) rows
    with
    | Some x -> x.value
    | None -> Alcotest.fail (Printf.sprintf "missing row %s/%s" metric stat)
  in
  Alcotest.(check (float 0.)) "counter row" 5.0 (find "events_total" "value");
  Alcotest.(check (float 0.)) "gauge row" 2.0 (find "depth" "value");
  Alcotest.(check (float 0.)) "histogram count row" 1.0 (find "lat_seconds" "count");
  Alcotest.(check (float 0.)) "histogram p50 row" 1.0 (find "lat_seconds" "p50");
  let text = Snapshot.render_prometheus r in
  List.iter
    (fun needle ->
      let re = Re.compile (Re.str needle) in
      Alcotest.(check bool) (Printf.sprintf "exposition contains %S" needle) true
        (Re.execp re text))
    [
      "# TYPE events_total counter";
      "events_total 5";
      "# TYPE depth gauge";
      "# TYPE lat_seconds summary";
      "lat_seconds{quantile=\"0.99\"}";
      "lat_seconds_count 1";
    ];
  match Snapshot.to_json r with
  | Hw_json.Json.Obj fields ->
      Alcotest.(check bool) "json has all metrics" true
        (List.mem_assoc "events_total" fields
        && List.mem_assoc "depth" fields
        && List.mem_assoc "lat_seconds" fields)
  | _ -> Alcotest.fail "to_json should produce an object"

let test_build_info () =
  let r = Registry.create () in
  let uptime = Build_info.register ~registry:r () in
  Gauge.set uptime 12.5;
  let text = Snapshot.render_prometheus r in
  let has needle = Re.execp (Re.compile (Re.str needle)) text in
  Alcotest.(check bool) "info-pattern gauge rendered with label" true
    (has (Printf.sprintf "homework_build_info{version=%S} 1" Build_info.version));
  Alcotest.(check bool) "uptime rendered" true (has "homework_uptime_seconds 12.5");
  (* idempotent: a second registration returns the same gauge *)
  let again = Build_info.register ~registry:r () in
  Gauge.add again 1.;
  Alcotest.(check (float 1e-9)) "same uptime gauge" 13.5 (Gauge.value uptime)

(* ------------------------------------------------------------------ *)
(* hwdb Metrics table                                                  *)
(* ------------------------------------------------------------------ *)

let metrics_value rs ~metric ~stat =
  (* rows of (name, kind, stat, value [, ts]) from SELECT on Metrics *)
  let cols = rs.Query.columns in
  let col c row =
    match List.assoc_opt c (List.combine cols row) with
    | Some v -> v
    | None -> Alcotest.fail (Printf.sprintf "no %s column" c)
  in
  List.find_map
    (fun row ->
      match (col "name" row, col "stat" row, col "value" row) with
      | Value.Str n, Value.Str s, Value.Real v when n = metric && s = stat -> Some v
      | _ -> None)
    rs.Query.rows

let test_metrics_table () =
  let t = ref 0. in
  let db = Database.create ~metrics:(Registry.create ()) ~now:(fun () -> !t) () in
  Database.record_lease db ~mac:(Value.Str "aa:bb:cc:dd:ee:01") ~ip:(Value.Str "10.0.0.2")
    ~hostname:"h" ~action:"grant";
  Database.record_lease db ~mac:(Value.Str "aa:bb:cc:dd:ee:02") ~ip:(Value.Str "10.0.0.3")
    ~hostname:"h" ~action:"grant";
  (match Database.query db "SELECT * FROM Metrics [NOW]" with
  | Ok rs -> Alcotest.(check int) "no export before the first tick" 0 (List.length rs.Query.rows)
  | Error e -> Alcotest.fail e);
  t := 1.;
  Database.tick db;
  let rs =
    match Database.query db "SELECT name, kind, stat, value FROM Metrics [NOW]" with
    | Ok rs -> rs
    | Error e -> Alcotest.fail e
  in
  (match metrics_value rs ~metric:"hwdb_inserts_total" ~stat:"value" with
  | Some v -> Alcotest.(check bool) "insert counter exported and nonzero" true (v >= 2.)
  | None -> Alcotest.fail "hwdb_inserts_total not exported");
  (* the refresh replaces the batch each tick rather than double-counting *)
  t := 2.;
  Database.tick db;
  let rs2 =
    match Database.query db "SELECT name, stat, value FROM Metrics [NOW]" with
    | Ok rs -> rs
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "[NOW] returns exactly one batch" (List.length rs.Query.rows)
    (List.length rs2.Query.rows);
  match metrics_value rs2 ~metric:"hwdb_ticks_total" ~stat:"value" with
  | Some v -> Alcotest.(check (float 0.)) "tick counter advanced" 2.0 v
  | None -> Alcotest.fail "hwdb_ticks_total not exported"

(* The tick export renders rows once and re-stamps them. Over ticks in
   which counters and gauges move, a histogram observes on some ticks
   only, instruments register mid-run and the flight recorder evicts,
   repeats a remote trace id and is cleared, every tick must write
   exactly what a full re-render of the registry and the recorder
   would. *)
let test_export_matches_full_dump () =
  let module Tracer = Hw_trace.Tracer in
  let module Table = Hw_hwdb.Table in
  let t = ref 0. in
  let now () = !t in
  let reg = Registry.create () in
  let trace = Tracer.create ~capacity:4 ~metrics:reg ~now () in
  let db = Database.create ~metrics:reg ~trace ~now () in
  let table name = Option.get (Database.table db name) in
  let select q =
    match Database.query db q with Ok rs -> rs.Query.rows | Error e -> Alcotest.fail e
  in
  let rows = Alcotest.testable (Fmt.Dump.list (Fmt.Dump.list Value.pp)) ( = ) in
  let work = Registry.counter reg "work_total" in
  let level = Registry.gauge reg "level" in
  let lat = Registry.histogram reg "lat_seconds" in
  let run_trace i =
    Tracer.with_trace trace "op" ~attrs:[ ("i", Tracer.Int i) ] (fun () ->
        Tracer.with_span trace "child" (fun () ->
            Tracer.set_attr trace "ok" (Tracer.Bool (i mod 3 <> 0));
            if i mod 5 = 0 then Tracer.mark_error trace "boom"))
  in
  let remote () = Tracer.with_remote_trace trace ~trace_id:900 ~parent_span:3 "remote" ignore in
  for i = 1 to 24 do
    t := float_of_int i;
    Counter.add work i;
    Gauge.set level (float_of_int (i mod 4) -. 1.5);
    if i mod 3 = 0 then Histogram.observe lat (1e-3 *. float_of_int i);
    if i = 7 then ignore (Registry.labeled_counter reg "late_total" ~labels:[ ("k", "v") ]);
    if i = 13 then Histogram.observe (Registry.histogram reg "late_seconds") 0.5;
    if i = 17 then Tracer.clear trace;
    (* a propagated trace id repeats: twice in one tick, then once more
       on the next tick, first in line as the earlier two leave *)
    if i mod 8 = 1 then remote ();
    (* 0..6 traces a tick against a recorder of 4: some ticks evict *)
    for j = 1 to i mod 7 do
      run_trace ((10 * i) + j)
    done;
    if i mod 8 = 0 then (
      remote ();
      remote ());
    let metrics_before = Table.total_inserted (table "Metrics") in
    let traces_before = Table.total_inserted (table "Traces") in
    Database.tick db;
    (* read before the queries below move the hwdb counters; [SELECT *]
       leads with the row's timestamp *)
    let dump = Snapshot.rows reg in
    let spans =
      List.concat_map
        (fun (c : Tracer.completed) ->
          List.map
            (fun (s : Tracer.span) ->
              [
                Value.Ts !t;
                Value.Int c.id;
                Value.Int s.span_id;
                Value.Int s.parent;
                Value.Str s.name;
                Value.Real s.start;
                Value.Real s.duration;
                Value.Str (Tracer.attrs_to_string s.attrs);
                Value.Str (Option.value s.error ~default:"");
              ])
            (Array.to_list c.spans))
        (List.rev (Tracer.traces trace))
    in
    let tick = Printf.sprintf "tick %d: " i in
    Alcotest.check rows (tick ^ "Metrics [NOW] = Snapshot.rows")
      (List.map
         (fun (r : Snapshot.row) ->
           [ Value.Ts !t; Value.Str r.metric; Value.Str r.kind; Value.Str r.stat; Value.Real r.value ])
         dump)
      (select "SELECT * FROM Metrics [NOW]");
    Alcotest.check rows (tick ^ "Traces [NOW] = one row per kept span") spans
      (select "SELECT * FROM Traces [NOW]");
    Alcotest.(check int) (tick ^ "Metrics rows written") (List.length dump)
      (Table.total_inserted (table "Metrics") - metrics_before);
    Alcotest.(check int) (tick ^ "Traces rows written") (List.length spans)
      (Table.total_inserted (table "Traces") - traces_before)
  done

(* The same contract over random interleavings: completed traces of
   1-12 spans with every attribute kind and errors, repeated remote trace
   ids, traces handed in through [Tracer.record], [Tracer.clear], moving
   and newly registered instruments, and ticks, against a recorder of 8
   so evictions are frequent. After each tick the exports must equal rows
   built here from [Tracer.traces] and [Snapshot.rows], with their own
   renderer for the attrs text. *)
module Export_prop = struct
  module Tracer = Hw_trace.Tracer
  module Table = Hw_hwdb.Table
  module Gen = QCheck.Gen

  type node = {
    attrs : (string * Tracer.attr) list;
    late : (string * Tracer.attr) list; (* set after the span opens *)
    err : string option;
    kids : node list;
  }

  type op =
    | Trace of node
    | Remote of node (* under one propagated id, so ids repeat *)
    | Record of int (* an assembled trace of n spans; 0 is refused *)
    | Clear
    | Move of int (* the n-th registered instrument, wrapping *)
    | Register of int
    | Tick

  let gen_attr =
    Gen.(
      oneof
        [
          map (fun s -> Tracer.Str s) (string_size ~gen:printable (0 -- 5));
          map (fun i -> Tracer.Int i) int;
          map (fun b -> Tracer.Bool b) bool;
          map (fun f -> Tracer.Real f) float;
          map (fun i -> Tracer.Ip (Hw_packet.Ip.of_int32 (Int32.of_int i))) int;
          map (fun s -> Tracer.Mac (Hw_packet.Mac.of_bytes s)) (string_size ~gen:char (return 6));
        ])

  let gen_attrs = Gen.(list_size (0 -- 3) (pair (oneofl [ "a"; "b"; "dst" ]) gen_attr))

  let gen_node =
    let rec sizes rest =
      Gen.(if rest = 0 then return [] else 1 -- rest >>= fun k -> map (List.cons k) (sizes (rest - k)))
    in
    Gen.(
      sized_size (1 -- 12)
      @@ fix (fun self n ->
             let* attrs = gen_attrs and* late = gen_attrs in
             let* err = opt ~ratio:0.2 (oneofl [ "boom"; "timeout" ]) in
             let* kids = sizes (n - 1) >>= fun ks -> flatten_l (List.map self ks) in
             return { attrs; late; err; kids }))

  let gen_op =
    Gen.(
      frequency
        [
          (6, map (fun n -> Trace n) gen_node);
          (1, map (fun n -> Remote n) gen_node);
          (1, map (fun n -> Record n) (0 -- 4));
          (1, return Clear);
          (4, map (fun i -> Move i) nat);
          (1, map (fun i -> Register i) (0 -- 2));
          (3, return Tick);
        ])

  let rec size n = 1 + List.fold_left (fun acc k -> acc + size k) 0 n.kids

  let show = function
    | Trace n -> Printf.sprintf "trace(%d)" (size n)
    | Remote n -> Printf.sprintf "remote(%d)" (size n)
    | Record n -> Printf.sprintf "record(%d)" n
    | Clear -> "clear"
    | Move i -> Printf.sprintf "move(%d)" i
    | Register i -> Printf.sprintf "register(%d)" i
    | Tick -> "tick"

  let arb =
    QCheck.make
      ~print:(fun ops -> String.concat " " (List.map show ops))
      Gen.(list_size (1 -- 40) gen_op)

  (* the attrs text, rendered here without the exporter's buffer *)
  let attr_text = function
    | Tracer.Str s -> s
    | Tracer.Int i -> string_of_int i
    | Tracer.Bool b -> string_of_bool b
    | Tracer.Real f -> Printf.sprintf "%g" f
    | Tracer.Ip a -> Hw_packet.Ip.to_string a
    | Tracer.Mac m -> Hw_packet.Mac.to_string m

  let attrs_text attrs =
    String.concat "," (List.rev_map (fun (k, v) -> k ^ "=" ^ attr_text v) attrs)

  let run ops =
    let clock = ref 0. in
    let now () = !clock in
    let reg = Registry.create () in
    let trace = Tracer.create ~capacity:8 ~metrics:reg ~now () in
    let db = Database.create ~metrics:reg ~trace ~now () in
    let table name = Option.get (Database.table db name) in
    let select q =
      match Database.query db q with Ok rs -> rs.Query.rows | Error e -> failwith e
    in
    let rec body n () =
      List.iter (fun (k, v) -> Tracer.set_attr trace k v) n.late;
      Option.iter (Tracer.mark_error trace) n.err;
      List.iter (fun kid -> Tracer.with_span trace "child" ~attrs:kid.attrs (body kid)) n.kids
    in
    let registered = ref 0 in
    let move i =
      match List.nth (Registry.instruments reg) (i mod Registry.size reg) with
      | _, Registry.Counter c -> Counter.add c (1 + (i mod 3))
      | _, Registry.Gauge g -> Gauge.set g (float_of_int (i mod 5))
      | _, Registry.Histogram h -> Histogram.observe h (1e-4 *. float_of_int i)
    in
    let register kind =
      incr registered;
      let name = Printf.sprintf "extra_%d" !registered in
      match kind with
      | 0 -> Counter.incr (Registry.labeled_counter reg (name ^ "_total") ~labels:[ ("k", name) ])
      | 1 -> Gauge.set (Registry.gauge reg name) 2.5
      | _ -> Histogram.observe (Registry.histogram reg (name ^ "_seconds")) 0.5
    in
    let record n =
      let id = Tracer.next_id trace in
      let spans =
        Array.init n (fun i ->
            {
              Tracer.span_id = i + 1;
              parent = i;
              name = "async";
              start = !clock;
              duration = 0.;
              attrs = [ ("hop", Tracer.Int i) ];
              error = (if i = 1 then Some "late" else None);
            })
      in
      Tracer.record trace { Tracer.id; start = !clock; duration = 0.; errored = n > 1; spans }
    in
    let tick () =
      clock := !clock +. 1.;
      let metrics_before = Table.total_inserted (table "Metrics") in
      let traces_before = Table.total_inserted (table "Traces") in
      Database.tick db;
      let dump = Snapshot.rows reg in
      let spans =
        List.concat_map
          (fun (c : Tracer.completed) ->
            List.map
              (fun (s : Tracer.span) ->
                [
                  Value.Ts !clock;
                  Value.Int c.id;
                  Value.Int s.span_id;
                  Value.Int s.parent;
                  Value.Str s.name;
                  Value.Real s.start;
                  Value.Real s.duration;
                  Value.Str (attrs_text s.attrs);
                  Value.Str (Option.value s.error ~default:"");
                ])
              (Array.to_list c.spans))
          (List.rev (Tracer.traces trace))
      in
      let metrics =
        List.map
          (fun (r : Snapshot.row) ->
            [ Value.Ts !clock; Value.Str r.metric; Value.Str r.kind; Value.Str r.stat; Value.Real r.value ])
          dump
      in
      let this_tick = List.filter (fun row -> List.hd row = Value.Ts !clock) in
      let ok =
        this_tick (select "SELECT * FROM Metrics [NOW]") = metrics
        && this_tick (select "SELECT * FROM Traces [NOW]") = spans
        && Table.total_inserted (table "Metrics") - metrics_before = List.length metrics
        && Table.total_inserted (table "Traces") - traces_before = List.length spans
      in
      if not ok then
        QCheck.Test.fail_reportf "tick at %.0f: the export differs from a full dump" !clock
    in
    List.iter
      (function
        | Trace n -> Tracer.with_trace trace "op" ~attrs:n.attrs (body n)
        | Remote n ->
            Tracer.with_remote_trace trace ~trace_id:900 ~parent_span:3 "remote" ~attrs:n.attrs (body n)
        | Record n -> record n
        | Clear -> Tracer.clear trace
        | Move i -> move i
        | Register kind -> register kind
        | Tick -> tick ())
      (ops @ [ Tick ]);
    true

  let prop = QCheck.Test.make ~name:"export = full dump over random interleavings" ~count:500 arb run
end

(* A tick that finds no new trace and no moved instrument but its own
   tick counter renders one Metrics row and no Traces row, and builds no
   list: here 23 words, against ~3,900 when each tick listed the
   recorder and walked it against the cached traces. *)
let test_export_alloc_no_new_trace () =
  let module Tracer = Hw_trace.Tracer in
  let clock = ref 0. in
  let now () = !clock in
  let reg = Registry.create () in
  let trace = Tracer.create ~capacity:128 ~metrics:reg ~now () in
  let db = Database.create ~metrics:reg ~trace ~now () in
  for i = 1 to 80 do
    ignore (Registry.counter reg (Printf.sprintf "c%d_total" i))
  done;
  for i = 1 to 4 do
    ignore (Registry.histogram reg (Printf.sprintf "h%d_seconds" i))
  done;
  for i = 1 to 128 do
    Tracer.with_trace trace "root" ~attrs:[ ("i", Tracer.Int i) ] (fun () ->
        for j = 1 to 6 do
          Tracer.with_span trace "child"
            ~attrs:[ ("ip", Tracer.Ip (Hw_packet.Ip.of_octets 10 0 0 j)) ]
            ignore
        done)
  done;
  for i = 1 to 2 do
    clock := float_of_int i;
    Database.tick db
  done;
  clock := 3.;
  let w0 = Gc.minor_words () in
  Database.tick db;
  let words = Gc.minor_words () -. w0 in
  let traces = Option.get (Database.table db "Traces") in
  Alcotest.(check int) "every span re-stamped" (3 * 128 * 7) (Hw_hwdb.Table.total_inserted traces);
  Alcotest.(check bool) (Printf.sprintf "%.0f words <= 200" words) true (words <= 200.)

(* ------------------------------------------------------------------ *)
(* End to end: a running home exports live counters on every surface   *)
(* ------------------------------------------------------------------ *)

let test_home_metrics_end_to_end () =
  let home = Home.standard_home ~seed:11 () in
  let r = Home.router home in
  (* hook the hwdb RPC plane up to a client before traffic starts *)
  let from_router = Queue.create () in
  Router.set_rpc_send r (fun ~to_:_ data -> Queue.add data from_router);
  let client = Rpc.Client.create ~send:(fun d -> Router.rpc_datagram r ~from:"ui:9000" d) () in
  let published = ref [] in
  Rpc.Client.on_publish client (fun ~subscription:_ rs -> published := rs :: !published);
  let pump () =
    while not (Queue.is_empty from_router) do
      Rpc.Client.handle_datagram client (Queue.pop from_router)
    done
  in
  let sub_ok = ref false in
  Rpc.Client.request client "SUBSCRIBE SELECT name, kind, stat, value FROM Metrics [NOW] EVERY 2 SECONDS"
    ~on_reply:(fun reply -> sub_ok := Result.is_ok reply);
  pump ();
  Alcotest.(check bool) "subscription accepted" true !sub_ok;
  Home.run_for home 30.;
  pump ();
  (* 1. the RPC subscription published a Metrics snapshot with live counts *)
  Alcotest.(check bool) "publications arrived" true (!published <> []);
  let latest = List.hd !published in
  let nonzero metric =
    match metrics_value latest ~metric ~stat:"value" with
    | Some v -> Alcotest.(check bool) (metric ^ " > 0") true (v > 0.)
    | None -> Alcotest.fail (metric ^ " missing from published snapshot")
  in
  nonzero "ctrl_packet_in_total";
  nonzero "hwdb_inserts_total";
  nonzero "rpc_datagrams_in_total";
  nonzero "rpc_datagrams_out_total";
  nonzero "dp_flow_lookups_total";
  nonzero "dhcp_grants_total";
  (* 2. the same data answers a plain query through the database *)
  (match Database.query (Router.db r) "SELECT name, stat, value FROM Metrics [NOW]" with
  | Ok rs -> (
      match metrics_value rs ~metric:"ctrl_packet_in_total" ~stat:"value" with
      | Some v -> Alcotest.(check bool) "SELECT sees dispatch counts" true (v > 0.)
      | None -> Alcotest.fail "ctrl_packet_in_total missing from Metrics table")
  | Error e -> Alcotest.fail e);
  (* 3. and the Prometheus endpoint renders it as text *)
  let resp = Router.http r (Http.request Http.GET "/metrics") in
  Alcotest.(check int) "GET /metrics ok" 200 resp.Http.status;
  Alcotest.(check (option string)) "prometheus content type"
    (Some "text/plain; version=0.0.4")
    (List.assoc_opt "content-type" resp.Http.headers);
  let body = resp.Http.body in
  Alcotest.(check bool) "exposition ends with a newline" true
    (String.length body > 0 && body.[String.length body - 1] = '\n');
  let has needle = Re.execp (Re.compile (Re.str needle)) body in
  Alcotest.(check bool) "controller counter exposed" true (has "ctrl_packet_in_total");
  Alcotest.(check bool) "handler latency summary exposed" true
    (has "quantile=\"0.5\"");
  (* the scrape is self-identifying (satellite: build_info + uptime) *)
  Alcotest.(check bool) "build info gauge with version label" true
    (has (Printf.sprintf "homework_build_info{version=%S} 1" Build_info.version));
  Alcotest.(check bool) "uptime gauge exposed" true (has "homework_uptime_seconds");
  let zero_packet_in = has "\nctrl_packet_in_total 0\n" in
  Alcotest.(check bool) "controller dispatch count is nonzero" false zero_packet_in;
  let zero_uptime = has "\nhomework_uptime_seconds 0\n" in
  Alcotest.(check bool) "uptime advanced with the loop" false zero_uptime

(* ------------------------------------------------------------------ *)
(* Prometheus label escaping and the cardinality guard                 *)
(* ------------------------------------------------------------------ *)

(* the inverse of the exposition-format escape: exactly backslash,
   double-quote and newline *)
let unescape_label_value s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | '\\' -> Buffer.add_char b '\\'
       | '"' -> Buffer.add_char b '"'
       | 'n' -> Buffer.add_char b '\n'
       | c ->
           Buffer.add_char b '\\';
           Buffer.add_char b c);
       incr i
     end
     else Buffer.add_char b s.[!i]);
    incr i
  done;
  Buffer.contents b

let test_label_escaping_round_trip () =
  let hostile =
    [
      "plain";
      "back\\slash";
      "quo\"te";
      "new\nline";
      "all\\three\"at\nonce";
      "trailing\\";
      "\"";
      "\\n is two chars";
    ]
  in
  List.iter
    (fun v ->
      let e = Snapshot.escape_label_value v in
      Alcotest.(check string)
        (Printf.sprintf "round-trips %S" v)
        v (unescape_label_value e);
      Alcotest.(check bool) "no raw newline survives" false (String.contains e '\n'))
    hostile;
  (* the untouched fast path returns the very same string *)
  let v = "no_specials_here" in
  Alcotest.(check bool) "fast path does not copy" true (Snapshot.escape_label_value v == v);
  (* and the rendered exposition carries the escaped form *)
  let r = Registry.create () in
  let c = Registry.labeled_counter r "hostile_total" ~labels:[ ("who", "a\\b\"c\nd") ] in
  Counter.incr c;
  let text = Snapshot.render_prometheus r in
  let has needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "escaped label in exposition" true
    (has "hostile_total{who=\"a\\\\b\\\"c\\nd\"} 1" text)

let test_cardinality_guard () =
  let r = Registry.create ~max_label_series:2 () in
  let c0 = Registry.labeled_counter r "req_total" ~labels:[ ("peer", "p0") ] in
  let c1 = Registry.labeled_counter r "req_total" ~labels:[ ("peer", "p1") ] in
  Counter.incr c0;
  Counter.incr c1;
  (* pre-cap combinations keep resolving to their own series *)
  Counter.incr (Registry.labeled_counter r "req_total" ~labels:[ ("peer", "p0") ]);
  Alcotest.(check int) "existing series untouched" 2 (Counter.value c0);
  (* a third combination collapses into __overflow__ *)
  let o1 = Registry.labeled_counter r "req_total" ~labels:[ ("peer", "p2") ] in
  let o2 = Registry.labeled_counter r "req_total" ~labels:[ ("peer", "p3") ] in
  Counter.incr o1;
  Counter.incr o2;
  Alcotest.(check bool) "overflow series shared" true (o1 == o2);
  Alcotest.(check int) "overflow accumulates" 2 (Counter.value o1);
  let spill =
    Counter.value (Registry.counter r "metrics_cardinality_overflow_total" ~help:"")
  in
  Alcotest.(check int) "redirections counted" 2 spill;
  (* separate families guard independently *)
  Counter.incr (Registry.labeled_counter r "other_total" ~labels:[ ("peer", "p9") ]);
  Alcotest.(check int) "fresh family not penalised" 2
    (Counter.value (Registry.counter r "metrics_cardinality_overflow_total" ~help:""));
  let text = Snapshot.render_prometheus r in
  let has needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "overflow series rendered" true
    (has "req_total{peer=\"__overflow__\"} 2" text);
  Alcotest.(check bool) "real series rendered" true (has "req_total{peer=\"p0\"} 2" text)

let () =
  Alcotest.run "hw_metrics"
    [
      ( "instruments",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
          Alcotest.test_case "observe_span" `Quick test_observe_span;
          Alcotest.test_case "sampled" `Quick test_sampled;
          QCheck_alcotest.to_alcotest prop_percentile_matches_naive;
        ] );
      ( "registry",
        [
          Alcotest.test_case "get or create" `Quick test_registry_get_or_create;
          Alcotest.test_case "kind mismatch" `Quick test_registry_kind_mismatch;
          Alcotest.test_case "name grammar" `Quick test_registry_names;
          Alcotest.test_case "snapshot exports" `Quick test_snapshot;
          Alcotest.test_case "build info" `Quick test_build_info;
          Alcotest.test_case "label escaping round-trip" `Quick
            test_label_escaping_round_trip;
          Alcotest.test_case "cardinality guard" `Quick test_cardinality_guard;
        ] );
      ( "export",
        [
          Alcotest.test_case "hwdb Metrics table" `Quick test_metrics_table;
          Alcotest.test_case "export = full dump every tick" `Quick
            test_export_matches_full_dump;
          QCheck_alcotest.to_alcotest Export_prop.prop;
          Alcotest.test_case "no new trace: no list, no rendering" `Quick
            test_export_alloc_no_new_trace;
          Alcotest.test_case "home end to end" `Quick test_home_metrics_end_to_end;
        ] );
    ]
