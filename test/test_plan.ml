(* Compiled query plans: the differential suite pinning Plan/Plan.Inc and
   the trigger expressions to the reference interpreter
   (test/ref/query_ref.ml), plus unit tests for the plan cache and the
   incremental subscription machinery. *)

open Hw_hwdb
module Registry = Hw_metrics.Registry
module Counter = Hw_metrics.Counter

let sel_of text =
  match Parser.parse_select text with Ok s -> s | Error e -> Alcotest.fail e

let mkdb () =
  let now = ref 100. in
  let db = Database.create_empty ~metrics:(Registry.create ()) ~now:(fun () -> !now) () in
  (db, now)

let exec db src =
  match Database.execute db src with Ok _ -> () | Error e -> Alcotest.fail e

let rows db src =
  match Database.query db src with Ok rs -> rs.Query.rows | Error e -> Alcotest.fail e

let stats = Alcotest.(triple int int int)

(* -- plan cache ------------------------------------------------------ *)

let test_cache_hit_miss () =
  let db, _ = mkdb () in
  exec db "CREATE TABLE E (n INTEGER)";
  exec db "INSERT INTO E VALUES (1)";
  let q = "SELECT n FROM E" in
  Alcotest.check stats "fresh cache" (0, 0, 0) (Database.plan_cache_stats db);
  Alcotest.(check (list (list string)))
    "first run answers"
    [ [ "1" ] ]
    (List.map (List.map Value.to_string) (rows db q));
  Alcotest.check stats "first run misses" (0, 1, 0) (Database.plan_cache_stats db);
  ignore (rows db q);
  Alcotest.check stats "second run hits" (1, 1, 0) (Database.plan_cache_stats db);
  (* the statement-level entry point shares the same cache *)
  exec db q;
  Alcotest.check stats "execute hits too" (2, 1, 0) (Database.plan_cache_stats db);
  (* cached_select answers without any parser involvement *)
  (match Database.cached_select db q with
  | Some (Ok rs) -> Alcotest.(check int) "cached rows" 1 (List.length rs.Query.rows)
  | _ -> Alcotest.fail "expected a cache hit");
  Alcotest.check stats "cached_select hit" (3, 1, 0) (Database.plan_cache_stats db)

let test_cache_eviction () =
  let db, _ = mkdb () in
  exec db "CREATE TABLE E (n INTEGER)";
  (* 131 distinct statements through a 128-entry FIFO: 3 evictions *)
  for i = 1 to 131 do
    ignore (rows db (Printf.sprintf "SELECT n FROM E WHERE n = %d" i))
  done;
  Alcotest.check stats "FIFO evicted the overflow" (0, 131, 3) (Database.plan_cache_stats db);
  (* the newest statement is still cached, the oldest is not *)
  ignore (rows db "SELECT n FROM E WHERE n = 131");
  Alcotest.check stats "newest still cached" (1, 131, 3) (Database.plan_cache_stats db);
  ignore (rows db "SELECT n FROM E WHERE n = 1");
  Alcotest.check stats "oldest re-prepared" (1, 132, 4) (Database.plan_cache_stats db)

let test_failed_prepare_not_cached () =
  let db, _ = mkdb () in
  (match Database.query db "SELECT n FROM Later" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "query against a missing table succeeded");
  (match Database.query db "SELECT n FROM Later" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "query against a missing table succeeded");
  let _, misses, _ = Database.plan_cache_stats db in
  Alcotest.(check int) "failures re-prepare (never cached)" 2 misses;
  (* ... which is exactly what lets CREATE TABLE heal the statement *)
  exec db "CREATE TABLE Later (n INTEGER)";
  exec db "INSERT INTO Later VALUES (7)";
  Alcotest.(check (list (list string)))
    "healed after CREATE TABLE"
    [ [ "7" ] ]
    (List.map (List.map Value.to_string) (rows db "SELECT n FROM Later"))

let test_cache_counters_scrape_at_zero () =
  (* the counter family is registered when the database is created, not
     on first use, so a scrape of a fresh router shows explicit zeros *)
  let now = ref 100. in
  let metrics = Registry.create () in
  let db = Database.create ~metrics ~now:(fun () -> !now) () in
  Database.tick db;
  let metric_row name =
    match
      Database.query db
        (Printf.sprintf "SELECT value FROM Metrics [NOW] WHERE name = '%s'" name)
    with
    | Ok { Query.rows = [ [ v ] ]; _ } -> Value.to_string v
    | Ok _ -> Alcotest.fail (name ^ " not exported exactly once")
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun n -> Alcotest.(check string) n "0" (metric_row n))
    [
      "hwdb_plan_cache_hits_total";
      "hwdb_plan_cache_misses_total";
      "hwdb_plan_cache_evictions_total";
    ]

let test_eager_resolution_divergence () =
  (* documented divergence: the interpreter resolves columns per row, so
     an unknown column over an empty window sails through; the compiled
     plan rejects it at prepare time *)
  let db, _ = mkdb () in
  exec db "CREATE TABLE E (n INTEGER)";
  let tbl name = Database.table db name in
  (match Query_ref.exec ~lookup:tbl ~now:100. (sel_of "SELECT ghost FROM E") with
  | Ok rs -> Alcotest.(check int) "interpreter: lazily fine on empty window" 0 (List.length rs.Query.rows)
  | Error e -> Alcotest.fail ("interpreter changed behavior: " ^ e));
  match Database.query db "SELECT ghost FROM E" with
  | Error e ->
      Alcotest.(check bool) "plan rejects at prepare" true
        (Re.execp (Re.compile (Re.str "unknown column")) e)
  | Ok _ -> Alcotest.fail "prepare accepted an unknown column"

(* -- incremental subscriptions --------------------------------------- *)

let subscribe db text ~period =
  let results = ref [] in
  let id =
    Database.subscribe db ~query:(sel_of text) ~period ~callback:(fun rs ->
        results := rs :: !results)
  in
  (id, results)

let last results =
  match !results with
  | rs :: _ -> List.map (List.map Value.to_string) rs.Query.rows
  | [] -> Alcotest.fail "no delivery"

let test_inc_window_retraction () =
  let db, now = mkdb () in
  exec db "CREATE TABLE E (n INTEGER)";
  let _, results = subscribe db "SELECT n FROM E [RANGE 2 SECONDS]" ~period:1. in
  exec db "INSERT INTO E VALUES (1)";
  now := 101.;
  Database.tick db;
  Alcotest.(check (list (list string))) "row inside window" [ [ "1" ] ] (last results);
  exec db "INSERT INTO E VALUES (2)";
  now := 102.;
  Database.tick db;
  Alcotest.(check (list (list string))) "both inside" [ [ "1" ]; [ "2" ] ] (last results);
  now := 103.;
  Database.tick db;
  (* ts=100 left the closed interval [101, 103]; ts=101 is still in *)
  Alcotest.(check (list (list string))) "oldest retracted" [ [ "2" ] ] (last results);
  now := 104.;
  Database.tick db;
  Alcotest.(check (list (list string))) "window drained" [] (last results)

let test_inc_aggregate () =
  let db, now = mkdb () in
  exec db "CREATE TABLE F (who VARCHAR, bytes INTEGER)";
  let _, results =
    subscribe db "SELECT who, SUM(bytes) AS b FROM F [RANGE 10 SECONDS] GROUP BY who" ~period:1.
  in
  exec db "INSERT INTO F VALUES ('tv', 4)";
  exec db "INSERT INTO F VALUES ('tv', 6)";
  exec db "INSERT INTO F VALUES ('phone', 1)";
  now := 101.;
  Database.tick db;
  Alcotest.(check (list (list string)))
    "groups in first-appearance order"
    [ [ "tv"; "10" ]; [ "phone"; "1" ] ]
    (last results);
  now := 111.5;
  Database.tick db;
  Alcotest.(check (list (list string))) "window drained, groups gone" [] (last results)

let test_inc_shared_view_single_eval () =
  let now = ref 100. in
  let metrics = Registry.create () in
  let db = Database.create_empty ~metrics ~now:(fun () -> !now) () in
  exec db "CREATE TABLE E (n INTEGER)";
  let text = "SELECT COUNT(*) AS c FROM E" in
  let _, r1 = subscribe db text ~period:1. in
  let _, r2 = subscribe db text ~period:1. in
  let evals () = Counter.value (Registry.counter metrics "hwdb_subscription_evals_total") in
  now := 101.;
  Database.tick db;
  Alcotest.(check int) "one evaluation for two subscribers" 1 (evals ());
  Alcotest.(check (list (list string))) "first delivered" [ [ "0" ] ] (last r1);
  Alcotest.(check (list (list string))) "second delivered same snapshot" [ [ "0" ] ] (last r2);
  now := 102.;
  Database.tick db;
  Alcotest.(check int) "still one per tick" 2 (evals ())

let test_inc_clear_resyncs () =
  let db, now = mkdb () in
  exec db "CREATE TABLE E (n INTEGER)";
  let _, results = subscribe db "SELECT COUNT(*) AS c FROM E" ~period:1. in
  exec db "INSERT INTO E VALUES (1)";
  exec db "INSERT INTO E VALUES (2)";
  now := 101.;
  Database.tick db;
  Alcotest.(check (list (list string))) "counts both rows" [ [ "2" ] ] (last results);
  (* the table is cleared underneath the standing query: the safety
     valve must rebuild from scan instead of serving stale deltas *)
  Table.clear (Option.get (Database.table db "E"));
  exec db "INSERT INTO E VALUES (3)";
  now := 102.;
  Database.tick db;
  Alcotest.(check (list (list string))) "resynced after clear" [ [ "1" ] ] (last results)

let test_inc_sub_before_create () =
  let db, now = mkdb () in
  let id, results = subscribe db "SELECT n FROM Later [NOW]" ~period:1. in
  now := 101.;
  Database.tick db;
  Alcotest.(check (list string)) "errors silently skipped (no delivery)" [] (
    List.concat_map (fun rs -> List.map (fun _ -> "x") rs.Query.rows) !results);
  exec db "CREATE TABLE Later (n INTEGER)";
  exec db "INSERT INTO Later VALUES (9)";
  now := 102.;
  Database.tick db;
  Alcotest.(check (list (list string))) "starts answering after CREATE" [ [ "9" ] ] (last results);
  Alcotest.(check bool) "unsubscribe detaches" true (Database.unsubscribe db id);
  exec db "INSERT INTO Later VALUES (10)";
  now := 103.;
  Database.tick db;
  Alcotest.(check int) "no further deliveries" 0
    (List.length (List.filter (fun rs -> rs.Query.rows = [ [ Value.Int 10 ] ]) !results))

let test_inc_direct_resync_counter () =
  let tbl = Table.create ~name:"T" ~capacity:16 [ ("n", Value.T_int) ] in
  let lookup name = if name = "T" then Some tbl else None in
  let plan =
    match Plan.prepare ~lookup (sel_of "SELECT COUNT(*) AS c FROM T") with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let inc = Option.get (Plan.Inc.create plan) in
  ignore (Table.add_hook tbl (fun tu -> Plan.Inc.observe inc tu));
  (match Table.insert tbl ~now:100. [ Value.Int 1 ] with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "seeding is not a resync" 0 (Plan.Inc.resyncs inc);
  ignore (Plan.Inc.result inc ~now:100.);
  Table.clear tbl;
  (match Plan.Inc.result inc ~now:101. with
  | Ok rs -> Alcotest.(check bool) "empty after clear" true (rs.Query.rows = [ [ Value.Int 0 ] ])
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "clear forced one resync" 1 (Plan.Inc.resyncs inc)

(* -- GROUP BY keys ---------------------------------------------------- *)

let insert_rows tbl ~now rows =
  List.iter
    (fun row -> match Table.insert tbl ~now row with Ok () -> () | Error e -> Alcotest.fail e)
    rows

(* A real column groups by its text: 0.1 +. 0.2 and 0.3 both print "0.3"
   under "%g", and the integer literal 3 prints as the real 3.0 does. A
   key over several columns keeps that text for its real column while
   it keys the integer and string columns by value, so one-shot, the
   incremental view and the reference all see three groups. *)
let test_group_key_near_equal_reals () =
  let db, now = mkdb () in
  exec db "CREATE TABLE G (n INTEGER, r REAL, s VARCHAR)";
  let q = "SELECT n, r, s, COUNT(*) AS c FROM G GROUP BY n, r, s" in
  let _, results = subscribe db q ~period:1. in
  insert_rows (Option.get (Database.table db "G")) ~now:100.
    Value.
      [
        [ Int 1; Real (0.1 +. 0.2); Str "x" ];
        [ Int 1; Real 0.3; Str "x" ];
        [ Int 1; Int 3; Str "x" ];
        [ Int 1; Real 3.; Str "x" ];
        [ Int 2; Real 0.3; Str "x" ];
      ];
  let expected = [ [ "1"; "0.3"; "x"; "2" ]; [ "1"; "3"; "x"; "2" ]; [ "2"; "0.3"; "x"; "1" ] ] in
  let strings = List.map (List.map Value.to_string) in
  Alcotest.(check (list (list string))) "one-shot" expected (strings (rows db q));
  (match Query_ref.exec ~lookup:(Database.table db) ~now:100. (sel_of q) with
  | Ok rs -> Alcotest.(check (list (list string))) "reference" expected (strings rs.Query.rows)
  | Error e -> Alcotest.fail e);
  now := 101.;
  Database.tick db;
  Alcotest.(check (list (list string))) "incremental view" expected (last results)

(* Minor words [Plan.Inc.observe] allocates per row of [rows], which
   [text]'s view over [tbl] sees one every 50 ms, counted over the second
   half, once the first has filled the window and made every group. The
   view must then still answer what the one-shot plan answers. *)
let observed_words_per_row tbl text rows =
  let lookup name = if String.equal name (Table.name tbl) then Some tbl else None in
  let plan = match Plan.prepare ~lookup (sel_of text) with Ok p -> p | Error e -> Alcotest.fail e in
  let inc = Option.get (Plan.Inc.create plan) in
  let words = Float.Array.make 1 0. in
  let counting = ref false in
  ignore
    (Table.add_hook tbl (fun tu ->
         let w0 = Gc.minor_words () in
         Plan.Inc.observe inc tu;
         let w1 = Gc.minor_words () in
         if !counting then Float.Array.set words 0 (Float.Array.get words 0 +. (w1 -. w0))));
  let n = Array.length rows in
  let now i = 100. +. (float_of_int i *. 0.05) in
  let feed lo hi =
    for i = lo to hi - 1 do
      match Table.insert_row tbl ~now:(now i) rows.(i) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e
    done
  in
  feed 0 (n / 2);
  counting := true;
  feed (n / 2) n;
  let answer r = match r with Ok rs -> rs.Query.rows | Error e -> Alcotest.fail e in
  Alcotest.(check (list (list string)))
    "the view answers what the plan answers"
    (List.map (List.map Value.to_string) (answer (Plan.exec plan ~now:(now n))))
    (List.map (List.map Value.to_string) (answer (Plan.Inc.result inc ~now:(now n))));
  Float.Array.get words 0 /. float_of_int (n - (n / 2))

let fig1_view =
  "SELECT src_ip, dst_ip, proto, src_port, dst_port, SUM(bytes) AS bytes FROM Flows [RANGE 10 \
   SECONDS] GROUP BY src_ip, dst_ip, proto, src_port, dst_port"

(* perfbench's Fig. 1 view groups Flows by five columns. Over rows whose
   every cell is fresh, as RPC INSERTs write them, a row finds its group
   through the successor hint, which compares the cells by value, so an
   observed row builds no key list and renders no text: it allocates
   nothing (a key list per row reads 58 words). *)
let test_group_key_builds_no_string () =
  let tbl = Table.create ~name:"Flows" ~capacity:4096 Database.flows_schema in
  let rows =
    Array.init 2000 (fun i ->
        Value.
          [|
            Int 17;
            Str ("10.0.0." ^ string_of_int (i mod 20));
            Str "93.184.216.34";
            Int (40000 + (i mod 20));
            Int 443;
            Int 1;
            Int 100;
          |])
  in
  let per_row = observed_words_per_row tbl fig1_view rows in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per observed row < 1" per_row)
    true (per_row < 1.)

(* The same view over rows shaped as the router writes them
   ([Database.record_flow]): one cell per station address, and a fresh
   [Int] per row for the ephemeral port, which [Table] does not share
   (it shares only -256..1023). A hint that compared key cells only
   physically would miss on every row. *)
let test_fig1_view_router_rows () =
  let tbl = Table.create ~name:"Flows" ~capacity:4096 Database.flows_schema in
  let stations = Array.init 20 (fun i -> Value.Str ("10.0.0." ^ string_of_int i)) in
  let server = Value.Str "93.184.216.34" in
  let rows =
    Array.init 2000 (fun i ->
        Value.
          [|
            Int 6;
            stations.(i mod 20);
            server;
            Int (49152 + (i mod 20));
            Int 443;
            Int (1 + (i mod 7));
            Int (1500 * (1 + (i mod 7)));
          |])
  in
  let per_row = observed_words_per_row tbl fig1_view rows in
  Alcotest.(check bool) (Printf.sprintf "%.1f words per observed row <= 16" per_row) true
    (per_row <= 16.)

(* Fig. 2's Links view keeps two MAX over the last 64 rows: every insert
   evicts a row, and a row that held its group's best leaves the group
   stale, to be re-folded at the next read. *)
let test_two_max_rows_view_evicts () =
  let tbl = Table.create ~name:"Links" ~capacity:4096 Database.links_schema in
  let macs = Array.init 16 (fun i -> Value.Str (Printf.sprintf "02:00:00:00:00:%02x" i)) in
  let rows =
    Array.init 2000 (fun i ->
        Value.[| macs.(i mod 16); Int (-40 - (i mod 30)); Int (i mod 7); Int (i mod 1000) |])
  in
  let per_row =
    observed_words_per_row tbl
      "SELECT mac, MAX(retries) AS r, MAX(packets) AS p FROM Links [ROWS 64] GROUP BY mac" rows
  in
  Alcotest.(check bool) (Printf.sprintf "%.1f words per observed row <= 16" per_row) true
    (per_row <= 16.)

(* A standing SUM over a real column answers exactly what the one-shot
   query answers at every tick. A float total that adds each insert and
   subtracts each retraction drifts from the scan's left-to-right sum
   once a contribution rounds (at t=5 it read 4.3009999999999993 where
   the scan reads 4.3010000000000002). *)
let test_inc_real_sum_equals_recomputation () =
  let db, now = mkdb () in
  exec db "CREATE TABLE T (k VARCHAR, v REAL)";
  let text = "SELECT k, SUM(v) AS s FROM T [RANGE 3 SECONDS] GROUP BY k" in
  let _, results = subscribe db text ~period:1. in
  let reals = [| "0.1"; "0.2"; "0.3"; "0.7"; "0.001"; "3.3"; "0.05" |] in
  let bits = function
    | [ Value.Str k; Value.Real s ] -> (k, Int64.bits_of_float s)
    | _ -> Alcotest.fail "unexpected row shape"
  in
  let differing = ref [] in
  for i = 0 to 199 do
    exec db (Printf.sprintf "INSERT INTO T VALUES ('a', %s)" reals.(i mod 7));
    now := !now +. 1.;
    Database.tick db;
    let view = match !results with rs :: _ -> rs.Query.rows | [] -> Alcotest.fail "no delivery" in
    if List.map bits view <> List.map bits (rows db text) then differing := i :: !differing
  done;
  Alcotest.(check (list int)) "ticks where the view differs from the query" [] (List.rev !differing)

(* A view's groups outlive a scan. A group whose last row leaves the
   window leaves the store, and a hint that still leads to it must not
   take a returning row there: here group g's hint is r (r's row came
   right after g's) when r's one row expires, and the row after g's next
   one carries r's very key cell. *)
let test_view_hint_to_departed_group () =
  let schema = [ ("k", Value.T_str); ("n", Value.T_int); ("v", Value.T_int) ] in
  let g = Value.Str "g" and r = Value.Str "r" in
  List.iter
    (fun text ->
      let tbl = Table.create ~name:"T" ~capacity:64 schema in
      let lookup name = if String.equal name "T" then Some tbl else None in
      let sel = sel_of text in
      let plan = match Plan.prepare ~lookup sel with Ok p -> p | Error e -> Alcotest.fail e in
      let inc = Option.get (Plan.Inc.create plan) in
      ignore (Table.add_hook tbl (fun tu -> Plan.Inc.observe inc tu));
      let insert now k v =
        match Table.insert_row tbl ~now [| k; Value.Int 1; Value.Int v |] with
        | Ok () -> ()
        | Error e -> Alcotest.fail e
      in
      let check now =
        let answer = function
          | Ok rs -> List.map (List.map Value.to_string) rs.Query.rows
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check (list (list string)))
          (Printf.sprintf "%s at %g" text now)
          (answer (Query_ref.exec ~lookup ~now sel))
          (answer (Plan.Inc.result inc ~now))
      in
      insert 100. g 1;
      insert 100.5 r 2;
      insert 102.2 g 3;
      check 102.2;
      check 102.6 (* r's only row has left: r leaves the store *);
      insert 102.7 r 4;
      check 102.7;
      insert 102.8 g 5;
      insert 102.9 r 6;
      check 103.;
      check 105.)
    [
      "SELECT k, COUNT(*) AS c, SUM(v) AS s FROM T [RANGE 2 SECONDS] GROUP BY k";
      "SELECT k, n, COUNT(*) AS c, MAX(v) AS m FROM T [RANGE 2 SECONDS] GROUP BY k, n";
    ]

(* -- grouped scan ------------------------------------------------------ *)

(* A grouped scan's successor hints belong to its own execution: two
   tables whose rows point at the same key cells, scanned back to back
   and in turn, each answer what the reference interpreter answers. Y's
   first row shares X's first key cell, so a hint carried over from X's
   scan would fold it into one of X's groups. *)
let test_back_to_back_shared_cells () =
  let cells = Array.init 10 (fun i -> Value.Str (Printf.sprintf "k%d" i)) in
  let schema = [ ("k", Value.T_str); ("n", Value.T_int); ("v", Value.T_int) ] in
  let fill name order =
    let t = Table.create ~name ~capacity:64 schema in
    List.iteri
      (fun i c ->
        Result.get_ok
          (Table.insert_row t ~now:(float_of_int i)
             [| cells.(c); Value.Int (c mod 3); Value.Int (i * 7) |]))
      order;
    t
  in
  let x = fill "X" [ 0; 1; 2; 0; 1; 2; 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 3; 4 ] in
  let y = fill "Y" [ 0; 2; 1; 0; 0; 2; 9; 8; 7; 6; 5; 4; 3; 1; 0 ] in
  let lookup name =
    if String.equal name "X" then Some x else if String.equal name "Y" then Some y else None
  in
  let plans =
    List.concat_map
      (fun table ->
        List.map
          (fun q -> sel_of (Printf.sprintf q table))
          [
            "SELECT k, SUM(v) AS s, COUNT(*) AS c, MIN(v) AS lo FROM %s GROUP BY k";
            "SELECT k, n, AVG(v) AS a, MAX(v) AS hi FROM %s GROUP BY k, n";
          ])
      [ "X"; "Y" ]
  in
  let answer sel = function
    | Ok rs -> List.map (List.map Value.to_string) rs.Query.rows
    | Error e -> Alcotest.failf "%s: %s" (Ast.to_string (Ast.Select sel)) e
  in
  let prepared =
    List.map
      (fun sel ->
        match Plan.prepare ~lookup sel with Ok p -> (sel, p) | Error e -> Alcotest.fail e)
      plans
  in
  (* X's plans, then Y's, then X's again: each after another's scan *)
  List.iter
    (fun (sel, plan) ->
      Alcotest.(check (list (list string)))
        (Ast.to_string (Ast.Select sel))
        (answer sel (Query_ref.exec ~lookup ~now:100. sel))
        (answer sel (Plan.exec plan ~now:100.)))
    (prepared @ prepared)

(* -- suite ----------------------------------------------------------- *)

let () =
  Alcotest.run "hw_plan"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest (Plan_diff.exec_equivalence ~count:8_000);
          QCheck_alcotest.to_alcotest (Plan_diff.stream_equivalence ~count:2_500);
          QCheck_alcotest.to_alcotest (Plan_diff.row_equivalence ~count:4_000);
        ] );
      ( "plan_cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_cache_hit_miss;
          Alcotest.test_case "FIFO eviction at 128" `Quick test_cache_eviction;
          Alcotest.test_case "failed prepare never cached" `Quick test_failed_prepare_not_cached;
          Alcotest.test_case "counters scrape at zero" `Quick test_cache_counters_scrape_at_zero;
          Alcotest.test_case "eager resolution divergence" `Quick test_eager_resolution_divergence;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "RANGE window retraction" `Quick test_inc_window_retraction;
          Alcotest.test_case "incremental aggregates" `Quick test_inc_aggregate;
          Alcotest.test_case "shared view evaluates once" `Quick test_inc_shared_view_single_eval;
          Alcotest.test_case "Table.clear forces resync" `Quick test_inc_clear_resyncs;
          Alcotest.test_case "subscribe before CREATE TABLE" `Quick test_inc_sub_before_create;
          Alcotest.test_case "resync counter" `Quick test_inc_direct_resync_counter;
          Alcotest.test_case "GROUP BY near-equal reals" `Quick test_group_key_near_equal_reals;
          Alcotest.test_case "GROUP BY key builds no string" `Quick
            test_group_key_builds_no_string;
          Alcotest.test_case "Fig. 1 view over router rows" `Quick test_fig1_view_router_rows;
          Alcotest.test_case "two-MAX ROWS view with evictions" `Quick
            test_two_max_rows_view_evicts;
          Alcotest.test_case "real SUM equals recomputation bit for bit" `Quick
            test_inc_real_sum_equals_recomputation;
          Alcotest.test_case "hint to a group that left the window" `Quick
            test_view_hint_to_departed_group;
        ] );
      ( "grouped scan",
        [
          Alcotest.test_case "back-to-back scans over shared cells" `Quick
            test_back_to_back_shared_cells;
        ] );
    ]
