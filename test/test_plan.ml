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

(* perfbench's Fig. 1 view groups Flows by five columns, three of them
   integers. Each insert it sees must key its group without rendering a
   cell as text: 62 words per row here, 72 when every key cell went
   through [Value.to_string]. *)
let test_group_key_builds_no_string () =
  let db, now = mkdb () in
  exec db
    "CREATE TABLE Flows (proto INTEGER, src_ip VARCHAR, dst_ip VARCHAR, src_port INTEGER, \
     dst_port INTEGER, packets INTEGER, bytes INTEGER)";
  let tbl = Option.get (Database.table db "Flows") in
  let plan =
    match
      Plan.prepare ~lookup:(Database.table db)
        (sel_of
           "SELECT src_ip, dst_ip, proto, src_port, dst_port, SUM(bytes) AS bytes FROM Flows \
            [RANGE 10 SECONDS] GROUP BY src_ip, dst_ip, proto, src_port, dst_port")
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let inc = Option.get (Plan.Inc.create plan) in
  let words = Float.Array.make 1 0. in
  let counting = ref false in
  ignore
    (Table.add_hook tbl (fun tu ->
         let w0 = Gc.minor_words () in
         Plan.Inc.observe inc tu;
         let w1 = Gc.minor_words () in
         if !counting then Float.Array.set words 0 (Float.Array.get words 0 +. (w1 -. w0))));
  let rows =
    Array.init 2000 (fun i ->
        Value.
          [
            Int 17;
            Str ("10.0.0." ^ string_of_int (i mod 20));
            Str "93.184.216.34";
            Int (40000 + (i mod 20));
            Int 443;
            Int 1;
            Int 100;
          ])
  in
  let feed lo hi =
    for i = lo to hi - 1 do
      now := 100. +. (float_of_int i *. 0.05);
      insert_rows tbl ~now:!now [ rows.(i) ]
    done
  in
  (* the first 1,000 fill the 10 s window and create all 20 groups *)
  feed 0 1000;
  counting := true;
  feed 1000 2000;
  let per_row = Float.Array.get words 0 /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per observed row <= 64" per_row)
    true (per_row <= 64.)

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
          Alcotest.test_case "real SUM equals recomputation bit for bit" `Quick
            test_inc_real_sum_equals_recomputation;
        ] );
      ( "grouped scan",
        [
          Alcotest.test_case "back-to-back scans over shared cells" `Quick
            test_back_to_back_shared_cells;
        ] );
    ]
