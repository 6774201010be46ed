(* hw_hwdb: values, tables, the CQL variant (lexer/parser/executor),
   subscriptions, and the UDP RPC layer *)

open Hw_hwdb

let now = ref 0.
let clock () = !now

let fresh_db () =
  now := 0.;
  Database.create ~now:clock ()

let rows_of db q =
  match Database.query db q with
  | Ok rs -> rs.Query.rows
  | Error e -> Alcotest.failf "query %S failed: %s" q e

let q_error db q =
  match Database.query db q with
  | Ok _ -> Alcotest.failf "query %S unexpectedly succeeded" q
  | Error e -> e

let seed_flows db samples =
  (* samples: (t, src_ip, dst_port, bytes) *)
  List.iter
    (fun (t, src_ip, dst_port, bytes) ->
      now := t;
      Database.record_flow db ~proto:6 ~src_ip:(Value.Str src_ip)
        ~dst_ip:(Value.Str "93.184.216.34") ~src_port:40000 ~dst_port ~packets:1 ~bytes)
    samples

(* minor-heap words [f] allocates ([Gc.minor_words] itself allocates
   nothing) *)
let alloc_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let test_value_validate () =
  let schema = [ ("a", Value.T_int); ("b", Value.T_str); ("c", Value.T_real) ] in
  Alcotest.(check bool) "valid" true
    (Value.validate schema [| Value.Int 1; Value.Str "x"; Value.Real 2. |] = Ok ());
  Alcotest.(check bool) "int into real" true
    (Value.validate schema [| Value.Int 1; Value.Str "x"; Value.Int 2 |] = Ok ());
  Alcotest.(check bool) "arity" true
    (Result.is_error (Value.validate schema [| Value.Int 1 |]));
  Alcotest.(check bool) "type" true
    (Result.is_error (Value.validate schema [| Value.Str "no"; Value.Str "x"; Value.Real 0. |]))

let test_value_compare () =
  Alcotest.(check bool) "int vs real" true (Value.compare_values (Value.Int 2) (Value.Real 2.5) < 0);
  Alcotest.(check bool) "string order" true (Value.compare_values (Value.Str "a") (Value.Str "b") < 0);
  Alcotest.(check bool) "numeric equal" true (Value.equal (Value.Int 3) (Value.Real 3.));
  Alcotest.check_raises "str vs int" (Invalid_argument "cannot compare varchar with integer")
    (fun () -> ignore (Value.compare_values (Value.Str "a") (Value.Int 1)))

(* ------------------------------------------------------------------ *)
(* Tables & windows                                                    *)
(* ------------------------------------------------------------------ *)

let test_table_insert_and_windows () =
  let t = Table.create ~name:"T" ~capacity:100 [ ("v", Value.T_int) ] in
  List.iter
    (fun (ts, v) -> Result.get_ok (Table.insert t ~now:ts [ Value.Int v ]))
    [ (1., 10); (2., 20); (3., 30); (4., 40) ];
  Alcotest.(check int) "all" 4 (List.length (Table.scan_window t `All));
  (* the window is the closed interval [now - range, now]: the row stamped
     exactly at t = 2 is inside a 2 s window evaluated at t = 4 *)
  Alcotest.(check int) "range 2s from t=4" 3
    (List.length (Table.scan_window t (`Last_seconds (2., 4.))));
  Alcotest.(check int) "last 3 rows" 3 (List.length (Table.scan_window t (`Last_rows 3)));
  Alcotest.(check int) "now" 1 (List.length (Table.scan_window t (`Now 4.)))

let test_window_now_is_ordering_based () =
  let t = Table.create ~name:"T" ~capacity:16 [ ("v", Value.T_int) ] in
  (* the producer clock accumulates 0.1 ten times; its final stamp
     (0.9999999999999999) is not bitwise-equal to the consumer's
     10 *. 0.1 = 1.0, so a float-equality [NOW] would find nothing *)
  let clock = ref 0. in
  for i = 1 to 10 do
    clock := !clock +. 0.1;
    Result.get_ok (Table.insert t ~now:!clock [ Value.Int i ])
  done;
  let consumer_now = 10. *. 0.1 in
  Alcotest.(check bool) "clocks differ bitwise" true (!clock <> consumer_now);
  (match Table.scan_window t (`Now consumer_now) with
  | [ tu ] -> Alcotest.(check bool) "newest row" true (tu.Value.values.(0) = Value.Int 10)
  | l -> Alcotest.failf "NOW at consumer clock: expected 1 row, got %d" (List.length l));
  (* all rows sharing the newest stamp <= now form the batch *)
  let t2 = Table.create ~name:"T2" ~capacity:8 [ ("v", Value.T_int) ] in
  List.iter
    (fun (ts, v) -> Result.get_ok (Table.insert t2 ~now:ts [ Value.Int v ]))
    [ (1., 1); (2., 2); (2., 3) ];
  Alcotest.(check int) "whole batch at newest ts" 2
    (List.length (Table.scan_window t2 (`Now 2.5)));
  Alcotest.(check int) "older instant" 1 (List.length (Table.scan_window t2 (`Now 1.5)));
  Alcotest.(check int) "before any data" 0 (List.length (Table.scan_window t2 (`Now 0.5)))

let test_window_boundary_closed () =
  let t = Table.create ~name:"T" ~capacity:8 [ ("v", Value.T_int) ] in
  List.iter
    (fun (ts, v) -> Result.get_ok (Table.insert t ~now:ts [ Value.Int v ]))
    [ (1., 1); (2., 2); (3., 3) ];
  (* ts = 2 sits exactly on now -. range and must be included *)
  let rows = Table.scan_window t (`Last_seconds (1., 3.)) in
  Alcotest.(check bool) "boundary row included" true
    (List.map (fun (tu : Value.tuple) -> tu.Value.values.(0)) rows
    = [ Value.Int 2; Value.Int 3 ])

let test_window_wraparound () =
  let t = Table.create ~name:"T" ~capacity:8 [ ("v", Value.T_int) ] in
  for i = 1 to 20 do
    Result.get_ok (Table.insert t ~now:(float_of_int i) [ Value.Int i ])
  done;
  (* the ring wrapped past capacity twice; it holds ts 13..20 *)
  let vals w = List.map (fun (tu : Value.tuple) -> tu.Value.values.(0)) (Table.scan_window t w) in
  Alcotest.(check int) "all" 8 (List.length (vals `All));
  Alcotest.(check bool) "range straddles the wrap point" true
    (vals (`Last_seconds (3., 20.)) = [ Value.Int 17; Value.Int 18; Value.Int 19; Value.Int 20 ]);
  Alcotest.(check bool) "last rows" true
    (vals (`Last_rows 3) = [ Value.Int 18; Value.Int 19; Value.Int 20 ]);
  Alcotest.(check int) "last rows clamped to length" 8 (List.length (vals (`Last_rows 100)));
  Alcotest.(check bool) "now" true (vals (`Now 20.) = [ Value.Int 20 ])

let prop_window_scan_matches_reference =
  (* the index-backed scan returns exactly what a naive filter over a
     model of the ring returns, for every window kind, including wrapped
     rings, duplicate timestamps, rows re-stamped from one shared array,
     WAL-style restores and clears *)
  QCheck.Test.make ~name:"index-backed windows match the naive scan" ~count:300
    QCheck.(triple (int_range 1 12) (small_list (pair (int_bound 3) (int_bound 9))) (int_bound 24))
    (fun (cap, steps, wparam) ->
      let t = Table.create ~name:"T" ~capacity:cap [ ("v", Value.T_int) ] in
      let shared = [| Value.Int (-1) |] in
      let clock = ref 0. in
      let model = ref [] (* live rows, oldest first *) in
      let add (tu : Value.tuple) =
        let rows = !model @ [ tu ] in
        let n = List.length rows in
        model := List.filteri (fun i _ -> i >= n - cap) rows
      in
      List.iteri
        (fun i (step, op) ->
          clock := !clock +. (float_of_int step /. 4.);
          let ts = !clock in
          match op with
          | 9 ->
              Table.clear t;
              model := []
          | 8 ->
              let tu = { Value.ts; values = [| Value.Int i |] } in
              Table.restore t tu;
              add tu
          | 6 | 7 ->
              Table.append t ~now:ts shared;
              add { Value.ts; values = shared }
          | _ ->
              Result.get_ok (Table.insert t ~now:ts [ Value.Int i ]);
              add { Value.ts; values = [| Value.Int i |] })
        steps;
      let now = !clock in
      let all = !model in
      let reference = function
        | `All -> all
        | `Last_seconds (r, n) -> List.filter (fun (tu : Value.tuple) -> tu.Value.ts >= n -. r) all
        | `Last_rows k ->
            let len = List.length all in
            List.filteri (fun i _ -> i >= len - k) all
        | `Now n -> (
            match List.filter (fun (tu : Value.tuple) -> tu.Value.ts <= n) all with
            | [] -> []
            | visible ->
                let newest = (List.nth visible (List.length visible - 1)).Value.ts in
                List.filter (fun (tu : Value.tuple) -> tu.Value.ts = newest) all)
      in
      Table.scan t = all
      && List.for_all
           (fun w -> Table.scan_window t w = reference w)
           [
             `All;
             `Last_seconds (float_of_int wparam /. 2., now);
             `Last_rows (wparam mod 7);
             `Now (now -. (float_of_int wparam /. 8.));
           ])

let test_table_eviction_is_fifo () =
  let t = Table.create ~name:"T" ~capacity:3 [ ("v", Value.T_int) ] in
  for i = 1 to 5 do
    Result.get_ok (Table.insert t ~now:(float_of_int i) [ Value.Int i ])
  done;
  let vals = List.map (fun (tu : Value.tuple) -> tu.Value.values.(0)) (Table.scan t) in
  Alcotest.(check bool) "oldest dropped" true
    (vals = [ Value.Int 3; Value.Int 4; Value.Int 5 ]);
  Alcotest.(check int) "total counted" 5 (Table.total_inserted t)

let test_table_triggers () =
  let t = Table.create ~name:"T" ~capacity:4 [ ("v", Value.T_int) ] in
  let fired = ref 0 in
  Table.on_insert t (fun _ -> incr fired);
  Result.get_ok (Table.insert t ~now:0. [ Value.Int 1 ]);
  Result.get_ok (Table.insert t ~now:0. [ Value.Int 2 ]);
  Alcotest.(check int) "trigger per insert" 2 !fired;
  Alcotest.(check bool) "bad insert rejected" true
    (Result.is_error (Table.insert t ~now:0. [ Value.Str "no" ]));
  Alcotest.(check int) "no trigger on reject" 2 !fired

let test_table_append_allocates_nothing () =
  (* a full table without hooks: storing a validated row writes the row
     and its timestamp in place — no option, tuple record or float box *)
  let t = Table.create ~name:"T" ~capacity:64 [ ("v", Value.T_int) ] in
  let row = [| Value.Int 1 |] in
  let now = 5. in
  for _ = 1 to 64 do
    Table.append t ~now row
  done;
  let words =
    alloc_words (fun () ->
        for _ = 1 to 1000 do
          Table.append t ~now row
        done)
  in
  Alcotest.(check (float 0.)) "words for 1000 appends" 0. words;
  Alcotest.(check int) "full" 64 (Table.length t)

let test_record_flow_allocates_its_row () =
  (* a producer builds its row as the array the table stores: ~25 words
     a call (the 7-cell array, five boxed integer cells, the insert
     itself and its sampled latency), where a cell list handed to the
     table to copy added 21 more *)
  let db = fresh_db () in
  let src_ip = Value.Str "10.0.0.5" and dst_ip = Value.Str "93.184.216.34" in
  let record () =
    Database.record_flow db ~proto:6 ~src_ip ~dst_ip ~src_port:40000 ~dst_port:80
      ~packets:1500 ~bytes:2_000_000
  in
  for _ = 1 to 5000 do
    record ()
  done;
  let words =
    alloc_words (fun () ->
        for _ = 1 to 1000 do
          record ()
        done)
    /. 1000.
  in
  Alcotest.(check bool) (Printf.sprintf "%.2f words per record_flow (at most 26)" words) true
    (words <= 26.)

(* the newest row's cells *)
let newest_row t =
  Option.get (Table.fold_window t (`Last_rows 1) ~init:None ~f:(fun _ row _ -> Some row))

let test_table_insert_shares_small_ints () =
  (* every row through [insert] points an integer in [-256, 1023] at one
     cell shared by all tables; one outside keeps its own. The cells are
     built at run time ([opaque_identity]), so no two start out shared. *)
  let schema = [ ("v", Value.T_int) ] in
  let a = Table.create ~name:"A" ~capacity:4 schema in
  let b = Table.create ~name:"B" ~capacity:4 schema in
  let cell t n =
    Result.get_ok (Table.insert t ~now:0. [ Value.Int (Sys.opaque_identity n) ]);
    (newest_row t).(0)
  in
  List.iter
    (fun n ->
      let x = cell a n and y = cell b n in
      Alcotest.(check bool) (Printf.sprintf "%d kept" n) true (Value.equal x (Value.Int n));
      Alcotest.(check bool) (Printf.sprintf "%d shared" n) true (x == y))
    [ -256; -47; 0; 6; 443; 1023 ];
  List.iter
    (fun n ->
      let x = cell a n and y = cell a n in
      Alcotest.(check bool) (Printf.sprintf "%d kept" n) true (Value.equal x (Value.Int n));
      Alcotest.(check bool) (Printf.sprintf "%d own cell" n) false (x == y))
    [ -257; 1024; 40000 ];
  (* the statement path (RPC INSERT) parses a fresh cell per statement *)
  let db = fresh_db () in
  ignore (Result.get_ok (Database.execute db "CREATE TABLE s (v integer)"));
  let via_statement () =
    ignore (Result.get_ok (Database.execute db "INSERT INTO s VALUES (42)"));
    (newest_row (Option.get (Database.table db "s"))).(0)
  in
  Alcotest.(check bool) "INSERT statements share" true (via_statement () == via_statement ())

let test_table_restamp_keeps_cells () =
  (* a cached row is stored as the very array given: the re-stamp reads
     no cell and replaces none, not even a small integer's *)
  let t = Table.create ~name:"T" ~capacity:4 [ ("v", Value.T_int) ] in
  Result.get_ok (Table.insert t ~now:0. [ Value.Int (Sys.opaque_identity 7) ]);
  let shared = (newest_row t).(0) in
  let cached = [| Value.Int (Sys.opaque_identity 7) |] in
  let cell = cached.(0) in
  Table.append_rows t ~now:1. [| cached; cached |];
  Alcotest.(check bool) "the same array" true (newest_row t == cached);
  Alcotest.(check bool) "the same cell" true (cached.(0) == cell);
  Alcotest.(check bool) "not the shared cell" false (cell == shared)

let test_table_position_checked () =
  (* nothing ties a position to its table: one read on another, smaller
     table raises instead of reading past its arrays *)
  let big = Table.create ~name:"B" ~capacity:8 [ ("v", Value.T_int) ] in
  let small = Table.create ~name:"S" ~capacity:2 [ ("v", Value.T_int) ] in
  for i = 1 to 8 do
    Table.append big ~now:(float_of_int i) [| Value.Int i |]
  done;
  Table.append small ~now:1. [| Value.Int 0 |];
  let row, newest =
    Option.get (Table.fold_window big `All ~init:None ~f:(fun _ row p -> Some (row, p)))
  in
  Alcotest.(check bool) "own table" true (row = [| Value.Int 8 |]);
  Alcotest.(check (float 0.)) "own stamp" 8. (Table.stamp big newest);
  Alcotest.check_raises "stamp" (Invalid_argument "index out of bounds") (fun () ->
      ignore (Table.stamp small newest))

let test_table_hook_gets_stored_row () =
  (* with a hook, an append builds only the tuple it hands over, and the
     tuple carries the stored array itself *)
  let t = Table.create ~name:"T" ~capacity:4 [ ("v", Value.T_int) ] in
  let seen = ref [] in
  Table.on_insert t (fun tu -> seen := tu :: !seen);
  let row = [| Value.Int 7 |] in
  Table.append t ~now:3. row;
  Table.append t ~now:4. row;
  (match !seen with
  | [ b; a ] ->
      Alcotest.(check (float 0.)) "first stamp" 3. a.Value.ts;
      Alcotest.(check (float 0.)) "second stamp" 4. b.Value.ts;
      Alcotest.(check bool) "the stored array" true (a.Value.values == row && b.Value.values == row)
  | l -> Alcotest.failf "hook fired %d times" (List.length l));
  Alcotest.(check bool) "scan returns the stored array" true
    (List.for_all (fun (tu : Value.tuple) -> tu.Value.values == row) (Table.scan t));
  let last = ref { Value.ts = 0.; values = [||] } in
  let u = Table.create ~name:"U" ~capacity:4 [ ("v", Value.T_int) ] in
  Table.on_insert u (fun tu -> last := tu);
  for _ = 1 to 4 do
    Table.append u ~now:3. row
  done;
  let n = 1000 in
  let words =
    alloc_words (fun () ->
        for _ = 1 to n do
          Table.append u ~now:3. row
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "one tuple per hooked append (%.1f words)" (words /. float_of_int n))
    true
    (words /. float_of_int n < 4.)

let test_trigger_registration_order () =
  (* triggers are stored newest-first for O(1) registration but must keep
     firing in registration order *)
  let t = Table.create ~name:"T" ~capacity:4 [ ("v", Value.T_int) ] in
  let seen = ref [] in
  for i = 1 to 5 do
    Table.on_insert t (fun _ -> seen := i :: !seen)
  done;
  Result.get_ok (Table.insert t ~now:0. [ Value.Int 1 ]);
  Alcotest.(check (list int)) "fired oldest registration first" [ 1; 2; 3; 4; 5 ]
    (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Lexer / parser                                                      *)
(* ------------------------------------------------------------------ *)

let parse_ok s =
  match Parser.parse s with
  | Ok stmt -> stmt
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_lexer_basics () =
  let toks = Lexer.tokenize "SELECT a, 'it''s' FROM t [RANGE 2.5 SECONDS] WHERE x <> 3" in
  Alcotest.(check bool) "has string with escaped quote" true
    (List.exists (function Lexer.Str_lit "it's" -> true | _ -> false) toks);
  Alcotest.(check bool) "has real" true
    (List.exists (function Lexer.Real_lit 2.5 -> true | _ -> false) toks);
  Alcotest.(check bool) "neq symbol" true
    (List.exists (function Lexer.Sym "<>" -> true | _ -> false) toks)

let test_lexer_errors () =
  Alcotest.(check bool) "unterminated string" true
    (match Lexer.tokenize "SELECT 'oops" with
    | exception Lexer.Lex_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "illegal char" true
    (match Lexer.tokenize "SELECT @" with exception Lexer.Lex_error _ -> true | _ -> false)

let test_parse_select_shapes () =
  (match parse_ok "SELECT * FROM Flows" with
  | Ast.Select { items = [ Ast.Sel_star ]; from = [ ("Flows", None) ]; window = Ast.W_all; _ } ->
      ()
  | _ -> Alcotest.fail "basic select");
  (match parse_ok "SELECT a, b AS bb FROM t [ROWS 5] WHERE a > 1 LIMIT 3" with
  | Ast.Select { items = [ _; Ast.Sel_expr (_, Some "bb") ]; window = Ast.W_rows 5; limit = Some 3; where = Some _; _ }
    ->
      ()
  | _ -> Alcotest.fail "select with options");
  (match parse_ok "SELECT COUNT(*) FROM t [NOW]" with
  | Ast.Select { items = [ Ast.Sel_agg (Ast.Count, None, None) ]; window = Ast.W_now; _ } -> ()
  | _ -> Alcotest.fail "count star");
  (match parse_ok "SELECT SUM(bytes) AS total FROM Flows [RANGE 30 SECONDS] GROUP BY src_ip" with
  | Ast.Select
      { items = [ Ast.Sel_agg (Ast.Sum, Some _, Some "total") ]; group_by = [ (None, "src_ip") ]; _ } ->
      ()
  | _ -> Alcotest.fail "sum group by");
  match parse_ok "SELECT f.src_ip, l.mac FROM Flows f, Leases l WHERE f.src_ip = l.ip" with
  | Ast.Select { from = [ ("Flows", Some "f"); ("Leases", Some "l") ]; _ } -> ()
  | _ -> Alcotest.fail "join with aliases"

let test_parse_other_statements () =
  (match parse_ok "INSERT INTO t VALUES (1, 'x', -2.5, true)" with
  | Ast.Insert ("t", [ Value.Int 1; Value.Str "x"; Value.Real -2.5; Value.Bool true ]) -> ()
  | _ -> Alcotest.fail "insert");
  (match parse_ok "CREATE TABLE t (a INTEGER, b VARCHAR) CAPACITY 64" with
  | Ast.Create { table = "t"; schema = [ ("a", Value.T_int); ("b", Value.T_str) ]; capacity = Some 64 }
    ->
      ()
  | _ -> Alcotest.fail "create");
  (match parse_ok "SUBSCRIBE SELECT * FROM t EVERY 5 SECONDS" with
  | Ast.Subscribe (_, 5.) -> ()
  | _ -> Alcotest.fail "subscribe");
  match parse_ok "UNSUBSCRIBE 3" with
  | Ast.Unsubscribe 3 -> ()
  | _ -> Alcotest.fail "unsubscribe"

let test_parse_expression_precedence () =
  match parse_ok "SELECT a FROM t WHERE a + 2 * b > 4 AND NOT c OR d" with
  | Ast.Select { where = Some (Ast.Binop (Ast.Or, Ast.Binop (Ast.And, gt, _not), _d)); _ } -> (
      match gt with
      | Ast.Binop (Ast.Gt, Ast.Binop (Ast.Add, _, Ast.Binop (Ast.Mul, _, _)), _) -> ()
      | _ -> Alcotest.fail "arith precedence")
  | _ -> Alcotest.fail "boolean precedence"

let test_parse_errors () =
  List.iter
    (fun bad ->
      match Parser.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "";
      "SELECT";
      "SELECT FROM t";
      "SELECT * FROM";
      "SELECT * FROM t [RANGE SECONDS]";
      "SELECT * FROM t WHERE";
      "INSERT INTO t VALUES ()";
      "CREATE TABLE t ()";
      "SELECT * FROM t trailing garbage here ,";
      "SUBSCRIBE SELECT * FROM t EVERY SECONDS";
    ]

let prop_stmt_print_parse_fixpoint =
  (* statements printed by Ast.to_string re-parse to an identical AST *)
  let stmt_gen =
    let open QCheck.Gen in
    let ident = map (Printf.sprintf "c%d") (int_bound 5) in
    let table = map (Printf.sprintf "t%d") (int_bound 3) in
    let lit =
      oneof
        [
          map (fun i -> Value.Int i) small_signed_int;
          map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'z') (int_bound 6));
          map (fun b -> Value.Bool b) bool;
        ]
    in
    let expr =
      oneof
        [
          map (fun (q, n) -> Ast.Col (q, n)) (pair (oneof [ return None; map Option.some table ]) ident);
          map (fun v -> Ast.Lit v) lit;
          map2 (fun a b -> Ast.Binop (Ast.Add, Ast.Col (None, a), Ast.Lit b)) ident lit;
        ]
    in
    let window =
      oneof
        [
          return Ast.W_all;
          map (fun n -> Ast.W_rows (1 + n)) small_nat;
          map (fun n -> Ast.W_range_sec (float_of_int (1 + n))) small_nat;
          return Ast.W_now;
        ]
    in
    let item =
      oneof
        [
          return Ast.Sel_star;
          map (fun e -> Ast.Sel_expr (e, None)) expr;
          map (fun (e, a) -> Ast.Sel_expr (e, Some a)) (pair expr ident);
          map (fun e -> Ast.Sel_agg (Ast.Sum, Some e, Some "s")) expr;
          return (Ast.Sel_agg (Ast.Count, None, None));
        ]
    in
    let select =
      map
        (fun ((items, tbl, window), (where, group_by, limit)) ->
          {
            Ast.items;
            from = [ (tbl, None) ];
            window;
            where;
            group_by;
            having = None;
            order_by = None;
            limit;
          })
        (pair
           (triple (list_size (int_range 1 3) item) table window)
           (triple
              (oneof [ return None; map (fun e -> Some (Ast.Binop (Ast.Gt, e, Ast.Lit (Value.Int 0)))) expr ])
              (oneof [ return []; map (fun c -> [ (None, c) ]) ident ])
              (oneof [ return None; map (fun n -> Some (1 + n)) small_nat ])))
    in
    oneof
      [
        map (fun s -> Ast.Select s) select;
        map2 (fun t vs -> Ast.Insert (t, vs)) table (list_size (int_range 1 3) lit);
        map (fun (s, p) -> Ast.Subscribe (s, float_of_int (1 + p))) (pair select small_nat);
        map (fun n -> Ast.Unsubscribe n) small_nat;
      ]
  in
  QCheck.Test.make ~name:"print/parse fixpoint" ~count:300
    (QCheck.make stmt_gen ~print:Ast.to_string)
    (fun stmt ->
      match Parser.parse (Ast.to_string stmt) with
      | Ok stmt' -> Ast.to_string stmt = Ast.to_string stmt'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Query execution                                                     *)
(* ------------------------------------------------------------------ *)

let test_query_projection_where () =
  let db = fresh_db () in
  seed_flows db [ (1., "10.0.0.1", 80, 100); (2., "10.0.0.2", 443, 200); (3., "10.0.0.1", 80, 300) ];
  let rows = rows_of db "SELECT src_ip, bytes FROM Flows WHERE src_ip = '10.0.0.1'" in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let rows = rows_of db "SELECT bytes FROM Flows WHERE bytes > 150 AND dst_port = 443" in
  Alcotest.(check bool) "filtered" true (rows = [ [ Value.Int 200 ] ])

let test_query_arithmetic () =
  let db = fresh_db () in
  seed_flows db [ (1., "10.0.0.1", 80, 100) ];
  match rows_of db "SELECT bytes * 8 AS bits, bytes / 10, bytes % 30 FROM Flows" with
  | [ [ Value.Int 800; Value.Int 10; Value.Int 10 ] ] -> ()
  | rows -> Alcotest.failf "unexpected rows (%d)" (List.length rows)

let test_query_window () =
  let db = fresh_db () in
  seed_flows db [ (1., "a", 80, 1); (5., "b", 80, 2); (9., "c", 80, 3) ];
  now := 10.;
  Alcotest.(check int) "range 6s" 2
    (List.length (rows_of db "SELECT * FROM Flows [RANGE 6 SECONDS]"));
  (* closed interval: the row stamped exactly at now - 5 is in the window *)
  Alcotest.(check int) "range boundary row included" 2
    (List.length (rows_of db "SELECT * FROM Flows [RANGE 5 SECONDS]"));
  Alcotest.(check int) "rows 1" 1 (List.length (rows_of db "SELECT * FROM Flows [ROWS 1]"));
  Alcotest.(check int) "full" 3 (List.length (rows_of db "SELECT * FROM Flows"))

let test_query_group_by_aggregates () =
  let db = fresh_db () in
  seed_flows db
    [ (1., "10.0.0.1", 80, 100); (2., "10.0.0.1", 80, 300); (3., "10.0.0.2", 443, 50) ];
  let rows =
    rows_of db
      "SELECT src_ip, COUNT(*) AS n, SUM(bytes) AS total, AVG(bytes) AS mean, MIN(bytes), \
       MAX(bytes) FROM Flows GROUP BY src_ip ORDER BY total DESC"
  in
  match rows with
  | [
   [ Value.Str "10.0.0.1"; Value.Int 2; Value.Real 400.; Value.Real 200.; Value.Int 100; Value.Int 300 ];
   [ Value.Str "10.0.0.2"; Value.Int 1; Value.Real 50.; Value.Real 50.; Value.Int 50; Value.Int 50 ];
  ] ->
      ()
  | _ ->
      Alcotest.failf "unexpected group-by result: %s"
        (String.concat ";"
           (List.map (fun r -> String.concat "," (List.map Value.to_string r)) rows))

let test_query_aggregate_without_group () =
  let db = fresh_db () in
  seed_flows db [ (1., "a", 80, 10); (2., "b", 80, 20) ];
  match rows_of db "SELECT COUNT(*) AS n, SUM(bytes) AS s FROM Flows" with
  | [ [ Value.Int 2; Value.Real 30. ] ] -> ()
  | _ -> Alcotest.fail "aggregate without group"

let test_global_aggregate_over_empty () =
  let db = fresh_db () in
  (* SQL semantics: a global aggregate over zero rows yields one row *)
  (match rows_of db "SELECT COUNT(*) AS n FROM Flows" with
  | [ [ Value.Int 0 ] ] -> ()
  | _ -> Alcotest.fail "count over empty");
  (match rows_of db "SELECT SUM(bytes) AS s FROM Flows WHERE bytes > 999" with
  | [ [ Value.Real 0. ] ] -> ()
  | _ -> Alcotest.fail "sum over empty");
  (* but projecting a plain column from zero rows is an error *)
  Alcotest.(check bool) "column from empty group" true
    (String.length (q_error db "SELECT src_ip, COUNT(*) FROM Flows") > 0)

let test_query_having () =
  let db = fresh_db () in
  seed_flows db
    [ (1., "10.0.0.1", 80, 100); (2., "10.0.0.1", 80, 300); (3., "10.0.0.2", 443, 50) ];
  (* aggregate subject *)
  (match
     rows_of db
       "SELECT src_ip, SUM(bytes) AS b FROM Flows GROUP BY src_ip HAVING SUM(bytes) > 100"
   with
  | [ [ Value.Str "10.0.0.1"; Value.Real 400. ] ] -> ()
  | rows -> Alcotest.failf "having agg: %d rows" (List.length rows));
  (* count subject *)
  (match rows_of db "SELECT src_ip FROM Flows GROUP BY src_ip HAVING COUNT(*) >= 2" with
  | [ [ Value.Str "10.0.0.1" ] ] -> ()
  | _ -> Alcotest.fail "having count");
  (* group-column subject *)
  (match
     rows_of db "SELECT src_ip FROM Flows GROUP BY src_ip HAVING src_ip = '10.0.0.2'"
   with
  | [ [ Value.Str "10.0.0.2" ] ] -> ()
  | _ -> Alcotest.fail "having column");
  (* print/parse fixpoint for HAVING *)
  let q = "SELECT src_ip FROM Flows GROUP BY src_ip HAVING SUM(bytes) > 100" in
  match Parser.parse q with
  | Ok stmt -> Alcotest.(check string) "roundtrip" q (Ast.to_string stmt)
  | Error e -> Alcotest.fail e

let test_query_join () =
  let db = fresh_db () in
  now := 1.;
  Database.record_lease db ~mac:(Value.Str "m1") ~ip:(Value.Str "10.0.0.1") ~hostname:"laptop"
    ~action:"grant";
  Database.record_lease db ~mac:(Value.Str "m2") ~ip:(Value.Str "10.0.0.2") ~hostname:"phone"
    ~action:"grant";
  seed_flows db [ (2., "10.0.0.1", 80, 111) ];
  let rows =
    rows_of db
      "SELECT l.hostname, f.bytes FROM Flows f, Leases l WHERE f.src_ip = l.ip"
  in
  Alcotest.(check bool) "joined" true (rows = [ [ Value.Str "laptop"; Value.Int 111 ] ])

let test_query_order_limit () =
  let db = fresh_db () in
  seed_flows db [ (1., "a", 80, 3); (2., "b", 80, 1); (3., "c", 80, 2) ];
  (match rows_of db "SELECT src_ip, bytes FROM Flows ORDER BY bytes ASC LIMIT 2" with
  | [ [ Value.Str "b"; _ ]; [ Value.Str "c"; _ ] ] -> ()
  | _ -> Alcotest.fail "order asc limit");
  match rows_of db "SELECT src_ip, bytes FROM Flows ORDER BY bytes DESC LIMIT 1" with
  | [ [ Value.Str "a"; _ ] ] -> ()
  | _ -> Alcotest.fail "order desc"

let test_query_ts_column () =
  let db = fresh_db () in
  seed_flows db [ (5., "a", 80, 1) ];
  match rows_of db "SELECT ts FROM Flows" with
  | [ [ Value.Ts 5. ] ] -> ()
  | _ -> Alcotest.fail "implicit ts column"

let test_query_errors () =
  let db = fresh_db () in
  seed_flows db [ (1., "a", 80, 1) ];
  Alcotest.(check bool) "unknown table" true
    (String.length (q_error db "SELECT * FROM nope") > 0);
  Alcotest.(check bool) "unknown column" true
    (String.length (q_error db "SELECT wat FROM Flows") > 0);
  Alcotest.(check bool) "non-boolean where" true
    (String.length (q_error db "SELECT * FROM Flows WHERE bytes") > 0);
  Alcotest.(check bool) "star with aggregate" true
    (String.length (q_error db "SELECT *, COUNT(*) FROM Flows") > 0);
  Alcotest.(check bool) "order by unknown output" true
    (String.length (q_error db "SELECT src_ip FROM Flows ORDER BY bytes") > 0);
  (* column resolution happens per-row, so the join needs data on both
     sides for the ambiguity to surface *)
  Database.record_lease db ~mac:(Value.Str "m") ~ip:(Value.Str "10.0.0.9") ~hostname:"h"
    ~action:"grant";
  Alcotest.(check bool) "ambiguous column in join" true
    (String.length (q_error db "SELECT ts FROM Flows f, Leases l") > 0)

(* perfbench's one-shot UI query and fleet survey *)
let oneshot_statement =
  "SELECT mac, AVG(rssi) AS rssi, MAX(retries) AS retries FROM Links [RANGE 60 SECONDS] GROUP \
   BY mac"

let test_grouped_scan_allocates_per_group () =
  (* a grouped query folds each row into its group's accumulators in
     place: what it allocates follows the groups, not the rows *)
  List.iter
    (fun groups ->
      let db = fresh_db () in
      let rows = 1000 in
      for i = 0 to rows - 1 do
        now := float_of_int i *. 0.05;
        Database.record_link db
          ~mac:(Value.Str (Printf.sprintf "02:00:00:00:00:%02x" (i mod groups)))
          ~rssi:(-40 - (i mod 30)) ~retries:(i mod 7) ~packets:i
      done;
      Alcotest.(check int) "one row per group" groups (List.length (rows_of db oneshot_statement));
      let words = alloc_words (fun () -> ignore (Database.query db oneshot_statement)) in
      Alcotest.(check bool)
        (Printf.sprintf "%d groups: %.0f words over %d rows" groups words rows)
        true
        (words /. float_of_int rows < 2.))
    [ 16; 6 ]

(* A router's rows about one station share its one address cell, so a
   row's group is found through the previous row's group's successor
   hint: past a first round of misses a row allocates nothing, and the
   scan allocates the same over 1,000 rows as over 4,000, whether it
   groups by one column or by three (a key list is built only on a
   miss). 12 hosts, so the misses probe the hash table, not the linear
   groups; ports below 1024, so [Table.insert] shares their cells. *)
let test_grouped_scan_shared_cells_allocates_per_group () =
  let hosts = Array.init 12 (fun i -> Value.Str (Printf.sprintf "host-%d" i)) in
  let ups = [| Value.Bool (Sys.opaque_identity false); Value.Bool (Sys.opaque_identity true) |] in
  let words q rows =
    let db = fresh_db () in
    ignore
      (Result.get_ok
         (Database.execute db
            "CREATE TABLE S (host VARCHAR, port INTEGER, up BOOLEAN, v INTEGER) CAPACITY 4096"));
    for i = 0 to rows - 1 do
      now := float_of_int i *. 0.01;
      Result.get_ok
        (Database.insert db ~table:"S"
           [ hosts.(i mod 12); Value.Int (440 + (i mod 12)); ups.(i mod 12 / 6); Value.Int i ])
    done;
    Alcotest.(check int) "one row per host" 12 (List.length (rows_of db q));
    alloc_words (fun () -> ignore (Database.query db q))
  in
  List.iter
    (fun (name, q) ->
      let small = words q 1000 and large = words q 4000 in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s: words over 1,000 rows = over 4,000" name)
        small large)
    [
      ("one key column", "SELECT host, AVG(v) AS v, MAX(port) AS p FROM S GROUP BY host");
      ( "three key columns",
        "SELECT host, port, up, SUM(v) AS v, COUNT(*) AS n FROM S GROUP BY host, port, up" );
    ]

let test_int_group_key_allocates_per_group () =
  (* a single integer GROUP BY column keys on its cell: no per-row text *)
  let db = fresh_db () in
  for i = 0 to 999 do
    now := float_of_int i *. 0.05;
    Database.record_flow db
      ~proto:(if i mod 3 = 0 then 17 else 6)
      ~src_ip:(Value.Str "10.0.0.2") ~dst_ip:(Value.Str "93.184.216.34") ~src_port:(40000 + i)
      ~dst_port:443 ~packets:1 ~bytes:i
  done;
  let q = "SELECT proto, COUNT(*) FROM Flows GROUP BY proto" in
  Alcotest.(check (list (list string)))
    "groups in first-appearance order"
    [ [ "17"; "334" ]; [ "6"; "666" ] ]
    (List.map (List.map Value.to_string) (rows_of db q));
  let words = alloc_words (fun () -> ignore (Database.query db q)) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words over 1000 rows" words)
    true (words /. 1000. < 2.)

let test_division_by_zero_is_error () =
  let db = fresh_db () in
  seed_flows db [ (1., "a", 80, 1) ];
  Alcotest.(check bool) "div by zero" true
    (String.length (q_error db "SELECT bytes / 0 FROM Flows") > 0)

(* ------------------------------------------------------------------ *)
(* Database statements & subscriptions                                 *)
(* ------------------------------------------------------------------ *)

let test_execute_create_insert_select () =
  let db = fresh_db () in
  Result.get_ok (Database.execute db "CREATE TABLE sensors (room VARCHAR, temp REAL) CAPACITY 8")
  |> ignore;
  Result.get_ok (Database.execute db "INSERT INTO sensors VALUES ('kitchen', 21.5)") |> ignore;
  Result.get_ok (Database.execute db "INSERT INTO sensors VALUES ('hall', 19.0)") |> ignore;
  match Database.execute db "SELECT room FROM sensors WHERE temp > 20" with
  | Ok (Some rs) -> Alcotest.(check bool) "selected" true (rs.Query.rows = [ [ Value.Str "kitchen" ] ])
  | _ -> Alcotest.fail "select failed"

let test_execute_duplicate_create () =
  let db = fresh_db () in
  match Database.execute db "CREATE TABLE Flows (x INTEGER)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate table accepted"

let test_subscription_delivery () =
  let db = fresh_db () in
  let received = ref [] in
  let sel = Result.get_ok (Parser.parse_select "SELECT COUNT(*) AS n FROM Flows") in
  let id =
    Database.subscribe db ~query:sel ~period:5. ~callback:(fun rs -> received := rs :: !received)
  in
  Alcotest.(check int) "registered" 1 (Database.subscription_count db);
  now := 4.;
  Database.tick db;
  Alcotest.(check int) "not due yet" 0 (List.length !received);
  now := 5.;
  Database.tick db;
  Alcotest.(check int) "delivered at period" 1 (List.length !received);
  now := 6.;
  Database.tick db;
  Alcotest.(check int) "not again early" 1 (List.length !received);
  now := 30.;
  Database.tick db;
  (* catch-up collapses missed firings into one *)
  Alcotest.(check int) "no replay burst" 2 (List.length !received);
  Alcotest.(check bool) "unsubscribe works" true (Database.unsubscribe db id);
  Alcotest.(check bool) "idempotent" false (Database.unsubscribe db id)

let test_subscription_shared_evaluation () =
  let db = fresh_db () in
  let sel = Result.get_ok (Parser.parse_select "SELECT COUNT(*) AS n FROM Flows") in
  let results = ref [] in
  (* the first subscriber's callback inserts a row; the second shares the
     query text, so it must receive the same pre-insert snapshot instead
     of paying a second evaluation that would observe the new row *)
  ignore
    (Database.subscribe db ~query:sel ~period:1. ~callback:(fun rs ->
         results := ("a", rs) :: !results;
         Database.record_flow db ~proto:6 ~src_ip:(Value.Str "x") ~dst_ip:(Value.Str "y")
           ~src_port:1 ~dst_port:2 ~packets:1 ~bytes:1));
  ignore
    (Database.subscribe db ~query:sel ~period:1. ~callback:(fun rs ->
         results := ("b", rs) :: !results));
  now := 1.;
  Database.tick db;
  match List.rev !results with
  | [ ("a", ra); ("b", rb) ] ->
      Alcotest.(check bool) "identical snapshot" true (ra.Query.rows = rb.Query.rows);
      Alcotest.(check bool) "count is pre-insert" true (ra.Query.rows = [ [ Value.Int 0 ] ])
  | l -> Alcotest.failf "expected two deliveries, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* ECA triggers                                                        *)
(* ------------------------------------------------------------------ *)

let exec_ok db stmt =
  match Database.execute db stmt with
  | Ok r -> r
  | Error e -> Alcotest.failf "execute %S: %s" stmt e

let test_trigger_fires_on_condition () =
  let db = fresh_db () in
  ignore (exec_ok db "CREATE TABLE Alerts (what VARCHAR, who VARCHAR, amount INTEGER)");
  ignore
    (exec_ok db
       "ON INSERT INTO Flows WHEN bytes > 1000 DO INSERT INTO Alerts VALUES ('big-flow', \
        src_ip, bytes * 8)");
  Alcotest.(check int) "registered" 1 (Database.trigger_count db);
  seed_flows db [ (1., "10.0.0.1", 80, 500); (2., "10.0.0.2", 80, 5000); (3., "10.0.0.3", 80, 900) ];
  match rows_of db "SELECT what, who, amount FROM Alerts" with
  | [ [ Value.Str "big-flow"; Value.Str "10.0.0.2"; Value.Int 40000 ] ] -> ()
  | rows -> Alcotest.failf "alerts wrong (%d rows)" (List.length rows)

let test_trigger_without_condition_and_drop () =
  let db = fresh_db () in
  ignore (exec_ok db "CREATE TABLE Log (ip VARCHAR)");
  let id =
    match exec_ok db "ON INSERT INTO Flows DO INSERT INTO Log VALUES (src_ip)" with
    | Some { Query.rows = [ [ Value.Int id ] ]; _ } -> id
    | _ -> Alcotest.fail "no trigger id"
  in
  seed_flows db [ (1., "a", 80, 1); (2., "b", 80, 1) ];
  Alcotest.(check int) "all inserts mirrored" 2 (List.length (rows_of db "SELECT * FROM Log"));
  ignore (exec_ok db (Printf.sprintf "DROP TRIGGER %d" id));
  Alcotest.(check int) "dropped" 0 (Database.trigger_count db);
  seed_flows db [ (3., "c", 80, 1) ];
  Alcotest.(check int) "no longer fires" 2 (List.length (rows_of db "SELECT * FROM Log"));
  Alcotest.(check bool) "double drop fails" true
    (Result.is_error (Database.execute db (Printf.sprintf "DROP TRIGGER %d" id)))

let test_dropped_trigger_detaches_hook () =
  (* a dropped trigger leaves no hook on its table: an append into a
     table with no hooks allocates nothing *)
  let db = Database.create_empty ~now:clock () in
  ignore (exec_ok db "CREATE TABLE E (v INTEGER)");
  ignore (exec_ok db "CREATE TABLE L (v INTEGER)");
  let id =
    match exec_ok db "ON INSERT INTO E DO INSERT INTO L VALUES (v)" with
    | Some { Query.rows = [ [ Value.Int id ] ]; _ } -> id
    | _ -> Alcotest.fail "no trigger id"
  in
  ignore (exec_ok db (Printf.sprintf "DROP TRIGGER %d" id));
  let e = Option.get (Database.table db "E") in
  let row = [| Value.Int 1 |] in
  let words =
    alloc_words (fun () ->
        for _ = 1 to 1000 do
          Table.append e ~now:1. row
        done)
  in
  Alcotest.(check (float 0.)) "words for 1000 appends" 0. words;
  Alcotest.(check int) "nothing mirrored" 0 (List.length (rows_of db "SELECT * FROM L"))

let test_trigger_chain_and_loop_guard () =
  let db = fresh_db () in
  ignore (exec_ok db "CREATE TABLE A (v INTEGER)");
  ignore (exec_ok db "CREATE TABLE B (v INTEGER)");
  (* A -> B -> A: the depth guard must stop the ping-pong *)
  ignore (exec_ok db "ON INSERT INTO A DO INSERT INTO B VALUES (v + 1)");
  ignore (exec_ok db "ON INSERT INTO B DO INSERT INTO A VALUES (v + 1)");
  ignore (exec_ok db "INSERT INTO A VALUES (0)");
  let count t = List.length (rows_of db (Printf.sprintf "SELECT * FROM %s" t)) in
  Alcotest.(check bool) "bounded" true (count "A" + count "B" <= 10);
  Alcotest.(check bool) "chained at least once" true (count "B" >= 1)

let test_trigger_validation () =
  let db = fresh_db () in
  Alcotest.(check bool) "unknown watch" true
    (Result.is_error (Database.execute db "ON INSERT INTO Nope DO INSERT INTO Flows VALUES (1)"));
  Alcotest.(check bool) "unknown target" true
    (Result.is_error (Database.execute db "ON INSERT INTO Flows DO INSERT INTO Nope VALUES (1)"));
  Alcotest.(check bool) "arity mismatch" true
    (Result.is_error
       (Database.execute db "ON INSERT INTO Flows DO INSERT INTO Leases VALUES (src_ip)"));
  (* a trigger whose action produces a type error is isolated at runtime *)
  ignore (exec_ok db "CREATE TABLE L (n INTEGER)");
  ignore (exec_ok db "ON INSERT INTO Flows DO INSERT INTO L VALUES (src_ip)");
  seed_flows db [ (1., "a", 80, 1) ];
  Alcotest.(check int) "bad action skipped" 0 (List.length (rows_of db "SELECT * FROM L"));
  Alcotest.(check int) "source insert unaffected" 1
    (List.length (rows_of db "SELECT * FROM Flows"))

let test_trigger_unknown_column_refused () =
  let db = fresh_db () in
  ignore (exec_ok db "CREATE TABLE Log (ip VARCHAR)");
  let before = Database.trigger_count db in
  List.iter
    (fun stmt ->
      match Database.execute db stmt with
      | Ok _ -> Alcotest.failf "accepted %S" stmt
      | Error e ->
          Alcotest.(check bool) (e ^ " names an unknown column") true
            (Re.execp (Re.compile (Re.str "unknown column")) e))
    [
      "ON INSERT INTO Flows WHEN ghost > 1 DO INSERT INTO Log VALUES (src_ip)";
      "ON INSERT INTO Flows DO INSERT INTO Log VALUES (ghost)";
      "ON INSERT INTO Flows WHEN Leases.mac = 'x' DO INSERT INTO Log VALUES (src_ip)";
    ];
  Alcotest.(check int) "none registered" before (Database.trigger_count db);
  seed_flows db [ (1., "a", 80, 1) ];
  Alcotest.(check int) "nothing fired" 0 (List.length (rows_of db "SELECT * FROM Log"))

let test_trigger_statement_roundtrip () =
  let q = "ON INSERT INTO Flows WHEN (bytes > 1000) DO INSERT INTO Alerts VALUES (src_ip, (bytes * 8))" in
  match Parser.parse q with
  | Ok stmt -> Alcotest.(check string) "print/parse" q (Ast.to_string stmt)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* RPC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rpc_codec_roundtrip () =
  let rs =
    {
      Query.columns = [ "a"; "b" ];
      rows = [ [ Value.Int 1; Value.Str "x" ]; [ Value.Real 2.5; Value.Bool false ] ];
    }
  in
  let messages =
    [
      Rpc.Request { seq = 7l; statement = "SELECT * FROM Flows"; ctx = None };
      Rpc.Request
        {
          seq = 8l;
          statement = "SELECT * FROM Flows";
          ctx = Some { Rpc.trace_id = 0x1122334455667788; parent_span = 42 };
        };
      Rpc.Response_ok { seq = 7l; result = Some rs };
      Rpc.Response_ok { seq = 8l; result = None };
      Rpc.Response_error { seq = 9l; message = "nope" };
      Rpc.Publish { subscription = 3; result = rs };
    ]
  in
  List.iter
    (fun msg ->
      match Rpc.decode (Rpc.encode msg) with
      | Ok msg' -> Alcotest.(check bool) "roundtrip" true (msg = msg')
      | Error e -> Alcotest.failf "rpc decode: %s" e)
    messages

(* A context-free peer predates the trace-context trailer: its frames end
   at the statement. They must decode to [ctx = None], be byte-identical
   to what we emit for [ctx = None], and be served — and a trailer whose
   flag byte is 0 must read as "no context", not garbage. *)
let test_rpc_old_format_interop () =
  let module Wire = Hw_util.Wire in
  let statement = "SELECT * FROM Flows" in
  let old_frame =
    let w = Wire.Writer.create () in
    Wire.Writer.u16 w 0x4877;
    (* magic *)
    Wire.Writer.u8 w 1;
    (* version *)
    Wire.Writer.u8 w 1;
    (* type = Request *)
    Wire.Writer.u32 w 7l;
    Wire.Writer.u16 w (String.length statement);
    Wire.Writer.string w statement;
    Wire.Writer.contents w
  in
  (match Rpc.decode old_frame with
  | Ok (Rpc.Request { seq = 7l; statement = s; ctx = None }) ->
      Alcotest.(check string) "statement survives" statement s
  | Ok _ -> Alcotest.fail "old frame decoded to the wrong message"
  | Error e -> Alcotest.failf "old frame rejected: %s" e);
  (* our own context-free encoding IS the old format, byte for byte *)
  Alcotest.(check string) "ctx-free encode is byte-identical to the old frame" old_frame
    (Rpc.encode (Rpc.Request { seq = 7l; statement; ctx = None }));
  (* a present trailer with flag byte 0 means "no context" *)
  let flag0 = old_frame ^ "\x00" in
  (match Rpc.decode flag0 with
  | Ok (Rpc.Request { ctx = None; _ }) -> ()
  | Ok _ -> Alcotest.fail "flag-0 trailer produced a context"
  | Error e -> Alcotest.failf "flag-0 trailer rejected: %s" e);
  (* and the server serves the old frame like any other request *)
  let db = fresh_db () in
  seed_flows db [ (1., "10.0.0.1", 80, 99) ];
  let replies = ref [] in
  let server =
    Rpc.Server.create ~db ~send:(fun ~to_:_ datagram -> replies := datagram :: !replies) ()
  in
  Rpc.Server.handle_datagram server ~from:"legacy" old_frame;
  match !replies with
  | [ datagram ] -> (
      match Rpc.decode datagram with
      | Ok (Rpc.Response_ok { seq = 7l; result = Some rs }) ->
          Alcotest.(check int) "legacy peer got its rows" 1 (List.length rs.Query.rows)
      | _ -> Alcotest.fail "legacy request not answered with rows")
  | l -> Alcotest.failf "expected 1 reply, got %d" (List.length l)

let test_rpc_rejects_garbage () =
  Alcotest.(check bool) "bad magic" true (Result.is_error (Rpc.decode "XXlolno"));
  Alcotest.(check bool) "empty" true (Result.is_error (Rpc.decode ""))

let test_rpc_rejects_oversized_strings () =
  (* string lengths travel as u16: a 70000-byte value must raise instead
     of silently truncating the length field and corrupting the frame *)
  let big = String.make 70000 'x' in
  (match Rpc.encode (Rpc.Request { seq = 1l; statement = big; ctx = None }) with
  | exception Rpc.Encode_error _ -> ()
  | _ -> Alcotest.fail "oversized statement encoded");
  (let rs = { Query.columns = [ "c" ]; rows = [ [ Value.Str big ] ] } in
   match Rpc.encode (Rpc.Publish { subscription = 1; result = rs }) with
   | exception Rpc.Encode_error _ -> ()
   | _ -> Alcotest.fail "oversized value encoded");
  (* exactly 65535 bytes is the largest representable string and roundtrips *)
  let edge = String.make 0xffff 'y' in
  match Rpc.decode (Rpc.encode (Rpc.Request { seq = 2l; statement = edge; ctx = None })) with
  | Ok (Rpc.Request { statement; _ }) ->
      Alcotest.(check int) "edge length preserved" 0xffff (String.length statement)
  | _ -> Alcotest.fail "edge-length string did not roundtrip"

let make_rpc_pair db =
  let server_out = Queue.create () in
  let server =
    Rpc.Server.create ~db ~send:(fun ~to_ datagram -> Queue.add (to_, datagram) server_out) ()
  in
  let client_out = Queue.create () in
  let client = Rpc.Client.create ~send:(fun datagram -> Queue.add datagram client_out) () in
  let pump () =
    while not (Queue.is_empty client_out) do
      Rpc.Server.handle_datagram server ~from:"c1" (Queue.pop client_out)
    done;
    while not (Queue.is_empty server_out) do
      let to_, datagram = Queue.pop server_out in
      if to_ = "c1" then Rpc.Client.handle_datagram client datagram
    done
  in
  (server, client, pump)

let test_rpc_query_roundtrip () =
  let db = fresh_db () in
  seed_flows db [ (1., "10.0.0.1", 80, 99) ];
  let _server, client, pump = make_rpc_pair db in
  let answer = ref None in
  Rpc.Client.request client "SELECT src_ip, bytes FROM Flows" ~on_reply:(fun r -> answer := Some r);
  pump ();
  (match !answer with
  | Some (Ok (Some rs)) ->
      Alcotest.(check bool) "row" true (rs.Query.rows = [ [ Value.Str "10.0.0.1"; Value.Int 99 ] ])
  | _ -> Alcotest.fail "no answer");
  Alcotest.(check int) "nothing pending" 0 (Rpc.Client.pending_count client)

let test_rpc_error_reply () =
  let db = fresh_db () in
  let _server, client, pump = make_rpc_pair db in
  let answer = ref None in
  Rpc.Client.request client "SELECT broken FROM" ~on_reply:(fun r -> answer := Some r);
  pump ();
  match !answer with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "expected error reply"

(* The dedup window keeps only the replies of statements that change
   state: 300 SELECTs leave it empty, a duplicated SELECT executes twice
   (the second answer sees a row inserted in between) and adds no dedup
   hit, and a retried UNSUBSCRIBE still replays its OK instead of
   executing again into "no subscription". *)
let test_rpc_dedup_keeps_state_changes_only () =
  let metrics = Hw_metrics.Registry.create () in
  now := 0.;
  let db = Database.create ~metrics ~now:clock () in
  let replies = ref [] in
  let server =
    Rpc.Server.create ~db ~send:(fun ~to_:_ data -> replies := Rpc.decode data :: !replies) ()
  in
  let datagram seq statement =
    Rpc.encode (Rpc.Request { seq = Int32.of_int seq; statement; ctx = None })
  in
  let handle data = Rpc.Server.handle_datagram server ~from:"c1" data in
  let hits () =
    Hw_metrics.Counter.value (Hw_metrics.Registry.counter metrics "rpc_dedup_hits_total")
  in
  let count = "SELECT COUNT(*) AS n FROM Flows" in
  for seq = 1 to 300 do
    handle (datagram seq count)
  done;
  Alcotest.(check int) "300 answers" 300 (List.length !replies);
  Alcotest.(check int) "no reply kept for a SELECT" 0 (Rpc.Server.kept_replies server);
  replies := [];
  let select = datagram 301 count in
  handle select;
  seed_flows db [ (1., "10.0.0.1", 80, 99) ];
  handle select;
  let counted = function
    | Ok (Rpc.Response_ok { seq = 301l; result = Some { Query.rows = [ [ Value.Int n ] ]; _ } }) -> n
    | _ -> Alcotest.fail "expected a COUNT answer to seq 301"
  in
  Alcotest.(check (list int)) "a duplicated SELECT executes twice" [ 0; 1 ]
    (List.rev_map counted !replies);
  Alcotest.(check int) "no dedup hit" 0 (hits ());
  replies := [];
  handle (datagram 302 "SUBSCRIBE SELECT COUNT(*) AS n FROM Flows EVERY 2 SECONDS");
  let id =
    match !replies with
    | [ Ok (Rpc.Response_ok { result = Some { Query.rows = [ [ Value.Int id ] ]; _ }; _ }) ] -> id
    | _ -> Alcotest.fail "expected a subscription id"
  in
  replies := [];
  let unsubscribe = datagram 303 (Printf.sprintf "UNSUBSCRIBE %d" id) in
  handle unsubscribe;
  handle unsubscribe;
  let ok = function Ok (Rpc.Response_ok { seq = 303l; result = None }) -> true | _ -> false in
  Alcotest.(check (list bool)) "a retried UNSUBSCRIBE replays its OK" [ true; true ]
    (List.map ok !replies);
  Alcotest.(check int) "one dedup hit" 1 (hits ());
  Alcotest.(check int) "the SUBSCRIBE's and UNSUBSCRIBE's replies kept" 2
    (Rpc.Server.kept_replies server)

let test_rpc_subscribe_publish () =
  let db = fresh_db () in
  let server, client, pump = make_rpc_pair db in
  let published = ref [] in
  Rpc.Client.on_publish client (fun ~subscription rs -> published := (subscription, rs) :: !published);
  let sub_reply = ref None in
  Rpc.Client.request client "SUBSCRIBE SELECT COUNT(*) AS n FROM Flows EVERY 2 SECONDS"
    ~on_reply:(fun r -> sub_reply := Some r);
  pump ();
  Alcotest.(check int) "one subscriber" 1 (Rpc.Server.subscriber_count server);
  now := 2.;
  Database.tick db;
  pump ();
  now := 4.;
  Database.tick db;
  pump ();
  Alcotest.(check int) "two publications" 2 (List.length !published);
  (* drop the client: subscriptions die with it *)
  Alcotest.(check int) "dropped" 1 (Rpc.Server.drop_client server "c1");
  now := 6.;
  Database.tick db;
  pump ();
  Alcotest.(check int) "no more publications" 2 (List.length !published)

let prop_where_filter_sound =
  (* every row a WHERE clause returns satisfies the predicate, and none
     that satisfy it are dropped *)
  QCheck.Test.make ~name:"WHERE returns exactly the satisfying rows" ~count:200
    QCheck.(pair (small_list (pair small_nat small_nat)) (int_bound 100))
    (fun (rows, threshold) ->
      let db = fresh_db () in
      List.iteri
        (fun i (a, b) ->
          now := float_of_int i;
          Database.record_flow db ~proto:6 ~src_ip:(Value.Str "h") ~dst_ip:(Value.Str "d")
            ~src_port:(a mod 1000) ~dst_port:80 ~packets:1 ~bytes:(b mod 200))
        rows;
      let q = Printf.sprintf "SELECT src_port, bytes FROM Flows WHERE bytes > %d" threshold in
      match Database.query db q with
      | Error _ -> false
      | Ok rs ->
          let expected =
            List.filter (fun (_, b) -> b mod 200 > threshold) rows
            |> List.map (fun (a, b) -> [ Value.Int (a mod 1000); Value.Int (b mod 200) ])
          in
          rs.Query.rows = expected)

let prop_limit_is_prefix =
  QCheck.Test.make ~name:"LIMIT n is a prefix of the unlimited result" ~count:100
    QCheck.(pair (small_list small_nat) (int_range 1 5))
    (fun (rows, n) ->
      let db = fresh_db () in
      List.iteri
        (fun i v ->
          now := float_of_int i;
          Database.record_flow db ~proto:6 ~src_ip:(Value.Str "h") ~dst_ip:(Value.Str "d")
            ~src_port:v ~dst_port:80 ~packets:1 ~bytes:1)
        rows;
      match
        ( Database.query db "SELECT src_port FROM Flows",
          Database.query db (Printf.sprintf "SELECT src_port FROM Flows LIMIT %d" n) )
      with
      | Ok full, Ok limited ->
          List.length limited.Query.rows = min n (List.length full.Query.rows)
          && List.filteri (fun i _ -> i < n) full.Query.rows = limited.Query.rows
      | _ -> false)

let test_recorder_persists_publications () =
  let db = fresh_db () in
  let server, client, pump = make_rpc_pair db in
  ignore server;
  let rec_now = ref 0. in
  let recorder =
    Recorder.attach
      ~now:(fun () -> !rec_now)
      ~schedule:(fun _ _ -> ())
      ~client ~statement:"SUBSCRIBE SELECT COUNT(*) AS n FROM Flows EVERY 2 SECONDS" ()
  in
  Alcotest.(check bool) "pending before pump" true (Recorder.status recorder = Recorder.Pending);
  pump ();
  (match Recorder.status recorder with
  | Recorder.Active _ -> ()
  | _ -> Alcotest.fail "subscription not active");
  seed_flows db [ (0.5, "a", 80, 10) ];
  now := 2.;
  rec_now := 2.;
  Database.tick db;
  pump ();
  seed_flows db [ (3., "b", 80, 20) ];
  now := 4.;
  rec_now := 4.;
  Database.tick db;
  pump ();
  Alcotest.(check int) "two snapshots" 2 (Recorder.snapshot_count recorder);
  (match Recorder.last recorder with
  | Some (4., { Query.rows = [ [ Value.Int 2 ] ]; _ }) -> ()
  | _ -> Alcotest.fail "last snapshot wrong");
  let csv = Recorder.to_csv recorder in
  Alcotest.(check bool) "csv header" true (String.length csv > 0 && String.sub csv 0 6 = "time,n");
  Alcotest.(check int) "csv lines" 3 (List.length (String.split_on_char '\n' (String.trim csv)));
  (* detach unsubscribes and freezes the log *)
  Recorder.detach recorder;
  pump ();
  now := 6.;
  Database.tick db;
  pump ();
  Alcotest.(check int) "frozen after detach" 2 (Recorder.snapshot_count recorder);
  Alcotest.(check int) "server-side subscription gone" 0 (Database.subscription_count db)

let test_recorder_rejects_non_subscribe () =
  let db = fresh_db () in
  let _server, client, pump = make_rpc_pair db in
  let r =
    Recorder.attach ~now:(fun () -> 0.) ~schedule:(fun _ _ -> ()) ~client
      ~statement:"SELECT * FROM Flows" ()
  in
  pump ();
  match Recorder.status r with
  | Recorder.Failed _ -> ()
  | _ -> Alcotest.fail "non-subscribe accepted"

let test_recorder_renews_its_lease () =
  (* the server evicts a subscriber that does not renew within 4 periods
     (20 s here); the recorder renews, so it records for the whole run *)
  let module Home = Hw_router.Home in
  let home = Home.standard_home () in
  let router = Home.router home in
  let loop = Home.loop home in
  let addr = "10.0.0.100:48000" in
  let client = ref None in
  Hw_router.Router.set_rpc_send router (fun ~to_ datagram ->
      if String.equal to_ addr then
        Hw_sim.Event_loop.after loop 0.001 (fun () ->
            Option.iter (fun c -> Rpc.Client.handle_datagram c datagram) !client));
  let c =
    Rpc.Client.create
      ~send:(fun datagram ->
        Hw_sim.Event_loop.after loop 0.001 (fun () ->
            Hw_router.Router.rpc_datagram router ~from:addr datagram))
      ()
  in
  client := Some c;
  let recorder =
    Recorder.attach
      ~now:(fun () -> Home.now home)
      ~schedule:(fun d f -> Hw_sim.Event_loop.after loop d f)
      ~client:c ~statement:"SUBSCRIBE SELECT COUNT(*) AS n FROM Flows EVERY 5 SECONDS" ()
  in
  Home.run_for home 60.;
  let n = Recorder.snapshot_count recorder in
  Alcotest.(check bool) (Printf.sprintf "%d snapshots in 60 s" n) true (n >= 11);
  match Recorder.status recorder with
  | Recorder.Active _ -> ()
  | _ -> Alcotest.fail "recorder not active after 60 s"

let test_recorder_rejects_zero_period () =
  (* the lease watchdog runs every period: a period of 0 would reschedule
     it at the same instant forever *)
  let loop = Hw_sim.Event_loop.create () in
  let client = Rpc.Client.create ~send:(fun _ -> ()) () in
  let now () = Hw_sim.Event_loop.now loop in
  let schedule d f = Hw_sim.Event_loop.after loop d f in
  let r =
    Recorder.attach ~now ~schedule ~client
      ~statement:"SUBSCRIBE SELECT COUNT(*) AS n FROM Flows EVERY 0 SECONDS" ()
  in
  Hw_sim.Event_loop.run_for loop 1.;
  (match Recorder.status r with
  | Recorder.Failed _ -> ()
  | _ -> Alcotest.fail "period 0 accepted");
  Alcotest.check_raises "subscriber"
    (Invalid_argument "Rpc.Subscriber.attach: period must be positive") (fun () ->
      ignore
        (Rpc.Subscriber.attach ~now ~schedule ~client ~statement:"SUBSCRIBE SELECT"
           ~period:0. ~on_result:ignore ()))

let test_recorder_reports_refusal () =
  (* a server that refuses the SUBSCRIBE: the recorder reads Failed with
     the server's reason, keeps retrying, and turns Active once a
     SUBSCRIBE is accepted *)
  let loop = Hw_sim.Event_loop.create () in
  let accept = ref false in
  let client = ref None in
  let reply frame =
    Hw_sim.Event_loop.after loop 0.001 (fun () ->
        Option.iter (fun c -> Rpc.Client.handle_datagram c (Rpc.encode frame)) !client)
  in
  let c =
    Rpc.Client.create
      ~send:(fun datagram ->
        match Rpc.decode datagram with
        | Ok (Rpc.Request { seq; _ }) ->
            reply
              (if !accept then
                 Rpc.Response_ok
                   {
                     seq;
                     result =
                       Some { Query.columns = [ "subscription_id" ]; rows = [ [ Value.Int 7 ] ] };
                   }
               else Rpc.Response_error { seq; message = "subscriptions disabled" })
        | _ -> ())
      ()
  in
  client := Some c;
  let r =
    Recorder.attach
      ~now:(fun () -> Hw_sim.Event_loop.now loop)
      ~schedule:(fun d f -> Hw_sim.Event_loop.after loop d f)
      ~client:c ~statement:"SUBSCRIBE SELECT COUNT(*) AS n FROM Flows EVERY 5 SECONDS" ()
  in
  Hw_sim.Event_loop.run_for loop 1.;
  (match Recorder.status r with
  | Recorder.Failed "subscriptions disabled" -> ()
  | _ -> Alcotest.fail "refusal not reported");
  accept := true;
  Hw_sim.Event_loop.run_for loop 30.;
  match Recorder.status r with
  | Recorder.Active 7 -> ()
  | _ -> Alcotest.fail "not active once accepted"

let test_rpc_detach_removes_handler () =
  (* a subscriber's publish handler leaves the client with it: a client
     that attached and detached 1,000 subscribers calls none of their
     handlers on a later publish, and the others keep registration order *)
  let loop = Hw_sim.Event_loop.create () in
  let client = ref None in
  let next_id = ref 0 in
  let reply frame =
    Hw_sim.Event_loop.after loop 0.001 (fun () ->
        Option.iter (fun c -> Rpc.Client.handle_datagram c (Rpc.encode frame)) !client)
  in
  let c =
    Rpc.Client.create
      ~send:(fun datagram ->
        match Rpc.decode datagram with
        | Ok (Rpc.Request { seq; statement; _ })
          when String.starts_with ~prefix:"SUBSCRIBE" statement ->
            incr next_id;
            reply
              (Rpc.Response_ok
                 {
                   seq;
                   result =
                     Some
                       { Query.columns = [ "subscription_id" ]; rows = [ [ Value.Int !next_id ] ] };
                 })
        | Ok (Rpc.Request { seq; _ }) -> reply (Rpc.Response_ok { seq; result = None })
        | _ -> ())
      ()
  in
  client := Some c;
  let base = Rpc.Client.publish_handler_count c in
  let order = ref [] in
  let attach i =
    Rpc.Subscriber.attach
      ~now:(fun () -> Hw_sim.Event_loop.now loop)
      ~schedule:(fun d f -> Hw_sim.Event_loop.after loop d f)
      ~client:c ~statement:"SUBSCRIBE SELECT COUNT(*) AS n FROM Flows EVERY 5 SECONDS" ~period:5.
      ~on_result:(fun _ -> order := i :: !order)
      ()
  in
  Rpc.Client.on_publish c (fun ~subscription:_ _ -> order := -1 :: !order);
  let detached = List.init 1000 attach in
  let kept = attach 1000 in
  Rpc.Client.on_publish c (fun ~subscription:_ _ -> order := -2 :: !order);
  Hw_sim.Event_loop.run_for loop 0.5;
  Alcotest.(check (option int)) "the last subscriber holds id 1001" (Some 1001)
    (Rpc.Subscriber.sub_id kept);
  Alcotest.(check int) "every handler registered" (base + 1003) (Rpc.Client.publish_handler_count c);
  List.iter Rpc.Subscriber.detach detached;
  Alcotest.(check int) "detached handlers removed" (base + 3) (Rpc.Client.publish_handler_count c);
  let result = { Query.columns = [ "n" ]; rows = [ [ Value.Int 1 ] ] } in
  for subscription = 1 to 1001 do
    Rpc.Client.handle_datagram c (Rpc.encode (Rpc.Publish { subscription; result }))
  done;
  (* each publish reaches both plain handlers; only id 1001's reaches the
     subscriber still attached, between them *)
  Alcotest.(check (list int))
    "registration order, no detached subscriber"
    (List.concat (List.init 1000 (fun _ -> [ -1; -2 ])) @ [ -1; 1000; -2 ])
    (List.rev !order);
  Rpc.Subscriber.detach kept;
  Alcotest.(check int) "back to the plain handlers" (base + 2) (Rpc.Client.publish_handler_count c)

let prop_rpc_decode_never_crashes =
  QCheck.Test.make ~name:"rpc decode total on junk" ~count:300 QCheck.string (fun s ->
      match Rpc.decode s with Ok _ | Error _ -> true)

let () =
  Alcotest.run "hw_hwdb"
    [
      ( "values",
        [
          Alcotest.test_case "validate" `Quick test_value_validate;
          Alcotest.test_case "compare" `Quick test_value_compare;
        ] );
      ( "tables",
        [
          Alcotest.test_case "windows" `Quick test_table_insert_and_windows;
          Alcotest.test_case "now is ordering-based" `Quick test_window_now_is_ordering_based;
          Alcotest.test_case "closed window boundary" `Quick test_window_boundary_closed;
          Alcotest.test_case "wrap-around windows" `Quick test_window_wraparound;
          QCheck_alcotest.to_alcotest prop_window_scan_matches_reference;
          Alcotest.test_case "fifo eviction" `Quick test_table_eviction_is_fifo;
          Alcotest.test_case "triggers" `Quick test_table_triggers;
          Alcotest.test_case "trigger registration order" `Quick test_trigger_registration_order;
          Alcotest.test_case "append allocates nothing" `Quick test_table_append_allocates_nothing;
          Alcotest.test_case "record_flow allocates its row" `Quick
            test_record_flow_allocates_its_row;
          Alcotest.test_case "hooks get the stored row" `Quick test_table_hook_gets_stored_row;
          Alcotest.test_case "positions are checked" `Quick test_table_position_checked;
          Alcotest.test_case "insert shares small-integer cells" `Quick
            test_table_insert_shares_small_ints;
          Alcotest.test_case "re-stamp keeps the cached cells" `Quick
            test_table_restamp_keeps_cells;
        ] );
      ( "language",
        [
          Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
          Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
          Alcotest.test_case "select shapes" `Quick test_parse_select_shapes;
          Alcotest.test_case "other statements" `Quick test_parse_other_statements;
          Alcotest.test_case "precedence" `Quick test_parse_expression_precedence;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          QCheck_alcotest.to_alcotest prop_stmt_print_parse_fixpoint;
        ] );
      ( "execution",
        [
          Alcotest.test_case "projection + where" `Quick test_query_projection_where;
          Alcotest.test_case "arithmetic" `Quick test_query_arithmetic;
          Alcotest.test_case "windows" `Quick test_query_window;
          Alcotest.test_case "group by aggregates" `Quick test_query_group_by_aggregates;
          Alcotest.test_case "aggregate without group" `Quick test_query_aggregate_without_group;
          Alcotest.test_case "global aggregate over empty" `Quick test_global_aggregate_over_empty;
          Alcotest.test_case "having" `Quick test_query_having;
          Alcotest.test_case "join" `Quick test_query_join;
          Alcotest.test_case "order + limit" `Quick test_query_order_limit;
          Alcotest.test_case "ts column" `Quick test_query_ts_column;
          Alcotest.test_case "errors" `Quick test_query_errors;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero_is_error;
          Alcotest.test_case "grouped scan allocates per group" `Quick
            test_grouped_scan_allocates_per_group;
          QCheck_alcotest.to_alcotest prop_where_filter_sound;
          QCheck_alcotest.to_alcotest prop_limit_is_prefix;
          Alcotest.test_case "integer group key allocates per group" `Quick
            test_int_group_key_allocates_per_group;
          Alcotest.test_case "shared key cells: scan allocates per group" `Quick
            test_grouped_scan_shared_cells_allocates_per_group;
        ] );
      ( "database",
        [
          Alcotest.test_case "create/insert/select" `Quick test_execute_create_insert_select;
          Alcotest.test_case "duplicate create" `Quick test_execute_duplicate_create;
          Alcotest.test_case "subscriptions" `Quick test_subscription_delivery;
          Alcotest.test_case "shared evaluation" `Quick test_subscription_shared_evaluation;
        ] );
      ( "triggers",
        [
          Alcotest.test_case "fires on condition" `Quick test_trigger_fires_on_condition;
          Alcotest.test_case "unconditional + drop" `Quick test_trigger_without_condition_and_drop;
          Alcotest.test_case "chain loop guard" `Quick test_trigger_chain_and_loop_guard;
          Alcotest.test_case "validation" `Quick test_trigger_validation;
          Alcotest.test_case "statement roundtrip" `Quick test_trigger_statement_roundtrip;
          Alcotest.test_case "unknown column refused" `Quick test_trigger_unknown_column_refused;
          Alcotest.test_case "drop detaches the hook" `Quick test_dropped_trigger_detaches_hook;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_rpc_codec_roundtrip;
          Alcotest.test_case "old-format interop" `Quick test_rpc_old_format_interop;
          Alcotest.test_case "rejects garbage" `Quick test_rpc_rejects_garbage;
          Alcotest.test_case "rejects oversized strings" `Quick test_rpc_rejects_oversized_strings;
          Alcotest.test_case "query roundtrip" `Quick test_rpc_query_roundtrip;
          Alcotest.test_case "error reply" `Quick test_rpc_error_reply;
          Alcotest.test_case "subscribe/publish/drop" `Quick test_rpc_subscribe_publish;
          Alcotest.test_case "dedup window keeps state changes only" `Quick
            test_rpc_dedup_keeps_state_changes_only;
          Alcotest.test_case "recorder persists" `Quick test_recorder_persists_publications;
          Alcotest.test_case "recorder rejects non-subscribe" `Quick
            test_recorder_rejects_non_subscribe;
          Alcotest.test_case "recorder renews its lease" `Quick test_recorder_renews_its_lease;
          Alcotest.test_case "recorder rejects period 0" `Quick test_recorder_rejects_zero_period;
          Alcotest.test_case "recorder reports a refusal" `Quick test_recorder_reports_refusal;
          Alcotest.test_case "detach removes its publish handler" `Quick
            test_rpc_detach_removes_handler;
          QCheck_alcotest.to_alcotest prop_rpc_decode_never_crashes;
        ] );
    ]
