(* Differential properties pinning the compiled-plan engine to the
   reference interpreter (test/ref/query_ref.ml): [Plan.prepare]/
   [Plan.exec] and the incremental [Plan.Inc] view must answer exactly
   what [Query_ref.exec] answers, on random tables, random queries and
   random insert/clock/clear streams; a trigger's [Plan.compile_row]
   expression must evaluate to what [Query_ref.eval_row] does, on random
   rows. A view is the one-shot engine run over the stream: the same
   group store and accumulators, which take a leaving row back where
   that is exact and otherwise re-fold the group, so the streams check
   both paths, and groups that leave the window entirely and come back
   behind a successor hint that still leads to them.

   Generator ground rules, chosen so true equivalence is decidable:
   - only columns that exist (and, under a join, are unambiguous) are
     emitted, because [Plan.prepare] resolves names eagerly while the
     interpreter resolves lazily per row — the one documented divergence;
   - numeric literals and integer cells are dyadic (k/4), but a real
     cell is one time in three a value no float holds exactly (0.1,
     3.3, ...), so a sum rounds: [Query_ref] folds [(+.)] in scan order,
     and both [Plan.exec] and an incremental view must reproduce that
     fold bit for bit (a view that subtracted every retraction from a
     float total would not: it subtracts only while the group's
     contributions are small integers, and re-folds otherwise);
   - SUM/AVG arguments stick to + - * (never raising on numerics);
     everything else (WHERE, projections, comparisons, HAVING) may
     divide, mix types and fail — both engines must then fail together;
   - string and boolean cells come mostly from a small pool of shared
     cells, as a router's rows point at its one cell per address, and
     sometimes fresh, as RPC INSERTs write them, so a successor hint
     matches key cells both as the very cells and by value (integer
     cells in -256..1023 are shared by [Table.insert]).

   Results compare with [Value.equal] elementwise; errors compare by
   presence, not message, since window poisoning reports the oldest
   offending row while the interpreter reports the first it scans. *)

open Hw_hwdb
module Gen = QCheck.Gen

(* -- fixed schemas --------------------------------------------------- *)

let t_schema =
  [ ("a", Value.T_int); ("b", Value.T_real); ("s", Value.T_str); ("f", Value.T_bool) ]

let u_schema = [ ("c", Value.T_int); ("d", Value.T_real) ]

type cty = C_num | C_str | C_bool

type colinfo = { cq : string option; cn : string; cty : cty }

(* under a join, [ts] exists in both tables and must be qualified *)
let single_cols =
  [
    { cq = None; cn = "ts"; cty = C_num };
    { cq = None; cn = "a"; cty = C_num };
    { cq = None; cn = "b"; cty = C_num };
    { cq = None; cn = "s"; cty = C_str };
    { cq = None; cn = "f"; cty = C_bool };
  ]

let join_cols =
  [
    { cq = Some "T"; cn = "ts"; cty = C_num };
    { cq = Some "U"; cn = "ts"; cty = C_num };
    { cq = None; cn = "a"; cty = C_num };
    { cq = None; cn = "b"; cty = C_num };
    { cq = None; cn = "s"; cty = C_str };
    { cq = None; cn = "f"; cty = C_bool };
    { cq = None; cn = "c"; cty = C_num };
    { cq = None; cn = "d"; cty = C_num };
  ]

(* -- literals ---------------------------------------------------------- *)

let dyadic_int = Gen.int_range (-8) 8
let dyadic_real st = float_of_int (Gen.int_range (-32) 32 st) /. 4.

let lit_num st =
  if Gen.bool st then Value.Int (dyadic_int st) else Value.Real (dyadic_real st)

let lit_str = Gen.oneofl [ Value.Str "x"; Value.Str "y"; Value.Str "z"; Value.Str "" ]

(* -- row cells ------------------------------------------------------- *)

let non_dyadic = [ 0.1; 0.2; 0.3; 0.7; 0.001; 3.3; 0.05; -0.1; -2.7 ]

let cell_real st =
  if Gen.int_range 0 2 st = 0 then Value.Real (Gen.oneofl non_dyadic st)
  else Value.Real (dyadic_real st)

let texts = [| "x"; "y"; "z"; "" |]
let str_pool = Array.map (fun s -> Value.Str s) texts
let bool_pool = [| Value.Bool (Sys.opaque_identity false); Value.Bool (Sys.opaque_identity true) |]

(* a pooled cell three times in four, else a fresh one *)
let cell_str st =
  let i = Gen.int_range 0 3 st in
  if Gen.int_range 0 3 st = 0 then Value.Str texts.(i) else str_pool.(i)

let cell_bool st =
  let b = Gen.bool st in
  if Gen.int_range 0 3 st = 0 then Value.Bool b else bool_pool.(Bool.to_int b)
let col_expr c = Ast.Col (c.cq, c.cn)
let cols_of ty cols = List.filter (fun c -> c.cty = ty) cols

(* -- expressions ----------------------------------------------------- *)

(* [safe] restricts to + - * (never raises on numerics):
   required for SUM/AVG arguments, used nowhere else *)
let rec gen_num ~safe cols fuel st =
  let leaf st =
    if Gen.bool st then col_expr (Gen.oneofl (cols_of C_num cols) st)
    else Ast.Lit (lit_num st)
  in
  if fuel <= 0 then leaf st
  else
    Gen.frequency
      [
        (3, leaf);
        ( 4,
          fun st ->
            let ops =
              if safe then [ Ast.Add; Ast.Sub; Ast.Mul ]
              else [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod ]
            in
            let op = Gen.oneofl ops st in
            Ast.Binop (op, gen_num ~safe cols (fuel - 1) st, gen_num ~safe cols (fuel - 1) st)
        );
        (1, fun st -> Ast.Unop (Ast.Neg, gen_num ~safe cols (fuel - 1) st));
      ]
      st

let rec gen_bool cols fuel st =
  let cmp st =
    let op = Gen.oneofl [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] st in
    Ast.Binop (op, gen_num ~safe:false cols 1 st, gen_num ~safe:false cols 1 st)
  in
  let str_eq st =
    let c = Gen.oneofl (cols_of C_str cols) st in
    Ast.Binop ((if Gen.bool st then Ast.Eq else Ast.Neq), col_expr c, Ast.Lit (lit_str st))
  in
  let bool_leaf st =
    match cols_of C_bool cols with
    | [] -> Ast.Lit (Value.Bool (Gen.bool st))
    | bs -> if Gen.bool st then col_expr (Gen.oneofl bs st) else Ast.Lit (Value.Bool (Gen.bool st))
  in
  if fuel <= 0 then Gen.frequency [ (3, cmp); (2, str_eq); (1, bool_leaf) ] st
  else
    Gen.frequency
      [
        (3, cmp);
        (2, str_eq);
        (1, bool_leaf);
        ( 2,
          fun st ->
            let op = if Gen.bool st then Ast.And else Ast.Or in
            Ast.Binop (op, gen_bool cols (fuel - 1) st, gen_bool cols (fuel - 1) st) );
        (1, fun st -> Ast.Unop (Ast.Not, gen_bool cols (fuel - 1) st));
        (* type nonsense: AND over a number — both engines must error *)
        (1, fun st -> Ast.Binop (Ast.And, gen_num ~safe:false cols 0 st, gen_bool cols 0 st));
      ]
      st

let gen_any cols st =
  Gen.frequency
    [
      (3, gen_num ~safe:false cols 2);
      (2, gen_bool cols 1);
      (1, fun st -> col_expr (Gen.oneofl (cols_of C_str cols) st));
    ]
    st

(* -- selects --------------------------------------------------------- *)

let gen_window st =
  Gen.frequency
    [
      (3, Gen.pure Ast.W_all);
      (3, fun st -> Ast.W_range_sec (float_of_int (Gen.int_range 0 12 st) /. 2.));
      (3, fun st -> Ast.W_rows (Gen.int_range 0 12 st));
      (1, Gen.pure Ast.W_now);
    ]
    st

let gen_agg cols st =
  match Gen.int_range 0 13 st with
  | 0 | 1 -> (Ast.Count, None)
  | 2 | 3 -> (Ast.Count, Some (gen_bool cols 1 st))
  | 4 | 5 -> (Ast.Sum, Some (gen_num ~safe:true cols 2 st))
  | 6 | 7 -> (Ast.Avg, Some (gen_num ~safe:true cols 2 st))
  | 8 | 9 -> (Ast.Min, Some (gen_num ~safe:true cols 1 st))
  | 10 -> (Ast.Min, Some (col_expr (Gen.oneofl (cols_of C_str cols) st)))
  | 11 | 12 -> (Ast.Max, Some (gen_num ~safe:true cols 1 st))
  | _ -> (Ast.Sum, None) (* "SUM requires an argument": must fail identically *)

(* items + the alias names usable as ORDER BY targets *)
let gen_scalar_items cols st =
  if Gen.int_range 0 4 st = 0 then ([ Ast.Sel_star ], [])
  else begin
    let n = Gen.int_range 1 3 st in
    let items =
      List.init n (fun i ->
          let e = gen_any cols st in
          if Gen.int_range 0 3 st < 3 then
            let alias = Printf.sprintf "o%d" i in
            (Ast.Sel_expr (e, Some alias), Some alias)
          else (Ast.Sel_expr (e, None), None))
    in
    (List.map fst items, List.filter_map snd items)
  end

let gen_grouped_items cols st =
  let n_keys = Gen.int_range 0 2 st in
  let group_by =
    List.init n_keys (fun _ ->
        let c = Gen.oneofl (List.filter (fun c -> c.cty <> C_num || c.cn = "a") cols) st in
        (c.cq, c.cn))
    |> List.sort_uniq compare
  in
  let key_items =
    List.map (fun (q, n) -> (Ast.Sel_expr (Ast.Col (q, n), None), Some n)) group_by
  in
  let n_aggs = Gen.int_range 1 2 st in
  let aggs =
    List.init n_aggs (fun i ->
        let fn, arg = gen_agg cols st in
        let alias = Printf.sprintf "g%d" i in
        ((Ast.Sel_agg (fn, arg, Some alias), Some alias), (fn, arg)))
  in
  let items = key_items @ List.map (fun (it, _) -> it) aggs in
  let names = List.filter_map snd (key_items @ List.map fst aggs) in
  (List.map fst items, names, group_by, List.map snd aggs)

let gen_having group_by aggs st =
  if Gen.int_range 0 2 st > 0 then None
  else begin
    let subject =
      match (group_by, aggs) with
      | (q, n) :: _, _ when Gen.bool st -> Ast.H_col (q, n)
      | _, (fn, arg) :: _ -> Ast.H_agg (fn, arg)
      | (q, n) :: _, [] -> Ast.H_col (q, n)
      | [], [] -> Ast.H_agg (Ast.Count, None)
    in
    let op =
      (* mostly comparisons; And exercises "HAVING expects a comparison" *)
      Gen.frequency
        [
          (8, Gen.oneofl [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ]);
          (1, Gen.pure Ast.And);
        ]
        st
    in
    let lit =
      Gen.frequency [ (6, lit_num); (1, lit_str); (1, fun st -> Value.Bool (Gen.bool st)) ] st
    in
    Some (subject, op, lit)
  end

let gen_order_limit names st =
  let order_by =
    match names with
    | [] -> None
    | _ when Gen.bool st -> None
    | _ ->
        let n = Gen.oneofl names st in
        Some ((None, n), if Gen.bool st then Ast.Asc else Ast.Desc)
  in
  let limit = if Gen.int_range 0 3 st = 0 then Some (Gen.int_range 0 5 st) else None in
  (order_by, limit)

let gen_select ~from cols st =
  let window = gen_window st in
  let where = if Gen.bool st then Some (gen_bool cols 2 st) else None in
  if Gen.bool st then begin
    let items, names = gen_scalar_items cols st in
    let order_by, limit = gen_order_limit names st in
    { Ast.items; from; window; where; group_by = []; having = None; order_by; limit }
  end
  else begin
    let items, names, group_by, aggs = gen_grouped_items cols st in
    let having = gen_having group_by aggs st in
    let order_by, limit = gen_order_limit names st in
    { Ast.items; from; window; where; group_by; having; order_by; limit }
  end

(* -- tables ---------------------------------------------------------- *)

let gen_row schema st =
  List.map
    (fun (_, ty) ->
      match ty with
      | Value.T_int -> Value.Int (dyadic_int st)
      | Value.T_real -> cell_real st
      | Value.T_str -> cell_str st
      | Value.T_bool -> cell_bool st
      | Value.T_ts -> Value.Ts (100. +. dyadic_real st))
    schema

let gen_ts_step st = Gen.oneofl [ 0.; 0.25; 0.5; 1. ] st

let gen_rows schema n st =
  let ts = ref 100. in
  List.init n (fun _ ->
      ts := !ts +. gen_ts_step st;
      (!ts, gen_row schema st))

let build_table ~name ~capacity schema rows =
  let tbl = Table.create ~name ~capacity schema in
  List.iter
    (fun (ts, vs) ->
      match Table.insert tbl ~now:ts vs with Ok () -> () | Error e -> failwith e)
    rows;
  tbl

let last_ts rows = List.fold_left (fun _ (ts, _) -> ts) 100. rows

(* -- result comparison ----------------------------------------------- *)

let same_rows a b =
  List.length a = List.length b
  && List.for_all2
       (fun ra rb -> List.length ra = List.length rb && List.for_all2 Value.equal ra rb)
       a b

let same_result reference candidate =
  match (reference, candidate) with
  | Error _, Error _ -> true
  | Ok a, Ok b -> a.Query.columns = b.Query.columns && same_rows a.Query.rows b.Query.rows
  | _ -> false

let show_result = function
  | Error e -> "Error: " ^ e
  | Ok rs ->
      Printf.sprintf "cols=[%s] rows=[%s]"
        (String.concat ";" rs.Query.columns)
        (String.concat " | "
           (List.map
              (fun row -> String.concat "," (List.map Value.to_string row))
              rs.Query.rows))

(* -- property 1: one-shot exec -------------------------------------- *)

type exec_case = {
  c_rows1 : (float * Value.t list) list;
  c_rows2 : (float * Value.t list) list option; (* Some -> join over T, U *)
  c_sel : Ast.select;
  c_now : float;
}

let gen_exec_case st =
  let join = Gen.int_range 0 4 st = 0 in
  if not join then begin
    let sel = gen_select ~from:[ ("T", None) ] single_cols st in
    let rows = gen_rows t_schema (Gen.int_range 0 40 st) st in
    { c_rows1 = rows; c_rows2 = None; c_sel = sel; c_now = last_ts rows +. gen_ts_step st }
  end
  else begin
    let sel = gen_select ~from:[ ("T", None); ("U", None) ] join_cols st in
    let rows1 = gen_rows t_schema (Gen.int_range 0 12 st) st in
    let rows2 = gen_rows u_schema (Gen.int_range 0 12 st) st in
    {
      c_rows1 = rows1;
      c_rows2 = Some rows2;
      c_sel = sel;
      c_now = Float.max (last_ts rows1) (last_ts rows2) +. gen_ts_step st;
    }
  end

let print_exec_case c =
  Printf.sprintf "%s\n(T: %d rows%s, now=%g)"
    (Ast.to_string (Ast.Select c.c_sel))
    (List.length c.c_rows1)
    (match c.c_rows2 with
    | None -> ""
    | Some r -> Printf.sprintf ", U: %d rows" (List.length r))
    c.c_now

let exec_case_lookup c =
  let t1 = build_table ~name:"T" ~capacity:64 t_schema c.c_rows1 in
  let t2 = Option.map (build_table ~name:"U" ~capacity:64 u_schema) c.c_rows2 in
  fun name ->
    if String.equal name "T" then Some t1
    else if String.equal name "U" then t2
    else None

let exec_prop c =
  let lookup = exec_case_lookup c in
  let reference = Query_ref.exec ~lookup ~now:c.c_now c.c_sel in
  let candidate =
    match Plan.prepare ~lookup c.c_sel with
    | Error e -> Error e
    | Ok plan -> Plan.exec plan ~now:c.c_now
  in
  if same_result reference candidate then true
  else
    QCheck.Test.fail_reportf "interpreter: %s\nplan:        %s" (show_result reference)
      (show_result candidate)

let exec_equivalence ~count =
  QCheck.Test.make ~count ~name:"Plan.exec = Query.exec on random tables"
    (QCheck.make ~print:print_exec_case gen_exec_case)
    exec_prop

(* -- property 2: incremental stream ---------------------------------- *)

type stream_op =
  | Op_insert of Value.t list
  | Op_advance of float
  | Op_check
  | Op_clear (* exercises the rebuild-from-scan safety valve *)

type stream_case = { s_cap : int; s_sel : Ast.select; s_ops : stream_op list }

let gen_stream_case st =
  let sel = gen_select ~from:[ ("T", None) ] single_cols st in
  let cap = Gen.oneofl [ 8; 16; 64 ] st in
  let n_ops = Gen.int_range 1 60 st in
  let ops =
    List.init n_ops (fun _ ->
        Gen.frequency
          [
            (6, fun st -> Op_insert (gen_row t_schema st));
            (4, fun st -> Op_advance (Gen.oneofl [ 0.25; 0.5; 1.; 2. ] st));
            (4, Gen.pure Op_check);
            (1, Gen.pure Op_clear);
          ]
          st)
  in
  { s_cap = cap; s_sel = sel; s_ops = ops @ [ Op_check ] }

let print_stream_case c =
  let show = function
    | Op_insert vs -> "ins(" ^ String.concat "," (List.map Value.to_string vs) ^ ")"
    | Op_advance d -> Printf.sprintf "+%gs" d
    | Op_check -> "check"
    | Op_clear -> "clear"
  in
  Printf.sprintf "%s\ncap=%d ops=[%s]"
    (Ast.to_string (Ast.Select c.s_sel))
    c.s_cap
    (String.concat " " (List.map show c.s_ops))

let stream_prop c =
  let tbl = Table.create ~name:"T" ~capacity:c.s_cap t_schema in
  let lookup name = if String.equal name "T" then Some tbl else None in
  match Plan.prepare ~lookup c.s_sel with
  | Error _ -> true (* nothing to maintain; exec_prop covers prepare parity *)
  | Ok plan -> (
      match Plan.Inc.create plan with
      | None -> QCheck.Test.fail_report "single-table plan refused incremental mode"
      | Some inc ->
          ignore (Table.add_hook tbl (fun tu -> Plan.Inc.observe inc tu));
          let clock = ref 100. in
          List.iteri
            (fun i op ->
              match op with
              | Op_insert vs -> (
                  match Table.insert tbl ~now:!clock vs with
                  | Ok () -> ()
                  | Error e -> failwith e)
              | Op_advance d -> clock := !clock +. d
              | Op_clear -> Table.clear tbl
              | Op_check ->
                  let reference = Query_ref.exec ~lookup ~now:!clock c.s_sel in
                  let candidate = Plan.Inc.result inc ~now:!clock in
                  if not (same_result reference candidate) then
                    QCheck.Test.fail_reportf "op %d (t=%g):\ninterpreter: %s\nincremental: %s" i
                      !clock (show_result reference) (show_result candidate))
            c.s_ops;
          true)

let stream_equivalence ~count =
  QCheck.Test.make ~count ~name:"Plan.Inc.result = Query.exec along insert streams"
    (QCheck.make ~print:print_stream_case gen_stream_case)
    stream_prop

(* -- property 3: trigger row expressions ------------------------------ *)

type row_case = { r_expr : Ast.expr; r_ts : float; r_values : Value.t list }

let gen_row_case st =
  let r_expr = if Gen.bool st then gen_any single_cols st else gen_bool single_cols 2 st in
  { r_expr; r_ts = 100. +. dyadic_real st; r_values = gen_row t_schema st }

let print_row_case c =
  Format.asprintf "%a over (ts=%g, %s)" Ast.pp_expr c.r_expr c.r_ts
    (String.concat "," (List.map Value.to_string c.r_values))

let row_prop c =
  let tbl = Table.create ~name:"T" ~capacity:1 t_schema in
  let values = Array.of_list c.r_values in
  let reference = Query_ref.eval_row tbl { Value.ts = c.r_ts; values } c.r_expr in
  let candidate =
    match Plan.compile_row tbl c.r_expr with
    | Error e -> Error e
    | Ok f -> f (Array.append [| Value.Ts c.r_ts |] values)
  in
  match (reference, candidate) with
  | Ok a, Ok b when Value.equal a b -> true
  | Error _, Error _ -> true
  | _ ->
      let show = function Ok v -> Value.to_string v | Error e -> "Error: " ^ e in
      QCheck.Test.fail_reportf "interpreter: %s\ncompiled:    %s" (show reference) (show candidate)

let row_equivalence ~count =
  QCheck.Test.make ~count ~name:"Plan.compile_row = Query_ref.eval_row on random rows"
    (QCheck.make ~print:print_row_case gen_row_case)
    row_prop

(* -- seeded entry point (chaos matrix) ------------------------------- *)

let check_seeded ~seed ~count =
  let rand = Random.State.make [| seed |] in
  QCheck.Test.check_exn ~rand (exec_equivalence ~count);
  QCheck.Test.check_exn ~rand (stream_equivalence ~count:(max 1 (count / 4)));
  QCheck.Test.check_exn ~rand (row_equivalence ~count)
