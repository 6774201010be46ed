(* Compiled query plans: a SELECT parsed once and lowered to closures
   over [Value.t array] rows. Column names resolve to array offsets at
   prepare time; WHERE / projection / GROUP BY keys / HAVING become
   direct closures, so the hot path never walks the AST and never does
   a per-row, per-column name lookup. ECA trigger expressions compile
   here too ([compile_row]): this is hwdb's one evaluator. The
   differential suite in test/plan_diff.ml pins it to the per-row
   reference interpreter in test/ref/query_ref.ml.

   A grouped scan costs a few nanoseconds a row: it takes each stored
   row in place from the table's one fold, finds the row's group
   through the previous row's group's successor hint when the key cells
   are the hint's cells (a router's rows share one cell per address),
   and reads an aggregate whose argument is a bare column straight from
   the row. A standing view ([Inc]) is the same engine run over the
   insert stream: the same group store and the same accumulators, which
   also undo a row leaving the window, or leave its group to be
   re-folded, so a view answers what the scan answers.

   One visible semantic shift: the reference resolves columns lazily
   (per row), so a SELECT naming an unknown or ambiguous column over an
   empty window succeeds there; [prepare] resolves eagerly and reports
   the error regardless of data. Every other error message is produced
   verbatim. *)

type compiled = Value.t array -> Value.t

exception Plan_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Plan_error s)) fmt
let fail_str s = raise (Plan_error s)

(* -- bindings (prepare-time only) ---------------------------------- *)

type binding = { quals : string list; col : string; index : int; ty : Value.ty }

(* A single-table plan reads each stored row in place: column [i] of the
   schema is [row.(i)], and the implicit [ts] column, which the stored
   row does not hold, is read from the plan's stamp cell, written by the
   scan for each row. A join (and a trigger's row, see [compile_row])
   reads combined rows [| ts; v1..vn; ts'; v1'..vm' |] instead. *)
type stamp_cell = { mutable ts : float } (* all floats: a write does not box *)

let stamp_index = -1

type scope = { binds : binding list; cell : stamp_cell }

let bindings_of_from ~lookup ~in_place from =
  let offset = ref 0 in
  let all = ref [] in
  let tables =
    List.map
      (fun (table_name, alias) ->
        match lookup table_name with
        | None -> fail "unknown table %s" table_name
        | Some table ->
            let quals =
              table_name :: (match alias with Some a -> [ a ] | None -> [])
            in
            let ts_index, first = if in_place then (stamp_index, 0) else (!offset, !offset + 1) in
            all := { quals; col = "ts"; index = ts_index; ty = Value.T_ts } :: !all;
            List.iteri
              (fun i (col, ty) -> all := { quals; col; index = first + i; ty } :: !all)
              (Table.schema table);
            offset := !offset + 1 + List.length (Table.schema table);
            table)
      from
  in
  (tables, List.rev !all)

(* prepare-time accounting: set when a compiled closure will read the
   stamp cell. When nothing does, the single-table scan never reads a
   row's timestamp — see [fold_rows]. Reset at each [prepare]; this
   module is single-threaded. *)
let ts_used = ref false

let find_binding bindings (qual, name) =
  let candidates =
    List.filter
      (fun b ->
        String.equal b.col name
        && match qual with None -> true | Some q -> List.exists (String.equal q) b.quals)
      bindings
  in
  match candidates with
  | [ b ] -> b
  | [] -> fail "unknown column %s" (match qual with Some q -> q ^ "." ^ name | None -> name)
  | _ :: _ ->
      fail "ambiguous column %s" (match qual with Some q -> q ^ "." ^ name | None -> name)

let resolve bindings col =
  let b = find_binding bindings col in
  if b.index = stamp_index then ts_used := true;
  b.index

let star_columns bindings =
  List.map
    (fun b ->
      let duplicated =
        List.exists (fun other -> other.index <> b.index && String.equal other.col b.col) bindings
      in
      if duplicated then Printf.sprintf "%s.%s" (List.hd b.quals) b.col else b.col)
    bindings

(* -- expression compilation ---------------------------------------- *)

(* whether [c], what [Value.compare_values] answered, satisfies the
   comparison [op] *)
let holds op c =
  match op with
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0
  | _ -> assert false

(* Mirrors the reference [eval] case by case (same evaluation order, same
   short-circuiting, same error strings), but with all name resolution
   hoisted out of the row loop. *)
let rec compile scope expr : compiled =
  match expr with
  | Ast.Lit v -> fun _ -> v
  | Ast.Col (q, n) ->
      let i = resolve scope.binds (q, n) in
      if i = stamp_index then
        let cell = scope.cell in
        fun _ -> Value.Ts cell.ts
      else fun row -> row.(i)
  | Ast.Unop (Ast.Neg, e) -> (
      let f = compile scope e in
      fun row ->
        match f row with
        | Value.Int i -> Value.Int (-i)
        | Value.Real x -> Value.Real (-.x)
        | v -> fail "cannot negate %s" (Value.to_string v))
  | Ast.Unop (Ast.Not, _)
  | Ast.Binop ((Ast.And | Ast.Or | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _) ->
      let p = compile_pred scope ~ctx:`Where expr in
      fun row -> Value.Bool (p row)
  | Ast.Binop (op, a, b) -> (
      let fa = compile scope a and fb = compile scope b in
      fun row ->
        let va = fa row and vb = fb row in
        match va, vb with
        | Value.Int x, Value.Int y -> (
            match op with
            | Ast.Add -> Value.Int (x + y)
            | Ast.Sub -> Value.Int (x - y)
            | Ast.Mul -> Value.Int (x * y)
            | Ast.Div -> if y = 0 then fail "division by zero" else Value.Int (x / y)
            | Ast.Mod -> if y = 0 then fail "modulo by zero" else Value.Int (x mod y)
            | _ -> assert false)
        | _ -> (
            match Value.as_float va, Value.as_float vb with
            | Some x, Some y -> (
                match op with
                | Ast.Add -> Value.Real (x +. y)
                | Ast.Sub -> Value.Real (x -. y)
                | Ast.Mul -> Value.Real (x *. y)
                | Ast.Div -> if y = 0. then fail "division by zero" else Value.Real (x /. y)
                | Ast.Mod -> fail "modulo on reals"
                | _ -> assert false)
            | _ ->
                fail "arithmetic on non-numeric values %s, %s" (Value.to_string va)
                  (Value.to_string vb)))

(* A boolean expression compiles down to an unboxed predicate:
   comparisons and the boolean connectives return [bool] directly, and
   [compile] boxes the answer only where a value is wanted. Error strings
   depend on where a non-boolean subterm appears ("WHERE clause is not
   boolean" at the top of a WHERE, "AND/OR/NOT applied to non-boolean"
   underneath), so the compiler carries that context down. *)
and compile_pred scope ~ctx expr : Value.t array -> bool =
  match expr with
  | Ast.Binop (Ast.And, a, b) ->
      let pa = compile_pred scope ~ctx:`And a and pb = compile_pred scope ~ctx:`And b in
      fun row -> if pa row then pb row else false
  | Ast.Binop (Ast.Or, a, b) ->
      let pa = compile_pred scope ~ctx:`Or a and pb = compile_pred scope ~ctx:`Or b in
      fun row -> if pa row then true else pb row
  | Ast.Unop (Ast.Not, e) ->
      let p = compile_pred scope ~ctx:`Not e in
      fun row -> not (p row)
  | Ast.Binop (Ast.Eq, a, b) ->
      let fa = compile scope a and fb = compile scope b in
      fun row -> Value.equal (fa row) (fb row)
  | Ast.Binop (Ast.Neq, a, b) ->
      let fa = compile scope a and fb = compile scope b in
      fun row -> not (Value.equal (fa row) (fb row))
  | Ast.Binop ((Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op, a, b) -> (
      let fa = compile scope a and fb = compile scope b in
      fun row ->
        let va = fa row and vb = fb row in
        match Value.compare_values va vb with
        | c -> holds op c
        | exception Invalid_argument msg -> fail "%s" msg)
  | e ->
      let f = compile scope e in
      let non_bool v =
        match ctx with
        | `Where -> fail "WHERE clause is not boolean: %s" (Value.to_string v)
        | `And -> fail "AND applied to non-boolean %s" (Value.to_string v)
        | `Or -> fail "OR applied to non-boolean %s" (Value.to_string v)
        | `Not -> fail "NOT applied to non-boolean %s" (Value.to_string v)
      in
      fun row -> ( match f row with Value.Bool b -> b | v -> non_bool v)

(* -- plan representation ------------------------------------------- *)

type agg =
  | A_count
  | A_count_if of compiled
  | A_sum of compiled
  | A_avg of compiled
  | A_min of compiled
  | A_max of compiled
  | A_invalid of string (* SUM()/AVG()/MIN()/MAX() with no argument: fails per group *)

type out_item = O_expr of compiled | O_agg of int

type h_subject = H_agg of int | H_col of compiled

type having = { h_subject : h_subject; h_op : Ast.binop; h_lit : Value.t }

(* A GROUP BY key, one cell per column. A T_int, T_str or T_bool column
   keys on its cell, which groups exactly as the cell's [Value.to_string]
   text would: such a column holds only that one constructor. A T_real
   or T_ts column keys on the text itself ([Value.Str]): "%g" and "%.6f"
   round, and a real column may hold an integer literal, so only the
   text says which of its values share a group. *)
type key = Value.t list

let key_cell (ty : Value.ty) (f : compiled) : compiled =
  match ty with
  | Value.T_int | Value.T_str | Value.T_bool -> f
  | Value.T_real | Value.T_ts -> fun row -> Value.Str (Value.to_string (f row))

(* key cells at one position share a constructor: Int, Str or Bool *)
let cell_eq a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> Int.equal x y
  | Value.Str x, Value.Str y -> String.equal x y
  | Value.Bool x, Value.Bool y -> Bool.equal x y
  | _ -> false

let rec key_eq a b =
  match (a, b) with
  | [], [] -> true
  | x :: a', y :: b' -> cell_eq x y && key_eq a' b'
  | _ -> false

module Key_tbl = Hashtbl.Make (struct
  type t = key

  let equal = key_eq
  let hash = Hashtbl.hash
end)

module Cell_tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = cell_eq
  let hash = Hashtbl.hash
end)

type grouped = {
  g_key : Value.t array -> key;
  g_key1 : compiled option; (* single GROUP BY column: exec keys on its one key cell *)
  g_key_cols : int array option;
      (* where the GROUP BY columns sit in the row: [None] when one is a
         single-table [ts], which the row does not hold *)
  g_no_group_by : bool;
  g_aggs : agg array;
  g_arg_cols : int array; (* per aggregate: its argument's column in the row, or -1 *)
  g_outs : out_item list;
  g_having : having option;
}

type shape = P_scalar of (Value.t array -> Value.t list) | P_grouped of grouped

type t = {
  p_tables : Table.t list;
  p_window : Ast.window;
  p_where : (Value.t array -> bool) option;
  p_cell : stamp_cell; (* a single-table plan's current row's timestamp *)
  p_needs_ts : bool; (* some closure reads [p_cell] *)
  p_columns : string list;
  p_shape : shape;
  p_order : (int * Ast.order) option;
  p_limit : int option;
}

(* -- streaming aggregate state ----------------------------------------- *)

(* One mutable cell per (group, aggregate): groups never materialize
   their rows, the scan folds each row into every aggregate as it goes.
   Row-order error semantics mirror the reference [eval_agg]: the first
   failing row of an aggregate is recorded and raised only when that
   aggregate is actually evaluated — i.e. its group survived HAVING. (One
   message-level divergence: the interpreter evaluates all of a MIN/MAX
   group's arguments before comparing any, so an argument error in a
   late row wins over an earlier incomparable pair; streaming reports
   whichever row failed first. Error presence is identical.) *)
(* a float alone in a record is stored flat, so an update writes the
   field in place; a [float ref] or a mutable float field beside others
   would box a fresh float on every update *)
type total = { mutable sum : float }

type sstate = {
  sa_spec : agg;
  sa_col : int; (* >= 0: the argument is this column of the row, read in place *)
  mutable sa_n : int; (* rows counted or summed; 1 once a MIN/MAX holds a best *)
  sa_total : total;
  mutable sa_wide : int; (* SUM/AVG contributions that were not small integers *)
  mutable sa_best : Value.t; (* min/max running best once [sa_n > 0], first-wins on ties *)
  mutable sa_err : string option;
}

(* A SUM/AVG can take a contribution back without rounding while every
   contribution folded in since the state was fresh is an [Int] of
   magnitude at most [small] ([sa_wide] = 0) and at most [exact_rows] of
   them remain: every partial sum of them, in any order, is then an
   integer of magnitude at most 2^53, which a float holds exactly. *)
let small = 1 lsl 31
let exact_rows = 1 lsl 22

let s_fresh spec col =
  {
    sa_spec = spec;
    sa_col = col;
    sa_n = 0;
    sa_total = { sum = 0. };
    sa_wide = 0;
    sa_best = Value.Str "";
    sa_err = None;
  }

let s_reset sa =
  sa.sa_n <- 0;
  sa.sa_total.sum <- 0.;
  sa.sa_wide <- 0;
  sa.sa_best <- Value.Str "";
  sa.sa_err <- None

(* > 0 when the running best [best] beats [v] as a MIN/MAX, < 0 when [v]
   beats it; two integers compare without a call *)
let[@inline] beats sa best v =
  let c =
    match (best, v) with
    | Value.Int x, Value.Int y -> Int.compare x y
    | _ -> Value.compare_values best v
  in
  match sa.sa_spec with A_max _ -> c | _ -> -c

(* Folds one argument value into the aggregate; an [Int] takes the first
   branch of a SUM/AVG. *)
let s_take sa v =
  match sa.sa_spec with
  | A_sum _ | A_avg _ -> (
      match v with
      | Value.Int i ->
          sa.sa_total.sum <- sa.sa_total.sum +. float_of_int i;
          sa.sa_n <- sa.sa_n + 1;
          if i > small || i < -small then sa.sa_wide <- sa.sa_wide + 1
      | Value.Real x | Value.Ts x ->
          sa.sa_total.sum <- sa.sa_total.sum +. x;
          sa.sa_n <- sa.sa_n + 1;
          sa.sa_wide <- sa.sa_wide + 1
      | Value.Str _ | Value.Bool _ ->
          sa.sa_err <-
            Some
              (Printf.sprintf "%s over non-numeric values"
                 (match sa.sa_spec with A_sum _ -> "SUM" | _ -> "AVG")))
  | A_min _ | A_max _ -> (
      if sa.sa_n = 0 then begin
        sa.sa_best <- v;
        sa.sa_n <- 1
      end
      else
        match beats sa sa.sa_best v with
        | c -> if c < 0 then sa.sa_best <- v
        | exception Invalid_argument msg -> sa.sa_err <- Some msg)
  | A_count_if _ -> ( match v with Value.Bool false -> () | _ -> sa.sa_n <- sa.sa_n + 1)
  | A_count | A_invalid _ -> ()

let s_apply sa row =
  match sa.sa_err with
  | Some _ -> () (* the verdict is already sealed: finalize raises *)
  | None -> (
      let col = sa.sa_col in
      if col >= 0 then
        (* what the column's closure would raise on a short row *)
        if col < Array.length row then s_take sa (Array.unsafe_get row col)
        else sa.sa_err <- Some "index out of bounds"
      else
        match sa.sa_spec with
        | A_count -> sa.sa_n <- sa.sa_n + 1
        | A_count_if f | A_sum f | A_avg f | A_min f | A_max f -> (
            match f row with
            | v -> s_take sa v
            | exception Plan_error msg -> sa.sa_err <- Some msg
            | exception Invalid_argument msg -> sa.sa_err <- Some msg)
        | A_invalid _ -> () (* finalize raises unconditionally *))

(* Takes back the value of the oldest row folded in, when the state is
   then exactly what folding the remaining rows leaves: COUNT always, a
   SUM/AVG while its contributions are small integers, a MIN/MAX while
   the value is strictly worse than the best (an equal best is this very
   row's: the best is the first row to reach it). [false] asks for a
   re-fold. *)
let s_untake sa v =
  match (sa.sa_spec, v) with
  | (A_sum _ | A_avg _), Value.Int i when sa.sa_wide = 0 && sa.sa_n <= exact_rows ->
      sa.sa_total.sum <- sa.sa_total.sum -. float_of_int i;
      sa.sa_n <- sa.sa_n - 1;
      true
  | (A_sum _ | A_avg _), _ -> false
  | (A_min _ | A_max _), _ -> beats sa sa.sa_best v > 0
  | A_count_if _, Value.Bool false | (A_count | A_invalid _), _ -> true
  | A_count_if _, _ ->
      sa.sa_n <- sa.sa_n - 1;
      true

(* [s_apply]'s inverse for a view's oldest row, see [s_untake]. A sealed
   error may be this row's, so it asks for a re-fold. *)
let s_retract sa row =
  match sa.sa_err with
  | Some _ -> false
  | None -> (
      try
        if sa.sa_col >= 0 then s_untake sa row.(sa.sa_col)
        else
          match sa.sa_spec with
          | A_count ->
              sa.sa_n <- sa.sa_n - 1;
              true
          | A_count_if f | A_sum f | A_avg f | A_min f | A_max f -> s_untake sa (f row)
          | A_invalid _ -> true
      with Plan_error _ | Invalid_argument _ -> false)

let s_finalize sa =
  (match sa.sa_err with Some msg -> fail_str msg | None -> ());
  match sa.sa_spec with
  | A_count | A_count_if _ -> Value.Int sa.sa_n
  | A_sum _ -> Value.Real sa.sa_total.sum
  | A_avg _ ->
      if sa.sa_n = 0 then Value.Real 0.
      else Value.Real (sa.sa_total.sum /. float_of_int sa.sa_n)
  | A_min _ | A_max _ -> sa.sa_best (* [Str ""] over no rows, as the reference *)
  | A_invalid msg -> fail_str msg

let compare_having op subject lit =
  match op with
  | Ast.Eq -> Value.equal subject lit
  | Ast.Neq -> not (Value.equal subject lit)
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      match Value.compare_values subject lit with
      | c -> holds op c
      | exception Invalid_argument msg -> fail "HAVING: %s" msg)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.And | Ast.Or ->
      fail "HAVING expects a comparison operator"

(* -- prepare -------------------------------------------------------- *)

let has_aggregate items =
  List.exists (function Ast.Sel_agg _ -> true | Ast.Sel_star | Ast.Sel_expr _ -> false) items

let rec expr_name = function
  | Ast.Col (None, n) -> n
  | Ast.Col (Some q, n) -> q ^ "." ^ n
  | Ast.Lit v -> Value.to_string v
  | Ast.Binop (op, a, b) ->
      Printf.sprintf "%s%s%s" (expr_name a) (Ast.binop_to_string op) (expr_name b)
  | Ast.Unop (Ast.Not, e) -> "not_" ^ expr_name e
  | Ast.Unop (Ast.Neg, e) -> "neg_" ^ expr_name e

let item_name = function
  | Ast.Sel_star -> "*"
  | Ast.Sel_expr (e, alias) -> Option.value alias ~default:(expr_name e)
  | Ast.Sel_agg (fn, arg, alias) -> (
      match alias with
      | Some a -> a
      | None ->
          Printf.sprintf "%s(%s)"
            (String.lowercase_ascii (Ast.agg_to_string fn))
            (match arg with None -> "*" | Some e -> expr_name e))

let prepare ~lookup (q : Ast.select) =
  try
    ts_used := false;
    let in_place = List.compare_length_with q.Ast.from 1 = 0 in
    let tables, bindings = bindings_of_from ~lookup ~in_place q.Ast.from in
    if List.length tables > 2 then fail "FROM supports one or two tables";
    let cell = { ts = 0. } in
    let scope = { binds = bindings; cell } in
    let grouped = has_aggregate q.Ast.items || q.Ast.group_by <> [] || q.Ast.having <> None in
    let columns =
      List.concat_map
        (fun item ->
          match item with
          | Ast.Sel_star when grouped -> fail "SELECT * cannot be combined with aggregates"
          | Ast.Sel_star -> star_columns bindings
          | _ -> [ item_name item ])
        q.Ast.items
    in
    let where = Option.map (compile_pred scope ~ctx:`Where) q.Ast.where in
    let shape =
      if not grouped then begin
        let projectors =
          List.map
            (function
              | Ast.Sel_star when in_place ->
                  ts_used := true (* the row's timestamp is part of the output *);
                  fun row -> Value.Ts cell.ts :: Array.to_list row
              | Ast.Sel_star -> fun row -> Array.to_list row
              | Ast.Sel_expr (e, _) ->
                  let f = compile scope e in
                  fun row -> [ f row ]
              | Ast.Sel_agg _ -> assert false)
            q.Ast.items
        in
        P_scalar (fun row -> List.concat_map (fun p -> p row) projectors)
      end
      else begin
        let aggs = ref [] in
        let arg_cols = ref [] in
        let n_aggs = ref 0 in
        let add_agg fn arg =
          let a =
            match fn, arg with
            | Ast.Count, None -> A_count
            | Ast.Count, Some e -> A_count_if (compile scope e)
            | Ast.Sum, Some e -> A_sum (compile scope e)
            | Ast.Avg, Some e -> A_avg (compile scope e)
            | Ast.Min, Some e -> A_min (compile scope e)
            | Ast.Max, Some e -> A_max (compile scope e)
            | (Ast.Sum | Ast.Avg | Ast.Min | Ast.Max), None ->
                A_invalid (Printf.sprintf "%s requires an argument" (Ast.agg_to_string fn))
          in
          (* a bare column is read from the row in place; a single-table
             [ts] ([stamp_index], -1) is not in the row *)
          let col =
            match arg with
            | Some (Ast.Col (q, n)) -> (find_binding scope.binds (q, n)).index
            | _ -> -1
          in
          let i = !n_aggs in
          incr n_aggs;
          aggs := a :: !aggs;
          arg_cols := col :: !arg_cols;
          i
        in
        let outs =
          List.map
            (function
              | Ast.Sel_star -> assert false (* rejected while computing columns *)
              | Ast.Sel_expr (e, _) -> O_expr (compile scope e)
              | Ast.Sel_agg (fn, arg, _) -> O_agg (add_agg fn arg))
            q.Ast.items
        in
        let having =
          Option.map
            (fun (subject, op, lit) ->
              let h_subject =
                match subject with
                | Ast.H_agg (fn, arg) -> H_agg (add_agg fn arg)
                | Ast.H_col (qual, name) -> H_col (compile scope (Ast.Col (qual, name)))
              in
              { h_subject; h_op = op; h_lit = lit })
            q.Ast.having
        in
        let key_cells =
          List.map
            (fun (qual, name) ->
              let b = find_binding scope.binds (qual, name) in
              key_cell b.ty (compile scope (Ast.Col (qual, name))))
            q.Ast.group_by
        in
        let rec key row = function [] -> [] | f :: fs -> f row :: key row fs in
        let key_cols = List.map (fun col -> (find_binding scope.binds col).index) q.Ast.group_by in
        P_grouped
          {
            g_key = (fun row -> key row key_cells);
            g_key1 = (match key_cells with [ f ] -> Some f | _ -> None);
            g_key_cols =
              (if List.mem stamp_index key_cols then None else Some (Array.of_list key_cols));
            g_no_group_by = q.Ast.group_by = [];
            g_aggs = Array.of_list (List.rev !aggs);
            g_arg_cols = Array.of_list (List.rev !arg_cols);
            g_outs = outs;
            g_having = having;
          }
      end
    in
    let order =
      match q.Ast.order_by with
      | None -> None
      | Some ((qual, name), dir) ->
          let target = match qual with None -> name | Some qq -> qq ^ "." ^ name in
          let idx =
            match List.find_index (String.equal target) columns with
            | Some i -> i
            | None -> fail "ORDER BY column %s is not in the output" target
          in
          Some (idx, dir)
    in
    Ok
      {
        p_tables = tables;
        p_window = q.Ast.window;
        p_where = where;
        p_cell = cell;
        p_needs_ts = !ts_used;
        p_columns = columns;
        p_shape = shape;
        p_order = order;
        p_limit = q.Ast.limit;
      }
  with Plan_error msg -> Error msg

let compile_row table expr =
  try
    let _, bindings =
      bindings_of_from ~lookup:(fun _ -> Some table) ~in_place:false [ (Table.name table, None) ]
    in
    let f = compile { binds = bindings; cell = { ts = 0. } } expr in
    Ok
      (fun row ->
        match f row with
        | v -> Ok v
        | exception Plan_error msg -> Error msg
        | exception Invalid_argument msg -> Error msg)
  with Plan_error msg -> Error msg

(* -- one-shot execution -------------------------------------------- *)

let window_spec ~now : Ast.window -> Table.window = function
  | Ast.W_all -> `All
  | Ast.W_range_sec s -> `Last_seconds (s, now)
  | Ast.W_rows n -> `Last_rows n
  | Ast.W_now -> `Now now

(* A combined row [| ts; v1..vn |] for the join path, fresh per row. *)
let full_row table row p =
  let n = Array.length row in
  let full = Array.make (n + 1) (Value.Ts (Table.stamp table p)) in
  Array.blit row 0 full 1 n;
  full

(* Folds [f] over the rows of the plan's window that pass its WHERE,
   with the table's callback shape: a single-table plan hands [f] each
   stored row in place (never mutate or extend it; keeping it is safe,
   stored rows are immutable) with its position, and reads the row's
   timestamp into [p_cell] only when a closure reads it; with neither a
   WHERE nor a [ts] to read, [f] is the table fold's own callback. Join
   rows are fresh per pair, with the left row's position. *)
let fold_rows t ~now ~init ~f =
  let spec = window_spec ~now t.p_window in
  let f =
    match t.p_where with
    | None -> f
    | Some pred -> fun acc row p -> if pred row then f acc row p else acc
  in
  match t.p_tables with
  | [ table ] ->
      if t.p_needs_ts then begin
        let cell = t.p_cell in
        Table.fold_window table spec ~init ~f:(fun acc row p ->
            cell.ts <- Table.stamp table p;
            f acc row p)
      end
      else Table.fold_window table spec ~init ~f
  | [ left; right ] ->
      let right_rows =
        List.rev
          (Table.fold_window right spec ~init:[] ~f:(fun acc row p -> full_row right row p :: acc))
      in
      Table.fold_window left spec ~init ~f:(fun acc row p ->
          let l = full_row left row p in
          List.fold_left (fun acc r -> f acc (Array.append l r) p) acc right_rows)
  | _ -> fail "FROM supports one or two tables"

(* Sort over the key column extracted once per row, so the comparator
   never walks the row lists. Small results (the common case: a few
   groups, or a short window) use a stable insertion sort over the
   (key, row) pair — no temp arrays, no comparator closures; larger
   ones a permutation stable_sort. A descending sort flips the operand
   order, which agrees in sign with the interpreter's negation. *)
let apply_order t out_rows =
  match t.p_order with
  | None -> out_rows
  | Some (idx, dir) ->
      let cmp_v =
        match dir with
        | Ast.Asc -> Value.compare_values
        | Ast.Desc -> fun a b -> Value.compare_values b a
      in
      let arr = Array.of_list out_rows in
      let n = Array.length arr in
      if n <= 1 then out_rows
      else begin
        let keys = Array.map (fun row -> List.nth row idx) arr in
        if n <= 32 then
          for i = 1 to n - 1 do
            let k = keys.(i) and r = arr.(i) in
            let j = ref (i - 1) in
            while !j >= 0 && cmp_v keys.(!j) k > 0 do
              keys.(!j + 1) <- keys.(!j);
              arr.(!j + 1) <- arr.(!j);
              decr j
            done;
            keys.(!j + 1) <- k;
            arr.(!j + 1) <- r
          done
        else begin
          let idxs = Array.init n (fun i -> i) in
          Array.stable_sort (fun i j -> cmp_v keys.(i) keys.(j)) idxs;
          let sorted = Array.map (fun i -> arr.(i)) idxs in
          Array.blit sorted 0 arr 0 n
        end;
        Array.to_list arr
      end

let apply_limit t out_rows =
  match t.p_limit with
  | None -> out_rows
  | Some n -> List.filteri (fun i _ -> i < n) out_rows

(* -- the group store ----------------------------------------------- *)

(* one group of a grouped scan or of a standing view *)
type gslot = {
  gs_fp : int; (* cheap fingerprint: probes reject on an int compare *)
  gs_k1 : Value.t; (* key cell when the query groups by a single column *)
  gs_key : key; (* the key otherwise *)
  gs_rep : Value.t array; (* its first row: a scan projects it, a hint matches its key cells *)
  gs_rep_ts : float; (* its timestamp, for a single-table plan that reads it *)
  gs_states : sstate array;
  mutable gs_next : gslot;
      (* successor hint: the group of the row that followed this group's
         last row *)
  mutable gs_rows : int; (* rows folded in (a view's live rows); 0 once out of the store *)
  mutable gs_first : int; (* a view's oldest live row, by sequence number *)
  mutable gs_last : int; (* and its newest *)
  mutable gs_stale : bool; (* a view's states wait for a re-fold of its live rows *)
}

(* the probes' miss; it is shared by every execution and every view, so
   nothing ever writes it *)
let rec no_group =
  {
    gs_fp = 0;
    gs_k1 = Value.Bool false;
    gs_key = [];
    gs_rep = [||];
    gs_rep_ts = 0.;
    gs_states = [||];
    gs_next = no_group;
    gs_rows = 0;
    gs_first = 0;
    gs_last = 0;
    gs_stale = false;
  }

(* The groups of one exec or one view. Up to [max_linear_groups] live in
   a small array probed linearly — queries rarely have more than a
   handful of groups, and an int fingerprint compare beats hashing there;
   past that every group moves to a table, keyed on the key cell when
   the query groups by one column, and only the table is probed. Probes
   return [no_group] on a miss, so a row that finds its group allocates
   nothing. *)
type groups = {
  gt_single : bool; (* keyed on [gs_k1] *)
  gt_linear : gslot array;
  mutable gt_n : int;
  mutable gt_by_k1 : gslot Cell_tbl.t option;
  mutable gt_by_key : gslot Key_tbl.t option;
}

let max_linear_groups = 8

let new_groups ~single =
  {
    gt_single = single;
    gt_linear = Array.make max_linear_groups no_group;
    gt_n = 0;
    gt_by_k1 = None;
    gt_by_key = None;
  }

(* length + first/last chars of each key part: group keys usually share a
   long prefix (IPs, hostnames), so the last char discriminates where a
   byte-by-byte equal would walk the whole string *)
let fp_str acc s =
  let len = String.length s in
  let acc = (acc * 31) lxor len in
  if len = 0 then acc
  else
    acc
    lxor (Char.code (String.unsafe_get s 0) lsl 8)
    lxor Char.code (String.unsafe_get s (len - 1))

let cell_fp acc = function
  | Value.Str s -> fp_str acc s
  | Value.Int i -> (acc * 31) lxor i
  | Value.Bool b -> (acc * 31) lxor Bool.to_int b
  | Value.Real _ | Value.Ts _ -> acc (* not a key cell *)

let key_fp key = List.fold_left cell_fp 7 key

let rec probe_k1 linear n fp k i =
  if i >= n then no_group
  else
    let s = Array.unsafe_get linear i in
    if s.gs_fp = fp && cell_eq s.gs_k1 k then s else probe_k1 linear n fp k (i + 1)

let rec probe_key linear n fp key i =
  if i >= n then no_group
  else
    let s = Array.unsafe_get linear i in
    if s.gs_fp = fp && key_eq s.gs_key key then s else probe_key linear n fp key (i + 1)

let find_k1 gt fp k =
  match gt.gt_by_k1 with
  | Some h -> ( match Cell_tbl.find h k with s -> s | exception Not_found -> no_group)
  | None -> probe_k1 gt.gt_linear gt.gt_n fp k 0

let find_key gt fp key =
  match gt.gt_by_key with
  | Some h -> ( match Key_tbl.find h key with s -> s | exception Not_found -> no_group)
  | None -> probe_key gt.gt_linear gt.gt_n fp key 0

let add_group gt s =
  (match (gt.gt_by_k1, gt.gt_by_key) with
  | None, None when gt.gt_n < max_linear_groups -> gt.gt_linear.(gt.gt_n) <- s
  | None, None ->
      (* the slots are full: every group moves to a table *)
      if gt.gt_single then begin
        let h = Cell_tbl.create 64 in
        Array.iter (fun s -> Cell_tbl.replace h s.gs_k1 s) gt.gt_linear;
        Cell_tbl.replace h s.gs_k1 s;
        gt.gt_by_k1 <- Some h
      end
      else begin
        let h = Key_tbl.create 64 in
        Array.iter (fun s -> Key_tbl.replace h s.gs_key s) gt.gt_linear;
        Key_tbl.replace h s.gs_key s;
        gt.gt_by_key <- Some h
      end;
      Array.fill gt.gt_linear 0 max_linear_groups no_group
  | Some h, _ -> Cell_tbl.replace h s.gs_k1 s
  | None, Some h -> Key_tbl.replace h s.gs_key s);
  gt.gt_n <- gt.gt_n + 1

(* a view's group whose last live row left *)
let remove_group gt s =
  (match (gt.gt_by_k1, gt.gt_by_key) with
  | Some h, _ -> Cell_tbl.remove h s.gs_k1
  | None, Some h -> Key_tbl.remove h s.gs_key
  | None, None ->
      let last = gt.gt_n - 1 in
      let i = ref 0 in
      while gt.gt_linear.(!i) != s do
        incr i
      done;
      gt.gt_linear.(!i) <- gt.gt_linear.(last);
      gt.gt_linear.(last) <- no_group);
  gt.gt_n <- gt.gt_n - 1

let clear_groups gt =
  Array.fill gt.gt_linear 0 max_linear_groups no_group;
  gt.gt_n <- 0;
  gt.gt_by_k1 <- None;
  gt.gt_by_key <- None

let group_list gt =
  match (gt.gt_by_k1, gt.gt_by_key) with
  | Some h, _ -> Cell_tbl.fold (fun _ s acc -> s :: acc) h []
  | None, Some h -> Key_tbl.fold (fun _ s acc -> s :: acc) h []
  | None, None -> Array.to_list (Array.sub gt.gt_linear 0 gt.gt_n)

let fresh_states g = Array.map2 s_fresh g.g_aggs g.g_arg_cols

let apply_states states row =
  for i = 0 to Array.length states - 1 do
    s_apply (Array.unsafe_get states i) row
  done

let rec retract_states states row i =
  i >= Array.length states
  || (s_retract (Array.unsafe_get states i) row && retract_states states row (i + 1))

(* Key cells at one position compare by value when they are not the very
   same cell: a key is a function of its columns' cells, so equal cells
   ([cell_eq]: the same constructor and payload; never a real) can only
   confirm an equal key, and never render text. *)
let same_cell a b = a == b || cell_eq a b

let rec same_key_cells cols row rep i =
  i >= Array.length cols
  ||
  let c = Array.unsafe_get cols i in
  same_cell row.(c) (Array.unsafe_get rep c) && same_key_cells cols row rep (i + 1)

(* the group a probe found, or a new one when it found none; either way
   [prev]'s hint moves to it *)
let found t gt g ~created prev row ~fp ~k1 ~key s =
  let s =
    if s != no_group then s
    else begin
      let s =
        {
          no_group with
          gs_fp = fp;
          gs_k1 = k1;
          gs_key = key;
          gs_rep = row;
          gs_rep_ts = t.p_cell.ts;
          gs_states = fresh_states g;
        }
      in
      add_group gt s;
      created s;
      s
    end
  in
  if prev != no_group then prev.gs_next <- s;
  s

(* a stale view group takes the row too: its re-fold starts afresh *)
let[@inline] fold s row =
  s.gs_rows <- s.gs_rows + 1;
  apply_states s.gs_states row;
  s

(* A grouped scan's step: finds [row]'s group, given the previous row's
   group [prev], and folds the row into it. A router writes one row per
   station in turn, each pointing at the station's one address cell, so
   the group of a row is usually the group that followed the previous
   row's group last time: each group keeps that successor as a hint, and
   a row whose key cells are the hint's ([same_cell]: a router's port
   numbers are fresh cells) takes it without a fingerprint, a hash or a
   key list. A miss probes the store, adds a new group (passed to
   [created]) and moves [prev]'s hint; a multi-column key builds its key
   list only then. A group out of its view's store ([gs_rows] = 0, as
   [no_group]) is never taken from a hint. A single-table [GROUP BY ts]
   (not in the row) always probes. The step ignores its third argument,
   so a scan hands it to the table's fold as it is. *)
let group_step t gt g ~created =
  match g.g_key1 with
  | Some kf ->
      let c = match g.g_key_cols with Some cols -> cols.(0) | None -> -1 in
      fun prev row _ ->
        let hint = prev.gs_next in
        if c >= 0 && hint.gs_rows > 0 && same_cell row.(c) (Array.unsafe_get hint.gs_rep c) then
          fold hint row
        else
          let k = kf row in
          let fp = cell_fp 0 k in
          fold (found t gt g ~created prev row ~fp ~k1:k ~key:[] (find_k1 gt fp k)) row
  | None ->
      let hinted, cols =
        match g.g_key_cols with Some cols -> (true, cols) | None -> (false, [||])
      in
      fun prev row _ ->
        let hint = prev.gs_next in
        if hinted && hint.gs_rows > 0 && same_key_cells cols row hint.gs_rep 0 then fold hint row
        else
          let key = g.g_key row in
          let fp = key_fp key in
          fold (found t gt g ~created prev row ~fp ~k1:no_group.gs_k1 ~key (find_key gt fp key)) row

(* the synthetic empty global group has no row to read a column from: a
   HAVING column fails as the reference's read of an empty row does *)
let no_row_column () = invalid_arg "index out of bounds"

(* HAVING and the projection over [groups], in output order. [rep s] is
   the row group [s] projects, with its timestamp put in the stamp cell.
   A query with no GROUP BY over no rows answers its aggregates over
   zero rows, as the reference does. *)
let output_groups t g groups ~rep =
  let cell = t.p_cell in
  let output s row =
    let passes =
      match g.g_having with
      | None -> true
      | Some h ->
          let subject =
            match h.h_subject with
            | H_agg i -> s_finalize s.gs_states.(i)
            | H_col _ when Array.length row = 0 -> no_row_column ()
            | H_col f -> f row
          in
          compare_having h.h_op subject h.h_lit
    in
    if not passes then None
    else
      Some
        (List.map
           (function
             | O_expr f ->
                 if Array.length row = 0 then fail "cannot project a column from zero rows";
                 f row
             | O_agg i -> s_finalize s.gs_states.(i))
           g.g_outs)
  in
  if g.g_no_group_by && groups = [] then begin
    cell.ts <- 0.;
    Option.to_list (output { no_group with gs_states = fresh_states g } [||])
  end
  else List.filter_map (fun s -> output s (rep s)) groups

(* Each row is folded into its group's aggregates as it is scanned; the
   hints live in this execution's groups only. *)
let exec_grouped t g ~now =
  let gt = new_groups ~single:(g.g_key1 <> None) in
  let order = ref [] in
  let step = group_step t gt g ~created:(fun s -> order := s :: !order) in
  ignore (fold_rows t ~now ~init:no_group ~f:step);
  let cell = t.p_cell in
  output_groups t g (List.rev !order) ~rep:(fun s ->
      cell.ts <- s.gs_rep_ts;
      s.gs_rep)

let exec t ~now =
  try
    let out_rows =
      match t.p_shape with
      | P_scalar project ->
          List.rev (fold_rows t ~now ~init:[] ~f:(fun acc row _ -> project row :: acc))
      | P_grouped g -> exec_grouped t g ~now
    in
    let out_rows = apply_limit t (apply_order t out_rows) in
    Ok { Query.columns = t.p_columns; rows = out_rows }
  with
  | Plan_error msg -> Error msg
  | Invalid_argument msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Incremental view maintenance                                        *)
(* ------------------------------------------------------------------ *)

type plan = t

module Inc = struct
  (* A standing query folded over the insert stream by the one-shot
     engine. The view keeps its window as a ring of the stored rows the
     insert hook hands it (no copy), with their timestamps and groups,
     and keeps its groups in the store a scan uses, hints included. Each
     insert is folded into its group by [s_apply], as a scan folds it.
     Rows leave the window oldest-first (time expiry, ROWS overflow,
     ring-capacity eviction: timestamps are monotone; a [NOW] window
     resets wholesale when a newer batch starts). A leaving row is taken
     back by [s_retract] when that is exact; otherwise its group goes
     stale, and the group's live rows are re-folded in window order when
     its result is next assembled. A group whose last live row leaves
     leaves the store. So each group holds what the scan of the same
     window would fold into it, and the view answers what the scan does.
     A clean view answers from its cached result.

     Errors: a row whose WHERE raises poisons the window for as long as
     it is inside it; a scalar plan projects its rows when the result is
     assembled; an aggregate error seals its accumulator, as in a scan. *)

  type t = {
    i_plan : plan;
    i_table : Table.t;
    i_groups : groups;
    i_step : gslot -> Value.t array -> unit -> gslot;
    mutable i_prev : gslot; (* the last grouped row's group: the next row tries its hint *)
    (* the window: the row with sequence number [seq] sits at
       [seq land (length - 1)], from [i_head] up to [i_seq] *)
    mutable i_rows : Value.t array array;
    mutable i_ts : Float.Array.t;
    mutable i_group : gslot array;
        (* the row's group; [skipped], [poisoned], or a scalar plan's
           [no_group] *)
    mutable i_next : int array; (* its group's next live row *)
    mutable i_head : int;
    mutable i_seq : int;
    i_poisons : string Queue.t; (* the poisoned rows' errors, oldest first *)
    mutable i_seen : int; (* Table.total_inserted at last processed insert *)
    mutable i_live : int; (* predicted ring length; divergence => resync *)
    mutable i_dirty : bool;
    mutable i_resync : bool;
    mutable i_resyncs : int;
    mutable i_cached : (Query.result_set, string) result;
  }

  let skipped = { no_group with gs_fp = 1 } (* WHERE false *)
  let poisoned = { no_group with gs_fp = 2 } (* WHERE raised *)
  let table t = t.i_table
  let resyncs t = t.i_resyncs
  let cap t = Table.capacity t.i_table
  let live t = t.i_seq - t.i_head
  let slot t seq = seq land (Array.length t.i_rows - 1)

  let grow t =
    let n = 2 * Array.length t.i_rows in
    let rows = Array.make n [||]
    and ts = Float.Array.make n 0.
    and group = Array.make n no_group
    and next = Array.make n 0 in
    for seq = t.i_head to t.i_seq - 1 do
      let i = slot t seq and j = seq land (n - 1) in
      rows.(j) <- t.i_rows.(i);
      Float.Array.set ts j (Float.Array.get t.i_ts i);
      group.(j) <- t.i_group.(i);
      next.(j) <- t.i_next.(i)
    done;
    t.i_rows <- rows;
    t.i_ts <- ts;
    t.i_group <- group;
    t.i_next <- next

  (* every group goes at once, so no hint is left leading to one *)
  let reset_window t =
    t.i_head <- t.i_seq;
    Queue.clear t.i_poisons;
    clear_groups t.i_groups;
    t.i_prev <- no_group;
    t.i_dirty <- true

  (* -- ingest / retract ---------------------------------------------- *)

  let retract_one t =
    let seq = t.i_head in
    let i = slot t seq in
    let s = t.i_group.(i) and row = t.i_rows.(i) in
    t.i_head <- seq + 1;
    t.i_dirty <- true;
    if s == poisoned then ignore (Queue.pop t.i_poisons)
    else if s.gs_rows > 0 then begin
      s.gs_rows <- s.gs_rows - 1;
      if s.gs_rows = 0 then begin
        remove_group t.i_groups s;
        s.gs_next <- no_group;
        if t.i_prev == s then t.i_prev <- no_group
      end
      else begin
        s.gs_first <- t.i_next.(i);
        if not s.gs_stale then begin
          t.i_plan.p_cell.ts <- Float.Array.get t.i_ts i;
          s.gs_stale <- not (retract_states s.gs_states row 0)
        end
      end
    end

  (* rows a [RANGE range] window drops at [now]; the floats arrive boxed
     and are subtracted here, so a call allocates nothing *)
  let retract_expired t ~now ~range =
    let cutoff = now -. range in
    while live t > 0 && Float.Array.get t.i_ts (slot t t.i_head) < cutoff do
      retract_one t
    done

  let classify t row seq =
    let plan = t.i_plan in
    match match plan.p_where with None -> true | Some pred -> pred row with
    | false -> skipped
    | exception (Plan_error msg | Invalid_argument msg) ->
        Queue.add msg t.i_poisons;
        poisoned
    | true -> (
        match plan.p_shape with
        | P_scalar _ -> no_group
        | P_grouped _ ->
            let s = t.i_step t.i_prev row () in
            t.i_prev <- s;
            if s.gs_rows = 1 then s.gs_first <- seq else t.i_next.(slot t s.gs_last) <- seq;
            s.gs_last <- seq;
            s)

  (* [row] is the stored row itself: immutable, so the view may keep it *)
  let ingest t row ts =
    let window = t.i_plan.p_window in
    (match window with
    | Ast.W_now when live t > 0 && ts > Float.Array.get t.i_ts (slot t (t.i_seq - 1)) ->
        reset_window t
    | _ -> ());
    if live t = Array.length t.i_rows then grow t;
    let seq = t.i_seq in
    let i = slot t seq in
    t.i_seq <- seq + 1;
    t.i_dirty <- true;
    t.i_rows.(i) <- row;
    Float.Array.set t.i_ts i ts;
    t.i_plan.p_cell.ts <- ts;
    t.i_group.(i) <- classify t row seq;
    (match window with Ast.W_range_sec range -> retract_expired t ~now:ts ~range | _ -> ());
    let keep = match window with Ast.W_rows n -> Int.min (Int.max 0 n) (cap t) | _ -> cap t in
    while live t > keep do
      retract_one t
    done

  let resync t =
    reset_window t;
    t.i_resync <- false;
    t.i_resyncs <- t.i_resyncs + 1;
    t.i_seen <- Table.total_inserted t.i_table;
    t.i_live <- Table.length t.i_table;
    Table.fold_window t.i_table `All ~init:() ~f:(fun () row p ->
        ingest t row (Table.stamp t.i_table p))

  (* The table insert hook. A trigger chain can re-enter the table while
     an earlier row's hooks are still running, delivering tuples out of
     order; [Table.clear] empties the ring underneath us. Both are
     detected (insert counter, predicted ring length) and answered by
     rebuilding from a scan at the next read instead of serving a wrong
     delta. *)
  let observe t (tu : Value.tuple) =
    if not t.i_resync then begin
      let total = Table.total_inserted t.i_table in
      if total <> t.i_seen + 1 then t.i_resync <- true
      else begin
        t.i_seen <- total;
        t.i_live <- Int.min (t.i_live + 1) (cap t);
        ingest t tu.Value.values tu.Value.ts
      end
    end

  (* -- assembly ------------------------------------------------------ *)

  let refold t s =
    Array.iter s_reset s.gs_states;
    let seq = ref s.gs_first in
    for _ = 1 to s.gs_rows do
      let i = slot t !seq in
      t.i_plan.p_cell.ts <- Float.Array.get t.i_ts i;
      apply_states s.gs_states t.i_rows.(i);
      seq := t.i_next.(i)
    done;
    s.gs_stale <- false

  let assemble t =
    let plan = t.i_plan in
    let cell = plan.p_cell in
    try
      if not (Queue.is_empty t.i_poisons) then fail_str (Queue.peek t.i_poisons);
      let out_rows =
        match plan.p_shape with
        | P_scalar project ->
            let out = ref [] in
            for seq = t.i_head to t.i_seq - 1 do
              let i = slot t seq in
              if t.i_group.(i) == no_group then begin
                cell.ts <- Float.Array.get t.i_ts i;
                out := project t.i_rows.(i) :: !out
              end
            done;
            List.rev !out
        | P_grouped g ->
            let groups =
              List.sort (fun a b -> Int.compare a.gs_first b.gs_first) (group_list t.i_groups)
            in
            List.iter (fun s -> if s.gs_stale then refold t s) groups;
            output_groups plan g groups ~rep:(fun s ->
                let i = slot t s.gs_first in
                cell.ts <- Float.Array.get t.i_ts i;
                t.i_rows.(i))
      in
      let out_rows = apply_limit plan (apply_order plan out_rows) in
      Ok { Query.columns = plan.p_columns; rows = out_rows }
    with
    | Plan_error msg -> Error msg
    | Invalid_argument msg -> Error msg

  let result t ~now =
    let tbl = t.i_table in
    if t.i_resync || Table.total_inserted tbl <> t.i_seen || Table.length tbl <> t.i_live then
      resync t;
    (match t.i_plan.p_window with Ast.W_range_sec range -> retract_expired t ~now ~range | _ -> ());
    if t.i_dirty then begin
      t.i_cached <- assemble t;
      t.i_dirty <- false
    end;
    t.i_cached

  let create (plan : plan) =
    match plan.p_tables with
    | [ tbl ] ->
        let groups, step =
          match plan.p_shape with
          | P_grouped g ->
              let gt = new_groups ~single:(g.g_key1 <> None) in
              (gt, group_step plan gt g ~created:ignore)
          | P_scalar _ -> (new_groups ~single:false, fun _ _ () -> no_group)
        in
        let n = 16 in
        let t =
          {
            i_plan = plan;
            i_table = tbl;
            i_groups = groups;
            i_step = step;
            i_prev = no_group;
            i_rows = Array.make n [||];
            i_ts = Float.Array.make n 0.;
            i_group = Array.make n no_group;
            i_next = Array.make n 0;
            i_head = 0;
            i_seq = 0;
            i_poisons = Queue.create ();
            i_seen = 0;
            i_live = 0;
            i_dirty = true;
            i_resync = true;
            i_resyncs = -1; (* the seeding rebuild is not a resync *)
            i_cached = Error "unevaluated";
          }
        in
        resync t;
        Some t
    | _ -> None (* joins re-execute their compiled plan per tick *)
end
