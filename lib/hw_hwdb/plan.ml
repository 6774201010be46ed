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
   are the hint's very cells (a router's rows share one cell per
   address), and reads an aggregate whose argument is a bare column
   straight from the row. A standing view's SUM/AVG equals the scan's
   left-to-right float sum bit for bit.

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
  | Ast.Unop (Ast.Not, e) -> (
      let f = compile scope e in
      fun row ->
        match f row with
        | Value.Bool b -> Value.Bool (not b)
        | v -> fail "NOT applied to non-boolean %s" (Value.to_string v))
  | Ast.Binop (op, a, b) -> compile_binop scope op a b

and compile_binop scope op a b =
  let fa = compile scope a and fb = compile scope b in
  match op with
  | Ast.And -> (
      fun row ->
        match fa row with
        | Value.Bool false -> Value.Bool false
        | Value.Bool true -> (
            match fb row with
            | Value.Bool _ as v -> v
            | v -> fail "AND applied to non-boolean %s" (Value.to_string v))
        | v -> fail "AND applied to non-boolean %s" (Value.to_string v))
  | Ast.Or -> (
      fun row ->
        match fa row with
        | Value.Bool true -> Value.Bool true
        | Value.Bool false -> (
            match fb row with
            | Value.Bool _ as v -> v
            | v -> fail "OR applied to non-boolean %s" (Value.to_string v))
        | v -> fail "OR applied to non-boolean %s" (Value.to_string v))
  | Ast.Eq -> fun row -> Value.Bool (Value.equal (fa row) (fb row))
  | Ast.Neq -> fun row -> Value.Bool (not (Value.equal (fa row) (fb row)))
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      fun row ->
        let va = fa row and vb = fb row in
        match Value.compare_values va vb with
        | c ->
            Value.Bool
              (match op with
              | Ast.Lt -> c < 0
              | Ast.Le -> c <= 0
              | Ast.Gt -> c > 0
              | Ast.Ge -> c >= 0
              | _ -> assert false)
        | exception Invalid_argument msg -> fail "%s" msg)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod -> (
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

(* WHERE compiles down to an unboxed boolean predicate: comparisons and
   the boolean connectives return [bool] directly instead of boxing a
   [Value.Bool] per row. Error strings still depend on where a
   non-boolean subterm appears ("WHERE clause is not boolean" at the
   top, "AND/OR/NOT applied to non-boolean" underneath), so the
   compiler carries that context down. *)
let rec compile_pred scope ~ctx expr : Value.t array -> bool =
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
        | c -> (
            match op with
            | Ast.Lt -> c < 0
            | Ast.Le -> c <= 0
            | Ast.Gt -> c > 0
            | Ast.Ge -> c >= 0
            | _ -> assert false)
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
  p_select : Ast.select;
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

let select t = t.p_select
let columns t = t.p_columns
let single_table t = match t.p_tables with [ tbl ] -> Some tbl | _ -> None

(* -- streaming aggregate state (exec path) -------------------------- *)

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
  mutable sa_n : int; (* rows counted, summed, or compared for MIN/MAX *)
  sa_total : total;
  mutable sa_best : Value.t; (* min/max running best once [sa_n > 0], first-wins on ties *)
  mutable sa_err : string option;
}

let s_fresh spec col =
  {
    sa_spec = spec;
    sa_col = col;
    sa_n = 0;
    sa_total = { sum = 0. };
    sa_best = Value.Str "";
    sa_err = None;
  }

(* Folds one argument value into the aggregate. Integers take the first
   branch of each case; MIN/MAX compare two integers without a call. *)
let s_take sa v =
  match sa.sa_spec with
  | A_sum _ | A_avg _ -> (
      match v with
      | Value.Int i ->
          sa.sa_total.sum <- sa.sa_total.sum +. float_of_int i;
          sa.sa_n <- sa.sa_n + 1
      | Value.Real x | Value.Ts x ->
          sa.sa_total.sum <- sa.sa_total.sum +. x;
          sa.sa_n <- sa.sa_n + 1
      | Value.Str _ | Value.Bool _ ->
          sa.sa_err <-
            Some
              (Printf.sprintf "%s over non-numeric values"
                 (match sa.sa_spec with A_sum _ -> "SUM" | _ -> "AVG")))
  | A_min _ | A_max _ -> (
      let is_max = match sa.sa_spec with A_max _ -> true | _ -> false in
      if sa.sa_n = 0 then begin
        sa.sa_best <- v;
        sa.sa_n <- 1
      end
      else
        match (sa.sa_best, v) with
        | Value.Int best, Value.Int x -> if (if is_max then x > best else x < best) then sa.sa_best <- v
        | best, _ -> (
            match Value.compare_values best v with
            | c -> if (if is_max then c < 0 else c > 0) then sa.sa_best <- v
            | exception Invalid_argument msg -> sa.sa_err <- Some msg))
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

(* the value the reference [eval_agg] yields over zero rows, for the
   synthetic empty global group *)
let empty_agg_value = function
  | A_count | A_count_if _ -> Value.Int 0
  | A_sum _ -> Value.Real 0.
  | A_avg _ -> Value.Real 0.
  | A_min _ | A_max _ -> Value.Str ""
  | A_invalid msg -> fail_str msg

let compare_having op subject lit =
  match op with
  | Ast.Eq -> Value.equal subject lit
  | Ast.Neq -> not (Value.equal subject lit)
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      match Value.compare_values subject lit with
      | c -> (
          match op with
          | Ast.Lt -> c < 0
          | Ast.Le -> c <= 0
          | Ast.Gt -> c > 0
          | Ast.Ge -> c >= 0
          | _ -> assert false)
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
        let key_fns =
          List.map (fun (qual, name) -> compile scope (Ast.Col (qual, name))) q.Ast.group_by
        in
        let key_cells =
          List.map2
            (fun col f -> key_cell (find_binding scope.binds col).ty f)
            q.Ast.group_by key_fns
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
        p_select = q;
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

(* one group of the streaming grouped exec *)
type gslot = {
  gs_fp : int; (* cheap fingerprint: probes reject on an int compare *)
  gs_k1 : Value.t; (* key cell when the query groups by a single column *)
  gs_key : key; (* the key otherwise *)
  gs_rep : Value.t array; (* first row seen: stored rows are immutable, join rows fresh *)
  gs_rep_ts : float; (* its timestamp, for a single-table plan that reads it *)
  gs_states : sstate array;
  mutable gs_next : gslot;
      (* successor hint: the group of the row that followed this group's
         last row, in this execution *)
}

(* the probes' miss; it is shared by every execution, so nothing ever
   writes its hint *)
let rec no_group =
  {
    gs_fp = 0;
    gs_k1 = Value.Bool false;
    gs_key = [];
    gs_rep = [||];
    gs_rep_ts = 0.;
    gs_states = [||];
    gs_next = no_group;
  }

(* The groups of one exec. Up to [max_linear_groups] live in a small
   array probed linearly — queries rarely have more than a handful of
   groups, and an int fingerprint compare beats hashing there; past
   that every group moves to a table, keyed on the key cell when the
   query groups by one column, and only the table is probed. Probes
   return [no_group] on a miss, so a row that finds its group allocates
   nothing. *)
type groups = {
  gt_linear : gslot array;
  mutable gt_n : int;
  mutable gt_by_k1 : gslot Cell_tbl.t option;
  mutable gt_by_key : gslot Key_tbl.t option;
  mutable gt_order : gslot list; (* reversed first-appearance order *)
}

let max_linear_groups = 8

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

let add_group gt ~single s =
  (if gt.gt_n < max_linear_groups then begin
     gt.gt_linear.(gt.gt_n) <- s;
     gt.gt_n <- gt.gt_n + 1
   end
   else if single then begin
     let h =
       match gt.gt_by_k1 with
       | Some h -> h
       | None ->
           let h = Cell_tbl.create 64 in
           Array.iter (fun s -> Cell_tbl.replace h s.gs_k1 s) gt.gt_linear;
           gt.gt_by_k1 <- Some h;
           h
     in
     Cell_tbl.replace h s.gs_k1 s
   end
   else
     let h =
       match gt.gt_by_key with
       | Some h -> h
       | None ->
           let h = Key_tbl.create 64 in
           Array.iter (fun s -> Key_tbl.replace h s.gs_key s) gt.gt_linear;
           gt.gt_by_key <- Some h;
           h
     in
     Key_tbl.replace h s.gs_key s);
  gt.gt_order <- s :: gt.gt_order

let apply_states states row =
  for i = 0 to Array.length states - 1 do
    s_apply (Array.unsafe_get states i) row
  done

(* the synthetic empty global group has no row to read a column from: a
   HAVING column fails as the reference's read of an empty row does *)
let no_row_column () = invalid_arg "index out of bounds"

(* Whether [row] holds, at each key column, the very cell [rep] holds
   there. Cells are immutable and a key is a function of its columns'
   cells, so [==] can only confirm an equal key; it never compares
   text. *)
let rec same_key_cells cols row rep i =
  i >= Array.length cols
  ||
  let c = Array.unsafe_get cols i in
  row.(c) == Array.unsafe_get rep c && same_key_cells cols row rep (i + 1)

(* Each row is folded into its group's aggregates as it is scanned. A
   router writes one row per station in turn, each pointing at the
   station's one address cell, so the group of a row is usually the
   group that followed the previous row's group last time: each group
   keeps that successor as a hint, and a row whose key cells are
   physically the hint's takes the hint without a fingerprint, a hash
   or a string compare. A miss (a fresh cell, a new order, a new group)
   probes as before and moves the hint. The hints live in this
   execution's groups only. *)
let exec_grouped t g ~now =
  let gt =
    {
      gt_linear = Array.make max_linear_groups no_group;
      gt_n = 0;
      gt_by_k1 = None;
      gt_by_key = None;
      gt_order = [];
    }
  in
  let cell = t.p_cell in
  let single = g.g_key1 <> None in
  let fresh_states () = Array.map2 s_fresh g.g_aggs g.g_arg_cols in
  let new_group ~fp ~k1 ~key row =
    let s =
      {
        gs_fp = fp;
        gs_k1 = k1;
        gs_key = key;
        gs_rep = row;
        gs_rep_ts = cell.ts;
        gs_states = fresh_states ();
        gs_next = no_group;
      }
    in
    add_group gt ~single s;
    s
  in
  (* the row's group after a missed hint; [prev] is the previous row's *)
  let missed prev s =
    if prev != no_group then prev.gs_next <- s;
    s
  in
  let hinted, cols =
    match g.g_key_cols with Some cols -> (true, cols) | None -> (false, [||])
  in
  (match g.g_key1 with
  | Some kf ->
      let c = if hinted then cols.(0) else 0 in
      ignore
        (fold_rows t ~now ~init:no_group ~f:(fun prev row _ ->
             let hint = prev.gs_next in
             let s =
               if hinted && hint != no_group && row.(c) == Array.unsafe_get hint.gs_rep c then hint
               else begin
                 let k = kf row in
                 let fp = cell_fp 0 k in
                 let s = find_k1 gt fp k in
                 missed prev (if s == no_group then new_group ~fp ~k1:k ~key:[] row else s)
               end
             in
             apply_states s.gs_states row;
             s))
  | None ->
      ignore
        (fold_rows t ~now ~init:no_group ~f:(fun prev row _ ->
             let hint = prev.gs_next in
             let s =
               if hinted && hint != no_group && same_key_cells cols row hint.gs_rep 0 then hint
               else begin
                 let key = g.g_key row in
                 let fp = key_fp key in
                 let s = find_key gt fp key in
                 missed prev
                   (if s == no_group then new_group ~fp ~k1:no_group.gs_k1 ~key row else s)
               end
             in
             apply_states s.gs_states row;
             s)));
  let groups =
    if g.g_no_group_by && gt.gt_order = [] then
      [ { no_group with gs_states = fresh_states () } ]
    else List.rev gt.gt_order
  in
  let group_passes s =
    match g.g_having with
    | None -> true
    | Some h ->
        let subject =
          match h.h_subject with
          | H_agg i -> s_finalize s.gs_states.(i)
          | H_col _ when Array.length s.gs_rep = 0 -> no_row_column ()
          | H_col f -> f s.gs_rep
        in
        compare_having h.h_op subject h.h_lit
  in
  List.filter_map
    (fun s ->
      cell.ts <- s.gs_rep_ts;
      if not (group_passes s) then None
      else
        Some
          (List.map
             (function
               | O_expr f ->
                   if Array.length s.gs_rep = 0 then fail "cannot project a column from zero rows";
                   f s.gs_rep
               | O_agg i -> s_finalize s.gs_states.(i))
             g.g_outs))
    groups

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
  (* A standing query folded over the insert stream: each insert applies
     a delta; rows apply a retraction when they exit the window (time
     expiry, ROWS overflow, or ring-capacity eviction — timestamps are
     monotone, so rows always exit oldest-first; [NOW] windows reset
     wholesale when a newer batch starts). A clean view answers from its
     cached result in O(1); k inserts cost O(k) regardless of how many
     subscriptions share the view.

     Error semantics mirror the interpreter's phases: scan-phase errors
     (WHERE, scalar projection) poison the whole window for as long as
     the offending row is inside it; aggregate-argument errors are held
     per group per aggregate and only surface if that group survives
     HAVING — exactly when the reference [eval_agg] would have raised. *)

  let value_class = function
    | Value.Int _ | Value.Real _ | Value.Ts _ -> 0
    | Value.Str _ -> 1
    | Value.Bool _ -> 2

  let class_name = function 0 -> "integer" | 1 -> "varchar" | _ -> "boolean"

  (* total order across classes so the min/max multiset never raises;
     incomparable windows are detected via the per-class counts *)
  let cross_compare a b =
    let ca = value_class a and cb = value_class b in
    if ca <> cb then compare ca cb else Value.compare_values a b

  module VM = Map.Make (struct
    type t = Value.t

    let compare = cross_compare
  end)

  type minmax_state = {
    mutable vals : int VM.t;
    classes : int array;
    is_min : bool;
    mm_errs : string Queue.t;
  }

  (* SUM/AVG over the window. A float total kept by adding and
     subtracting contributions would drift from the scan's left-to-right
     sum as soon as one rounds, so the running total is an integer:
     while every live contribution is an integer of at most [small] and
     their magnitudes add up to at most 2^53, every partial sum of them,
     in any order, is exact, so the scan's float sum is [exact] itself.
     Otherwise {!finalize} re-sums the group's live contributions in
     window order, as the scan does. *)
  type sum_state = {
    mutable exact : int; (* sum of the live small contributions *)
    mutable magnitude : int; (* sum of their absolute values *)
    mutable inexact : int; (* live contributions that are not small integers *)
    mutable sn : int; (* live contributions *)
    avg : bool;
    serrs : string Queue.t;
  }

  type agg_state =
    | S_count of { mutable n : int }
    | S_count_if of { mutable n : int; errs : string Queue.t }
    | S_sum of sum_state
    | S_minmax of minmax_state
    | S_fail of string

  type contrib = C_none | C_if of bool | C_num of float | C_val of Value.t | C_err

  type entry = { e_seq : int; e_ts : float; e_row : Value.t array; e_kind : kind }

  and kind =
    | K_skip
    | K_poison of string
    | K_row of Value.t list
    | K_group of group * contrib array

  and group = { gr_key : key; gr_entries : entry Queue.t; gr_aggs : agg_state array }

  type t = {
    i_plan : plan;
    i_table : Table.t;
    i_buf : entry Queue.t;
    i_poisons : (int * string) Queue.t;
    i_groups : group Key_tbl.t;
    mutable i_seq : int;
    mutable i_seen : int; (* Table.total_inserted at last processed insert *)
    mutable i_live : int; (* predicted ring length; divergence => resync *)
    mutable i_newest : float;
    mutable i_dirty : bool;
    mutable i_resync : bool;
    mutable i_resyncs : int;
    mutable i_cached : (Query.result_set, string) result;
  }

  let table t = t.i_table
  let resyncs t = t.i_resyncs

  (* -- aggregate state ---------------------------------------------- *)

  let fresh_state = function
    | A_count -> S_count { n = 0 }
    | A_count_if _ -> S_count_if { n = 0; errs = Queue.create () }
    | (A_sum _ | A_avg _) as a ->
        S_sum
          {
            exact = 0;
            magnitude = 0;
            inexact = 0;
            sn = 0;
            avg = (match a with A_avg _ -> true | _ -> false);
            serrs = Queue.create ();
          }
    | A_min _ ->
        S_minmax { vals = VM.empty; classes = [| 0; 0; 0 |]; is_min = true; mm_errs = Queue.create () }
    | A_max _ ->
        S_minmax { vals = VM.empty; classes = [| 0; 0; 0 |]; is_min = false; mm_errs = Queue.create () }
    | A_invalid msg -> S_fail msg

  let minmax_add s v =
    s.vals <- VM.update v (function None -> Some 1 | Some n -> Some (n + 1)) s.vals;
    let c = value_class v in
    s.classes.(c) <- s.classes.(c) + 1

  let minmax_remove s v =
    (match VM.find_opt v s.vals with
    | Some 1 -> s.vals <- VM.remove v s.vals
    | Some n -> s.vals <- VM.add v (n - 1) s.vals
    | None -> ());
    let c = value_class v in
    s.classes.(c) <- s.classes.(c) - 1

  let small = 1 lsl 31
  let exact_limit = 1 lsl 53
  let is_small x = Float.is_integer x && Float.abs x <= float_of_int small

  (* [sign] is 1 for an insert, -1 for a retraction *)
  let sum_move s x sign =
    s.sn <- s.sn + sign;
    if is_small x then begin
      let i = int_of_float x in
      s.exact <- s.exact + (sign * i);
      s.magnitude <- s.magnitude + (sign * abs i)
    end
    else s.inexact <- s.inexact + sign

  let apply_insert spec st row : contrib =
    match spec, st with
    | A_count, S_count s ->
        s.n <- s.n + 1;
        C_none
    | A_count_if f, S_count_if s -> (
        match f row with
        | Value.Bool false -> C_if false
        | _ ->
            s.n <- s.n + 1;
            C_if true
        | exception Plan_error msg ->
            Queue.add msg s.errs;
            C_err
        | exception Invalid_argument msg ->
            Queue.add msg s.errs;
            C_err)
    | (A_sum f | A_avg f), S_sum s -> (
        let name = if s.avg then "AVG" else "SUM" in
        match f row with
        | v -> (
            match Value.as_float v with
            | Some x ->
                sum_move s x 1;
                C_num x
            | None ->
                Queue.add (Printf.sprintf "%s over non-numeric values" name) s.serrs;
                C_err)
        | exception Plan_error msg ->
            Queue.add msg s.serrs;
            C_err
        | exception Invalid_argument msg ->
            Queue.add msg s.serrs;
            C_err)
    | (A_min f | A_max f), S_minmax s -> (
        match f row with
        | v ->
            minmax_add s v;
            C_val v
        | exception Plan_error msg ->
            Queue.add msg s.mm_errs;
            C_err
        | exception Invalid_argument msg ->
            Queue.add msg s.mm_errs;
            C_err)
    | A_invalid _, S_fail _ -> C_none
    | _ -> C_none (* spec/state arrays are built in lockstep *)

  let retract_contrib st c =
    match st, c with
    | S_count s, C_none -> s.n <- s.n - 1
    | S_count_if s, C_if counted -> if counted then s.n <- s.n - 1
    | S_count_if s, C_err -> ignore (Queue.pop s.errs)
    | S_sum s, C_num x -> sum_move s x (-1)
    | S_sum s, C_err -> ignore (Queue.pop s.serrs)
    | S_minmax s, C_val v -> minmax_remove s v
    | S_minmax s, C_err -> ignore (Queue.pop s.mm_errs)
    | _ -> ()

  (* aggregate [i]'s live contributions summed in window order, from
     0., as the scan sums them *)
  let resum entries i =
    Queue.fold
      (fun acc e ->
        match e.e_kind with
        | K_group (_, contribs) -> (
            match contribs.(i) with C_num x -> acc +. x | _ -> acc)
        | K_skip | K_poison _ | K_row _ -> acc)
      0. entries

  (* aggregate [i] of group [gr] *)
  let finalize gr i =
    match gr.gr_aggs.(i) with
    | S_count s -> Value.Int s.n
    | S_count_if s ->
        if not (Queue.is_empty s.errs) then fail_str (Queue.peek s.errs);
        Value.Int s.n
    | S_sum s ->
        if not (Queue.is_empty s.serrs) then fail_str (Queue.peek s.serrs);
        let total =
          if s.inexact = 0 && s.magnitude <= exact_limit then float_of_int s.exact
          else resum gr.gr_entries i
        in
        if s.avg then
          if s.sn = 0 then Value.Real 0. else Value.Real (total /. float_of_int s.sn)
        else Value.Real total
    | S_minmax s ->
        if not (Queue.is_empty s.mm_errs) then fail_str (Queue.peek s.mm_errs);
        if VM.is_empty s.vals then Value.Str ""
        else begin
          (* two value classes present in the window: the interpreter's
             fold would have raised on the first incomparable pair *)
          let present = List.filteri (fun c _ -> s.classes.(c) > 0) [ 0; 1; 2 ] in
          (match present with
          | a :: b :: _ -> fail "cannot compare %s with %s" (class_name a) (class_name b)
          | _ -> ());
          let v, _ = if s.is_min then VM.min_binding s.vals else VM.max_binding s.vals in
          v
        end
    | S_fail msg -> fail_str msg

  (* -- ingest / retract ---------------------------------------------- *)

  let retract_one t =
    match Queue.take_opt t.i_buf with
    | None -> ()
    | Some e ->
        t.i_dirty <- true;
        (match e.e_kind with
        | K_skip | K_row _ -> ()
        | K_poison _ -> ignore (Queue.pop t.i_poisons)
        | K_group (g, contribs) ->
            ignore (Queue.pop g.gr_entries);
            Array.iteri (fun i c -> retract_contrib g.gr_aggs.(i) c) contribs;
            if Queue.is_empty g.gr_entries then Key_tbl.remove t.i_groups g.gr_key)

  let retract_expired t ~cutoff =
    let continue = ref true in
    while !continue do
      match Queue.peek_opt t.i_buf with
      | Some e when e.e_ts < cutoff -> retract_one t
      | _ -> continue := false
    done

  let reset_window t =
    Queue.clear t.i_buf;
    Queue.clear t.i_poisons;
    Key_tbl.reset t.i_groups;
    t.i_dirty <- true

  let where_check t row =
    match t.i_plan.p_where with
    | None -> `Pass
    | Some pred -> (
        match pred row with
        | true -> `Pass
        | false -> `Skip
        | exception Plan_error msg -> `Poison msg
        | exception Invalid_argument msg -> `Poison msg)

  let classify t row =
    match where_check t row with
    | `Skip -> K_skip
    | `Poison msg -> K_poison msg
    | `Pass -> (
        match t.i_plan.p_shape with
        | P_scalar project -> (
            match project row with
            | out -> K_row out
            | exception Plan_error msg -> K_poison msg
            | exception Invalid_argument msg -> K_poison msg)
        | P_grouped g ->
            let key = g.g_key row in
            let group =
              match Key_tbl.find_opt t.i_groups key with
              | Some gr -> gr
              | None ->
                  let gr =
                    {
                      gr_key = key;
                      gr_entries = Queue.create ();
                      gr_aggs = Array.map fresh_state g.g_aggs;
                    }
                  in
                  Key_tbl.replace t.i_groups key gr;
                  gr
            in
            let contribs =
              Array.mapi (fun i spec -> apply_insert spec group.gr_aggs.(i) row) g.g_aggs
            in
            K_group (group, contribs))

  let cap t = Table.capacity t.i_table

  let ingest t (tu : Value.tuple) =
    t.i_dirty <- true;
    let ts = tu.Value.ts in
    (match t.i_plan.p_window with
    | Ast.W_now when (not (Queue.is_empty t.i_buf)) && ts > t.i_newest -> reset_window t
    | _ -> ());
    t.i_newest <- ts;
    (* the stored row itself: immutable, so the view may keep it *)
    let row = tu.Value.values in
    t.i_plan.p_cell.ts <- ts;
    let seq = t.i_seq in
    t.i_seq <- seq + 1;
    let kind = classify t row in
    let entry = { e_seq = seq; e_ts = ts; e_row = row; e_kind = kind } in
    Queue.add entry t.i_buf;
    (match kind with
    | K_poison msg -> Queue.add (seq, msg) t.i_poisons
    | K_group (g, _) -> Queue.add entry g.gr_entries
    | K_skip | K_row _ -> ());
    match t.i_plan.p_window with
    | Ast.W_rows n ->
        let keep = min (max 0 n) (cap t) in
        while Queue.length t.i_buf > keep do
          retract_one t
        done
    | Ast.W_range_sec s ->
        retract_expired t ~cutoff:(ts -. s);
        while Queue.length t.i_buf > cap t do
          retract_one t
        done
    | Ast.W_all | Ast.W_now ->
        while Queue.length t.i_buf > cap t do
          retract_one t
        done

  let resync t =
    reset_window t;
    t.i_newest <- neg_infinity;
    t.i_resync <- false;
    t.i_resyncs <- t.i_resyncs + 1;
    t.i_seen <- Table.total_inserted t.i_table;
    t.i_live <- Table.length t.i_table;
    List.iter (fun tu -> ingest t tu) (Table.scan t.i_table)

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
        t.i_live <- min (t.i_live + 1) (cap t);
        ingest t tu
      end
    end

  (* -- assembly ------------------------------------------------------ *)

  let front_seq g = (Queue.peek g.gr_entries).e_seq

  let assemble_groups t (g : grouped) =
    let groups = Key_tbl.fold (fun _ gr acc -> gr :: acc) t.i_groups [] in
    let groups = List.sort (fun a b -> compare (front_seq a) (front_seq b)) groups in
    let passes subject_of =
      match g.g_having with
      | None -> true
      | Some h -> compare_having h.h_op (subject_of h.h_subject) h.h_lit
    in
    if g.g_no_group_by && groups = [] then begin
      (* synthetic empty global group: aggregates over zero rows *)
      let subject_of = function
        | H_agg i -> empty_agg_value g.g_aggs.(i)
        | H_col _ -> no_row_column ()
      in
      if not (passes subject_of) then []
      else
        [
          List.map
            (function
              | O_expr _ -> fail "cannot project a column from zero rows"
              | O_agg i -> empty_agg_value g.g_aggs.(i))
            g.g_outs;
        ]
    end
    else
      List.filter_map
        (fun gr ->
          let first = Queue.peek gr.gr_entries in
          let representative = first.e_row in
          t.i_plan.p_cell.ts <- first.e_ts;
          let subject_of = function
            | H_agg i -> finalize gr i
            | H_col f -> f representative
          in
          if not (passes subject_of) then None
          else
            Some
              (List.map
                 (function O_expr f -> f representative | O_agg i -> finalize gr i)
                 g.g_outs))
        groups

  let assemble t =
    try
      if not (Queue.is_empty t.i_poisons) then fail_str (snd (Queue.peek t.i_poisons));
      let out_rows =
        match t.i_plan.p_shape with
        | P_scalar _ ->
            List.rev
              (Queue.fold
                 (fun acc e -> match e.e_kind with K_row out -> out :: acc | _ -> acc)
                 [] t.i_buf)
        | P_grouped g -> assemble_groups t g
      in
      let out_rows = apply_limit t.i_plan (apply_order t.i_plan out_rows) in
      Ok { Query.columns = t.i_plan.p_columns; rows = out_rows }
    with
    | Plan_error msg -> Error msg
    | Invalid_argument msg -> Error msg

  let result t ~now =
    if
      (not t.i_resync)
      && (Table.total_inserted t.i_table <> t.i_seen || Table.length t.i_table <> t.i_live)
    then t.i_resync <- true;
    if t.i_resync then resync t;
    (match t.i_plan.p_window with
    | Ast.W_range_sec s -> retract_expired t ~cutoff:(now -. s)
    | _ -> ());
    if t.i_dirty then begin
      t.i_cached <- assemble t;
      t.i_dirty <- false
    end;
    t.i_cached

  let create (plan : plan) =
    match plan.p_tables with
    | [ tbl ] ->
        let t =
          {
            i_plan = plan;
            i_table = tbl;
            i_buf = Queue.create ();
            i_poisons = Queue.create ();
            i_groups = Key_tbl.create 16;
            i_seq = 0;
            i_seen = 0;
            i_live = 0;
            i_newest = neg_infinity;
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
