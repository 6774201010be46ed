(* The reference interpreter of hwdb SELECTs and row expressions: it
   walks the AST per row, resolving every column name again each time.
   [Plan] compiles the same language and is what the database runs; the
   differential suites (test/plan_diff.ml) and PERF10's interpreted
   baseline compare against this module. *)

open Hw_hwdb

exception Eval_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

(* A binding: (qualifiers that may name this column, column name, value
   index into the combined row). *)
type binding = { quals : string list; col : string; index : int }

let bindings_of_from ~lookup from =
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
            (* implicit timestamp column first *)
            all := { quals; col = "ts"; index = !offset } :: !all;
            List.iteri
              (fun i (col, _ty) -> all := { quals; col; index = !offset + 1 + i } :: !all)
              (Table.schema table);
            offset := !offset + 1 + List.length (Table.schema table);
            table)
      from
  in
  (tables, List.rev !all)

let resolve bindings (qual, name) =
  let candidates =
    List.filter
      (fun b ->
        String.equal b.col name
        && match qual with None -> true | Some q -> List.exists (String.equal q) b.quals)
      bindings
  in
  match candidates with
  | [ b ] -> b.index
  | [] -> fail "unknown column %s" (match qual with Some q -> q ^ "." ^ name | None -> name)
  | _ :: _ ->
      fail "ambiguous column %s" (match qual with Some q -> q ^ "." ^ name | None -> name)

let rec eval bindings (row : Value.t array) expr =
  match expr with
  | Ast.Lit v -> v
  | Ast.Col (q, n) -> row.(resolve bindings (q, n))
  | Ast.Unop (Ast.Neg, e) -> (
      match eval bindings row e with
      | Value.Int i -> Value.Int (-i)
      | Value.Real f -> Value.Real (-.f)
      | v -> fail "cannot negate %s" (Value.to_string v))
  | Ast.Unop (Ast.Not, e) -> (
      match eval bindings row e with
      | Value.Bool b -> Value.Bool (not b)
      | v -> fail "NOT applied to non-boolean %s" (Value.to_string v))
  | Ast.Binop (op, a, b) -> eval_binop bindings row op a b

and eval_binop bindings row op a b =
  match op with
  | Ast.And -> (
      match eval bindings row a with
      | Value.Bool false -> Value.Bool false
      | Value.Bool true -> (
          match eval bindings row b with
          | Value.Bool _ as v -> v
          | v -> fail "AND applied to non-boolean %s" (Value.to_string v))
      | v -> fail "AND applied to non-boolean %s" (Value.to_string v))
  | Ast.Or -> (
      match eval bindings row a with
      | Value.Bool true -> Value.Bool true
      | Value.Bool false -> (
          match eval bindings row b with
          | Value.Bool _ as v -> v
          | v -> fail "OR applied to non-boolean %s" (Value.to_string v))
      | v -> fail "OR applied to non-boolean %s" (Value.to_string v))
  | Ast.Eq -> Value.Bool (Value.equal (eval bindings row a) (eval bindings row b))
  | Ast.Neq -> Value.Bool (not (Value.equal (eval bindings row a) (eval bindings row b)))
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
      let va = eval bindings row a and vb = eval bindings row b in
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
      let va = eval bindings row a and vb = eval bindings row b in
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

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

let eval_agg bindings rows fn arg =
  match fn, arg with
  | Ast.Count, None -> Value.Int (List.length rows)
  | Ast.Count, Some e ->
      Value.Int
        (List.length
           (List.filter
              (fun row ->
                match eval bindings row e with Value.Bool false -> false | _ -> true)
              rows))
  | (Ast.Sum | Ast.Avg), Some e ->
      let nums =
        List.map
          (fun row ->
            match Value.as_float (eval bindings row e) with
            | Some f -> f
            | None -> fail "%s over non-numeric values" (Ast.agg_to_string fn))
          rows
      in
      let total = List.fold_left ( +. ) 0. nums in
      if fn = Ast.Sum then Value.Real total
      else if nums = [] then Value.Real 0.
      else Value.Real (total /. float_of_int (List.length nums))
  | (Ast.Min | Ast.Max), Some e -> (
      let vals = List.map (fun row -> eval bindings row e) rows in
      match vals with
      | [] -> Value.Str ""
      | first :: rest ->
          let better a b =
            let c = Value.compare_values a b in
            if (fn = Ast.Min && c <= 0) || (fn = Ast.Max && c >= 0) then a else b
          in
          List.fold_left better first rest)
  | (Ast.Sum | Ast.Avg | Ast.Min | Ast.Max), None ->
      fail "%s requires an argument" (Ast.agg_to_string fn)

let has_aggregate items =
  List.exists (function Ast.Sel_agg _ -> true | Ast.Sel_star | Ast.Sel_expr _ -> false) items

(* ------------------------------------------------------------------ *)
(* Column naming                                                       *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Main execution                                                      *)
(* ------------------------------------------------------------------ *)

(* [RANGE s SECONDS] denotes the closed interval [now - s, now] — the
   boundary row is included — matching Table's window convention. *)
let window_spec ~now : Ast.window -> Table.window = function
  | Ast.W_all -> `All
  | Ast.W_range_sec s -> `Last_seconds (s, now)
  | Ast.W_rows n -> `Last_rows n
  | Ast.W_now -> `Now now

let row_of_tuple (tu : Value.tuple) = Array.append [| Value.Ts tu.Value.ts |] tu.Value.values

(* Folds over the combined (joined) rows of the FROM clause: each row
   of a window as [| ts; v1..vn |], and a join as every left row
   followed by every right row. *)
let fold_combined_rows ~now window tables ~init ~f =
  let spec = window_spec ~now window in
  let rows table = List.map row_of_tuple (Table.scan_window table spec) in
  match tables with
  | [ table ] -> List.fold_left f init (rows table)
  | [ left; right ] ->
      let right_rows = rows right in
      List.fold_left
        (fun acc l -> List.fold_left (fun acc r -> f acc (Array.append l r)) acc right_rows)
        init (rows left)
  | _ -> fail "FROM supports one or two tables"

let star_columns bindings =
  (* every column in binding order, qualified only when needed *)
  List.map
    (fun b ->
      let duplicated =
        List.exists (fun other -> other.index <> b.index && String.equal other.col b.col) bindings
      in
      if duplicated then Printf.sprintf "%s.%s" (List.hd b.quals) b.col else b.col)
    bindings

let exec ~lookup ~now (q : Ast.select) =
  try
    let tables, bindings = bindings_of_from ~lookup q.Ast.from in
    (* the scan/WHERE pipeline as a fold: consumers below accumulate
       projected rows or groups directly off the ring *)
    let fold_rows init f =
      let f =
        match q.Ast.where with
        | None -> f
        | Some pred ->
            fun acc row -> (
              match eval bindings row pred with
              | Value.Bool true -> f acc row
              | Value.Bool false -> acc
              | v -> fail "WHERE clause is not boolean: %s" (Value.to_string v))
      in
      fold_combined_rows ~now q.Ast.window tables ~init ~f
    in
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
    let out_rows =
      if not grouped then
        List.rev
          (fold_rows [] (fun acc row ->
               List.concat_map
                 (fun item ->
                   match item with
                   | Ast.Sel_star -> Array.to_list row
                   | Ast.Sel_expr (e, _) -> [ eval bindings row e ]
                   | Ast.Sel_agg _ -> assert false)
                 q.Ast.items
               :: acc))
      else begin
        (* group rows by the GROUP BY key, straight off the scan *)
        let key_of row =
          List.map (fun col -> row.(resolve bindings col)) q.Ast.group_by
        in
        let groups = Hashtbl.create 16 in
        let order = ref [] in
        fold_rows () (fun () row ->
            let key = List.map Value.to_string (key_of row) in
            match Hashtbl.find_opt groups key with
            | Some rows_ref -> rows_ref := row :: !rows_ref
            | None ->
                Hashtbl.replace groups key (ref [ row ]);
                order := key :: !order);
        (* SQL semantics: a global aggregate (no GROUP BY) over zero rows
           still yields one row (COUNT = 0, SUM = 0, ...) *)
        if q.Ast.group_by = [] && Hashtbl.length groups = 0 then begin
          Hashtbl.replace groups [] (ref []);
          order := [ [] ]
        end;
        let keys_in_order = List.rev !order in
        let group_passes group_rows representative =
          match q.Ast.having with
          | None -> true
          | Some (subject, op, lit) -> (
              let subject_value =
                match subject with
                | Ast.H_agg (fn, arg) -> eval_agg bindings group_rows fn arg
                | Ast.H_col (qual, name) -> representative.(resolve bindings (qual, name))
              in
              match op with
              | Ast.Eq -> Value.equal subject_value lit
              | Ast.Neq -> not (Value.equal subject_value lit)
              | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
                  match Value.compare_values subject_value lit with
                  | c -> (
                      match op with
                      | Ast.Lt -> c < 0
                      | Ast.Le -> c <= 0
                      | Ast.Gt -> c > 0
                      | Ast.Ge -> c >= 0
                      | _ -> assert false)
                  | exception Invalid_argument msg -> fail "HAVING: %s" msg)
              | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.And | Ast.Or ->
                  fail "HAVING expects a comparison operator")
        in
        List.filter_map
          (fun key ->
            match Hashtbl.find_opt groups key with
            | None -> None
            | Some rows_ref ->
                let group_rows = List.rev !rows_ref in
                let representative =
                  match group_rows with
                  | row :: _ -> row
                  | [] ->
                      (* the synthetic empty global group: only aggregates
                         can be projected from it *)
                      [||]
                in
                let non_empty () =
                  if group_rows = [] then fail "cannot project a column from zero rows"
                in
                if not (group_passes group_rows representative) then None
                else
                  Some
                    (List.map
                       (fun item ->
                         match item with
                         | Ast.Sel_star -> assert false
                         | Ast.Sel_expr (e, _) ->
                             (* must be functionally dependent on the group key;
                                evaluated on a representative row *)
                             non_empty ();
                             eval bindings representative e
                         | Ast.Sel_agg (fn, arg, _) -> eval_agg bindings group_rows fn arg)
                       q.Ast.items))
          keys_in_order
      end
    in
    let out_rows =
      match q.Ast.order_by with
      | None -> out_rows
      | Some ((qual, name), dir) ->
          let target = match qual with None -> name | Some qq -> qq ^ "." ^ name in
          let idx =
            match List.find_index (String.equal target) columns with
            | Some i -> i
            | None -> fail "ORDER BY column %s is not in the output" target
          in
          let cmp a b =
            let c = Value.compare_values (List.nth a idx) (List.nth b idx) in
            match dir with Ast.Asc -> c | Ast.Desc -> -c
          in
          List.stable_sort cmp out_rows
    in
    let out_rows =
      match q.Ast.limit with
      | None -> out_rows
      | Some n -> List.filteri (fun i _ -> i < n) out_rows
    in
    Ok { Query.columns; rows = out_rows }
  with
  | Eval_error msg -> Error msg
  | Invalid_argument msg -> Error msg

let eval_row table (tuple : Value.tuple) expr =
  let bindings =
    { quals = [ Table.name table ]; col = "ts"; index = 0 }
    :: List.mapi
         (fun i (col, _ty) -> { quals = [ Table.name table ]; col; index = i + 1 })
         (Table.schema table)
  in
  let row = Array.append [| Value.Ts tuple.Value.ts |] tuple.Value.values in
  match eval bindings row expr with
  | v -> Ok v
  | exception Eval_error msg -> Error msg
  | exception Invalid_argument msg -> Error msg
