(** The reference interpreter of hwdb SELECTs and row expressions: a
    per-row walk of the AST that the compiled {!Hw_hwdb.Plan} is tested
    against. Nothing in the library calls it. *)

open Hw_hwdb

val exec :
  lookup:(string -> Table.t option) -> now:float -> Ast.select -> (Query.result_set, string) result
(** Evaluates the window relative to [now] ([RANGE s SECONDS] is the
    closed interval [\[now -. s, now\]]; [NOW] is the newest-timestamp
    batch — see {!Table.window}), consuming ring tuples via
    {!Table.fold_window} without materializing scan lists. Supports projection,
    arithmetic and boolean predicates, two-table joins (cartesian product
    restricted by WHERE), GROUP BY with COUNT/SUM/AVG/MIN/MAX, ORDER BY on
    an output column, and LIMIT. Every table exposes an implicit [ts]
    timestamp column. Columns resolve lazily, per row: an unknown column
    over an empty window is no error here. *)

val eval_row : Table.t -> Value.tuple -> Ast.expr -> (Value.t, string) result
(** Evaluates an expression against one row of one table; columns
    resolve unqualified or qualified by the table name, with the
    implicit [ts]. The reference for {!Hw_hwdb.Plan.compile_row}. *)
