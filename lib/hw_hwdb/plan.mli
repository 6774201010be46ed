(** Compiled query plans: a SELECT lowered once into closures over
    [Value.t array] rows (column names resolved to array offsets, WHERE /
    projection / GROUP BY key / HAVING compiled), so the hot path never
    re-parses text or interprets the AST. This is hwdb's one evaluator:
    SELECTs, subscriptions and ECA trigger expressions ({!compile_row})
    all run compiled. A per-row reference interpreter lives with the
    tests (test/ref/query_ref.ml); the differential property suite pins
    plans to it.

    Unlike the reference, which resolves column names lazily per row,
    this module resolves eagerly: a SELECT or trigger naming an unknown
    or ambiguous column fails when it is compiled, even if its window is
    empty. All other error behavior matches the reference verbatim. *)

type t

val prepare : lookup:(string -> Table.t option) -> Ast.select -> (t, string) result
(** Resolves tables and columns and compiles every expression. Fails on
    unknown tables/columns, ambiguous names, [SELECT *] mixed with
    aggregates, more than two FROM tables, or an ORDER BY target missing
    from the output — everything that cannot depend on data. *)

val compile_row :
  Table.t -> Ast.expr -> (Value.t array -> (Value.t, string) result, string) result
(** [compile_row table e] compiles [e] over one row of [table], for the
    ECA triggers: the row is [\[| Value.Ts ts; v1; ...; vn |\]], the
    tuple's timestamp followed by its values in schema order. Columns
    resolve unqualified or qualified by the table's name, with the
    implicit [ts]. An unknown column fails here, as it does in
    {!prepare}; the closure returns the errors a SELECT evaluating [e]
    over that row reports (a type error, division by zero). *)

val exec : t -> now:float -> (Query.result_set, string) result
(** One-shot execution against the live tables, window relative to
    [now]; same semantics (rows, values, error {e presence}) as the
    reference interpreter. Two message-level divergences: the streaming
    aggregator records the first chronological bad argument of a
    MIN/MAX, where the interpreter reports whichever pair its fold
    compares first; and ORDER BY over mixed-class keys may name a
    different incomparable pair in "cannot compare ...". Both raise
    exactly when the interpreter raises. *)

(** Incrementally maintained standing queries: the one-shot engine run
    over the insert stream. A view keeps its groups in the store a
    one-shot scan uses and folds each insert into them with the same
    accumulators, O(1) amortized. A row leaving the window (time expiry,
    ROWS overflow, ring-capacity eviction) is taken back exactly where
    the accumulator can (COUNT; SUM/AVG while the group's contributions
    are small integers; MIN/MAX while the row is not the best), and
    otherwise its group's live rows are re-folded in window order when
    its result is next assembled; [\[NOW\]] windows reset wholesale when
    a newer batch starts. So a view answers what {!exec} answers, a
    real-valued SUM bit for bit. A view whose table saw no inserts
    answers from its cached result without touching the window, so N
    idle subscriptions sharing views cost O(new inserts), not
    O(N x window). *)
module Inc : sig
  type plan := t

  type t

  val create : plan -> t option
  (** Seeds the view from the table's current contents. [None] when the
      plan joins two tables (those re-execute per tick). The caller owns
      hook registration: feed every subsequent insert via {!observe}
      (e.g. from {!Table.add_hook}). *)

  val table : t -> Table.t

  val observe : t -> Value.tuple -> unit
  (** Applies one inserted tuple. Out-of-order delivery (a trigger chain
      re-entering the table mid-hook) or a table cleared underneath the
      view is detected and answered by scheduling a rebuild-from-scan at
      the next {!result} instead of serving a wrong delta. *)

  val result : t -> now:float -> (Query.result_set, string) result
  (** The standing query's current answer: retracts rows that [now]
      pushed out of a RANGE window, then assembles (or returns the
      cached result when nothing changed). Equal to {!exec} of the plan
      at [now]; only an error's message may differ, when the window
      holds more than one failing row. *)

  val resyncs : t -> int
  (** Rebuild-from-scan events triggered by the safety valves (excludes
      the initial seeding). *)
end
