(** The Homework Database instance: named tables, statement execution and
    continuous-query subscriptions.

    Standard tables (the paper's measurement plane):
    - [Flows]:  periodically observed active five-tuples
      (proto, src_ip, dst_ip, src_port, dst_port, packets, bytes)
    - [Links]:  link-layer info per station (mac, rssi, retries, packets)
    - [Leases]: DHCP activity (mac, ip, hostname, action) where action is
      grant | renew | revoke | deny
    - [Policies]: control-plane declarations (kind, id, payload, action)
      where kind is rule | group | token and action is set | remove —
      the event stream a recovering router replays to rebuild its policy
      engine
    - [Metrics]: self-describing observability export (name, kind, stat,
      value) refreshed from the metrics registry on every {!tick}, so the
      measurement plane can be queried and subscribed to like any other
      stream.
    - [Traces]: the tracer's flight recorder, one row per span (trace_id,
      span_id, parent, span, start, dur, attrs, error), refreshed on every
      {!tick} when a tracer is attached — so [SELECT ... FROM Traces [NOW]]
      and [SUBSCRIBE ... FROM Traces] work over the UDP RPC like any other
      stream.

    Each tick appends the whole registry ([Hw_metrics.Snapshot.rows], in
    order) to [Metrics] and every span of every kept trace (oldest trace
    first) to [Traces], each batch stamped with one instant. The rows are
    rendered once and re-stamped, so a tick costs what changed, not what
    is retained:
    - [Traces]: each trace's rows are one block, kept in a ring beside
      the flight recorder with the recorder's capacity. The recorder's
      push count ({!Hw_trace.Tracer.pushed}) tells a tick which traces
      are new since the last one, so it renders only those and drops
      the blocks of traces that have left the recorder (evicted, or
      removed by a [clear]); a tick that finds no new trace renders
      nothing and builds no list.
    - [Metrics]: the rows sit in one flat array in
      [Hw_metrics.Snapshot.rows] order. An instrument's name/kind/stat
      cells are built on the first tick that finds it registered, and
      its rows again, sharing those cells, only when its
      {!Hw_metrics.Snapshot.version} moves.

    The exported rows and the [total_inserted] count of each table are
    exactly those a full re-render would give, and a table's insert
    hooks see every re-stamped row, one by one. *)

type t

val create :
  ?default_capacity:int ->
  ?metrics:Hw_metrics.Registry.t ->
  ?trace:Hw_trace.Tracer.t ->
  ?durable:string list ->
  ?recover_from:Hw_wal.Store.t ->
  ?wal_interpose:(unit -> Hw_wal.Wal.interposer option) ->
  ?wal_max_pending:int ->
  now:(unit -> float) ->
  unit ->
  t
(** Fresh database with the six standard tables installed. [metrics]
    defaults to {!Hw_metrics.Registry.default}; [trace] to
    {!Hw_trace.Tracer.disabled} — attach the composition's tracer to get
    [hwdb.insert] / [hwdb.trigger] spans inside active traces and the
    [Traces] table export.

    With [recover_from], each table named in [durable] (default
    [["Leases"; "Policies"]]) is backed by a {!Hw_wal.Wal} in that
    store: whatever the store already holds is recovered into the table
    (snapshot first, then the log tail, truncating at the first torn
    record), and every later insert is logged — buffered, then group
    committed by the next {!tick} (or {!flush_wal}). Snapshots are taken
    automatically every 4x ring-capacity records, truncating the log —
    the store footprint is bounded by live state, not uptime.
    [wal_interpose] is asked at each flush for the interposer in force
    between each framed record and the store — the disk fault plane's
    hook, [None] while it is disarmed ({!Hw_wal.Wal.open_}). [wal_max_pending] caps the group-commit
    buffer (default 1024 records): a full buffer flushes inline, so an
    idle loop cannot defer durability forever.

    Recovered rows keep their original timestamps, so [now] must resume
    at or after the last pre-crash stamp (restart a simulated router
    with [~start:(Home.now old)]) to preserve the rings' timestamp
    ordering. Without [recover_from] the database is fully ephemeral, as
    before. *)

val create_empty :
  ?default_capacity:int ->
  ?metrics:Hw_metrics.Registry.t ->
  ?trace:Hw_trace.Tracer.t ->
  now:(unit -> float) ->
  unit ->
  t
(** No standard tables (for unit tests); without a [Metrics] ([Traces])
    table, {!tick} skips the registry (flight recorder) export. *)

val metrics : t -> Hw_metrics.Registry.t
(** The registry this database both reports into (hwdb_* counters) and
    exports from (the [Metrics] table). *)

val tracer : t -> Hw_trace.Tracer.t
(** The tracer whose flight recorder feeds the [Traces] table
    ({!Hw_trace.Tracer.disabled} unless one was attached). *)

val clock : t -> unit -> float
(** The [now] function the database was created with. *)

val create_table : t -> name:string -> ?capacity:int -> Value.schema -> (Table.t, string) result
val table : t -> string -> Table.t option
val table_names : t -> string list

val insert : t -> table:string -> Value.t list -> (unit, string) result
(** Stamped with the database clock. *)

val query : t -> string -> (Query.result_set, string) result
(** Runs a SELECT through the prepared-plan cache: the first execution
    of a statement text parses and compiles it ({!Plan.prepare}), every
    later one executes the cached plan directly. The cache is bounded
    (keyed by the exact statement text, FIFO eviction, instrumented as
    [hwdb_plan_cache_{hits,misses,evictions}_total]). Only successful
    prepares are cached, so a statement naming a not-yet-created table
    re-prepares after [CREATE TABLE]. *)

val cached_select : t -> string -> (Query.result_set, string) result option
(** [Some result] when [src] hit the plan cache (executed without any
    parsing — the RPC server's fast path), [None] on a miss; the caller
    falls back to parsing. *)

val execute : t -> string -> (Query.result_set option, string) result
(** Runs any statement; SELECT/SUBSCRIBE return a result set (SUBSCRIBE
    returns the subscription id as a 1x1 result). SELECT text goes
    through the plan cache. *)

val execute_stmt : t -> ?text:string -> Ast.stmt -> (Query.result_set option, string) result
(** {!execute} for an already-parsed statement (the RPC server parses
    once to dispatch and must not pay a second parse). When [text] is
    given, a SELECT's compiled plan is cached under it. *)

val plan_cache_stats : t -> int * int * int
(** [(hits, misses, evictions)] of the plan cache: the values of the
    [hwdb_plan_cache_{hits,misses,evictions}_total] counters in the
    database's registry (so a shared registry sums its databases). *)

(** {2 ECA triggers (the "active" database)} *)

type trigger_id = int

val create_trigger :
  t ->
  watch:string ->
  ?condition:Ast.expr ->
  target:string ->
  values:Ast.expr list ->
  unit ->
  (trigger_id, string) result
(** [ON INSERT INTO watch WHEN condition DO INSERT INTO target VALUES
    (values…)]: after each insert into [watch] whose row satisfies
    [condition], evaluate [values] over that row and insert into
    [target]. [condition] and each of [values] are compiled once, here,
    by {!Plan.compile_row}: a trigger naming a column [watch] does not
    have is refused with an [unknown column] error and never registered.
    Chains are bounded (depth 8) so self-referential triggers cannot
    loop; a condition or action that fails on a row (a type error, a
    value the target rejects) is logged and skipped. *)

val drop_trigger : t -> trigger_id -> bool
val trigger_count : t -> int

(** {2 Continuous queries} *)

type subscription_id = int

val subscribe :
  t -> query:Ast.select -> period:float -> callback:(Query.result_set -> unit) ->
  subscription_id
(** Delivers the standing query's result to [callback] every [period]
    seconds of database time. Subscriptions sharing the same canonical
    query text share one refcounted view; single-table views are
    maintained incrementally off the insert stream ({!Plan.Inc}), so an
    idle table costs nothing per tick and k inserts cost O(k) no matter
    how many subscriptions watch them. *)

val unsubscribe : t -> subscription_id -> bool
(** O(1): subscriptions are kept in a hash table keyed by id. *)

val subscription_count : t -> int

val tick : t -> unit
(** Flushes durable tables' WALs (group commit), then delivers all due
    subscriptions against the current clock. Call once per simulated
    second (finer is fine; periods are respected). Each view is
    evaluated at most once per tick — the first due subscriber computes
    (for incremental views: retract expired rows, assemble from
    maintained state, or reuse the cached result when nothing changed)
    and every other subscriber receives that identical snapshot.
    Deliveries happen in subscription-id order. *)

(** {2 Durability} *)

val flush_wal : t -> unit
(** Group-commit every durable table's buffered rows to the store now.
    {!tick} calls this first thing; call it directly before simulating a
    crash, or to bound the loss window tighter than one tick. *)

val wal : t -> string -> Hw_wal.Wal.t option
(** The WAL behind a durable table, [None] for ephemeral tables. *)

(** {2 Standard-table insert helpers} *)

val flows_schema : Value.schema
val links_schema : Value.schema
val leases_schema : Value.schema
val policies_schema : Value.schema
val metrics_schema : Value.schema
val traces_schema : Value.schema

val trace_row : Hw_trace.Tracer.completed -> Hw_trace.Tracer.span -> Value.t array
(** The [Traces] row of one span of a completed trace, shared by the
    tick export and [Hw_obs.Observer]. *)

(** The address columns ([src_ip], [dst_ip], [mac], [ip]) take the
    [Value.Str] cell itself, so a producer that keeps one cell per
    address (as [Hw_router.Router] does) renders each address once and
    every row about it shares that cell. *)

val record_flow :
  t -> proto:int -> src_ip:Value.t -> dst_ip:Value.t -> src_port:int -> dst_port:int ->
  packets:int -> bytes:int -> unit

val record_link : t -> mac:Value.t -> rssi:int -> retries:int -> packets:int -> unit
val record_lease : t -> mac:Value.t -> ip:Value.t -> hostname:string -> action:string -> unit

val record_policy : t -> kind:string -> id:string -> payload:string -> action:string -> unit
(** One control-plane declaration event into [Policies]; [kind] is
    rule | group | token, [action] is set | remove. *)
