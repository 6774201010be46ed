(** The fleet observability plane: one observer attached to a
    {!Hw_fleet.Manager} that turns the fleet's raw signals into three
    operator surfaces.

    {b Scraping.} Every [scrape_period] the observer fans one federated
    [SELECT name, stat, value FROM Metrics [NOW] WHERE ...] out over the
    manager's sessions (the ordinary {!Hw_fleet.Manager.query} path, so
    it is traced, bounded by [max_inflight] and tolerant of partial
    failure); the [WHERE] clause selects only the rows ingest reads, the
    seven tracked metrics and the error counters. The observer keeps,
    per router, the last value of each of the seven tracked metrics —
    hwdb and RPC counters plus [hwdb_query_seconds]'s [p99] — and each
    scrape rebuilds one fleet view from them: per tracked key, each
    router's last value, summed and maxed in router order. A router
    that misses a scrape keeps its last values in the view. The fleet's
    history is the [FleetMetrics] table, which stores each view.

    {b Tables.} The observer owns a manager-side hwdb with four tables:
    [Metrics] (the manager's own registry, refreshed each 1 s tick),
    [Traces] (spans of the manager's flight-recorded traces — including
    the cross-node [fleet.query] trees — exported at each scrape: every
    trace pushed into the recorder since the last export, once, in push
    order), [FleetMetrics] (the fleet view: per-router last values plus
    [__fleet__] sum/max aggregates, one batch per scrape, 16,384 rows)
    and [FleetHealth] (one row per health state transition,
    trace-tagged with the scrape that caused it, 4,096 rows). Standing
    [SUBSCRIBE] queries against these tables are the alerting path:
    {!db} exposes the database for {!Hw_hwdb.Database.subscribe} / an
    {!Hw_hwdb.Rpc.Server}.

    {b Health.} A per-router {!Health} machine driven by the manager's
    session events (registration, renewal, eviction), by scrape
    outcomes, and by the advance of a router's hwdb insert/query error
    counters and RPC drop counter; transitions are counted in the
    [fleet_health_transitions_total{state=...}] labeled family.

    {b HTTP.} {!handle_http} serves [GET /metrics] (Prometheus text,
    fleet series labeled with [router="..."]), [GET /traces] +
    [GET /traces/:id] (Chrome/Perfetto-loadable JSON of a cross-node
    trace) and [GET /fleet/health]. *)

module Manager := Hw_fleet.Manager

type t

val create :
  ?scrape_period:float -> loop:Hw_sim.Event_loop.t -> manager:Manager.t -> unit -> t
(** Attaches to [manager]'s registry, tracer and session-event hook
    (the observer installs itself with
    {!Hw_fleet.Manager.on_session_event} — it owns that hook).

    [scrape_period] (default 10 s) paces the federated metrics scrape;
    a 1 s tick paces the hwdb tick (subscription delivery) and the
    health silence sweep. Health runs on {!Health}'s constants,
    whatever the manager's lease: a router silent for 30 s degrades. *)

val db : t -> Hw_hwdb.Database.t
(** The observer's hwdb ([Metrics] / [Traces] / [FleetMetrics] /
    [FleetHealth]) — subscribe to it, or front it with an RPC server. *)

val health : t -> Health.t

val scrape_now : t -> unit
(** Kick one scrape cycle immediately (it completes asynchronously as
    the event loop runs — the federated query must settle). *)

val health_tick : t -> unit
(** Run one health silence sweep immediately (normally paced by the
    1 s tick). *)

val scrapes_total : t -> int
(** Completed scrape cycles (the federated query settled and its rows
    were ingested): the [obs_scrapes_total] counter. *)

val render_prometheus : t -> string
(** The manager registry (escaped per the exposition format) followed by
    the fleet view as of the last scrape: per-router samples labeled
    [router="<id>"] and [__fleet__] sum/max aggregates. For a tracked
    histogram percentile (e.g. [..._p99]) the [__fleet__] max is the
    fleet-wide upper bound of that percentile. *)

val handle_http : t -> string -> string
(** Byte-level HTTP entry point ({!Hw_control_api.Router.handle_raw}). *)
