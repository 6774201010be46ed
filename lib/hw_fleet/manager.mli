(** The fleet management plane: a logically centralized manager that
    thousands of home routers register with over the hwdb UDP RPC
    transport, using a call-home pattern — the router dials out (it sits
    behind NAT, the manager cannot reach in) and keeps a renewable
    session lease; the manager reuses the held session for
    reverse-direction requests.

    Federated hwdb access rides on the sessions: the manager accepts
    ordinary hwdb query text, fans it out to every registered router's
    RPC server with bounded concurrency and per-router timeout/retry,
    and merges the result sets with a synthetic leading [router] column.
    Fleet-wide SUBSCRIBE attaches one leased {!Hw_hwdb.Rpc.Subscriber}
    per router and rolls the publishes up into one aggregated stream. *)

module Rpc := Hw_hwdb.Rpc
module Query := Hw_hwdb.Query

type t

val create :
  ?metrics:Hw_metrics.Registry.t ->
  ?trace:Hw_trace.Tracer.t ->
  ?lease_s:float ->
  ?retry:Rpc.Client.retry ->
  ?max_inflight:int ->
  ?seed:int ->
  loop:Hw_sim.Event_loop.t ->
  send:(to_:string -> string -> unit) ->
  unit ->
  t
(** [send] transmits one datagram down the held call-home session to a
    router's transport address. [trace] (default
    {!Hw_trace.Tracer.disabled}) records one [fleet.query] trace per
    federated query: a per-router [fleet.rpc] child span carries the
    router id, retry count and error/timeout marks, and its
    (trace id, span id) pair is propagated in the RPC {!Rpc.context} so
    each router's server-side handler roots under it — one causal trace
    across the fleet. [lease_s] (default 30) is the session
    lease: a router whose [FLEET REGISTER] renewals stop arriving is
    evicted within [lease_s] to [1.5 * lease_s]. [retry] shapes the
    per-router timeout/retry of manager-to-router requests (default
    {!Rpc.Client.default_retry}); [max_inflight] (default 64) bounds
    concurrent fan-out requests per federated query. [seed] drives the
    deterministic retry jitter. *)

val tracer : t -> Hw_trace.Tracer.t
val metrics : t -> Hw_metrics.Registry.t

val datagram : t -> from:string -> string -> unit
(** Feed one datagram arriving up a call-home session. [Request]
    datagrams carry session control ([FLEET REGISTER <id>] registers or
    renews; [UNSUBSCRIBE <token>] releases the session); everything
    else is routed to the per-session RPC client (replies and publishes
    from that router's hwdb server). Malformed datagrams are dropped. *)

(** {2 Sessions} *)

val session_count : t -> int
val sessions : t -> string list
(** Registered router ids, sorted. Accepted registrations (first-time
    and renewals) and lease evictions are counted in {!metrics} as
    [fleet_registrations_total] and [fleet_evictions_total]. *)

type session_event =
  | Session_up of string  (** first registration of a router id *)
  | Session_renewed of string  (** lease renewal (repeat FLEET REGISTER) *)
  | Session_down of string * string  (** router id, reason *)

val on_session_event : t -> (session_event -> unit) -> unit
(** Install the (single) session-lifecycle observer — the hook the
    observability plane's health model hangs off. Replaces any previous
    observer; the callback runs synchronously inside session
    bookkeeping, so it must not re-enter the manager. *)

(** {2 Federated queries} *)

type outcome = {
  columns : string list;  (** [router] prepended to the routers' columns *)
  rows : Hw_hwdb.Value.t list list;
      (** merged rows, grouped by router in fan-out (id-sorted) order *)
  ok : int;  (** routers that answered *)
  errors : (string * string) list;
      (** (router id, error) for routers that timed out or refused;
          federated queries return partial results, they never hang *)
  trace : int;
      (** trace id of the fan-out's [fleet.query] trace, 0 when
          untraced or no routers were registered — lets callers tag
          derived records (health transitions, scrape rows) with the
          causal trace *)
}

val query : t -> string -> on_done:(outcome -> unit) -> unit
(** Fan [statement] out to every currently registered router, at most
    [max_inflight] in flight; each router's rows are tagged with its id.
    [on_done] fires exactly once, after every router has answered or
    exhausted its retries. With no registered routers it fires
    immediately with an empty outcome.

    The statement is parse-checked once manager-side before fan-out:
    text the parser rejects fires [on_done] immediately with a single
    [("manager", message)] error instead of shipping a guaranteed
    failure to N routers. Valid text goes out verbatim, so repeated
    fleet queries hit each router's server-side plan cache. *)

(** {2 Fleet-wide subscriptions} *)

type fleet_sub

val subscribe :
  t ->
  statement:string ->
  period:float ->
  on_event:(router:string -> Query.result_set -> unit) ->
  fleet_sub
(** Attach a leased subscriber for [statement] (a full [SUBSCRIBE ...
    EVERY n] statement with period [period]) to every registered router,
    and to every router that registers later. Each router's publishes
    arrive in the single [on_event] rollup stream, tagged with the
    router id. Callbacks are synchronous: a slow consumer back-pressures
    the event loop, not the routers (publishes ride the simulated
    transport and are simply processed later).
    @raise Invalid_argument if [period <= 0]. *)

val unsubscribe : t -> fleet_sub -> unit
(** Detach the subscriber on every session (sends UNSUBSCRIBE down each). *)

val rollup_events_total : t -> int
(** Publishes delivered across every fleet subscription: the
    [fleet_rollup_events_total] counter of {!metrics}. *)
