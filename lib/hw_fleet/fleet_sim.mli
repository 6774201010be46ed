(** N simulated homes and one fleet manager on ONE discrete event loop —
    the harness fleet tests and benches drive.

    Each home derives an independent PRNG stream from the fleet seed
    ({!Hw_sim.Prng.stream_seed}), so device behavior across homes is
    decorrelated; all homes share one immutable {!Hw_router.Router.config}
    with small hwdb rings (256 rows), which is what makes 1k–10k
    instances cheap. The loop starts at time 0. *)

type t

val create :
  ?seed:int ->
  ?devices_per_home:int ->
  ?lease_s:float ->
  ?max_inflight:int ->
  ?retry:Hw_hwdb.Rpc.Client.retry ->
  ?trace_capacity:int ->
  n:int ->
  unit ->
  t
(** Builds [n] homes with routers ["r0000"… ] and attaches each to the
    manager over a simulated datagram transport with a 0.5 ms hop each
    way. Agents dial out during [create]; run the loop briefly (one
    renew period covers retries) before asserting full registration.
    [devices_per_home] (default 0) attaches that many wireless devices
    per home, pre-permitted, for workloads that need lease/flow
    activity. [lease_s] (default 30) is the manager's session lease;
    agents renew every [lease_s / 6]. [max_inflight] and [retry] go to
    {!Manager.create}. [trace_capacity] gives the manager a tracer on
    the sim clock with that flight-recorder capacity (untraced
    without). Router-side tracers are per home and always on. *)

val manager : t -> Manager.t
val loop : t -> Hw_sim.Event_loop.t
val size : t -> int
val agents : t -> Agent.t array
val agent : t -> string -> Agent.t option
(** By router id. *)

val run_for : t -> float -> unit
val now : t -> Hw_time.timestamp

val query_sync : t -> string -> Manager.outcome option
(** Fan a federated query out and run the loop until it completes (at
    most 120 simulated seconds — past every retry cap, so [None] only
    means "no routers answered AND the loop ran dry", which a live
    fleet never produces). *)
