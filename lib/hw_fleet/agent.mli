(** The router-side half of the call-home session.

    The agent dials out to the fleet manager and keeps the session
    alive with the same leased-subscriber machinery hwdb subscriptions
    use ({!Hw_hwdb.Rpc.Subscriber} driving a [FLEET REGISTER <id>]
    statement): the registration is renewed proactively before the
    manager's lease lapses and re-sent after ack silence, so a healed
    partition converges back to exactly one registered session without
    any extra protocol.

    Once attached, requests arriving down the session (the manager's
    federated queries and SUBSCRIBEs) are served by the router's own
    hwdb RPC server, and its replies and publishes ride back up the
    same session. The router's [rpc] fault injector interposes on both
    directions, so chaos tests exercise the call-home path with the
    stock {!Hw_fault.Fault} plans. *)

type t

val attach :
  ?renew_period:float ->
  ?seed:int ->
  id:string ->
  router:Hw_router.Router.t ->
  loop:Hw_sim.Event_loop.t ->
  send:(string -> unit) ->
  unit ->
  t
(** Dials out immediately. [send] transmits one datagram to the manager
    (the dial-out direction); the agent owns the router's
    [set_rpc_send] hook, so do not set it elsewhere. [renew_period]
    (default 10 s) paces the lease keeper: registration renews every
    [2 * renew_period] and re-registers after [3 * renew_period] of ack
    silence — choose it well under a third of the manager's [lease_s].
    [seed] drives the registration client's retry jitter, which uses
    {!Hw_hwdb.Rpc.Client.default_retry}. The router's RPC server sees
    federated requests arrive from the address ["manager"]. *)

val handle_datagram : t -> string -> unit
(** Feed one datagram arriving down the call-home session. Requests go
    to the router's RPC server; responses and publishes settle the
    agent's own client (registration acks). *)

val detach : t -> unit
(** Stops renewing and releases the session (the manager unregisters
    the router on receipt). *)

val registered : t -> bool
(** The last registration attempt was acked (the manager may since have
    evicted us — the keeper converges within a renew period). *)

val session_token : t -> int option
val resubscribes : t -> int
(** Re-registrations forced by ack silence (partition healing at work). *)

val id : t -> string
val router : t -> Hw_router.Router.t
