(** The hwdb UDP RPC interface.

    One request or response per datagram, binary-framed. Applications send
    query statements; SUBSCRIBE statements register the sender as a
    continuous-query subscriber and results are pushed back in PUBLISH
    datagrams — exactly the usage pattern of the paper's visualisation
    interfaces. Addresses are opaque strings ("host:port" in the
    simulation).

    Requests travel at least once: a client retransmits under the same
    sequence number until answered. A server keeps the replies of its
    recent statements that change state (INSERT, CREATE, SUBSCRIBE,
    UNSUBSCRIBE, triggers) and replays one to its retry, so such a
    statement applies once; a SELECT keeps nothing and a retry executes
    it again. *)

type context = { trace_id : int; parent_span : int }
(** Distributed-trace propagation context: the caller's trace id and the
    span id of the caller's span that issued the request. Rides on the
    wire as an optional trailing block after the statement, so a
    context-free request is byte-identical to the pre-context frame and
    decoders that predate the block ignore the trailer — old and new
    peers interoperate in both directions. *)

type message =
  | Request of { seq : int32; statement : string; ctx : context option }
  | Response_ok of { seq : int32; result : Query.result_set option }
  | Response_error of { seq : int32; message : string }
  | Publish of { subscription : int; result : Query.result_set }

exception Encode_error of string
(** Raised by {!encode} when a message cannot be represented on the wire
    (e.g. a string field longer than 65535 bytes, the u16 length limit).
    Without the check such a value would silently truncate its length
    field and corrupt the rest of the frame. *)

val encode : message -> string
(** @raise Encode_error if a string field exceeds 65535 bytes. *)

val decode : string -> (message, string) result

module Server : sig
  type t

  val create :
    ?metrics:Hw_metrics.Registry.t ->
    ?trace:Hw_trace.Tracer.t ->
    ?now:(unit -> float) ->
    ?lease_periods:int ->
    ?dedup_window:int ->
    db:Database.t ->
    send:(to_:string -> string -> unit) ->
    unit ->
    t
  (** [send] transmits a datagram to a client address. [metrics] receives
      the rpc_datagrams_{in,out,dropped}_total counters; it defaults to
      [Database.metrics db] so RPC traffic shows up in the database's own
      [Metrics] table. [trace] (default [Database.tracer db]) roots an
      [rpc.request] trace around each request statement; a request
      carrying a trace {!context} roots under the remote trace id and
      parent span instead, so one federated query yields one cross-node
      trace. [now] (default
      [Database.clock db]) times subscription leases: a subscriber that
      does not renew (re-SUBSCRIBE) within [lease_periods] publish
      periods is evicted at its next publish instant. [dedup_window] is
      the number of recent (sender, seq, statement) responses replayed
      verbatim when a client retransmits — the idempotency window that
      makes retried INSERTs apply exactly once. Only a statement that
      changes state (INSERT, CREATE, SUBSCRIBE, UNSUBSCRIBE, a trigger
      statement) looks up and fills the window; a SELECT keeps no
      reply. *)

  val handle_datagram : t -> from:string -> string -> unit
  (** Processes one request datagram and replies via [send]. SUBSCRIBE
      statements attach the requester as a publish target; re-SUBSCRIBE
      of the same statement from the same address renews its lease and
      returns the existing subscription id. A malformed datagram is
      dropped (UDP semantics), a well-formed request with a bad
      statement gets a [Response_error], and a retransmitted statement
      that changes state is answered from the dedup window without
      re-executing. A retransmitted SELECT executes again (it changes
      nothing; the client keeps the first answer it gets). *)

  val subscriber_count : t -> int

  val kept_replies : t -> int
  (** The replies the dedup window holds now. *)

  val drop_client : t -> string -> int
  (** Cancels all subscriptions held by an address; returns how many. *)
end

module Client : sig
  (** Client-side helper that correlates responses by sequence number,
      with optional at-least-once delivery: given a scheduler, an
      unanswered request is retransmitted under capped exponential
      backoff with jitter, reusing its sequence number so the server's
      dedup window recognises the retry. *)

  type t

  type retry = {
    timeout : float;  (** first-attempt timeout, seconds *)
    max_attempts : int;
    backoff : float;  (** timeout multiplier per attempt *)
    max_timeout : float;  (** backoff cap *)
    jitter : float;  (** +- fraction of the timeout, e.g. 0.2 *)
  }

  val default_retry : retry
  (** 1 s first timeout, 5 attempts, x2 backoff capped at 10 s, 20% jitter. *)

  val create :
    ?metrics:Hw_metrics.Registry.t ->
    ?schedule:(float -> (unit -> unit) -> unit) ->
    ?retry:retry ->
    ?seed:int ->
    send:(string -> unit) ->
    unit ->
    t
  (** [send] transmits a datagram to the server. Without [schedule]
      requests are fire-and-forget (no timeouts, no retries — the
      pre-existing behaviour); with it, each request is retried per
      [retry] and [on_reply] receives [Error] after the final timeout.
      [seed] drives the deterministic jitter. [metrics] (default the
      process registry) receives [rpc_retries_total] and
      [rpc_request_timeouts_total]. *)

  val request :
    t ->
    ?ctx:context ->
    ?on_settled:(attempts:int -> unit) ->
    string ->
    on_reply:((Query.result_set option, string) result -> unit) -> unit
  (** [ctx] is carried on the request frame (and every retransmit of it)
      so the server roots its handler trace under the caller's span.
      [on_settled ~attempts] fires once, just before [on_reply], with the
      number of attempts the request took (1 = no retries) — whether it
      settled by reply or by final timeout. *)

  val on_publish : t -> (subscription:int -> Query.result_set -> unit) -> unit
  (** Registers a handler for every PUBLISH this client receives, for
      the client's lifetime. Handlers run in registration order;
      registering is O(1). *)

  type handler_id

  val add_publish_handler :
    t -> (subscription:int -> Query.result_set -> unit) -> handler_id
  (** {!on_publish}, with a handle to {!remove_publish_handler} it by. *)

  val remove_publish_handler : t -> handler_id -> unit
  (** The handler runs for no later PUBLISH; the others keep their
      order. *)

  val publish_handler_count : t -> int

  val handle_message : t -> message -> unit
  (** Feed one message arriving from the server, already decoded: a
      reply settles its pending request, a PUBLISH reaches the publish
      handlers, a request is ignored. For a receiver that decoded the
      datagram to route it. *)

  val handle_datagram : t -> string -> unit
  (** {!handle_message} of the decoded datagram; a malformed one is
      dropped. *)

  val pending_count : t -> int
end

module Subscriber : sig
  (** The client half of the subscription-lease protocol: keeps one
      SUBSCRIBE alive by renewing it (re-SUBSCRIBE) before the server's
      lease lapses, and re-establishing it on publish silence — which is
      what a server restart, an eviction or a lost SUBSCRIBE all look
      like from the client. The server treats a repeated SUBSCRIBE of
      the same statement as a renewal, so recovery is idempotent. *)

  type t

  val attach :
    ?metrics:Hw_metrics.Registry.t ->
    ?renew_every:float ->
    ?silence_after:float ->
    now:(unit -> float) ->
    schedule:(float -> (unit -> unit) -> unit) ->
    client:Client.t ->
    statement:string ->
    period:float ->
    on_result:(Query.result_set -> unit) ->
    unit ->
    t
  (** [statement] must be the full SUBSCRIBE statement and [period] its
      EVERY interval in seconds. Renews every [renew_every] (default
      [2 * period]) and re-subscribes after [silence_after] (default
      [3 * period]) without a publish. [on_result] sees only publishes
      matching the current subscription id.
      @raise Invalid_argument if [period <= 0] (the watchdog runs every
      [period]). *)

  val detach : t -> unit
  (** Stops the watchdog, removes the subscriber's publish handler from
      its client and sends UNSUBSCRIBE for the live id, if any. *)

  val sub_id : t -> int option

  val refusal : t -> string option
  (** The server's error reply to the latest SUBSCRIBE it refused, until
      one is accepted. A request that timed out is not a refusal. The
      subscriber keeps retrying either way. *)

  val resubscribes : t -> int
end
