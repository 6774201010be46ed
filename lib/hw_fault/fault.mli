(** Deterministic, seed-driven fault injection.

    An injector interposes on a message path (a [deliver] continuation)
    at one named choke point. All randomness comes from a
    {!Hw_sim.Prng.t}, so a fault schedule is a pure function of the
    seed: chaos runs replay exactly. Each probabilistic spec draws from
    the PRNG exactly once per message regardless of earlier outcomes, so
    the schedule depends only on the seed and the message count — never
    on which faults fired.

    Hot-path discipline matches [Tracer.with_span]: a disarmed injector
    costs one branch at the call site —

    {[
      if Fault.armed inj then Fault.apply inj payload ~deliver
      else deliver payload
    ]}

    Every injected fault increments [fault_injected_total{kind=...}] and
    tags the active trace (attribute ["fault"]) when one is open. *)

type spec =
  | Drop of float  (** drop the payload with probability p *)
  | Duplicate of float  (** deliver the payload twice with probability p *)
  | Delay of { p : float; min_s : float; max_s : float }
      (** with probability p, deliver after a uniform [min_s, max_s]
          delay (needs a scheduler; without one the delay is a no-op) *)
  | Corrupt of float  (** flip one byte of the payload with probability p *)
  | Partition of { from_s : float; until_s : float }
      (** drop everything while [from_s <= now < until_s] *)
  | Crash of float  (** {!maybe_crash} raises with probability p *)

exception Injected_crash of string
(** Carries the choke-point name; raised by {!maybe_crash}. *)

type t

val create :
  ?metrics:Hw_metrics.Registry.t ->
  ?trace:Hw_trace.Tracer.t ->
  ?schedule:(float -> (unit -> unit) -> unit) ->
  ?seed:int ->
  ?prng:Hw_sim.Prng.t ->
  now:(unit -> float) ->
  point:string ->
  unit ->
  t
(** [point] names the choke point (metrics label context, crash payload,
    trace attribute). [schedule] is required for [Delay] to take effect.
    [prng] overrides [seed] — used by {!plane} to split one root stream.
    A fresh injector is disarmed. *)

val armed : t -> bool
(** The single branch the hot path pays when no plan is installed. *)

val set_plan : t -> spec list -> unit
(** Installs (and arms) a fault plan; [set_plan t []] disarms. *)

val disarm : t -> unit

val apply : t -> string -> deliver:(string -> unit) -> unit
(** Pass one payload through the injector. Precedence when multiple
    specs fire on one message: partition (drops everything) > drop >
    delay > deliver (+ duplicate). *)

val maybe_crash : t -> unit
(** Call where a crashing handler is survivable.
    @raise Injected_crash with probability p per armed [Crash p] spec. *)

val apply_write : t -> string -> write:(string -> unit) -> unit
(** Pass one storage write (a framed WAL record) through the injector.
    The spec vocabulary is reinterpreted for the disk plane: [Drop p] is
    a short write (only a strict prefix reaches [write]), [Corrupt p] a
    bit-flip, [Crash p] a crash at the record boundary (nothing written,
    {!Injected_crash} raised); [Drop] and [Crash] firing together is a
    torn write — the prefix lands, then the process dies. Other specs
    are inert at this choke point. Counts the same
    [fault_injected_total{kind=...}] series and tags the active trace
    like {!apply}. *)

(** {2 The router's choke points as one unit} *)

type plane = {
  tx : t;  (** dataplane transmit hook *)
  rpc : t;  (** hwdb RPC datagrams, both directions *)
  chan : t;  (** controller<->datapath byte channel, both directions *)
  disk : t;
      (** WAL record writes ({!apply_write}); split from the plane seed
          after the other three so adding it left their schedules
          byte-identical *)
}

val plane :
  ?metrics:Hw_metrics.Registry.t ->
  ?trace:Hw_trace.Tracer.t ->
  ?schedule:(float -> (unit -> unit) -> unit) ->
  ?seed:int ->
  now:(unit -> float) ->
  unit ->
  plane
(** Four injectors with independent PRNG streams split from one [seed],
    all disarmed. *)

val disarm_plane : plane -> unit
