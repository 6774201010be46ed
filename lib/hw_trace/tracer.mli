(** A span-based tracer with explicit context propagation: the causal
    record of one packet/event lifecycle through the router.

    The whole lifecycle this system cares about — datapath rx, flow-table
    miss, packet-in, controller dispatch, DHCP/DNS handling, flow mods,
    hwdb inserts and triggers — is one synchronous call stack, so trace
    context is a per-tracer span stack rather than a value threaded
    through every signature. A component opens a trace with {!with_trace}
    at its entry point (datapath rx, controller event dispatch); hops
    below it open child spans with {!with_span}; both are no-ops costing
    one branch when the tracer is {!disabled} or no trace is active —
    the hot path never allocates or touches the clock.

    Completed traces land in a bounded flight-recorder ring
    ([Hw_util.Ring]) under {e tail-sampling}: the keep/drop decision is
    made at trace completion, when the outcome is known. Traces that
    errored or ran past [slow_threshold] are always kept; the rest are
    kept 1-in-[sample_every] following the [Hw_metrics.Sampled]
    discipline (first completion sampled, then every N-th). *)

type attr =
  | Str of string
  | Int of int
  | Bool of bool
  | Real of float
  | Ip of Hw_packet.Ip.t
  | Mac of Hw_packet.Mac.t
(** Typed span attributes (dpid, five-tuple fields, MAC, verdict, ...).
    An address is stored as the address, not as its text: it is rendered
    ({!attr_to_string}, [Export]) only when a kept trace is exported —
    as a [Traces] row, by [GET /traces] or as Chrome JSON — with exactly
    the bytes [Ip.to_string] / [Mac.to_string] give, so the export reads
    as if the span site had rendered it. Most traces are never exported
    (the flight recorder overwrites them), so a span site never pays for
    the text. *)

type span = {
  span_id : int;
      (** dense, open order, 1 = root: taken from a per-trace counter
          that restarts when the trace completes *)
  parent : int; (** [span_id] of the enclosing span; 0 for the root *)
  name : string;
  start : float;
  mutable duration : float; (** seconds; set when the span closes *)
  mutable attrs : (string * attr) list; (** reverse insertion order *)
  mutable error : string option;
}

type completed = {
  id : int; (** trace id, unique per tracer, starting at 1 *)
  start : float;
  duration : float;
  errored : bool; (** any span recorded an error *)
  spans : span array; (** open order: [spans.(0)] is the root *)
}

type t

val create :
  ?capacity:int ->
  ?sample_every:int ->
  ?slow_threshold:float ->
  ?metrics:Hw_metrics.Registry.t ->
  now:(unit -> float) ->
  unit ->
  t
(** [capacity] (default 128) bounds the flight recorder; [sample_every]
    (default 1 — keep everything the ring can hold) is the tail-sampling
    rate for unremarkable traces; [slow_threshold] (default 50 ms) marks
    a trace slow enough to always keep. Tracer health counters
    ([trace_started_total], [trace_kept_total], [trace_dropped_total],
    [trace_spans_total]) and the sampled [trace_duration_seconds]
    histogram register in [metrics] (default [Registry.default]).
    @raise Invalid_argument if [capacity] or [sample_every] is not
    positive. *)

val disabled : t
(** The inert tracer components default to: {!with_trace} and
    {!with_span} reduce to calling the thunk. Registers nothing. *)

val enabled : t -> bool

(** {2 Recording} *)

val with_trace : t -> ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a
(** [with_trace t name f] runs [f] inside a fresh trace rooted at a span
    [name]. If a trace is already active (e.g. a packet-out re-entering
    the datapath), it degrades to {!with_span} — roots compose. If [f]
    raises, the span and trace are marked errored and the exception is
    re-raised after the trace completes. *)

val with_span : t -> ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a
(** Child span around one hop. Outside any trace: calls [f] directly
    (one branch, no allocation, no clock read). *)

val with_remote_trace :
  t ->
  trace_id:int ->
  parent_span:int ->
  ?attrs:(string * attr) list ->
  string ->
  (unit -> 'a) ->
  'a
(** Like {!with_trace}, but the trace's causal parent lives on another
    node: the completed record carries the propagated [trace_id] (not a
    locally allocated one) and the root span's [parent] is the remote
    [parent_span], so flight-recorder rows across nodes stitch into one
    distributed tree by trace id. Span ids remain locally dense — the
    span-id namespace is per node. Degrades to {!with_span} inside an
    active trace and to {!with_trace} when [trace_id <= 0]. *)

val current_span : t -> int
(** Span id of the innermost open span; 0 outside a trace. Pair with
    {!trace_id} to build propagation context for an outgoing request. *)

val in_trace : t -> bool
(** [true] while a trace is active — guard attribute computation with
    this so the untraced path stays allocation-free. *)

val trace_id : t -> int option
(** Active trace id, for stamping log records. *)

val set_attr : t -> string -> attr -> unit
(** Attach an attribute to the innermost open span; no-op outside a
    trace. *)

val mark_error : t -> string -> unit
(** Mark the innermost open span (and hence the trace) errored without
    raising; no-op outside a trace. *)

val time : t -> float
(** The tracer's clock (0 for {!disabled}). *)

(** {2 Ingest of externally assembled traces}

    The stack discipline above fits one synchronous lifecycle. Work that
    completes through callbacks — the fleet manager's federated fan-out —
    assembles its span tree off-stack (see {!Builder}) and hands the
    finished record in here. *)

val next_id : t -> int
(** Allocate a fresh trace id (counts toward [trace_started_total]). *)

val record : t -> completed -> unit
(** Push an externally assembled trace into the flight recorder,
    updating kept/span counters and the duration histogram. No-op when
    the tracer is disabled or the record has no spans. *)

(** {2 Flight recorder readout} *)

val traces : t -> completed list
(** Newest first. *)

val pushed : t -> int
(** Traces ever pushed into the flight recorder, those a {!clear} or an
    eviction has since removed included: the recorder holds the traces
    pushed at positions [pushed t - kept t] to [pushed t - 1]. A reader
    that remembers the count it last saw knows which traces are new
    without comparing any. *)

val get : t -> int -> completed
(** [get t i] is the [i]-th trace in the flight recorder, oldest first
    ([0 <= i < kept t]): the one pushed at position
    [pushed t - kept t + i].
    @raise Invalid_argument outside that range. *)

val find : t -> int -> completed option
val kept : t -> int
val capacity : t -> int
val clear : t -> unit
val started : t -> int
val dropped : t -> int

(** {2 Rendering helpers} *)

val attr_to_string : attr -> string
(** The attribute's export text; [Ip]/[Mac] render here. *)

val attrs_to_string : (string * attr) list -> string
(** ["k=v,k=v"] in insertion order (as the hwdb Traces table stores),
    each value as {!attr_to_string} spells it. The text is written into
    one buffer reused across calls, so the result is the only string
    built. *)
