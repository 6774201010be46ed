(** The Open vSwitch stand-in: an OpenFlow 1.0 software switch.

    The datapath owns ports and a flow table, talks OpenFlow to one
    controller over a byte channel ([to_controller] callback fed by
    {!input_from_controller}), and emits frames on data ports through the
    [transmit] callback (wired to the simulated network).

    All behaviour is driven by explicit calls: [receive_frame] for dataplane
    input, [input_from_controller] for control input and [tick] for timeout
    processing — there are no threads, matching the discrete-event design. *)

open Hw_packet
open Hw_openflow

type port_config = { port_no : int; name : string; mac : Mac.t }

type port_counters = {
  mutable rx_packets : int64;
  mutable tx_packets : int64;
  mutable rx_bytes : int64;
  mutable tx_bytes : int64;
  mutable rx_dropped : int64;
  mutable tx_dropped : int64;
}

type t

val create :
  ?metrics:Hw_metrics.Registry.t ->
  ?trace:Hw_trace.Tracer.t ->
  dpid:int64 ->
  ports:port_config list ->
  transmit:(port_no:int -> string -> unit) ->
  to_controller:(string -> unit) ->
  now:(unit -> float) ->
  unit ->
  t
(** [metrics] (default {!Hw_metrics.Registry.default}) receives the dp_*
    counters and the sampled [dp_flow_lookup_seconds] histogram.

    [trace] (default {!Hw_trace.Tracer.disabled}) roots a trace
    ([dp.packet_in]) at each flow-table miss — the packet's whole
    synchronous controller lifecycle nests under it — and opens
    [dp.flow_mod] / [dp.packet_out] child spans around controller-driven
    table and output operations. The flow-table {e hit} path never
    touches the tracer. *)

val dpid : t -> int64

val connect : t -> unit
(** Starts the OpenFlow session: sends HELLO (the controller side answers
    and drives FEATURES_REQUEST etc.). *)

val reset_channel : t -> unit
(** Replace the control-channel framing buffer with a fresh one. A
    framing buffer goes permanently dead after malformed input; call
    this before replaying the Hello handshake on a reconnect. *)

val input_from_controller : t -> string -> unit
(** Feed raw bytes from the controller channel. Complete messages are
    processed immediately; partial input is buffered. *)

val receive_frame : t -> in_port:int -> string -> unit
(** A frame arrived on a data port. Its match fields are read from the
    frame bytes in place ({!Ofp_match.fields_of_frame}); a frame that
    {!Hw_packet.Packet.decode} would reject is counted in [rx_dropped].
    A table hit applies the entry's actions to the received string:
    outputs send it as it is, and it is decoded at most once, on the
    first action that needs header records (a [Set_*] rewrite or
    [OFPP_NORMAL]), then re-encoded once per output after a rewrite. So
    an output-only flow never decodes the frame. A miss buffers the frame
    and raises PACKET_IN. Packet-outs and frames released by a flow-mod's
    buffer id go through the same action loop. IPv4 fragments are
    matched as OF 1.0's [OFPC_FRAG_NORMAL] says, with
    [tp_src = tp_dst = 0]. *)

val receive_frames : t -> (int * string) list -> unit
(** Batched input: process [(in_port, frame)] pairs in order through the
    extract → lookup → apply pipeline of {!receive_frame}, updating the
    shared metrics counters once per batch instead of once per frame.
    Semantically identical to calling {!receive_frame} on each pair in
    order. *)

val buffered_count : t -> int
(** Miss frames currently buffered awaiting a controller decision (at
    most 1024; beyond that the oldest is evicted and counted on
    [dp_buffer_evictions_total]). *)

val next_buffer_id_after : int32 -> int32
(** The buffer id issued after [id]: increments within the 24-bit wire
    space, wrapping [0xffffff] back to [1]. Exposed for tests. *)

val tick : t -> unit
(** Expire flows by the current virtual time; emits FLOW_REMOVED where
    requested. Call once per simulated second (or finer). *)

val add_port : t -> port_config -> unit
(** Hot-plug; emits PORT_STATUS add. *)

val remove_port : t -> int -> unit
(** Emits PORT_STATUS delete. *)

val flow_table : t -> Flow_table.t
val port_counters : t -> int -> port_counters option
val ports : t -> port_config list

val packet_in_count : t -> int
(** Number of PACKET_IN messages raised since creation. *)

val stats_description : Ofp_message.desc_stats
