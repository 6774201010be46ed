(** NOX-like OpenFlow controller core.

    Components (the paper's DHCP server, DNS proxy and control API modules)
    register event handlers; the core owns the OpenFlow sessions with the
    datapaths and dispatches events in registration order. A handler
    returns a {!disposition}: [Stop] consumes the event (NOX's
    CONTINUE/STOP chain semantics), [Continue] passes it on. *)

open Hw_packet
open Hw_openflow

type t
type conn

(** A decoded PACKET_IN with its parse results. *)
type packet_in_event = {
  conn : conn;
  pi : Ofp_message.packet_in;
  packet : Packet.t option Lazy.t;
      (** [pi.data] decoded by {!Packet.decode}, on first force and at
          most once per event however many handlers force it; [None] if
          undecodable, exactly when [fields] is [None]. A handler that
          can decide from [fields] should not force it. *)
  fields : Ofp_match.fields option;
      (** read from [pi.data] in place by {!Ofp_match.fields_of_frame},
          as the datapath classifies frames; [None] if undecodable *)
}

type disposition = Continue | Stop

val create :
  ?metrics:Hw_metrics.Registry.t ->
  ?trace:Hw_trace.Tracer.t ->
  now:(unit -> float) ->
  unit ->
  t
(** [metrics] (default {!Hw_metrics.Registry.default}) receives the ctrl_*
    event counters plus one [ctrl_handler_<name>_seconds] latency histogram
    per registered packet-in handler.

    [trace] (default {!Hw_trace.Tracer.disabled}) wraps packet-in
    dispatch in a [ctrl.dispatch] span (a trace root when the event did
    not come from a traced datapath) and each handler invocation in a
    [ctrl.handler.<name>] child span, whose name is built once, when the
    handler registers; a handler that raises marks its span — and hence
    the trace — errored. *)

val metrics : t -> Hw_metrics.Registry.t

(** {2 Event registration (call before traffic flows)} *)

val on_datapath_join : t -> name:string -> (conn -> Ofp_message.switch_features -> unit) -> unit
val on_datapath_leave : t -> name:string -> (conn -> unit) -> unit
val on_packet_in : t -> name:string -> (packet_in_event -> disposition) -> unit
val on_flow_removed : t -> name:string -> (conn -> Ofp_message.flow_removed -> unit) -> unit
val on_port_status :
  t -> name:string -> (conn -> Ofp_message.port_status_reason -> Ofp_message.phy_port -> unit) -> unit

(** {2 Switch transport} *)

val attach_switch : t -> send:(string -> unit) -> conn
(** Registers a new switch transport. [send] delivers controller→switch
    bytes. The OpenFlow handshake starts when the switch's HELLO arrives
    via {!input}. *)

val input : t -> conn -> string -> unit
(** Feed switch→controller bytes. Whole messages are handled in arrival
    order, those appended while a handler runs included. *)

val detach_switch : t -> conn -> unit
(** Connection lost: fires datapath-leave. *)

(** {2 Connection operations (used by components)} *)

val conn_dpid : conn -> int64 option
(** None until the features handshake completes. *)

val conn_features : conn -> Ofp_message.switch_features option
val connections : t -> conn list
val send_message : conn -> Ofp_message.t -> int32
(** Sends with a fresh xid, returned for correlation. *)

val send_flow_mod : conn -> Ofp_message.flow_mod -> unit
val send_packet_out : conn -> Ofp_message.packet_out -> unit

val install_flow :
  ?idle_timeout:int -> ?hard_timeout:int -> ?priority:int -> ?cookie:int64 ->
  ?buffer_id:int32 -> ?send_flow_rem:bool ->
  conn -> Ofp_match.t -> Ofp_action.t list -> unit

val send_packet : conn -> ?in_port:int -> string -> Ofp_action.t list -> unit
(** Convenience packet-out carrying [data]. *)

(** A stats request registers a waiter under its xid. Each STATS_REPLY
    part that carries that xid goes to the waiter as the message's
    bytes, in order, and is not decoded on the way; the part whose
    [more] flag is clear is the last, and the waiter is forgotten then.
    A part the waiter finds malformed detaches the switch, as any
    undecodable message does; the parts before it have been delivered.
    Other frames pay one header test for this: a packet-in allocates
    nothing more than it would without it. *)

val request_stats : conn -> Ofp_message.stats_request -> (Ofp_message.stats_reply -> unit) -> unit
(** The callback fires once, when the last part of the reply arrives,
    with the parts decoded and joined
    ({!Hw_openflow.Ofp_message.join_stats_reply_parts}). *)

val request_flow_stats : conn -> (string -> unit) -> unit
(** Requests the statistics of every flow (OFPST_FLOW, wildcard match,
    all tables, any out port) and hands each part of the reply to the
    waiter as its bytes, to be read in place with
    {!Hw_openflow.Ofp_message.Flow_stats_part}. A part is validated
    ({!Hw_openflow.Ofp_message.Flow_stats_part.validate}, which also
    refuses a reply of another stats type) before the waiter sees it,
    and is never decoded into records. *)

val barrier : conn -> (unit -> unit) -> unit

val send_echo : conn -> unit
(** Fire a keepalive ECHO_REQUEST. *)

val set_port_admin : conn -> port_no:int -> hw_addr:Hw_packet.Mac.t -> up:bool -> unit
(** OFPT_PORT_MOD: administratively bring a datapath port up or down
    (frames on a downed port are dropped and counted). The switch answers
    with PORT_STATUS modify. *)

val conn_last_heard : conn -> float
(** Time (controller clock) of the last bytes from this switch. *)

val ping_stale : t -> idle_after:float -> dead_after:float -> int
(** Liveness sweep: detaches connections silent for [dead_after] seconds
    (firing datapath-leave), then pings those silent for [idle_after].
    Returns how many were detached. The Homework router runs this every
    15 s. *)

(** {2 Introspection} *)

val packet_in_total : t -> int
val handler_names : t -> string list
