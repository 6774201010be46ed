(** OpenFlow 1.0 messages and their binary codec.

    Covers the message set NOX and Open vSwitch exchange in the Homework
    router: session setup (hello/echo/features), the reactive path
    (packet-in, packet-out, flow-mod, flow-removed), port status, error,
    barrier, and the statistics family used by the measurement plane. *)

open Hw_packet

val version : int
(** 0x01 *)

type phy_port = {
  port_no : int;
  hw_addr : Mac.t;
  name : string; (* <= 15 bytes *)
  config : int32;
  state : int32;
  curr : int32;
  advertised : int32;
  supported : int32;
  peer : int32;
}

val phy_port : port_no:int -> hw_addr:Mac.t -> name:string -> phy_port

type switch_features = {
  datapath_id : int64;
  n_buffers : int32;
  n_tables : int;
  capabilities : int32;
  supported_actions : int32;
  ports : phy_port list;
}

type packet_in_reason = No_match | Action

type packet_in = {
  buffer_id : int32 option;
  total_len : int;
  in_port : int;
  reason : packet_in_reason;
  data : string;
}

type flow_mod_command = Add | Modify | Modify_strict | Delete | Delete_strict

type flow_mod = {
  fm_match : Ofp_match.t;
  cookie : int64;
  command : flow_mod_command;
  idle_timeout : int;
  hard_timeout : int;
  priority : int;
  fm_buffer_id : int32 option;
  out_port : int;  (** filter for Delete*; {!Ofp_action.Port.none} otherwise *)
  send_flow_rem : bool;
  check_overlap : bool;
  actions : Ofp_action.t list;
}

val add_flow :
  ?cookie:int64 -> ?idle_timeout:int -> ?hard_timeout:int -> ?priority:int ->
  ?buffer_id:int32 -> ?send_flow_rem:bool -> Ofp_match.t -> Ofp_action.t list -> flow_mod

val delete_flow : ?out_port:int -> Ofp_match.t -> flow_mod

type flow_removed_reason = Removed_idle_timeout | Removed_hard_timeout | Removed_delete

type flow_removed = {
  fr_match : Ofp_match.t;
  fr_cookie : int64;
  fr_priority : int;
  fr_reason : flow_removed_reason;
  duration_sec : int32;
  duration_nsec : int32;
  fr_idle_timeout : int;
  packet_count : int64;
  byte_count : int64;
}

type port_status_reason = Port_add | Port_delete | Port_modify

type packet_out = {
  po_buffer_id : int32 option;
  po_in_port : int;
  po_actions : Ofp_action.t list;
  po_data : string; (* ignored when po_buffer_id is set *)
}

(** OFPT_PORT_MOD: administrative port configuration. Only the
    [port_down] bit is meaningful to this datapath. *)
type port_mod = {
  pm_port_no : int;
  pm_hw_addr : Mac.t;
  pm_config : int32;    (** desired OFPPC_* bits *)
  pm_mask : int32;      (** which bits to change *)
  pm_advertise : int32;
}

val port_down_bit : int32
(** OFPPC_PORT_DOWN = 1. *)

val packet_out : ?in_port:int -> data:string -> Ofp_action.t list -> packet_out

type desc_stats = {
  mfr_desc : string;
  hw_desc : string;
  sw_desc : string;
  serial_num : string;
  dp_desc : string;
}

type flow_stats = {
  fs_table_id : int;
  fs_match : Ofp_match.t;
  fs_duration_sec : int32;
  fs_duration_nsec : int32;
  fs_priority : int;
  fs_idle_timeout : int;
  fs_hard_timeout : int;
  fs_cookie : int64;
  fs_packet_count : int64;
  fs_byte_count : int64;
  fs_actions : Ofp_action.t list;
}

type port_stats = {
  ps_port_no : int;
  rx_packets : int64;
  tx_packets : int64;
  rx_bytes : int64;
  tx_bytes : int64;
  rx_dropped : int64;
  tx_dropped : int64;
  rx_errors : int64;
  tx_errors : int64;
}

type table_stats = {
  ts_table_id : int;
  ts_name : string;
  ts_wildcards : int32;
  ts_max_entries : int32;
  ts_active_count : int32;
  ts_lookup_count : int64;
  ts_matched_count : int64;
}

type aggregate_stats = { ag_packet_count : int64; ag_byte_count : int64; ag_flow_count : int32 }

type stats_request =
  | Desc_request
  | Flow_stats_request of { sr_match : Ofp_match.t; table_id : int; sr_out_port : int }
  | Aggregate_request of { sr_match : Ofp_match.t; table_id : int; sr_out_port : int }
  | Table_stats_request
  | Port_stats_request of int (* port_no, or Port.none for all *)

type stats_reply =
  | Desc_reply of desc_stats
  | Flow_stats_reply of flow_stats list
  | Aggregate_reply of aggregate_stats
  | Table_stats_reply of table_stats list
  | Port_stats_reply of port_stats list

type error_type =
  | Hello_failed
  | Bad_request
  | Bad_action
  | Flow_mod_failed
  | Port_mod_failed
  | Queue_op_failed

type error = { err_type : error_type; err_code : int; err_data : string }

type t =
  | Hello
  | Error_msg of error
  | Echo_request of string
  | Echo_reply of string
  | Features_request
  | Features_reply of switch_features
  | Get_config_request
  | Get_config_reply of { flags : int; miss_send_len : int }
  | Set_config of { flags : int; miss_send_len : int }
  | Packet_in of packet_in
  | Flow_removed of flow_removed
  | Port_status of port_status_reason * phy_port
  | Packet_out of packet_out
  | Flow_mod of flow_mod
  | Port_mod of port_mod
  | Stats_request of stats_request
  | Stats_reply of { more : bool; reply : stats_reply }
      (** [more] is OF 1.0's [OFPSF_REPLY_MORE]: further parts of this
          reply follow under the same xid (see {!stats_reply_parts}). *)
  | Barrier_request
  | Barrier_reply

val type_name : t -> string

val max_length : int
(** 65,535: the largest message the 16-bit length field can describe. *)

val encode : xid:int32 -> t -> string
(** Full message including the 8-byte OpenFlow header, header and body
    written into one buffer and the length filled in last.
    @raise Invalid_argument if the message would exceed {!max_length}
    bytes (split a long stats reply with {!stats_reply_parts}). *)

val stats_reply_parts : stats_reply -> t list
(** The [Stats_reply] messages that carry a reply, as OF 1.0 sends one
    that does not fit a single message: consecutive runs of its entries,
    in order, each message at most {!max_length} bytes, every part but
    the last flagged [more]. A reply that fits is one message. The same
    splitter cuts {!encode_flow_stats_reply}'s parts, so 682 one-action
    flow entries (96 bytes each) fit one message and 683 take two. *)

(** {2 Flow-stats entries}

    One [ofp_flow_stats] entry is 88 fixed bytes — length, table id,
    match (offset 4), durations, priority (52), timeouts, cookie (64),
    packet count (72) and byte count (80) — then its actions. These
    functions are the only code that knows that layout: the record
    encoder above, the datapath's reply and the controller's in-place
    read all go through them. *)

val flow_stats_entry_size : Ofp_action.t list -> int
(** 88 plus the actions' bytes. *)

val write_flow_stats_entry :
  Hw_util.Wire.Writer.t ->
  table_id:int ->
  duration_sec:int ->
  duration_nsec:int ->
  priority:int ->
  idle_timeout:int ->
  hard_timeout:int ->
  cookie:int64 ->
  packet_count:int64 ->
  byte_count:int64 ->
  Ofp_match.t ->
  Ofp_action.t list ->
  unit
(** Writes one entry ({!flow_stats_entry_size} bytes). The durations are
    written as their low 32 bits. *)

val encode_flow_stats_reply :
  xid:int32 ->
  actions:('a -> Ofp_action.t list) ->
  write:(Hw_util.Wire.Writer.t -> 'a -> unit) ->
  'a list ->
  string list
(** The encoded OFPST_FLOW reply parts for [entries], written straight
    from the caller's own representation of a flow: [write w e] writes
    [e]'s entry with {!write_flow_stats_entry}, and [actions e] gives
    the actions it will write, which fix its size. The parts are split
    as {!stats_reply_parts} splits a [Flow_stats_reply] and are
    byte-identical to encoding its [Stats_reply] messages; no
    {!flow_stats} record is built. *)

val flow_identity : priority:int -> Ofp_match.t -> string
(** The 42 bytes that identify an OF 1.0 flow entry: its priority (2
    bytes, big-endian) and its 40-byte wire match. Two entries have the
    same identity exactly when an ADD of one replaces the other. Equal
    to {!Flow_stats_part.identity} of the entry the datapath reports for
    a flow installed with that priority and a decoded match. *)

(** The header of one part of a stats reply, of any stats type, read in
    place from the message's bytes. *)
module Stats_part : sig
  val is_reply : string -> bool
  (** The frame is an OFPT_STATS_REPLY long enough for its stats header
      (type and flags); nothing after the header is looked at. *)

  val xid : string -> int32
  (** The message's xid. *)

  val more : string -> bool
  (** OFPSF_REPLY_MORE: another part of this reply follows. *)
end

(** A flow-stats reply part read in place: the message's bytes, walked
    without building records. An entry is addressed by its byte offset
    [at] within the part, as {!iter} passes it; the header is read with
    {!Stats_part}. *)
module Flow_stats_part : sig
  val validate : string -> (unit, string) result
  (** Checks a whole part: version, type and stats type (OFPST_FLOW),
      the header length equal to the string's, and entries that tile the
      body exactly, each at least 88 bytes, none running past the end,
      and each one's actions as {!Ofp_action.valid_list} requires. Among
      the flow-stats replies, it rejects exactly those {!decode} rejects;
      it rejects every other message. Allocation-free on success. *)

  val iter : (int -> unit) -> string -> unit
  (** [iter f part] calls [f at] on each entry of a validated part, in
      order. *)

  val cookie : string -> int -> int64
  val priority : string -> int -> int

  val packet_count : string -> int -> int
  val byte_count : string -> int -> int
  (** The 64-bit counters as native ints (63 bits). *)

  val match_ : string -> int -> Ofp_match.t
  (** The entry's match, decoded. *)

  val identity : string -> int -> string
  (** The entry's {!flow_identity}, copied from its priority and match
      bytes (one 42-byte string, nothing decoded). *)
end

val join_stats_reply_parts : stats_reply list -> stats_reply
(** Concatenates the entries of the parts of one reply, in order (parts
    of another kind than the first are dropped);
    [join_stats_reply_parts] inverts {!stats_reply_parts}.
    @raise Invalid_argument on an empty list. *)

val decode : string -> (int32 * t, string) result
(** Decodes one complete message. *)

val pp : Format.formatter -> t -> unit

module Framing : sig
  (** Byte-stream deframer for the controller channel. *)

  type buffer

  val create : unit -> buffer
  val input : buffer -> string -> unit

  val pop_frame : buffer -> (string, string) result option
  (** The next whole message's bytes, not decoded. [None] until a
      complete message has arrived. Malformed framing (bad version,
      absurd length) yields [Some (Error _)] and drops the connection's
      remaining bytes. *)
end
