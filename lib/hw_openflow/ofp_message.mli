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
    the last flagged [more]. A reply that fits is one message. *)

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

  val pop : buffer -> (int32 * t, string) result option
  (** [None] until a complete message has arrived. Malformed framing
      (bad version, absurd length) yields [Some (Error _)] and drops the
      connection's remaining bytes. *)

  val pop_all : buffer -> (int32 * t, string) result list
end
