(** One installed flow: match, priority, actions and live counters. *)

open Hw_openflow

type t = {
  entry_match : Ofp_match.t;
  entry_mask : Ofp_match.mask;  (** cached {!Ofp_match.mask_of} of the match *)
  entry_hash : int;  (** cached {!Ofp_match.hash_match}: the classifier bucket key *)
  priority : int;
  cookie : int64;
  idle_timeout : int; (* seconds; 0 = never *)
  hard_timeout : int;
  send_flow_rem : bool;
  mutable actions : Ofp_action.t list;
  install_time : float;
  mutable last_used : float;
  mutable packet_count : int64;
  mutable byte_count : int64;
}

val create :
  ?cookie:int64 -> ?idle_timeout:int -> ?hard_timeout:int -> ?send_flow_rem:bool ->
  now:float -> priority:int -> Ofp_match.t -> Ofp_action.t list -> t

val touch : t -> now:float -> bytes:int -> unit
(** Account one matched packet. *)

val is_expired : t -> now:float -> Ofp_message.flow_removed_reason option

val duration : t -> now:float -> int32 * int32
(** (seconds, nanoseconds) since install. *)

val duration_sec : t -> now:float -> int
val duration_nsec : t -> now:float -> int
(** The two halves of {!duration}, without the pair. *)

val overlaps : t -> t -> bool
(** Same priority and some packet could match both: field-wise
    intersection of the two match structures. *)

val pp : Format.formatter -> t -> unit
