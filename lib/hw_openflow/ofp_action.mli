(** OpenFlow 1.0 actions. *)

open Hw_packet

(** Reserved port numbers (ofp_port). *)
module Port : sig
  val max : int (* 0xff00: highest physical port *)
  val in_port : int
  val table : int
  val normal : int
  val flood : int
  val all : int
  val controller : int
  val local : int
  val none : int

  val to_string : int -> string
end

type t =
  | Output of { port : int; max_len : int }
  | Set_vlan_vid of int
  | Set_vlan_pcp of int
  | Strip_vlan
  | Set_dl_src of Mac.t
  | Set_dl_dst of Mac.t
  | Set_nw_src of Ip.t
  | Set_nw_dst of Ip.t
  | Set_nw_tos of int
  | Set_tp_src of int
  | Set_tp_dst of int
  | Enqueue of { port : int; queue_id : int32 }

val output : ?max_len:int -> int -> t
val to_controller : t
(** Output to the controller with full packet. *)

val encode : Hw_util.Wire.Writer.t -> t -> unit
val encode_list : Hw_util.Wire.Writer.t -> t list -> unit

val decode_list : Hw_util.Wire.Reader.t -> int -> (t list, string) result
(** [decode_list r len] reads actions until [len] bytes are consumed. An
    action's bytes are fixed by its type (8, or 16 for the [Set_dl_*]
    and [Enqueue] types), and its length field must equal them; the
    last action may end past [len]. *)

val valid_list : string -> off:int -> len:int -> bool
(** [valid_list s ~off ~len]: the [len] bytes of [s] at [off] are a run
    of actions that {!decode_list} accepts and that ends exactly at
    [off + len], checked in place without decoding: every type known,
    every length field equal to its type's size, every action inside the
    range.
    Allocation-free. *)

val size : t -> int
val list_size : t list -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
