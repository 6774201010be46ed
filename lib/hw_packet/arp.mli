(** ARP for IPv4-over-Ethernet. *)

type op = Request | Reply

type t = {
  op : op;
  sender_mac : Mac.t;
  sender_ip : Ip.t;
  target_mac : Mac.t;
  target_ip : Ip.t;
}

val size : int
(** Bytes on the wire (28). *)

val write : Hw_util.Wire.Writer.t -> t -> unit
val encode : t -> string
val decode : string -> (t, string) result

val request : sender_mac:Mac.t -> sender_ip:Ip.t -> target_ip:Ip.t -> t
(** Broadcast who-has. *)

val reply_to : t -> responder_mac:Mac.t -> t
(** Builds the reply to a request, swapping sender/target. *)

val pp : Format.formatter -> t -> unit
