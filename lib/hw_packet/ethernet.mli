(** Ethernet II framing. *)

type t = {
  dst : Mac.t;
  src : Mac.t;
  ethertype : int; (* 16-bit, e.g. 0x0800 IPv4, 0x0806 ARP *)
  payload : string;
}

val ethertype_ipv4 : int
val ethertype_arp : int
val header_size : int

val write_header : Hw_util.Wire.Writer.t -> t -> unit
(** Writes the 14-byte header; [payload] is left to the caller. *)

val encode : t -> string
val decode : string -> (t, string) result

val pp : Format.formatter -> t -> unit
