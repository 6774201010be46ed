(** IPv4 headers (no options beyond raw bytes, no fragment reassembly —
    the simulated home network never fragments). *)

type t = {
  dscp : int;
  ident : int;
  dont_fragment : bool;
  more_fragments : bool;
  fragment_offset : int;
  ttl : int;
  protocol : int; (* 1 ICMP, 6 TCP, 17 UDP *)
  src : Ip.t;
  dst : Ip.t;
  options : string;
  payload : string;
}

val proto_icmp : int
val proto_tcp : int
val proto_udp : int

val make : ?ttl:int -> ?ident:int -> protocol:int -> src:Ip.t -> dst:Ip.t -> string -> t

val header_len : t -> int
(** 20 plus the options. *)

val write_header : Hw_util.Wire.Writer.t -> t -> payload_len:int -> unit
(** Writes the header of a datagram carrying [payload_len] bytes (the
    record's own [payload] is not consulted), header checksum included.
    @raise Invalid_argument unless [options] pads to 32 bits. *)

val encode : t -> string
(** Computes and fills the header checksum. *)

val decode : string -> (t, string) result
(** Verifies the header checksum and total length. *)

val pseudo_header : t -> int -> string
(** [pseudo_header t l4_len] for TCP/UDP checksums. *)

val pseudo_sum : t -> int -> int
(** [pseudo_sum t l4_len] is the {!Hw_util.Wire.ones_complement_sum} of
    [pseudo_header t l4_len], computed arithmetically. *)

val pp : Format.formatter -> t -> unit
