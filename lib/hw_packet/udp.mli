(** UDP datagrams. Checksums are computed over the IPv4 pseudo-header. *)

type t = { src_port : int; dst_port : int; payload : string }

val header_size : int

val write : Hw_util.Wire.Writer.t -> t -> pseudo_sum:int -> unit
(** Writes the datagram with its checksum. [pseudo_sum] is the IPv4
    pseudo-header's sum ({!Ipv4.pseudo_sum}); a checksum that computes to
    0 is sent as 0xffff (RFC 768). *)

val encode : t -> pseudo_header:string -> string
(** [pseudo_header] from {!Ipv4.pseudo_header}. *)

val encode_nochecksum : t -> string
(** Checksum field zero (legal for UDP over IPv4). *)

val decode : ?pseudo_header:string -> string -> (t, string) result
(** Verifies the checksum when [pseudo_header] is given and the packet's
    checksum field is non-zero. *)

val pp : Format.formatter -> t -> unit
