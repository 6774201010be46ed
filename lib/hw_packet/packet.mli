(** Whole-packet parsing: an Ethernet frame decoded through the protocol
    stack, plus the builders the simulator and tests use. *)

type l4 =
  | Udp of Udp.t
  | Tcp of Tcp.t
  | Icmp of Icmp.t
  | Raw_l4 of string  (** unknown IP protocol, or an IPv4 fragment *)

type l3 =
  | Arp of Arp.t
  | Ipv4 of Ipv4.t * l4
  | Raw_l3 of string  (** unknown ethertype *)

type t = { eth : Ethernet.t; l3 : l3 }

val decode : string -> (t, string) result
(** Parses as deep as possible; inner parse failures degrade to [Raw_*]
    only for unknown protocols — malformed known protocols are errors.
    An IPv4 fragment (more-fragments set or a non-zero offset) carries
    its IP payload as [Raw_l4] unparsed, as OF 1.0's [OFPC_FRAG_NORMAL]
    treats fragments. *)

val encode : t -> string
(** Serialises the frame, computing every length and checksum: the IPv4
    header checksum, and the UDP/TCP checksum over the IPv4
    pseudo-header (a UDP checksum that computes to 0 is sent as 0xffff,
    RFC 768) or the ICMP checksum over the message. The [payload] fields
    of [eth] and of an [Ipv4] record are ignored: the enclosed layers
    supply them.

    The frame is built in one buffer of {!wire_size} bytes, each layer
    written once and each checksum filled in place, and that buffer is
    the result: one allocation of the frame's size.
    @raise Invalid_argument if IPv4 or TCP options do not pad to 32 bits. *)

val wire_size : t -> int
(** The length of [encode t], computed from the header and payload
    lengths without encoding. *)

type five_tuple = {
  proto : int;
  src_ip : Ip.t;
  dst_ip : Ip.t;
  src_port : int;
  dst_port : int;
}

val five_tuple_compare : five_tuple -> five_tuple -> int
val pp_five_tuple : Format.formatter -> five_tuple -> unit

val five_tuple : t -> five_tuple option
(** [None] for non-IP packets; ICMP and unknown L4 report ports 0. *)

(** {2 Builders} *)

val udp_packet :
  src_mac:Mac.t -> dst_mac:Mac.t -> src_ip:Ip.t -> dst_ip:Ip.t ->
  src_port:int -> dst_port:int -> string -> t

val tcp_packet :
  ?flags:Tcp.flags -> ?seq:int32 ->
  src_mac:Mac.t -> dst_mac:Mac.t -> src_ip:Ip.t -> dst_ip:Ip.t ->
  src_port:int -> dst_port:int -> string -> t

val icmp_echo :
  src_mac:Mac.t -> dst_mac:Mac.t -> src_ip:Ip.t -> dst_ip:Ip.t ->
  id:int -> seq:int -> t

val arp_packet : src_mac:Mac.t -> Arp.t -> t

val dhcp_packet : src_mac:Mac.t -> dst_mac:Mac.t -> src_ip:Ip.t -> dst_ip:Ip.t -> Dhcp_wire.t -> t
(** UDP 67/68 wrapping chosen from the DHCP op. *)

val dns_query_packet :
  src_mac:Mac.t -> dst_mac:Mac.t -> src_ip:Ip.t -> dst_ip:Ip.t -> src_port:int -> Dns_wire.t -> t

val dns_response_packet :
  src_mac:Mac.t -> dst_mac:Mac.t -> src_ip:Ip.t -> dst_ip:Ip.t -> dst_port:int -> Dns_wire.t -> t

val pp : Format.formatter -> t -> unit
