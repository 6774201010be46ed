(** Reading a raw Ethernet frame in place, without decoding it.

    {!check} makes every length, field and checksum test
    {!Packet.decode} makes, over the frame's bytes where they lie and
    without allocating, so it is [-1] exactly when [Packet.decode frame]
    is [Error _]. The readers below take a frame {!check} accepted and
    read one field at its offset; on any other string they may raise
    [Invalid_argument] or return a meaningless value. Only the
    {!Mac.t}, {!Ip.t}, [int32] and {!Tcp.flags} results are allocated.

    This is the one in-place reader: the datapath's classifier input
    ([Ofp_match.fields_of_frame]) is built on it, and the simulated
    stations and Internet node read their data frames through it. *)

val check : string -> int
(** [-1] when {!Packet.decode} rejects the frame. Otherwise the
    transport whose header it parses: {!Ipv4.proto_udp},
    {!Ipv4.proto_tcp} or {!Ipv4.proto_icmp} for an unfragmented IPv4
    datagram of that protocol, and 0 for a fragment, another protocol,
    ARP or another ethertype. The frame is accepted when it holds a
    14-byte Ethernet header, and by its ethertype
    - ARP (0x0806): the payload has at least 28 bytes, htype 1, ptype
      0x0800, hlen 6, plen 4 and opcode 1 or 2;
    - IPv4 (0x0800): version 4, IHL >= 5 with the header inside the
      frame, header length <= total length <= the Ethernet payload's
      length, and a header checksum that verifies. Then, unless the
      datagram is a fragment (more-fragments set or a non-zero offset,
      whose transport header is not read), by protocol: UDP needs 8
      bytes with a length field between 8 and the IP payload's length;
      TCP needs 20 bytes with a data offset of at least 5 words inside
      the IP payload; ICMP needs 8 bytes and a checksum over the whole
      IP payload that verifies; other protocols are accepted as they
      are;
    - any other ethertype is accepted as it is.

    Bytes past the IPv4 total length (Ethernet padding) are ignored. *)

(** {2 Ethernet} *)

val ethertype : string -> int
val dst_mac : string -> Mac.t
val src_mac : string -> Mac.t

(** {2 ARP} *)

val arp_op : string -> int
(** 1 (request) or 2 (reply). *)

val arp_sender_ip : string -> Ip.t
val arp_target_ip : string -> Ip.t

(** {2 IPv4} *)

val ip_tos : string -> int
(** The TOS byte without its ECN bits: [dscp lsl 2]. *)

val ip_proto : string -> int
val ip_src : string -> Ip.t
val ip_dst : string -> Ip.t

(** {2 Transport}

    For a frame {!check} found to carry the protocol named. *)

val src_port : string -> int
(** UDP or TCP. *)

val dst_port : string -> int
(** UDP or TCP. *)

val payload_length : string -> int
(** UDP: the bytes its length field covers past the 8-byte header. TCP:
    the IP payload past the data offset. *)

val tcp_seq : string -> int32
val tcp_flags : string -> Tcp.flags
val icmp_type : string -> int
val icmp_code : string -> int
