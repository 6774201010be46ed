(** OpenFlow 1.0 flow match structure (ofp_match, 40 bytes on the wire).

    [None] in a field means wildcarded. [nw_src]/[nw_dst] carry a prefix
    length in [0, 32]; 0 bits is equivalent to a full wildcard. *)

open Hw_packet

type t = {
  in_port : int option;
  dl_src : Mac.t option;
  dl_dst : Mac.t option;
  dl_vlan : int option;
  dl_vlan_pcp : int option;
  dl_type : int option;
  nw_tos : int option;
  nw_proto : int option;
  nw_src : (Ip.t * int) option;
  nw_dst : (Ip.t * int) option;
  tp_src : int option;
  tp_dst : int option;
}

val wildcard_all : t
(** Matches every packet. *)

(** The concrete header values of one packet, as seen by the datapath. *)
type fields = {
  f_in_port : int;
  f_dl_src : Mac.t;
  f_dl_dst : Mac.t;
  f_dl_vlan : int;  (** 0xffff when untagged, per OF 1.0 *)
  f_dl_vlan_pcp : int;
  f_dl_type : int;
  f_nw_tos : int;
  f_nw_proto : int;
  f_nw_src : Ip.t;
  f_nw_dst : Ip.t;
  f_tp_src : int;
  f_tp_dst : int;
}

val fields_of_frame : in_port:int -> string -> fields option
(** The fields of a raw Ethernet frame, read in place from its bytes by
    {!Hw_packet.Frame}: the datapath's per-frame classifier input, and
    the controller's for each packet-in. Equal to the fields of
    [Packet.decode frame] for every string, so it is [None] exactly for
    the frames {!Packet.decode} rejects ({!Hw_packet.Frame.check}
    lists the tests): the Ethernet addresses and type; for IPv4 the TOS
    ([dscp lsl 2]), protocol and addresses, with the UDP or TCP ports or
    the ICMP type and code as [tp_src]/[tp_dst] (0 and 0 for a fragment
    or another protocol); for ARP the opcode as [f_nw_proto] and the
    protocol addresses as nw_src/nw_dst, as OF 1.0 specifies; zeros
    elsewhere. [f_dl_vlan] is 0xffff and [f_dl_vlan_pcp] 0. Only the
    result is allocated (the record with its two MAC strings and two
    addresses). *)

val exact_of_fields : fields -> t
(** The fully-specified match for one packet (used for reactive flow-mods). *)

val matches : t -> fields -> bool
(** [matches m f]: every field [m] specifies equals [f]'s, and each
    specified [/n] prefix agrees with [f]'s address in its top [n] bits.
    Allocation-free: the classifier's per-candidate verify. *)

(** Which fields a match specifies: a bitmask over the ten scalar fields
    plus the two prefix lengths (0 = wildcarded; a [/0] prefix
    canonicalises to 0). Entries with equal masks form one tuple of the
    tuple-space classifier in {!Hw_datapath.Flow_table}. *)
type mask = { m_spec : int; m_src_bits : int; m_dst_bits : int }

val mask_of : t -> mask
val mask_exact : mask
(** Every field specified, both prefixes [/32]. *)

val mask_equal : mask -> mask -> bool
val mask_is_exact : mask -> bool

val hash_fields : mask -> fields -> int
(** Hash of the packet's field values under [mask] (unspecified fields
    ignored, prefixes masked). Allocation-free: this is the per-packet
    classifier probe. *)

val hash_match : t -> int
(** Hash of the match's specified values, consistent with {!hash_fields}:
    [matches m f] implies [hash_match m = hash_fields (mask_of m) f]. *)

val subsumes : general:t -> specific:t -> bool
(** [subsumes ~general ~specific] is true when every packet matched by
    [specific] is also matched by [general]. Used for OFPFC_DELETE
    semantics. *)

val equal : t -> t -> bool
val encode : Hw_util.Wire.Writer.t -> t -> unit
val decode : Hw_util.Wire.Reader.t -> t
val size : int
(** 40 bytes. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
