(** TCP segments. The simulator does not implement a full TCP state machine
    at the router (the router only forwards); segments carry the fields the
    flow table and hwdb measurement plane match on. *)

type flags = {
  fin : bool;
  syn : bool;
  rst : bool;
  psh : bool;
  ack : bool;
  urg : bool;
}

val no_flags : flags
val syn_flag : flags
val syn_ack : flags
val ack_flag : flags
val fin_ack : flags
val rst_flag : flags

val flags_of_int : int -> flags
(** The flags of a segment's flags byte (FIN is bit 0, URG bit 5). *)

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_no : int32;
  flags : flags;
  window : int;
  options : string;
  payload : string;
}

val make :
  ?seq:int32 -> ?ack_no:int32 -> ?flags:flags -> ?window:int ->
  src_port:int -> dst_port:int -> string -> t

val header_len : t -> int
(** 20 plus the options. *)

val write : Hw_util.Wire.Writer.t -> t -> pseudo_sum:int -> unit
(** Writes the segment with its checksum; [pseudo_sum] as for
    {!Udp.write}.
    @raise Invalid_argument unless [options] pads to 32 bits. *)

val encode : t -> pseudo_header:string -> string
val decode : ?pseudo_header:string -> string -> (t, string) result
val pp : Format.formatter -> t -> unit
