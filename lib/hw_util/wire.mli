(** Binary wire-format readers and writers (network byte order).

    All multi-byte accessors are big-endian, as used by every protocol in
    this code base (Ethernet/IP/UDP/TCP/DHCP/DNS/OpenFlow). *)

exception Truncated of string
(** Raised by readers when the input is too short; the payload names the
    field being read. *)

module Reader : sig
  type t

  val of_string : string -> t
  val of_bytes : bytes -> t

  val pos : t -> int
  val length : t -> int
  val remaining : t -> int

  val seek : t -> int -> unit
  (** Absolute reposition. @raise Invalid_argument if out of bounds. *)

  val skip : t -> int -> unit
  (** @raise Truncated if fewer bytes remain. *)

  val u8 : t -> field:string -> int
  val u16 : t -> field:string -> int
  val u32 : t -> field:string -> int32
  val u32_int : t -> field:string -> int
  (** [u32_int] reads an unsigned 32-bit value into a native [int]
      (safe on 64-bit platforms). *)

  val u64 : t -> field:string -> int64
  val bytes : t -> field:string -> int -> string

  val peek_u8 : t -> field:string -> int
  (** Reads without advancing. *)

  val sub_reader : t -> field:string -> int -> t
  (** [sub_reader r ~field n] consumes [n] bytes and returns a fresh reader
      over just those bytes. *)
end

module Writer : sig
  type t

  val create : ?initial_capacity:int -> unit -> t
  val length : t -> int

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int32 -> unit
  val u32_int : t -> int -> unit
  val u64 : t -> int64 -> unit
  val string : t -> string -> unit
  val zeros : t -> int -> unit

  val fixed_string : t -> len:int -> string -> unit
  (** Writes [string] truncated or zero-padded to exactly [len] bytes. *)

  val patch_u16 : t -> pos:int -> int -> unit
  (** Overwrites two bytes previously written at [pos]; used for length
      fields computed after the body is serialised. *)

  val contents : t -> string
end

val hex_dump : string -> string
(** Multi-line hex + ASCII rendering, for diagnostics. *)

val checksum_ones_complement : string -> int
(** The Internet checksum (RFC 1071) over the given bytes. *)

val checksum_ones_complement_range : string -> off:int -> len:int -> int
(** The Internet checksum of the [len] bytes of [s] starting at [off],
    read in place (an odd final byte is padded with zero, as if the range
    were its own string). Allocation-free.
    @raise Invalid_argument if the range is not within [s]. *)
