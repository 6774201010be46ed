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
  (** A growable byte buffer written front to back with big-endian
      setters. Every multi-byte write stores the low bits of its argument
      ([u8] the low 8, [u16] the low 16, ...), as the wire formats expect.

      Size a writer with [initial_capacity] when the final length is known
      (as [Packet.encode] does): then nothing is copied while writing, and
      {!contents} hands the buffer over as the result instead of copying
      it. Otherwise the buffer doubles as needed. *)

  type t

  val create : ?initial_capacity:int -> unit -> t
  (** [initial_capacity] defaults to 64 bytes. *)

  val length : t -> int
  (** Bytes written so far. *)

  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int32 -> unit
  val u32_int : t -> int -> unit
  val u64 : t -> int64 -> unit
  val string : t -> string -> unit

  val zeros : t -> int -> unit
  (** [zeros t n] writes [n] zero bytes. *)

  val fixed_string : t -> len:int -> string -> unit
  (** Writes [string] truncated or zero-padded to exactly [len] bytes. *)

  val patch_u16 : t -> pos:int -> int -> unit
  (** Overwrites, in place, the two bytes previously written at [pos]:
      length and checksum fields computed after the bytes they cover.
      @raise Invalid_argument unless both bytes were written. *)

  val ones_complement_sum : t -> off:int -> len:int -> int
  (** {!Wire.ones_complement_sum} over bytes already written, read in
      place: checksums are computed over the frame being built.
      @raise Invalid_argument if the range was not written. *)

  val contents : t -> string
  (** The bytes written so far. No copy when the buffer is exactly full;
      the writer stays usable either way, and no later write (appending or
      [patch_u16]) changes a string already returned. *)
end

val hex_dump : string -> string
(** Multi-line hex + ASCII rendering, for diagnostics. *)

val checksum_ones_complement : string -> int
(** The Internet checksum (RFC 1071) over the given bytes. *)

val ones_complement_sum : string -> off:int -> len:int -> int
(** A ones'-complement sum of the big-endian 16-bit words of the [len]
    bytes of [s] starting at [off], an odd final byte padded with zero,
    with its carries not yet folded: equal, once folded, to the sum of
    the 16-bit words, and 0 only when every byte is. Sums of adjacent
    even-length ranges (or of a pseudo-header computed arithmetically)
    add up to the sum of their concatenation, so a checksum can be
    assembled from parts. Allocation-free.
    @raise Invalid_argument if the range is not within [s]. *)

val checksum_of_sum : int -> int
(** Folds the carries of a sum of {!ones_complement_sum}s and returns its
    ones'-complement: the Internet checksum (RFC 1071). *)

val checksum_ones_complement_range : string -> off:int -> len:int -> int
(** The Internet checksum of the [len] bytes of [s] starting at [off],
    read in place (an odd final byte is padded with zero, as if the range
    were its own string). Allocation-free.
    @raise Invalid_argument if the range is not within [s]. *)
