(** IPv4 addresses and prefixes. *)

type t
(** Immutable 32-bit address. *)

val of_int32 : int32 -> t
val to_int32 : t -> int32
val of_octets : int -> int -> int -> int -> t
val of_string : string -> t option
(** A dotted quad of four octets, each 1 to 3 ASCII decimal digits with
    no leading zero and at most 255: exactly the strings {!to_string}
    writes. Signs, [0x]/[0o]/[0b] prefixes and [_] are rejected. *)

val of_string_exn : string -> t
val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the bytes {!to_string} gives, without building them as a
    string. *)

val any : t
val broadcast : t
val localhost : t
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

val succ : t -> t
(** Numerically next address (wraps at 255.255.255.255). *)

val add : t -> int -> t
val diff : t -> t -> int
(** [diff a b] = numeric a - b. *)

module Prefix : sig
  type addr = t
  type t

  val make : addr -> int -> t
  (** [make network bits]. @raise Invalid_argument unless 0<=bits<=32.
      Host bits of [network] are zeroed. *)

  val of_string : string -> t option
  (** ["192.168.0.0/24"]: an {!Ip.of_string} address, then a length of
      1 or 2 ASCII decimal digits with no leading zero, at most 32. *)

  val to_string : t -> string
  val network : t -> addr
  val bits : t -> int
  val netmask : t -> addr
  val broadcast_addr : t -> addr
  val mem : addr -> t -> bool
  val host : t -> int -> addr
  (** [host p n] is the [n]-th host address in the prefix.
      @raise Invalid_argument if outside the host range. *)
end
