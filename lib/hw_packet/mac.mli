(** Ethernet MAC addresses. *)

type t
(** Immutable 48-bit address. *)

val of_bytes : string -> t
(** @raise Invalid_argument unless exactly 6 bytes. *)

val to_bytes : t -> string

val of_string : string -> t option
(** Parses ["aa:bb:cc:dd:ee:ff"] (case-insensitive, also accepts ['-']
    separators). *)

val of_string_exn : string -> t
val to_string : t -> string

val add_to_buffer : Buffer.t -> t -> unit
(** Appends the bytes {!to_string} gives, without building them as a
    string. *)

val broadcast : t
val zero : t
val is_broadcast : t -> bool

val is_multicast : t -> bool
(** Low bit of the first octet set. *)

val of_int64 : int64 -> t
(** Low 48 bits. *)

val to_int64 : t -> int64
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

val local : int -> t
(** [local n] is a deterministic locally-administered unicast address for
    simulated device [n]; distinct for distinct [n] in [0, 2^32). *)
