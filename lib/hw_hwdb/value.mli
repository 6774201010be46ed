(** Values and schemas for hwdb tables. *)

type t =
  | Int of int
  | Real of float
  | Str of string
  | Bool of bool
  | Ts of float  (** timestamp, seconds since epoch *)

type ty = T_int | T_real | T_str | T_bool | T_ts

val type_of : t -> ty
val ty_to_string : ty -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
(** Numeric types compare across Int/Real/Ts. *)

val compare_values : t -> t -> int
(** Total order within comparable kinds; numeric kinds compare together.
    @raise Invalid_argument for incomparable kinds (e.g. Str vs Int). *)

val as_float : t -> float option
(** Numeric view of Int/Real/Ts. *)

type schema = (string * ty) list

val schema_arity : schema -> int

val validate : schema -> t array -> (unit, string) result
(** Arity and type check of a row. Int is accepted where Real is
    declared. *)

type tuple = { ts : float; values : t array }
(** A stored row: insertion timestamp plus the column values. *)
