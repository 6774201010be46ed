(** ICMP echo / unreachable, enough for diagnostics traffic in the sim. *)

type t = {
  typ : int; (* 0 echo reply, 3 dest unreachable, 8 echo request *)
  code : int;
  rest : int32; (* the 4 header bytes after checksum: id/seq for echo *)
  payload : string;
}

val echo_request : id:int -> seq:int -> string -> t
val echo_reply_to : t -> t
val header_size : int

val write : Hw_util.Wire.Writer.t -> t -> unit
(** Writes the message with its checksum. *)

val encode : t -> string
val decode : string -> (t, string) result
val pp : Format.formatter -> t -> unit
