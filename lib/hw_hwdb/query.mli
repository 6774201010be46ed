(** The answer to a SELECT, as {!Plan} produces it. *)

type result_set = { columns : string list; rows : Value.t list list }

val result_to_strings : result_set -> string list list
(** Header row followed by data rows, for display. *)
