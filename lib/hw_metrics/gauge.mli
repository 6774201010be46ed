(** A gauge: an instantaneous value that can move both ways (table
    occupancy, subscriber counts, ring fill).

    A gauge may carry a constant label set fixed at creation — the
    Prometheus "info pattern" ([homework_build_info{version="..."} 1])
    — rendered on the exposition surfaces. Labels do not participate in
    registry identity; the name alone does. *)

type t

val create : ?labels:(string * string) list -> name:string -> help:string -> unit -> t
val set : t -> float -> unit
val add : t -> float -> unit
val value : t -> float

val writes : t -> int
(** {!set}s and {!add}s so far: an exporter that saw the same count saw
    the same value. *)

val name : t -> string
val help : t -> string

val labels : t -> (string * string) list
(** In the order given at creation; [[]] for the common unlabeled case. *)
