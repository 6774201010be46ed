(** Fixed-capacity circular buffer.

    The buffer keeps at most [capacity] elements; pushing into a full buffer
    silently evicts the oldest element. This is the storage discipline of
    the Homework Database ("stores ephemeral events into a fixed size memory
    buffer"). *)

(** The ring's index arithmetic on its own, for a caller that keeps one
    array per field of its elements (hwdb tables keep their rows in one
    array and the rows' timestamps, unboxed, in a float array beside it).
    Logical index 0 is the oldest element; a {e slot} is the physical
    array index an element occupies, stable until it is evicted. *)
module Slots : sig
  type t

  val create : capacity:int -> t
  (** @raise Invalid_argument if [capacity <= 0]. *)

  val capacity : t -> int
  val length : t -> int
  val total_pushed : t -> int

  val push : t -> int
  (** Claims the slot for a new newest element, evicting the oldest when
      full, and returns it. The caller writes its arrays at that slot. *)

  val slot : t -> int -> int
  (** The slot of logical index [i]; unchecked, requires
      [0 <= i < length t]. *)

  val fold_range : ('acc -> int -> 'acc) -> 'acc -> t -> pos:int -> len:int -> 'acc
  (** Folds oldest-first over the slots of the [len] elements starting at
      logical index [pos], in at most two contiguous runs, allocating
      nothing.
      @raise Invalid_argument if the range exceeds the stored elements. *)

  val lower_bound : (int -> bool) -> t -> int
  (** The smallest logical index whose {e slot} satisfies [p], or
      [length t]; [p] must be monotone over logical order. *)

  val clear : t -> unit
  (** Empties the ring; [total_pushed] keeps counting. *)
end

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] is an empty ring holding at most [capacity] elements.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : 'a t -> int

val length : 'a t -> int
(** Number of elements currently stored, [0 <= length <= capacity]. *)

val is_empty : 'a t -> bool
val is_full : 'a t -> bool

val push : 'a t -> 'a -> unit
(** [push t x] appends [x], evicting the oldest element when full. *)

val peek_oldest : 'a t -> 'a option
val peek_newest : 'a t -> 'a option

val get : 'a t -> int -> 'a
(** [get t i] is the [i]-th element from the oldest (0 = oldest).
    @raise Invalid_argument if [i] is out of range. *)

val to_list : 'a t -> 'a list
(** Oldest first. *)

val to_list_newest_first : 'a t -> 'a list

val iter : ('a -> unit) -> 'a t -> unit
(** Oldest first. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Oldest first. *)

val fold_range : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> pos:int -> len:int -> 'acc
(** [fold_range f acc t ~pos ~len] folds oldest-first over the [len]
    elements starting at logical index [pos] (0 = oldest), without
    materializing any intermediate list.
    @raise Invalid_argument if the range exceeds the stored elements. *)

val lower_bound : ('a -> bool) -> 'a t -> int
(** [lower_bound p t] is the smallest logical index [i] such that
    [p (get t i)] holds, or [length t] if no element satisfies [p].
    Requires [p] to be monotone over the ring's logical order (a —
    possibly empty — prefix of elements failing [p] followed by a suffix
    satisfying it), as is the case for timestamp thresholds over
    append-ordered data. O(log length). *)

val filter : ('a -> bool) -> 'a t -> 'a list
(** Elements satisfying the predicate, oldest first. *)

val clear : 'a t -> unit

val total_pushed : 'a t -> int
(** Count of all pushes since creation (including evicted elements). *)
