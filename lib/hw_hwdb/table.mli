(** One hwdb table: a schema over a fixed-size ring of timestamped rows.

    This is the paper's "active ephemeral stream database ... stores
    ephemeral events into a fixed size memory buffer". A stored row is
    the validated [Value.t array] itself; its timestamp sits unboxed in a
    float array beside the rows, so a row costs no option, no
    {!Value.tuple} record and no float box, and window bounds
    binary-search the timestamps alone. One array may fill many slots:
    a row rendered once and re-stamped every tick is stored, not
    copied. A scan reads the rows through one fold, {!fold_window},
    which hands each stored row over in place. *)

type t

type window = [ `All | `Last_seconds of float * float | `Last_rows of int | `Now of float ]
(** Window semantics (tuples are stored in non-decreasing timestamp
    order, so each window is a contiguous slice of the ring):

    - [`All]: every live row.
    - [`Last_seconds (range, now)]: the {e closed} interval
      [\[now -. range, now\]] — a row whose timestamp equals
      [now -. range] exactly is included ([ts >= now -. range]). Rows
      stamped later than [now] (which cannot arise under a monotone
      clock) are also kept, preserving the "suffix of the ring" shape.
    - [`Last_rows n]: the newest [min n length] rows.
    - [`Now now]: every row carrying the {e newest} timestamp that is
      [<= now]. This is ordering-based — no float-equality comparison
      against [now] — so a consumer clock that differs from the producer
      stamp in the last bits still sees the latest batch. *)

val create : name:string -> capacity:int -> Value.schema -> t
val name : t -> string
val schema : t -> Value.schema
val capacity : t -> int
val length : t -> int
val total_inserted : t -> int

val insert_row : t -> now:float -> Value.t array -> (unit, string) result
(** Validates the row and appends it stamped [now]; evicts the oldest
    row when full. Timestamps must be non-decreasing across inserts (the
    database clock is monotone), which is what lets window scans
    binary-search. The array is stored, not copied: the caller hands it
    over and must not touch it again.

    Every producer's row comes through here (the router's records,
    [Database.insert], RPC [INSERT], trigger actions), so here, after
    validation, each [Value.Int] in [-256 .. 1023] is replaced by one
    preallocated cell shared by every table: two stored rows with an
    equal small integer hold the same cell. The range is a constant. *)

val insert : t -> now:float -> Value.t list -> (unit, string) result
(** {!insert_row} of the list's cells. *)

val append : t -> now:float -> Value.t array -> unit
(** {!insert} for a row already validated against this table's schema:
    stamps it [now], evicts like {!insert} and fires the insert hooks
    (views, triggers, the WAL). The array is stored, not copied, so a
    caller may re-stamp one cached row every tick — and must never
    mutate it afterwards. Its cells are neither read nor replaced (no
    small-integer sharing: a re-stamp costs the same whatever the row
    holds). A table without hooks allocates nothing here; with hooks,
    one {!Value.tuple} per append carries the row to them. *)

val append_rows : t -> now:float -> Value.t array array -> unit
(** A run of {!append}s, one per row in array order, all stamped [now]:
    each row is stored, not copied, evicts and fires the insert hooks
    exactly as its own {!append} would. Without hooks it allocates
    nothing, not even a tuple. The tick's [Metrics] and [Traces] export
    re-stamps its cached rows through here. *)

val restore : t -> Value.tuple -> unit
(** WAL replay: append an already-validated row with its original
    timestamp, firing no triggers (in particular not the durability
    hook, which would re-log it), and storing its array as decoded (no
    small-integer sharing). Rows must be restored in their
    original order, and the live clock must resume at or after the last
    restored timestamp to keep the ring's ordering invariant. *)

val durable : t -> bool
(** Whether this table's inserts are logged to a WAL (set by
    [Database.create ?recover_from]). *)

val set_durable : t -> bool -> unit

val scan : t -> Value.tuple list
(** All live rows, oldest first. *)

type pos
(** Where a stored row sits; valid until the next append, restore or
    clear. *)

val fold_window :
  t -> window -> init:'acc -> f:('acc -> Value.t array -> pos -> 'acc) -> 'acc
(** Folds oldest-first over exactly the rows selected by [window],
    locating the window boundary in O(log length), handing [f] each
    stored row in place (the array {!append} was given: never mutate
    it) with its position, and allocating nothing per row. The position
    is for {!stamp}, which only a caller that reads the row's timestamp
    needs. This is the query executor's scan primitive and the table's
    only fold. *)

val stamp : t -> pos -> float
(** The timestamp of the row at a position.
    @raise Invalid_argument if [pos] lies beyond this table's capacity
    (a position taken from a larger table). *)

val scan_window : t -> window -> Value.tuple list
(** The rows [window] selects as fresh tuples, oldest first. *)

val on_insert : t -> (Value.tuple -> unit) -> unit
(** Registers a trigger fired after each successful insert (the "active"
    part of the database: UI subscriptions piggyback on these). Triggers
    fire in registration order; registration is O(1). *)

type hook_id = int

val add_hook : t -> (Value.tuple -> unit) -> hook_id
(** Like {!on_insert} but returns a handle so the hook can be detached
    (incremental views attach and release these as subscriptions come
    and go). Fires in registration order with the other triggers. *)

val remove_hook : t -> hook_id -> unit

val clear : t -> unit
