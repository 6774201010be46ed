(** One bounded, downsampled time series.

    Three tiers: a raw ring of (timestamp, value) samples as scraped,
    plus two downsampled rings of fixed-width buckets, 10 s and 60 s. A
    sample lands in the raw ring and in the open bucket of each tier;
    when a sample starts a later bucket, the open bucket is sealed into
    its ring. Every tier is a fixed-size circular buffer over unboxed
    float arrays indexed through {!Hw_util.Ring.Slots}, so memory per
    series is bounded and allocated once at {!create} — the property
    that lets a manager hold series for a 1k-router fleet.

    Buckets keep both the last and the max value seen: last is the
    right downsample for the cumulative counters a scrape mostly
    carries, max preserves gauge spikes that a last-write would erase.
    A raw sample is its own max, so the raw ring stores no max. *)

type t

type tier = [ `Raw | `S10 | `S60 ]

val create : ?raw_capacity:int -> ?s10_capacity:int -> ?s60_capacity:int -> unit -> t
(** Capacities default to 32 samples/buckets per tier.
    @raise Invalid_argument if a capacity is not positive. *)

val push : t -> ts:float -> float -> unit
(** Record one sample. Timestamps must be non-decreasing (scrape order);
    an out-of-order sample is folded into the open bucket. *)

val samples : t -> int
(** Total samples ever pushed. *)

val last : t -> float
(** Most recent value ([nan] before the first push). *)

val points : t -> tier -> (float * float) list
(** (timestamp, value) oldest first. For bucket tiers the value is the
    bucket's last sample and the open bucket is included. *)

val max_points : t -> tier -> (float * float) list
(** Like {!points} but bucket maxima ([`Raw] maxima are the samples). *)

val occupancy : t -> tier -> int * int
(** (length, capacity) of the tier's ring — length never exceeds
    capacity no matter how many samples were pushed. *)

val footprint_floats : t -> int
(** Fixed allocation of the series, in floats — for memory accounting:
    two per raw slot (timestamp, value) and three per bucket slot
    (start, last, max). *)
