(** A per-table write-ahead log: append-only, length-prefixed,
    CRC-32-checksummed records with a periodic snapshot that truncates
    the log, so disk footprint is bounded by live state, not uptime.

    Payloads are opaque byte strings — the row codec lives with the
    schema layer ([Hw_hwdb.Wal_codec]), keeping this library free of
    database dependencies. Each record carries a log sequence number
    assigned at {!append}; the snapshot blob carries the highest LSN it
    covers, so replay after recovery skips records the snapshot already
    contains (which is what makes a crash {e between} snapshot publication
    and log truncation harmless).

    {2 Group commit}

    {!append} only buffers; {!flush} writes every buffered record to the
    store in one batch append (the caller batches flushes off event-loop
    ticks). A full buffer ([max_pending]) flushes inline so an idle loop
    cannot defer durability forever. The window of loss after a crash is
    therefore at most one tick of appends — stated in DESIGN.md §4j.

    {2 Truncate-at-tear recovery}

    Recovery scans the log from the front and stops at the first record
    that is short, oversized, or fails its CRC — everything before the
    tear is the durable prefix, everything after is discarded (and
    {!open_} physically truncates the blob so later appends never land
    behind garbage). Recovery never raises on malformed input; it counts
    [wal_recovery_truncated_total] instead. A snapshot that fails its own
    CRC is treated as absent ([wal_snapshot_corrupt_total]) and the full
    log replayed. *)

type recovered = {
  snapshot : string option;  (** last durable snapshot payload, if any *)
  records : string list;
      (** payloads after the snapshot, in append order *)
  next_lsn : int;  (** first LSN the reopened log will assign *)
  tail_truncated : bool;
      (** true when a torn/short/corrupt tail was cut off *)
}

type t

type interposer = string -> write:(string -> unit) -> unit
(** Sees one framed record and passes what should reach the store to
    [write]. *)

val open_ :
  ?metrics:Hw_metrics.Registry.t ->
  ?interpose:(unit -> interposer option) ->
  ?snapshot_every:int ->
  ?max_pending:int ->
  store:Store.t ->
  name:string ->
  unit ->
  t * recovered
(** Opens (and recovers) the WAL named [name] — blobs [name.log] and
    [name.snap] in [store]. [interpose] is asked at each {!flush} for
    the interposer in force, which then sits between each framed record
    and the store: it sees each record once, in LSN order, and what it
    passes to [write] is what reaches the store. The disk fault plane
    plugs in here (short write = a prefix passed to [write], torn write
    = crash after a prefix, bit-flip = corrupted bytes) and answers
    [None] while disarmed. With no interposer in force the sealed batch
    reaches the store verbatim, in one append, with no per-record copy.
    If the interposer raises, the bytes it already wrote are persisted
    first — exactly the longest durable prefix a real crash would leave
    — and the exception is re-raised. It runs only at flush, so an
    append costs the same with or without it.

    [snapshot_every] (default 4096): after that many records since the
    last snapshot, {!flush} takes one automatically — provided a
    {!set_snapshot_source} callback is installed. [max_pending] (default
    1024) bounds the group-commit buffer. *)

val recover : store:Store.t -> name:string -> recovered
(** Read-only recovery: what {!open_} would recover, without truncating
    the blob or creating a handle. *)

val append : t -> string -> unit
(** Buffer one payload for the next {!flush}; assigns its LSN now. *)

val append_with : t -> size:int -> (Bytes.t -> int -> unit) -> unit
(** Zero-copy {!append}: [fill buf pos] writes exactly [size] payload
    bytes at [pos] directly into the framed record, skipping the
    intermediate payload string.  The durable-insert hook encodes rows
    through this; semantics are identical to {!append}. *)

val flush : t -> unit
(** Write all buffered records to the store (one batch append), then
    snapshot if due. No-op when nothing is pending. *)

val pending : t -> int
(** Buffered records not yet flushed. *)

val set_snapshot_source : t -> (unit -> string) -> unit
(** Installs the callback that renders current live state as a snapshot
    payload; enables automatic snapshots from {!flush}. *)

val snapshot : t -> unit
(** Force a snapshot now: flush pending records, atomically publish the
    snapshot blob (covering every assigned LSN), then truncate the log.
    No-op if no snapshot source is installed. *)

val name : t -> string
val next_lsn : t -> int
