(** Client-side persistence for continuous queries.

    The paper: applications "subscribe to query results, persisting output
    as desired". A recorder keeps one SUBSCRIBE alive over an
    {!Rpc.Client} for as long as it is attached, stamps every
    publication with the receive time and accumulates them (bounded),
    exporting CSV — what the Homework project's logging satellites did
    with the measurement stream. *)

type t

type status =
  | Pending
      (** no subscription id yet (also while re-subscribing, and after
          {!detach}) *)
  | Active of int      (** subscription id *)
  | Failed of string
      (** the statement is not a SUBSCRIBE with a positive period, or the
          server refused the latest SUBSCRIBE; in the second case the
          recorder keeps retrying and turns [Active] once one is
          accepted *)

val attach :
  ?max_snapshots:int ->
  now:(unit -> float) ->
  schedule:(float -> (unit -> unit) -> unit) ->
  client:Rpc.Client.t ->
  statement:string ->
  unit ->
  t
(** Keeps [statement] (which must be a [SUBSCRIBE … EVERY p SECONDS])
    subscribed through an {!Rpc.Subscriber}, which renews the server's
    lease every [2p] and re-subscribes after [3p] of silence, and
    records its publications. [schedule delay f] runs [f] after [delay]
    seconds; it drives the renewals. Default [max_snapshots] 1024; the
    oldest snapshots drop beyond that, like every hwdb buffer. Pump the
    transport to move the recorder out of [Pending]. *)

val status : t -> status
val snapshot_count : t -> int
val last : t -> (float * Query.result_set) option

val to_csv : t -> string
(** Header [time, col1, col2, …] from the first snapshot, then one line
    per row of every snapshot, each stamped with its receive time.
    Fields containing commas, quotes or newlines are quoted. *)

val detach : t -> unit
(** Stops renewing, sends UNSUBSCRIBE (when the id is known) and stops
    recording. *)
