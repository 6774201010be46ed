(** Per-router health state machine: Healthy -> Degraded -> Lost.

    Driven by three signal classes the manager already sees — session
    lifecycle (registration, lease renewal, eviction), scrape outcomes
    (a router that stops answering federated metric scrapes), and
    scrape-observed error counters (a router that answers but whose own
    error counters are advancing). Each [note_*] call returns the state
    transitions it caused (at most one per router) so the caller can
    turn them into table rows, counters and alerts; the machine itself
    holds no side effects.

    Three constants pace it: 30 s of renewal and scrape silence degrade
    a Healthy router at the next {!tick}; 3 consecutive scrape failures
    make a router Lost; 2 consecutive clean scrapes return a Degraded or
    Lost router to Healthy. *)

type state = Healthy | Degraded | Lost

val state_to_string : state -> string

type transition = {
  router : string;
  at : float;
  state : state;
  prev : state;
  reason : string;
}

type t

val create : unit -> t

val note_up : t -> router:string -> now:float -> transition list
(** First registration (or re-registration): Healthy. *)

val note_renewed : t -> router:string -> now:float -> transition list
(** Lease renewal: refreshes liveness; recovers a router that was only
    silent (no outstanding scrape failures). *)

val note_down : t -> router:string -> now:float -> reason:string -> transition list
(** Session eviction or unregistration: Lost. *)

val note_scrape :
  t -> router:string -> now:float -> ok:bool -> errors:int -> reason:string ->
  transition list
(** One scrape outcome. [ok:false] degrades, and the third in a row
    makes the router Lost; [ok:true] with [errors > 0] (the router's
    own error counters advanced by that much since the last scrape)
    degrades; the second clean scrape in a row recovers. *)

val tick : t -> now:float -> transition list
(** Periodic sweep: Healthy routers silent for more than 30 s turn
    Degraded. *)

val state : t -> string -> state option
val counts : t -> int * int * int
(** (healthy, degraded, lost). *)

val routers : t -> (string * state) list
(** Sorted by router id. *)
