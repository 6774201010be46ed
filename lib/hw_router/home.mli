(** A complete simulated home: the Homework router with wireless and wired
    devices on its LAN ports and the upstream Internet on its ISP port.

    Frame propagation gets a small per-hop delay so event ordering matches
    a real network; wireless stations share the wlan0 port (every station
    sees the port's traffic and filters by MAC, like real Wi-Fi). *)

type t

val create :
  ?seed:int ->
  ?start:Hw_time.timestamp ->
  ?loop:Hw_sim.Event_loop.t ->
  ?config:Router.config ->
  ?wal_store:Hw_wal.Store.t ->
  unit ->
  t
(** Every hop takes 1 ms. [start] places the scenario in the week
    (epoch is Monday 00:00), which matters for schedule-based policies.

    [config] and [wal_store] pass through to {!Router.create}: with
    [wal_store] the router's Leases and Policies tables become durable
    in that store, and whatever it already holds is recovered at
    construction — share one [Hw_wal.Store.mem ()] between a crashed
    home and its successor (created with [~start:(now crashed)]) to
    simulate restart-recovery.

    [loop] shares an external event loop (a fleet runs thousands of
    homes on one loop); [start] is ignored when [loop] is given. A
    shared {!Router.config} makes per-home construction cheap — see
    [Fleet_sim] in [lib/hw_fleet]. *)

val loop : t -> Hw_sim.Event_loop.t
val router : t -> Router.t
val internet : t -> Hw_sim.Internet.t
val devices : t -> Hw_sim.Device.t list
val seed : t -> int

val add_device : t -> Hw_sim.Device.config -> Hw_sim.Device.t
(** Attaches (wireless → wlan0; wired → next free eth port) and powers on
    at the current simulation time. *)

val device_by_name : t -> string -> Hw_sim.Device.t option

val run_for : t -> float -> unit
(** Advance the simulation. *)

val run_until : t -> Hw_time.timestamp -> unit

val now : t -> Hw_time.timestamp

val label_of_ip : t -> string -> string option
(** Device name for an address (used by the bandwidth view). *)

(** {2 Canned households} *)

val standard_home :
  ?seed:int -> ?start:Hw_time.timestamp -> ?wal_store:Hw_wal.Store.t -> unit -> t
(** Six devices: toms-mac-air (wireless, web+video), kids-tablet
    (wireless, web+video), kids-console (wired, p2p), dads-phone
    (wireless, web+voip), tv-box (wired, video), sensor-hub (wireless,
    iot). All pre-permitted except the kids' devices, which start
    pending. *)

val permit_all : t -> unit
(** Control-UI shortcut used by benches: permits every known device. *)
