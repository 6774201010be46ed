(** The Homework router: the composition in the paper's Figure 5.

    One [Router.t] owns the Open vSwitch datapath (bridge dp0), a NOX
    controller with the DHCP server, DNS proxy and switching components,
    the hwdb measurement database with its UDP RPC server, the RESTful
    control API, the policy engine and the udev USB monitor.

    Ports: 1 = wlan0 (all wireless stations share it), 10.. = wired
    Ethernet ports, 100 = upstream ISP. *)

open Hw_packet

type t

val wireless_port : int
val upstream_port : int
val wired_port : int -> int
(** [wired_port i] for i >= 0. *)

type config
(** Immutable construction-time configuration. A fleet of
    identically-configured routers builds one [config] and passes it to
    every {!create} so the derived state (LAN prefix, port list, table
    capacities) is shared rather than re-derived per instance. *)

val config :
  ?dhcp_config:Hw_dhcp.Dhcp_server.config ->
  ?flow_idle_timeout:int ->
  ?wired_ports:int ->
  ?nat:Ip.t ->
  ?isolate_devices:bool ->
  ?hwdb_capacity:int ->
  unit ->
  config
(** [hwdb_capacity] (default 4096) sizes each hwdb table's ring buffer.
    Rings preallocate their slot array, so this dominates the per-router
    memory footprint: fleets of mostly-idle routers should pass a small
    capacity (256 keeps hours of lease/flow history at home rates).

    [isolate_devices] (default false) refuses IP flows between two home
    devices — the paper's "avoiding direct Ethernet-layer communication
    between devices" as an explicit wireless-isolation control (traffic
    to the router and upstream is unaffected).

    [nat] enables NAT on the upstream port with the given WAN address:
    outbound TCP/UDP flows are installed with source rewrites to
    [wan_ip:port] and a paired inbound flow translates back, exercising
    the OpenFlow set-field actions. Bindings are garbage-collected when
    the outbound flow is removed, and the inbound flow is deleted first.
    When the channel delivers the inbound flow's flow-removed at once
    and in order, as the in-process channel does, it arrives while the
    binding still stands, and the traffic that flow carried since the
    last poll is accounted to the device. Under a [chan] fault plan that
    delays or reorders it, it arrives after the binding is gone and that
    tail writes no row; one that drops it also leaves the flow's
    measurement baseline in place until the datapath next joins.
    Measurement samples are translated back to device addresses so
    per-device attribution survives NAT; a sample addressed to the WAN
    address whose binding is gone writes no row. *)

val create :
  ?config:config ->
  ?fault_seed:int ->
  ?wal_store:Hw_wal.Store.t ->
  loop:Hw_sim.Event_loop.t ->
  unit ->
  t
(** [config] defaults to [config ()].

    Builds and connects everything; periodic work (datapath timeouts, hwdb
    subscription delivery, flow-stats measurement, policy evaluation) is
    scheduled on [loop].

    [fault_seed] seeds the router's {!faults} injection plane (disarmed
    until a plan is installed; the seed fixes the whole fault schedule).

    [wal_store] makes the router's control state durable: the hwdb
    [Leases] and [Policies] tables are backed by write-ahead logs in
    that store (group committed off the 1 s tick, snapshotted and
    truncated automatically), and at construction whatever the store
    already holds is recovered — the DHCP server re-serves identical
    MAC→IP bindings and the policy engine replays its rule/group/token
    declarations. Pass [Hw_wal.Store.mem ()] shared between the dead and
    the restarted instance to simulate a crash, or
    [Hw_wal.Store.file ~dir] for real on-disk durability. Restart the
    event loop at or after the crashed instance's last timestamp (e.g.
    [Event_loop.create ~start:(Home.now old)]) so recovered rows keep
    their ring ordering. *)

(** {2 Dataplane wiring (the simulated NICs)} *)

val set_transmit : t -> (port_no:int -> string -> unit) -> unit
val receive_frame : t -> in_port:int -> string -> unit

val receive_frames : t -> (int * string) list -> unit
(** Batched [(in_port, frame)] delivery into the datapath pipeline; see
    {!Hw_datapath.Datapath.receive_frames}. *)

(** {2 Component access} *)

val db : t -> Hw_hwdb.Database.t

val metrics : t -> Hw_metrics.Registry.t
(** The router-wide metrics registry (one per instance): all subsystem
    instruments live here and feed the hwdb [Metrics] table, the
    [GET /metrics] endpoint and bench snapshots. *)

val tracer : t -> Hw_trace.Tracer.t
(** The router-wide tracer (one per instance, mirroring {!metrics}):
    every subsystem records spans into it; its flight recorder feeds the
    hwdb [Traces] table, [GET /traces](/:id) and [Hw_trace.Log]
    stamping. *)

val faults : t -> Hw_fault.Fault.plane
(** The router's fault-injection plane: [tx] interposes on the dataplane
    transmit hook, [rpc] on both directions of the hwdb RPC datagram
    path, [chan] on both directions of the controller<->datapath
    channel, [disk] on every WAL record write (short write, torn write,
    bit-flip, crash-at-boundary — see [Hw_fault.Fault.apply_write]). All
    four are disarmed (one-branch overhead) until a plan is installed
    with [Hw_fault.Fault.set_plan]. *)

val dhcp : t -> Hw_dhcp.Dhcp_server.t
val dns : t -> Hw_dns.Dns_proxy.t
val policy : t -> Hw_policy.Policy.t
val udev : t -> Hw_policy.Udev_monitor.t
val datapath : t -> Hw_datapath.Datapath.t
val controller : t -> Hw_controller.Controller.t
val router_ip : t -> Ip.t
val router_mac : t -> Mac.t

(** {2 Interfaces' entry points} *)

val http : t -> Hw_control_api.Http.request -> Hw_control_api.Http.response
(** The control API, as the UIs and udev invoke it. *)

val http_raw : t -> string -> string

val rpc_datagram : t -> from:string -> string -> unit
(** Deliver one hwdb RPC datagram; replies/publications go through the
    sender registered with {!set_rpc_send}. *)

val set_rpc_send : t -> (to_:string -> string -> unit) -> unit

(** {2 Measurement-plane inputs} *)

val poll_flow_stats : t -> unit
(** One measurement poll, as the 1 s tick runs it: requests every flow's
    statistics and writes a [Flows] row for each measured flow whose
    packet count moved since its last sample (the difference), keeping
    one baseline per measured flow keyed by its
    {!Hw_openflow.Ofp_message.flow_identity}. The reply is read in place
    ({!Hw_controller.Controller.request_flow_stats}): a drop flow is
    skipped by its cookie before anything else, and an unchanged flow
    costs its counters, its identity and one lookup — its match is
    decoded only when the flow is first seen and when it writes a row. A
    flow's removal writes its tail the same way and forgets its
    baseline. *)

val report_link : t -> mac:Mac.t -> rssi:int -> retries:int -> packets:int -> unit
(** Link-layer observation for one wireless station (the wlan driver's
    view); lands in the hwdb [Links] table. *)

(** {2 USB mediation} *)

val insert_usb : t -> device:string -> Hw_policy.Usb_key.fs -> (Hw_policy.Usb_key.key, string) result
val remove_usb : t -> device:string -> unit

(** {2 Introspection} *)

val flows_installed : t -> int
val packet_ins : t -> int
val blocked_flow_count : t -> int
val nat_enabled : t -> bool
val nat_binding_count : t -> int

val flow_baseline_count : t -> int
(** Flow-stats baselines the measurement plane holds: one per sampled
    flow, forgotten when the flow's removal is reported (every flow the
    router installs asks for that, both halves of a NAT binding
    included). *)

val apply_policies_now : t -> unit
(** Re-evaluates policy rules immediately (normally every second). *)
