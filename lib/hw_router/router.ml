open Hw_packet
open Hw_openflow

let log_src = Logs.Src.create "hw.router" ~doc:"Homework router composition"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Json = Hw_json.Json
module Http = Hw_control_api.Http
module Controller = Hw_controller.Controller
module Datapath = Hw_datapath.Datapath
module Dhcp_server = Hw_dhcp.Dhcp_server
module Dns_proxy = Hw_dns.Dns_proxy
module Policy = Hw_policy.Policy
module Database = Hw_hwdb.Database
module Rpc = Hw_hwdb.Rpc
module Value = Hw_hwdb.Value
module Fault = Hw_fault.Fault

let wireless_port = 1
let upstream_port = 100
let wired_port i = 10 + i
let dns_forward_port = 5353

(* Flow-stats baselines are keyed by the flow's identity on the wire,
   [Ofp_message.flow_identity]: its priority and match bytes, the pair
   by which OF 1.0 tells entries apart (an ADD with both equal replaces
   the entry and its counters). *)
module Baselines = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* the counters at the flow's last sample *)
type baseline = { mutable packets : int; mutable bytes : int }

(* The hwdb cell of each address this router reports, keyed by the raw
   address: every Flows, Links and Leases row about one station or IP
   shares one [Value.Str], rendered on first sight. A cache is dropped
   whole once it holds as many addresses as the Flows ring holds rows:
   a cell outlives its entry in the rows that hold it, and a later row
   about the address renders a fresh one. *)
module Cells (A : sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
  val to_string : t -> string
end) =
struct
  include Hashtbl.Make (A)

  let cell cells ~bound addr =
    match find cells addr with
    | cell -> cell
    | exception Not_found ->
        if length cells >= bound then reset cells;
        let cell = Value.Str (A.to_string addr) in
        add cells addr cell;
        cell
end

module Mac_cells = Cells (Mac)
module Ip_cells = Cells (Ip)

(* Immutable configuration, hoisted out of the per-instance state so a
   fleet of thousands of identically-configured routers shares ONE
   record (and one derived lan_prefix, one ports list) instead of
   re-deriving and re-storing it per instance. *)
type config = {
  dhcp_config : Dhcp_server.config;
  flow_idle_timeout : int;
  wired_ports : int;
  nat : Ip.t option;
  isolate_devices : bool;
  lan_prefix : Ip.Prefix.t;
  hwdb_capacity : int;
  ports : Datapath.port_config list;
}

type t = {
  loop : Hw_sim.Event_loop.t;
  cfg : config;
  metrics : Hw_metrics.Registry.t;
  trace : Hw_trace.Tracer.t;
  faults : Fault.plane;
  dp : Datapath.t;
  ctrl : Controller.t;
  mutable conn : Controller.conn;
  dhcp : Dhcp_server.t;
  dns : Dns_proxy.t;
  pol : Policy.t;
  udev_mon : Hw_policy.Udev_monitor.t;
  database : Database.t;
  rpc_server : Rpc.Server.t;
  mutable rpc_send : to_:string -> string -> unit;
  api : Hw_control_api.Router.t option ref;
  mac_table : (Mac.t, int) Hashtbl.t;
  baselines : baseline Baselines.t;
  mac_cells : Value.t Mac_cells.t;
  ip_cells : Value.t Ip_cells.t;
  policy_cache : (Mac.t, bool * string) Hashtbl.t; (* network_allowed, dns policy digest *)
  mutable transmit : port_no:int -> string -> unit;
  mutable blocked_flows : int;
  (* NAT (optional): port allocator and bindings keyed by cookie; the
     WAN address itself lives in [cfg.nat] *)
  mutable next_nat_port : int;
  nat_by_cookie : (int64, nat_binding) Hashtbl.t;
  nat_by_key : (string, nat_binding) Hashtbl.t;
  mutable next_nat_cookie : int64;
}

and nat_binding = {
  nat_cookie : int64;
  device_ip : Ip.t;
  device_port : int;
  device_mac : Mac.t;
  device_dp_port : int;
  nat_proto : int;
  remote_ip : Ip.t;
  remote_port : int;
  wan_port : int;
}

let prefix_bits_of_netmask mask =
  let v = Ip.to_int32 mask in
  let rec count bit acc =
    if bit < 0 then acc
    else if Int32.logand (Int32.shift_right_logical v bit) 1l = 1l then count (bit - 1) (acc + 1)
    else acc
  in
  count 31 0

let db t = t.database
let metrics t = t.metrics
let tracer t = t.trace
let dhcp t = t.dhcp
let dns t = t.dns
let policy t = t.pol
let udev t = t.udev_mon
let datapath t = t.dp
let controller t = t.ctrl
let router_ip t = (Dhcp_server.config t.dhcp).Dhcp_server.server_ip
let router_mac t = (Dhcp_server.config t.dhcp).Dhcp_server.server_mac
let flows_installed t = Hw_datapath.Flow_table.length (Datapath.flow_table t.dp)
let packet_ins t = Controller.packet_in_total t.ctrl
let blocked_flow_count t = t.blocked_flows
let nat_enabled t = t.cfg.nat <> None
let nat_binding_count t = Hashtbl.length t.nat_by_cookie
let flow_baseline_count t = Baselines.length t.baselines
let set_transmit t f = t.transmit <- f
let receive_frame t ~in_port frame = Datapath.receive_frame t.dp ~in_port frame
let receive_frames t frames = Datapath.receive_frames t.dp frames
let set_rpc_send t f = t.rpc_send <- f
let faults t = t.faults

let rpc_datagram t ~from data =
  (* inbound half of the RPC choke point; the outbound half wraps
     rpc_send in [create] *)
  let inj = t.faults.Fault.rpc in
  if Fault.armed inj then
    Fault.apply inj data ~deliver:(fun data ->
        Rpc.Server.handle_datagram t.rpc_server ~from data)
  else Rpc.Server.handle_datagram t.rpc_server ~from data

(* ------------------------------------------------------------------ *)
(* Packet-out helpers                                                  *)
(* ------------------------------------------------------------------ *)

let packet_out_port t ~port pkt =
  Controller.send_packet t.conn (Packet.encode pkt) [ Ofp_action.output port ]

let flood_packet t ~in_port data =
  Controller.send_packet t.conn ~in_port data [ Ofp_action.output Ofp_action.Port.flood ]

let client_mac t ~ip ~fallback =
  match Hw_dhcp.Lease_db.lookup_ip (Dhcp_server.lease_db t.dhcp) ip with
  | Some lease -> Some lease.Hw_dhcp.Lease_db.mac
  | None -> fallback

(* ------------------------------------------------------------------ *)
(* DNS proxy glue                                                      *)
(* ------------------------------------------------------------------ *)

let run_dns_actions t ~fallback_mac ~fallback_port actions =
  List.iter
    (fun action ->
      match action with
      | Dns_proxy.Forward_upstream query ->
          (* with NAT, the proxy's own upstream traffic sources from the
             WAN address like everything else *)
          let src_ip = Option.value t.cfg.nat ~default:(router_ip t) in
          let pkt =
            Packet.udp_packet ~src_mac:(router_mac t) ~dst_mac:Mac.broadcast ~src_ip
              ~dst_ip:Hw_sim.Internet.resolver_ip ~src_port:dns_forward_port ~dst_port:53
              (Dns_wire.encode query)
          in
          packet_out_port t ~port:upstream_port pkt
      | Dns_proxy.Respond_to_client { dst_ip; dst_port; msg } -> (
          match client_mac t ~ip:dst_ip ~fallback:fallback_mac with
          | None ->
              Log.debug (fun m -> m "no MAC for DNS client %s" (Ip.to_string dst_ip))
          | Some dst_mac ->
              let pkt =
                Packet.dns_response_packet ~src_mac:(router_mac t) ~dst_mac
                  ~src_ip:(router_ip t) ~dst_ip ~dst_port msg
              in
              let port =
                match Hashtbl.find_opt t.mac_table dst_mac with
                | Some p -> p
                | None -> Option.value fallback_port ~default:wireless_port
              in
              packet_out_port t ~port pkt))
    actions

(* ------------------------------------------------------------------ *)
(* Switching / admission component                                     *)
(* ------------------------------------------------------------------ *)

let install_forward_flow t ~(ev : Controller.packet_in_event) fields out_port =
  let m = Ofp_match.exact_of_fields fields in
  Controller.install_flow ~idle_timeout:t.cfg.flow_idle_timeout ~send_flow_rem:true t.conn m
    [ Ofp_action.output out_port ];
  (* release the buffered frame along the new path *)
  match ev.Controller.pi.Ofp_message.buffer_id with
  | Some buffer_id ->
      Controller.send_packet_out t.conn
        {
          Ofp_message.po_buffer_id = Some buffer_id;
          po_in_port = fields.Ofp_match.f_in_port;
          po_actions = [ Ofp_action.output out_port ];
          po_data = "";
        }
  | None ->
      Controller.send_packet t.conn ~in_port:fields.Ofp_match.f_in_port
        ev.Controller.pi.Ofp_message.data
        [ Ofp_action.output out_port ]

(* NAT: allocate a WAN port for (device, remote) and install the rewrite
   pair. Both flows carry the binding's cookie with send_flow_rem; the
   binding and the inbound flow die when the outbound flow is removed. *)
let nat_key ~proto ~device_ip ~device_port ~remote_ip ~remote_port =
  Printf.sprintf "%d|%ld:%d|%ld:%d" proto (Ip.to_int32 device_ip) device_port
    (Ip.to_int32 remote_ip) remote_port

(* the inbound half of a binding: remote -> wan_ip:wan_port, told apart
   from the outbound half by its priority *)
let nat_inbound_priority = 0x9000

let nat_inbound_match ~wan_ip b =
  {
    Ofp_match.wildcard_all with
    Ofp_match.in_port = Some upstream_port;
    dl_type = Some 0x0800;
    nw_proto = Some b.nat_proto;
    nw_src = Some (b.remote_ip, 32);
    nw_dst = Some (wan_ip, 32);
    tp_src = Some b.remote_port;
    tp_dst = Some b.wan_port;
  }

let install_nat_flows t ~(ev : Controller.packet_in_event) fields wan_ip =
  let proto = fields.Ofp_match.f_nw_proto in
  let key =
    nat_key ~proto ~device_ip:fields.Ofp_match.f_nw_src
      ~device_port:fields.Ofp_match.f_tp_src ~remote_ip:fields.Ofp_match.f_nw_dst
      ~remote_port:fields.Ofp_match.f_tp_dst
  in
  let binding =
    match Hashtbl.find_opt t.nat_by_key key with
    | Some b -> b
    | None ->
        t.next_nat_port <- (if t.next_nat_port >= 60000 then 20000 else t.next_nat_port + 1);
        let cookie = t.next_nat_cookie in
        t.next_nat_cookie <- Int64.add cookie 1L;
        let b =
          {
            nat_cookie = cookie;
            device_ip = fields.Ofp_match.f_nw_src;
            device_port = fields.Ofp_match.f_tp_src;
            device_mac = fields.Ofp_match.f_dl_src;
            device_dp_port = fields.Ofp_match.f_in_port;
            nat_proto = proto;
            remote_ip = fields.Ofp_match.f_nw_dst;
            remote_port = fields.Ofp_match.f_tp_dst;
            wan_port = t.next_nat_port;
          }
        in
        Hashtbl.replace t.nat_by_cookie cookie b;
        Hashtbl.replace t.nat_by_key key b;
        b
  in
  let out_actions =
    [
      Ofp_action.Set_dl_src (router_mac t);
      Ofp_action.Set_nw_src wan_ip;
      Ofp_action.Set_tp_src binding.wan_port;
      Ofp_action.output upstream_port;
    ]
  in
  (* outbound: exact match on the original headers *)
  Controller.send_flow_mod t.conn
    {
      (Ofp_message.add_flow ~cookie:binding.nat_cookie ~idle_timeout:t.cfg.flow_idle_timeout
         ~send_flow_rem:true
         (Ofp_match.exact_of_fields fields)
         out_actions)
      with
      Ofp_message.fm_buffer_id = ev.Controller.pi.Ofp_message.buffer_id;
    };
  (* inbound: rewritten back to the device *)
  Controller.install_flow ~cookie:binding.nat_cookie ~idle_timeout:t.cfg.flow_idle_timeout
    ~priority:nat_inbound_priority ~send_flow_rem:true t.conn
    (nat_inbound_match ~wan_ip binding)
    [
      Ofp_action.Set_nw_dst binding.device_ip;
      Ofp_action.Set_tp_dst binding.device_port;
      Ofp_action.Set_dl_dst binding.device_mac;
      Ofp_action.output binding.device_dp_port;
    ];
  (* release the original frame if it was not buffered (buffered frames
     are released by the flow-mod above) *)
  if ev.Controller.pi.Ofp_message.buffer_id = None then
    Controller.send_packet t.conn ~in_port:fields.Ofp_match.f_in_port
      ev.Controller.pi.Ofp_message.data out_actions

let drop_nat_binding t cookie =
  match Hashtbl.find_opt t.nat_by_cookie cookie with
  | None -> ()
  | Some b ->
      (* retire the inbound half while the binding still stands: its
         flow-removed reaches measurement-final, which accounts the
         inbound tail to the device before the binding is forgotten *)
      (match t.cfg.nat with
      | Some wan_ip ->
          Controller.send_flow_mod t.conn (Ofp_message.delete_flow (nat_inbound_match ~wan_ip b))
      | None -> ());
      Hashtbl.remove t.nat_by_cookie cookie;
      Hashtbl.remove t.nat_by_key
        (nat_key ~proto:b.nat_proto ~device_ip:b.device_ip ~device_port:b.device_port
           ~remote_ip:b.remote_ip ~remote_port:b.remote_port)

(* drop flows carry a reserved cookie so the measurement plane can skip
   them: Figure 1 shows admitted traffic, not refused attempts *)
let drop_cookie = 0xD0D0D0D0L

let install_drop_flow t fields =
  t.blocked_flows <- t.blocked_flows + 1;
  let m = Ofp_match.exact_of_fields fields in
  Controller.install_flow ~cookie:drop_cookie ~idle_timeout:t.cfg.flow_idle_timeout
    ~hard_timeout:30 t.conn m []

let forward_or_flood t ~(ev : Controller.packet_in_event) fields =
  let dst = fields.Ofp_match.f_dl_dst in
  match Hashtbl.find_opt t.mac_table dst with
  | Some out_port when out_port <> fields.Ofp_match.f_in_port ->
      install_forward_flow t ~ev fields out_port
  | Some _ -> () (* destination behind the ingress port; nothing to do *)
  | None -> flood_packet t ~in_port:fields.Ofp_match.f_in_port ev.Controller.pi.Ofp_message.data

let handle_ip_admission t ~(ev : Controller.packet_in_event) fields =
  let src_ip = fields.Ofp_match.f_nw_src in
  let dst_ip = fields.Ofp_match.f_nw_dst in
  let lease_db = Dhcp_server.lease_db t.dhcp in
  let from_router = Ip.equal src_ip (router_ip t) in
  (* the lease must be the sender's own: a denied device whose old
     address was re-leased must not ride on the new holder's lease *)
  let src_leased =
    match Hw_dhcp.Lease_db.lookup_ip lease_db src_ip with
    | Some lease -> Mac.equal lease.Hw_dhcp.Lease_db.mac fields.Ofp_match.f_dl_src
    | None -> false
  in
  let from_upstream = fields.Ofp_match.f_in_port = upstream_port in
  if (not from_router) && (not from_upstream) && not src_leased then
    (* the DHCP module guarantees only leased devices speak IP *)
    install_drop_flow t fields
  else if
    (* the paper's DHCP design prevents direct device-to-device paths;
       with isolation on, inter-device IP flows are refused outright *)
    t.cfg.isolate_devices
    && (not from_upstream) && (not from_router)
    && Ip.Prefix.mem dst_ip t.cfg.lan_prefix
    && (not (Ip.equal dst_ip (router_ip t)))
    && not (Ip.equal dst_ip (Ip.Prefix.broadcast_addr t.cfg.lan_prefix))
  then begin
    Log.info (fun m ->
        m "isolation: refusing %s -> %s" (Ip.to_string src_ip) (Ip.to_string dst_ip));
    install_drop_flow t fields
  end
  else if from_upstream || Ip.Prefix.mem dst_ip t.cfg.lan_prefix || from_router then
    forward_or_flood t ~ev fields
  else begin
    (* outbound flow: the DNS proxy decides device↔site admission *)
    match Dns_proxy.check_flow t.dns ~src_ip ~dst_ip with
    | Dns_proxy.Flow_allow -> (
        match t.cfg.nat with
        | Some wan_ip
          when fields.Ofp_match.f_nw_proto = Ipv4.proto_tcp
               || fields.Ofp_match.f_nw_proto = Ipv4.proto_udp ->
            install_nat_flows t ~ev fields wan_ip
        | _ -> forward_or_flood t ~ev fields)
    | Dns_proxy.Flow_block reason ->
        Log.info (fun m ->
            m "blocking %s -> %s: %s" (Ip.to_string src_ip) (Ip.to_string dst_ip) reason);
        install_drop_flow t fields
    | Dns_proxy.Flow_reverse_lookup ptr_query ->
        run_dns_actions t ~fallback_mac:None ~fallback_port:None
          [ Dns_proxy.Forward_upstream ptr_query ]
        (* this packet is dropped; the retransmission is decided from the
           now-warm cache *)
  end

(* IPv4 is decided from the fields alone; only an ARP frame is decoded,
   because the reply is built from the request *)
let switching_component t (ev : Controller.packet_in_event) =
  match ev.Controller.fields with
  | None -> Controller.Stop
  | Some fields ->
      (* learn the station's port *)
      let src = fields.Ofp_match.f_dl_src in
      if not (Mac.is_multicast src) then
        Hashtbl.replace t.mac_table src fields.Ofp_match.f_in_port;
      let in_port = fields.Ofp_match.f_in_port and dst = fields.Ofp_match.f_dl_dst in
      (if fields.Ofp_match.f_dl_type = Ethernet.ethertype_ipv4 then
         if Mac.is_broadcast dst || Mac.is_multicast dst then
           flood_packet t ~in_port ev.Controller.pi.Ofp_message.data
         else handle_ip_admission t ~ev fields
       else if fields.Ofp_match.f_dl_type = Ethernet.ethertype_arp then
         match Lazy.force ev.Controller.packet with
         | Some { Packet.l3 = Packet.Arp arp; _ } ->
             (* the router answers for its own address; everything else
                floods (the upstream node proxy-ARPs for the internet) *)
             if arp.Arp.op = Arp.Request && Ip.equal arp.Arp.target_ip (router_ip t) then
               packet_out_port t ~port:in_port
                 (Packet.arp_packet ~src_mac:(router_mac t)
                    (Arp.reply_to arp ~responder_mac:(router_mac t)))
             else if Mac.is_broadcast dst then
               flood_packet t ~in_port ev.Controller.pi.Ofp_message.data
             else forward_or_flood t ~ev fields
         | Some _ | None -> ());
      Controller.Stop

(* ------------------------------------------------------------------ *)
(* DHCP component                                                      *)
(* ------------------------------------------------------------------ *)

(* a UDP fragment reads ports 0 in its fields, so a port test after this
   one matches only a datagram that decodes with that UDP header *)
let is_udp (f : Ofp_match.fields) =
  f.Ofp_match.f_dl_type = Ethernet.ethertype_ipv4 && f.Ofp_match.f_nw_proto = Ipv4.proto_udp

let dhcp_component t (ev : Controller.packet_in_event) =
  match ev.Controller.fields with
  | Some fields when is_udp fields && fields.Ofp_match.f_tp_dst = Dhcp_wire.server_port -> (
      match Lazy.force ev.Controller.packet with
      | Some pkt ->
          Hashtbl.replace t.mac_table fields.Ofp_match.f_dl_src fields.Ofp_match.f_in_port;
          let replies = Dhcp_server.handle_packet t.dhcp pkt in
          List.iter
            (fun reply ->
              packet_out_port t ~port:ev.Controller.pi.Ofp_message.in_port reply)
            replies;
          Controller.Stop
      | None -> Controller.Continue)
  | _ -> Controller.Continue

(* ------------------------------------------------------------------ *)
(* DNS component                                                       *)
(* ------------------------------------------------------------------ *)

(* the DNS message a UDP packet-in carries, decoded on demand *)
let dns_message (ev : Controller.packet_in_event) =
  match Lazy.force ev.Controller.packet with
  | Some { Packet.l3 = Packet.Ipv4 (_, Packet.Udp u); _ } -> Dns_wire.decode u.Udp.payload
  | Some _ | None -> Error "not a UDP packet"

let dns_component t (ev : Controller.packet_in_event) =
  match ev.Controller.fields with
  | Some f
    when is_udp f && f.Ofp_match.f_tp_dst = 53 && f.Ofp_match.f_in_port <> upstream_port ->
      (* outgoing DNS request: intercept *)
      (match dns_message ev with
      | Ok query when not query.Dns_wire.is_response ->
          let actions =
            Dns_proxy.handle_query t.dns ~src_ip:f.Ofp_match.f_nw_src
              ~src_port:f.Ofp_match.f_tp_src query
          in
          run_dns_actions t ~fallback_mac:(Some f.Ofp_match.f_dl_src)
            ~fallback_port:(Some f.Ofp_match.f_in_port) actions
      | Ok _ | Error _ -> ());
      Controller.Stop
  | Some f
    when is_udp f && f.Ofp_match.f_tp_src = 53
         && (Ip.equal f.Ofp_match.f_nw_dst (router_ip t)
            || match t.cfg.nat with
               | Some w -> Ip.equal f.Ofp_match.f_nw_dst w
               | None -> false)
         && f.Ofp_match.f_tp_dst = dns_forward_port -> (
      (* response from the upstream resolver to the proxy *)
      match dns_message ev with
      | Ok response when response.Dns_wire.is_response ->
          run_dns_actions t ~fallback_mac:None ~fallback_port:None
            (Dns_proxy.handle_upstream t.dns response);
          Controller.Stop
      | Ok _ | Error _ -> Controller.Stop)
  | _ -> Controller.Continue

(* ------------------------------------------------------------------ *)
(* Measurement: flow stats -> hwdb Flows                               *)
(* ------------------------------------------------------------------ *)

let mac_cell t mac = Mac_cells.cell t.mac_cells ~bound:t.cfg.hwdb_capacity mac
let ip_cell t ip = Ip_cells.cell t.ip_cells ~bound:t.cfg.hwdb_capacity ip

(* A flow is measured when its match names the five-tuple a Flows row
   reports; drop flows are not, by their cookie. *)
let measured (m : Ofp_match.t) =
  match (m.Ofp_match.nw_src, m.Ofp_match.nw_dst, m.Ofp_match.nw_proto) with
  | Some _, Some _, Some proto -> proto <> 0
  | _ -> false

(* One Flows row for a measured flow's counters since its last sample. *)
let record_flow_row t ~cookie (m : Ofp_match.t) ~packets ~bytes =
  match (m.Ofp_match.nw_src, m.Ofp_match.nw_dst, m.Ofp_match.nw_proto) with
  | Some (src_ip, _), Some (dst_ip, _), Some proto -> (
      (* NAT: account inbound rewritten flows to the device, not the WAN
         address, so Figure 1 keeps per-device attribution; with the
         binding gone there is no device to account them to *)
      let dst =
        match t.cfg.nat with
        | Some wan_ip when Ip.equal dst_ip wan_ip -> (
            match Hashtbl.find_opt t.nat_by_cookie cookie with
            | Some b -> Some (b.device_ip, b.device_port)
            | None -> None)
        | _ -> Some (dst_ip, Option.value m.Ofp_match.tp_dst ~default:0)
      in
      match dst with
      | Some (dst_ip, dst_port) ->
          Database.record_flow t.database ~proto ~src_ip:(ip_cell t src_ip)
            ~dst_ip:(ip_cell t dst_ip)
            ~src_port:(Option.value m.Ofp_match.tp_src ~default:0)
            ~dst_port ~packets ~bytes
      | None -> ())
  | _ -> ()

(* One entry of a flow-stats reply part, read in place. An unchanged
   flow costs its cookie, counters and identity and one lookup; its
   match is decoded only when it is first seen and when it moved. *)
let sample_flow_entry t part at =
  let module P = Ofp_message.Flow_stats_part in
  let cookie = P.cookie part at in
  if not (Int64.equal cookie drop_cookie) then begin
    let packets = P.packet_count part at and bytes = P.byte_count part at in
    let key = P.identity part at in
    match Baselines.find t.baselines key with
    | b ->
        let dp = packets - b.packets and db = bytes - b.bytes in
        b.packets <- packets;
        b.bytes <- bytes;
        if dp > 0 then record_flow_row t ~cookie (P.match_ part at) ~packets:dp ~bytes:db
    | exception Not_found ->
        let m = P.match_ part at in
        if measured m then begin
          Baselines.replace t.baselines key { packets; bytes };
          if packets > 0 then record_flow_row t ~cookie m ~packets ~bytes
        end
  end

let poll_flow_stats t =
  Controller.request_flow_stats t.conn (fun part ->
      Ofp_message.Flow_stats_part.iter (sample_flow_entry t part) part)

(* A removed flow's tail since the last poll, and the end of its
   baseline, so that a re-installed identical flow starts clean. *)
let sample_removed_flow t (fr : Ofp_message.flow_removed) =
  let key = Ofp_message.flow_identity ~priority:fr.Ofp_message.fr_priority fr.Ofp_message.fr_match in
  let cookie = fr.Ofp_message.fr_cookie in
  if (not (Int64.equal cookie drop_cookie)) && measured fr.Ofp_message.fr_match then begin
    let packets = Int64.to_int fr.Ofp_message.packet_count
    and bytes = Int64.to_int fr.Ofp_message.byte_count in
    let dp, db =
      match Baselines.find_opt t.baselines key with
      | Some b -> (packets - b.packets, bytes - b.bytes)
      | None -> (packets, bytes)
    in
    if dp > 0 then record_flow_row t ~cookie fr.Ofp_message.fr_match ~packets:dp ~bytes:db
  end;
  Baselines.remove t.baselines key

(* the ip column of a lease event that granted no address *)
let no_ip = Value.Str ""

let report_link t ~mac ~rssi ~retries ~packets =
  Database.record_link t.database ~mac:(mac_cell t mac) ~rssi ~retries ~packets

(* ------------------------------------------------------------------ *)
(* Policy application                                                  *)
(* ------------------------------------------------------------------ *)

let dns_policy_digest = function
  | Dns_proxy.Allow_all -> "allow_all"
  | Dns_proxy.Block_all -> "block_all"
  | Dns_proxy.Allow_only ds -> "allow:" ^ String.concat "," (List.sort compare ds)
  | Dns_proxy.Block_listed ds -> "block:" ^ String.concat "," (List.sort compare ds)

let flush_flows_for_ip t ip =
  let del nw_field =
    Controller.send_flow_mod t.conn (Ofp_message.delete_flow nw_field)
  in
  del { Ofp_match.wildcard_all with Ofp_match.nw_src = Some (ip, 32) };
  del { Ofp_match.wildcard_all with Ofp_match.nw_dst = Some (ip, 32) }

let apply_policies_now t =
  let now = Hw_sim.Event_loop.now t.loop in
  List.iter
    (fun mac ->
      let decision = Policy.evaluate t.pol ~mac ~now in
      let digest =
        ( decision.Policy.network_allowed,
          dns_policy_digest decision.Policy.dns_policy )
      in
      let changed =
        match Hashtbl.find_opt t.policy_cache mac with
        | Some cached -> cached <> digest
        | None -> true
      in
      if changed then begin
        Hashtbl.replace t.policy_cache mac digest;
        Log.info (fun m ->
            m "policy change for %s: network=%b dns=%s" (Mac.to_string mac)
              decision.Policy.network_allowed
              (snd digest));
        (* flush flows before revoking so stale entries cannot bypass *)
        (match Hw_dhcp.Lease_db.lookup_mac (Dhcp_server.lease_db t.dhcp) mac with
        | Some lease -> flush_flows_for_ip t lease.Hw_dhcp.Lease_db.ip
        | None -> ());
        Dns_proxy.set_policy t.dns mac decision.Policy.dns_policy;
        if decision.Policy.network_allowed then Dhcp_server.permit t.dhcp mac
        else Dhcp_server.deny t.dhcp mac
      end)
    (Policy.constrained_devices t.pol)

(* ------------------------------------------------------------------ *)
(* Policy durability: declarations as hwdb Policies events             *)
(* ------------------------------------------------------------------ *)

(* Every policy-plane mutation is recorded into the [Policies] table as a
   (kind, id, payload, action) event. The table is durable when the
   router has a WAL store, so [replay_policies] can rebuild the engine
   at the next boot by replaying the stream in order — last event per
   entity wins, exactly like the Leases log. *)

let record_rule_set t rule =
  Database.record_policy t.database ~kind:"rule" ~id:rule.Policy.rule_id
    ~payload:(Json.to_string (Policy.rule_to_json rule))
    ~action:"set"

let record_rule_remove t id =
  Database.record_policy t.database ~kind:"rule" ~id ~payload:"" ~action:"remove"

let record_group_set t name macs =
  Database.record_policy t.database ~kind:"group" ~id:name
    ~payload:
      (Json.to_string
         (Json.List (List.map (fun m -> Json.String (Mac.to_string m)) macs)))
    ~action:"set"

let record_token t token action =
  Database.record_policy t.database ~kind:"token" ~id:token ~payload:"" ~action

let replay_policies t =
  match Database.table t.database "Policies" with
  | None -> 0
  | Some tbl ->
      let applied = ref 0 in
      let bad fmt = Log.warn fmt in
      List.iter
        (fun (tu : Value.tuple) ->
          match tu.Value.values with
          | [| Value.Str kind; Value.Str id; Value.Str payload; Value.Str action |]
            -> (
              incr applied;
              match (kind, action) with
              | "rule", "set" -> (
                  match
                    Option.map Policy.rule_of_json (Json.of_string_opt payload)
                  with
                  | Some (Ok rule) -> Policy.add_rule t.pol rule
                  | Some (Error msg) ->
                      bad (fun m -> m "policy replay: rule %s: %s" id msg)
                  | None -> bad (fun m -> m "policy replay: rule %s: bad json" id))
              | "rule", "remove" -> ignore (Policy.remove_rule t.pol id)
              | "group", "set" -> (
                  match Json.of_string_opt payload with
                  | Some (Json.List members) ->
                      Policy.define_group t.pol id
                        (List.filter_map
                           (function Json.String s -> Mac.of_string s | _ -> None)
                           members)
                  | _ -> bad (fun m -> m "policy replay: group %s: bad json" id))
              | "token", "set" -> Policy.insert_token t.pol id
              | "token", "remove" -> Policy.remove_token t.pol id
              | _ ->
                  decr applied;
                  bad (fun m -> m "policy replay: unknown event %s/%s" kind action))
          | _ -> bad (fun m -> m "policy replay: malformed Policies row"))
        (Hw_hwdb.Table.scan tbl);
      if !applied > 0 then
        Log.info (fun m -> m "replayed %d policy event(s) from hwdb" !applied);
      !applied

(* ------------------------------------------------------------------ *)
(* USB / udev                                                          *)
(* ------------------------------------------------------------------ *)

let insert_usb t ~device fs = Hw_policy.Udev_monitor.insert t.udev_mon ~device fs

let remove_usb t ~device = ignore (Hw_policy.Udev_monitor.remove t.udev_mon ~device)

(* ------------------------------------------------------------------ *)
(* Control API ops                                                     *)
(* ------------------------------------------------------------------ *)

let parse_mac s =
  match Mac.of_string s with
  | Some mac -> Ok mac
  | None -> Error (Printf.sprintf "bad MAC %S" s)

let device_json t (mac, state, hostname) =
  let lease = Hw_dhcp.Lease_db.lookup_mac (Dhcp_server.lease_db t.dhcp) mac in
  Json.Obj
    ([
       ("mac", Json.String (Mac.to_string mac));
       ( "state",
         Json.String
           (match state with
           | Dhcp_server.Permitted -> "permitted"
           | Dhcp_server.Denied -> "denied"
           | Dhcp_server.Pending -> "pending") );
       ("hostname", Json.String hostname);
       ( "metadata",
         Json.String (Option.value (Dhcp_server.metadata t.dhcp mac) ~default:"") );
     ]
    @
    match lease with
    | Some l -> [ ("lease_ip", Json.String (Ip.to_string l.Hw_dhcp.Lease_db.ip)) ]
    | None -> [])

let result_set_json (rs : Hw_hwdb.Query.result_set) =
  Json.Obj
    [
      ("columns", Json.List (List.map (fun c -> Json.String c) rs.Hw_hwdb.Query.columns));
      ( "rows",
        Json.List
          (List.map
             (fun row ->
               Json.List
                 (List.map
                    (fun v ->
                      match v with
                      | Value.Int i -> Json.Int i
                      | Value.Real f | Value.Ts f -> Json.Float f
                      | Value.Str s -> Json.String s
                      | Value.Bool b -> Json.Bool b)
                    row))
             rs.Hw_hwdb.Query.rows) );
    ]

let make_ops t =
  let with_mac s f = Result.bind (parse_mac s) (fun mac -> f mac) in
  {
    Hw_control_api.Control_api.status =
      (fun () ->
        Json.Obj
          [
            ("router", Json.String "homework");
            ("time", Json.Float (Hw_sim.Event_loop.now t.loop));
            ("devices", Json.Int (List.length (Dhcp_server.devices t.dhcp)));
            ("flows", Json.Int (flows_installed t));
            ("packet_ins", Json.Int (packet_ins t));
          ]);
    list_devices = (fun () -> Json.List (List.map (device_json t) (Dhcp_server.devices t.dhcp)));
    permit_device =
      (fun s ->
        with_mac s (fun mac ->
            Dhcp_server.permit t.dhcp mac;
            Ok ()));
    deny_device =
      (fun s ->
        with_mac s (fun mac ->
            (match Hw_dhcp.Lease_db.lookup_mac (Dhcp_server.lease_db t.dhcp) mac with
            | Some lease -> flush_flows_for_ip t lease.Hw_dhcp.Lease_db.ip
            | None -> ());
            Dhcp_server.deny t.dhcp mac;
            Ok ()));
    forget_device =
      (fun s ->
        with_mac s (fun mac ->
            Dhcp_server.forget t.dhcp mac;
            Ok ()));
    set_device_metadata =
      (fun s name ->
        with_mac s (fun mac ->
            Dhcp_server.set_metadata t.dhcp mac name;
            Ok ()));
    list_leases =
      (fun () ->
        Json.List
          (List.map
             (fun (l : Hw_dhcp.Lease_db.lease) ->
               Json.Obj
                 [
                   ("mac", Json.String (Mac.to_string l.Hw_dhcp.Lease_db.mac));
                   ("ip", Json.String (Ip.to_string l.Hw_dhcp.Lease_db.ip));
                   ("hostname", Json.String l.Hw_dhcp.Lease_db.hostname);
                   ("expires_at", Json.Float l.Hw_dhcp.Lease_db.expires_at);
                 ])
             (Hw_dhcp.Lease_db.active (Dhcp_server.lease_db t.dhcp))));
    list_policies = (fun () -> Json.List (List.map Policy.rule_to_json (Policy.rules t.pol)));
    add_policy =
      (fun json ->
        match Policy.rule_of_json json with
        | Ok rule ->
            Policy.add_rule t.pol rule;
            record_rule_set t rule;
            apply_policies_now t;
            Ok (Policy.rule_to_json rule)
        | Error _ as e -> e);
    delete_policy =
      (fun id ->
        if Policy.remove_rule t.pol id then begin
          record_rule_remove t id;
          apply_policies_now t;
          Ok ()
        end
        else Error (Printf.sprintf "no rule %s" id));
    list_groups =
      (fun () ->
        Json.Obj
          (List.map
             (fun name ->
               ( name,
                 Json.List
                   (List.map
                      (fun mac -> Json.String (Mac.to_string mac))
                      (Policy.group_members t.pol name)) ))
             (Policy.group_names t.pol)));
    set_group =
      (fun name mac_strings ->
        let macs = List.map Mac.of_string mac_strings in
        if List.exists Option.is_none macs then Error "bad MAC in members"
        else begin
          let macs = List.map Option.get macs in
          Policy.define_group t.pol name macs;
          record_group_set t name macs;
          apply_policies_now t;
          Ok ()
        end);
    usb_event =
      (fun json ->
        match Json.member_opt "event" json, Json.member_opt "token" json with
        | Some (Json.String "insert"), Some (Json.String token) ->
            let rules =
              match Json.member_opt "rules" json with
              | Some (Json.List rules) -> rules
              | _ -> []
            in
            let parsed = List.map Policy.rule_of_json rules in
            (match List.find_opt Result.is_error parsed with
            | Some (Error msg) -> Error msg
            | Some (Ok _) -> assert false
            | None ->
                List.iter
                  (fun r ->
                    let rule = Result.get_ok r in
                    Policy.add_rule t.pol rule;
                    record_rule_set t rule)
                  parsed;
                Policy.insert_token t.pol token;
                record_token t token "set";
                apply_policies_now t;
                Ok (Json.Obj [ ("token", Json.String token) ]))
        | Some (Json.String "remove"), Some (Json.String token) ->
            Policy.remove_token t.pol token;
            record_token t token "remove";
            apply_policies_now t;
            Ok (Json.Obj [ ("token", Json.String token) ])
        | _ -> Error "expected {\"event\": \"insert\"|\"remove\", \"token\": ...}");
    hwdb_query =
      (fun q ->
        match Database.query t.database q with
        | Ok rs -> Ok (result_set_json rs)
        | Error _ as e -> e);
    dns_stats =
      (fun () ->
        let st = Dns_proxy.stats t.dns in
        Json.Obj
          [
            ("queries", Json.Int st.Dns_proxy.queries);
            ("blocked", Json.Int st.Dns_proxy.blocked);
            ("forwarded", Json.Int st.Dns_proxy.forwarded);
            ("cache_answers", Json.Int st.Dns_proxy.cache_answers);
            ("reverse_lookups", Json.Int st.Dns_proxy.reverse_lookups);
            ("cache_size", Json.Int (Dns_proxy.cache_size t.dns));
          ]);
    metrics_text = (fun () -> Hw_metrics.Snapshot.render_prometheus t.metrics);
    list_traces = (fun () -> Hw_trace.Export.summaries t.trace);
    get_trace =
      (fun id_str ->
        match int_of_string_opt id_str with
        | None -> Error (Printf.sprintf "bad trace id %S" id_str)
        | Some id -> (
            match Hw_trace.Tracer.find t.trace id with
            | Some c -> Ok (Hw_trace.Export.chrome_json c)
            | None -> Error (Printf.sprintf "no trace %d in the flight recorder" id)));
  }

let http t req =
  match !(t.api) with
  | Some api -> Hw_control_api.Control_api.handle api req
  | None -> Http.error_response 500 "control API not initialised"

let http_raw t raw =
  match !(t.api) with
  | Some api -> Hw_control_api.Control_api.handle_raw api raw
  | None -> Http.encode_response (Http.error_response 500 "control API not initialised")

(* ------------------------------------------------------------------ *)
(* DHCP crash recovery from hwdb                                       *)
(* ------------------------------------------------------------------ *)

(* Replay the Leases log of [db] (ring order is chronological) into a
   DHCP server — the recovery path for "the router restarted but the
   hwdb survived": devices keep their addresses, so the measurement
   plane's per-device attribution holds across the restart. *)
let recover_dhcp_leases ~db server =
  match Database.query db "SELECT mac, ip, hostname, action FROM Leases" with
  | Error msg ->
      Log.warn (fun m -> m "lease recovery: cannot read Leases table: %s" msg);
      0
  | Ok rs ->
      let rows =
        List.filter_map
          (function
            | [ Value.Str mac; Value.Str ip; Value.Str hostname; Value.Str action ] ->
                Some (mac, ip, hostname, action)
            | _ -> None)
          rs.Hw_hwdb.Query.rows
      in
      let n = Dhcp_server.restore server rows in
      if n > 0 then Log.info (fun m -> m "recovered %d lease(s) from hwdb" n);
      n

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let config ?(dhcp_config = Dhcp_server.default_config) ?(flow_idle_timeout = 10)
    ?(wired_ports = 4) ?nat ?(isolate_devices = false) ?(hwdb_capacity = 4096) () =
  {
    dhcp_config;
    flow_idle_timeout;
    wired_ports;
    nat;
    isolate_devices;
    lan_prefix =
      Ip.Prefix.make dhcp_config.Dhcp_server.server_ip
        (prefix_bits_of_netmask dhcp_config.Dhcp_server.netmask);
    hwdb_capacity;
    ports =
      { Datapath.port_no = wireless_port; name = "wlan0"; mac = Mac.local 0xa0 }
      :: { Datapath.port_no = upstream_port; name = "upstream"; mac = Mac.local 0xff01 }
      :: List.init wired_ports (fun i ->
             {
               Datapath.port_no = wired_port i;
               name = Printf.sprintf "eth%d" i;
               mac = Mac.local (0xe0 + i);
             });
  }

let create ?config:(cfg = config ()) ?(fault_seed = 0x4a11) ?wal_store ~loop () =
  let dhcp_config = cfg.dhcp_config in
  let now () = Hw_sim.Event_loop.now loop in
  (* One registry per router instance: every subsystem reports into it, and
     it feeds all three export surfaces (Metrics table, /metrics, bench). *)
  let metrics = Hw_metrics.Registry.create () in
  Hw_sim.Event_loop.attach_metrics loop metrics;
  (* One tracer per router instance, same shape as the registry: every
     subsystem records spans into it and it feeds all three trace export
     surfaces (hwdb Traces table, /traces endpoints, Trace.Log stamps). *)
  let trace = Hw_trace.Tracer.create ~metrics ~now () in
  (* One fault plane per router instance, disarmed by default: injectors
     for the dataplane transmit hook, the RPC datagram path and the
     controller<->datapath channel. Disarmed cost is one branch per hop. *)
  let faults =
    Fault.plane ~metrics ~trace
      ~schedule:(fun d f -> Hw_sim.Event_loop.after loop d f)
      ~seed:fault_seed ~now ()
  in
  let uptime = Hw_metrics.Build_info.register ~registry:metrics () in
  let started_at = now () in
  (* WAL record writes pass through the disk choke point of the fault
     plane (short write / torn write / bit-flip / crash-at-boundary)
     while it is armed; a disarmed point leaves each flush one store
     append *)
  let wal_interpose =
    let inj = faults.Fault.disk in
    let through = Some (fun record ~write -> Fault.apply_write inj record ~write) in
    fun () -> if Fault.armed inj then through else None
  in
  let database =
    Database.create ~default_capacity:cfg.hwdb_capacity ~metrics ~trace
      ?recover_from:wal_store ~wal_interpose ~now ()
  in
  let dhcp_server = Dhcp_server.create ~metrics ~trace ~config:dhcp_config ~now () in
  (* the database replayed its durable tables above (if any); rebuild
     the DHCP server's bindings from the recovered Leases stream before
     any event hook is attached, so recovery re-records nothing *)
  if wal_store <> None then ignore (recover_dhcp_leases ~db:database dhcp_server);
  let dns_proxy = Dns_proxy.create ~metrics ~trace ~now () in
  Dns_proxy.set_device_of_ip dns_proxy (fun ip ->
      Option.map
        (fun l -> l.Hw_dhcp.Lease_db.mac)
        (Hw_dhcp.Lease_db.lookup_ip (Dhcp_server.lease_db dhcp_server) ip));
  let ctrl = Controller.create ~metrics ~trace ~now () in
  (* mutual channel wiring uses forward references resolved below *)
  let dp_ref = ref None in
  let conn_ref = ref None in
  (* controller -> datapath direction of the channel choke point *)
  let send_to_dp bytes =
    match !dp_ref with
    | Some dp ->
        let inj = faults.Fault.chan in
        if Fault.armed inj then
          Fault.apply inj bytes ~deliver:(Datapath.input_from_controller dp)
        else Datapath.input_from_controller dp bytes
    | None -> ()
  in
  let conn = Controller.attach_switch ctrl ~send:send_to_dp in
  conn_ref := Some conn;
  let transmit_ref = ref (fun ~port_no:_ _ -> ()) in
  let dp =
    Datapath.create ~metrics ~trace ~dpid:1L ~ports:cfg.ports
      ~transmit:(fun ~port_no frame -> !transmit_ref ~port_no frame)
      ~to_controller:(fun bytes ->
        (* datapath -> controller direction of the channel choke point;
           routed through [conn_ref] so a reconnect's fresh conn (not the
           one captured at construction) receives the bytes *)
        match !conn_ref with
        | Some conn ->
            let inj = faults.Fault.chan in
            if Fault.armed inj then
              Fault.apply inj bytes ~deliver:(fun b -> Controller.input ctrl conn b)
            else Controller.input ctrl conn bytes
        | None -> ())
      ~now ()
  in
  dp_ref := Some dp;
  let rpc_send_ref = ref (fun ~to_:_ _ -> ()) in
  let rpc_server =
    Rpc.Server.create ~db:database ~send:(fun ~to_ data -> !rpc_send_ref ~to_ data) ()
  in
  let t =
    {
      loop;
      cfg;
      metrics;
      trace;
      faults;
      dp;
      ctrl;
      conn;
      dhcp = dhcp_server;
      dns = dns_proxy;
      pol = Policy.create ();
      udev_mon = Hw_policy.Udev_monitor.create ();
      database;
      rpc_server;
      rpc_send = (fun ~to_:_ _ -> ());
      api = ref None;
      mac_table = Hashtbl.create 64;
      baselines = Baselines.create 256;
      mac_cells = Mac_cells.create 64;
      ip_cells = Ip_cells.create 64;
      policy_cache = Hashtbl.create 16;
      transmit = (fun ~port_no:_ _ -> ());
      blocked_flows = 0;
      next_nat_port = 20000;
      nat_by_cookie = Hashtbl.create 64;
      nat_by_key = Hashtbl.create 64;
      next_nat_cookie = 1L;
    }
  in
  (transmit_ref :=
     fun ~port_no frame ->
       let inj = faults.Fault.tx in
       if Fault.armed inj then
         Fault.apply inj frame ~deliver:(fun frame -> t.transmit ~port_no frame)
       else t.transmit ~port_no frame);
  (rpc_send_ref :=
     fun ~to_ data ->
       let inj = faults.Fault.rpc in
       if Fault.armed inj then
         Fault.apply inj data ~deliver:(fun data -> t.rpc_send ~to_ data)
       else t.rpc_send ~to_ data);
  (* NOX components, in dispatch order *)
  Controller.on_packet_in ctrl ~name:"dhcp" (dhcp_component t);
  Controller.on_packet_in ctrl ~name:"dns" (dns_component t);
  Controller.on_packet_in ctrl ~name:"switching" (switching_component t);
  (* account the tail of the flow that the periodic poll missed *)
  Controller.on_flow_removed ctrl ~name:"measurement-final" (fun _conn fr ->
      sample_removed_flow t fr);
  (* NAT bindings die with their outbound flow *)
  Controller.on_flow_removed ctrl ~name:"nat-gc" (fun _conn fr ->
      if
        fr.Ofp_message.fr_priority <> nat_inbound_priority
        && not (Int64.equal fr.Ofp_message.fr_cookie 0L)
      then drop_nat_binding t fr.Ofp_message.fr_cookie);
  (* DHCP events land in hwdb Leases (grant / renew / revoke / deny) *)
  Dhcp_server.on_event dhcp_server (fun ev ->
      let record action (l : Hw_dhcp.Lease_db.lease) =
        Database.record_lease database
          ~mac:(mac_cell t l.Hw_dhcp.Lease_db.mac)
          ~ip:(ip_cell t l.Hw_dhcp.Lease_db.ip)
          ~hostname:l.Hw_dhcp.Lease_db.hostname ~action
      in
      match ev with
      | Dhcp_server.Lease_granted l -> record "grant" l
      | Dhcp_server.Lease_renewed l -> record "renew" l
      | Dhcp_server.Lease_revoked l -> record "revoke" l
      | Dhcp_server.Lease_released l -> record "release" l
      | Dhcp_server.Request_denied { mac; hostname } ->
          Database.record_lease database ~mac:(mac_cell t mac) ~ip:no_ip ~hostname
            ~action:"deny"
      | Dhcp_server.Device_pending { mac; hostname } ->
          Database.record_lease database ~mac:(mac_cell t mac) ~ip:no_ip ~hostname
            ~action:"pending");
  (* key inserted/removed -> policy tokens and rules *)
  Hw_policy.Udev_monitor.on_event t.udev_mon (fun ev ->
      match ev with
      | Hw_policy.Udev_monitor.Key_inserted key ->
          List.iter
            (fun rule ->
              Policy.add_rule t.pol rule;
              record_rule_set t rule)
            key.Hw_policy.Usb_key.rules;
          Policy.insert_token t.pol key.Hw_policy.Usb_key.token;
          record_token t key.Hw_policy.Usb_key.token "set";
          apply_policies_now t
      | Hw_policy.Udev_monitor.Key_removed key ->
          Policy.remove_token t.pol key.Hw_policy.Usb_key.token;
          record_token t key.Hw_policy.Usb_key.token "remove";
          apply_policies_now t
      | Hw_policy.Udev_monitor.Invalid_key { device; reason } ->
          Log.warn (fun m -> m "invalid policy key on %s: %s" device reason));
  (* rebuild the policy engine from the recovered Policies stream; the
     registered hooks above only fire on *new* events, so replay is not
     re-recorded *)
  if wal_store <> None then ignore (replay_policies t);
  t.api := Some (Hw_control_api.Control_api.build (make_ops t));
  (* Channel supervision: the 15 s ping_stale tick below sends echo
     keepalives and detaches a datapath that misses them; the leave
     handler then drives the reconnect handshake. The join handler
     re-syncs the flow table on every (re)join — delete-all plus cleared
     measurement snapshots — so no stale entry from a previous session
     survives into the new one. *)
  Controller.on_datapath_join ctrl ~name:"resync" (fun conn _features ->
      Controller.send_flow_mod conn (Ofp_message.delete_flow Ofp_match.wildcard_all);
      Baselines.reset t.baselines);
  let reconnect () =
    if Controller.connections ctrl = [] then begin
      (* the old framing buffer may have died on injected garbage *)
      Datapath.reset_channel dp;
      let conn = Controller.attach_switch ctrl ~send:send_to_dp in
      conn_ref := Some conn;
      t.conn <- conn;
      Datapath.connect dp;
      (* if the handshake itself is lost (e.g. mid-partition), detach and
         go around again; detaching fires the leave handler below *)
      Hw_sim.Event_loop.after loop 5.0 (fun () ->
          if Controller.conn_features conn = None then
            Controller.detach_switch ctrl conn)
    end
  in
  Controller.on_datapath_leave ctrl ~name:"supervisor" (fun _conn ->
      Hw_sim.Event_loop.after loop 1.0 reconnect);
  (* OpenFlow session *)
  Datapath.connect dp;
  (* push recovered policy decisions into DHCP/DNS now that the channel
     is up (the periodic tick would do it within a second anyway) *)
  if wal_store <> None then apply_policies_now t;
  (* periodic work: timeouts, subscriptions, measurement, policy *)
  Hw_sim.Event_loop.every loop 1.0 (fun () ->
      Hw_metrics.Gauge.set uptime (now () -. started_at);
      Datapath.tick dp;
      Dhcp_server.tick dhcp_server;
      poll_flow_stats t;
      Database.tick database;
      apply_policies_now t);
  Hw_sim.Event_loop.every loop 60.0 (fun () -> Dns_proxy.expire_cache dns_proxy);
  Hw_sim.Event_loop.every loop 15.0 (fun () ->
      ignore (Controller.ping_stale ctrl ~idle_after:15. ~dead_after:120.));
  t
