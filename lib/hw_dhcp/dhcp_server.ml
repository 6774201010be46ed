open Hw_packet

let log_src = Logs.Src.create "hw.dhcp" ~doc:"Homework DHCP server module"

module Log = (val Logs.src_log log_src : Logs.LOG)

type device_state = Permitted | Denied | Pending

type config = {
  server_mac : Mac.t;
  server_ip : Ip.t;
  netmask : Ip.t;
  gateway : Ip.t;
  dns_server : Ip.t;
  pool_start : Ip.t;
  pool_end : Ip.t;
  lease_time : float;
  default_permit : bool;
}

let default_config =
  let router = Ip.of_octets 10 0 0 1 in
  {
    server_mac = Mac.of_string_exn "02:00:00:00:aa:01";
    server_ip = router;
    netmask = Ip.of_octets 255 255 255 0;
    gateway = router;
    dns_server = router;
    pool_start = Ip.of_octets 10 0 0 100;
    pool_end = Ip.of_octets 10 0 0 199;
    lease_time = 3600.;
    default_permit = false;
  }

type event =
  | Lease_granted of Lease_db.lease
  | Lease_renewed of Lease_db.lease
  | Lease_revoked of Lease_db.lease
  | Lease_released of Lease_db.lease
  | Request_denied of { mac : Mac.t; hostname : string }
  | Device_pending of { mac : Mac.t; hostname : string }

let event_to_string ev =
  let lease verb (l : Lease_db.lease) ~arrow =
    let mac = Mac.to_string l.Lease_db.mac and ip = Ip.to_string l.Lease_db.ip in
    if arrow then verb ^ " " ^ mac ^ " -> " ^ ip else verb ^ " " ^ mac ^ " (" ^ ip ^ ")"
  in
  match ev with
  | Lease_granted l -> lease "grant" l ~arrow:true
  | Lease_renewed l -> lease "renew" l ~arrow:true
  | Lease_revoked l -> lease "revoke" l ~arrow:false
  | Lease_released l -> lease "release" l ~arrow:false
  | Request_denied { mac; _ } -> "deny " ^ Mac.to_string mac
  | Device_pending { mac; _ } -> "pending " ^ Mac.to_string mac

type device = {
  mutable decision : device_state option; (* None = no explicit user decision *)
  mutable last_hostname : string;
  mutable meta : string option;
  mutable acked : bool; (* completed at least one DORA; later ACKs are renewals *)
}

module Tracer = Hw_trace.Tracer

type t = {
  cfg : config;
  now : unit -> float;
  trace : Tracer.t;
  leases : Lease_db.t;
  devices : (Mac.t, device) Hashtbl.t;
  mutable listeners : (event -> unit) list;
  m_grants : Hw_metrics.Counter.t;
  m_renewals : Hw_metrics.Counter.t;
  m_revocations : Hw_metrics.Counter.t;
  m_releases : Hw_metrics.Counter.t;
  m_denials : Hw_metrics.Counter.t;
  m_pending : Hw_metrics.Counter.t;
  m_recovered : Hw_metrics.Counter.t;
}

let create ?(metrics = Hw_metrics.Registry.default) ?(trace = Tracer.disabled)
    ?(config = default_config) ~now () =
  let counter name help = Hw_metrics.Registry.counter metrics name ~help in
  {
    cfg = config;
    now;
    trace;
    leases =
      Lease_db.create ~pool_start:config.pool_start ~pool_end:config.pool_end
        ~lease_time:config.lease_time ();
    devices = Hashtbl.create 32;
    listeners = [];
    m_grants = counter "dhcp_grants_total" "Leases granted";
    m_renewals = counter "dhcp_renewals_total" "Leases renewed";
    m_revocations = counter "dhcp_revocations_total" "Leases revoked";
    m_releases = counter "dhcp_releases_total" "Leases released by the client";
    m_denials = counter "dhcp_denials_total" "Requests denied";
    m_pending = counter "dhcp_pending_total" "Requests from devices awaiting a user decision";
    m_recovered = counter "dhcp_leases_recovered_total" "Leases replayed from the hwdb Leases log";
  }

let config t = t.cfg
let lease_db t = t.leases
let on_event t f = t.listeners <- t.listeners @ [ f ]

let emit t ev =
  Hw_metrics.Counter.incr
    (match ev with
    | Lease_granted _ -> t.m_grants
    | Lease_renewed _ -> t.m_renewals
    | Lease_revoked _ -> t.m_revocations
    | Lease_released _ -> t.m_releases
    | Request_denied _ -> t.m_denials
    | Device_pending _ -> t.m_pending);
  (* The state transition is what the trace is about: stamp the verdict
     on the enclosing dhcp.handle span. *)
  if Tracer.in_trace t.trace then
    Tracer.set_attr t.trace "dhcp.event" (Tracer.Str (event_to_string ev));
  List.iter (fun f -> f ev) t.listeners

let device t mac =
  match Hashtbl.find_opt t.devices mac with
  | Some d -> d
  | None ->
      let d = { decision = None; last_hostname = ""; meta = None; acked = false } in
      Hashtbl.replace t.devices mac d;
      d

let device_state t mac =
  match Hashtbl.find_opt t.devices mac with
  | Some { decision = Some s; _ } -> s
  | Some { decision = None; _ } | None ->
      if t.cfg.default_permit then Permitted else Pending

let effective_permit t mac = device_state t mac = Permitted

let devices t =
  Hashtbl.fold (fun mac d acc -> (mac, device_state t mac, d.last_hostname) :: acc) t.devices []
  |> List.sort (fun (a, _, _) (b, _, _) -> Mac.compare a b)

let pending_devices t =
  List.filter_map
    (fun (mac, state, hostname) -> if state = Pending then Some (mac, hostname) else None)
    (devices t)

let set_metadata t mac meta = (device t mac).meta <- Some meta

let metadata t mac = Option.bind (Hashtbl.find_opt t.devices mac) (fun d -> d.meta)

let reset_acked t mac =
  match Hashtbl.find_opt t.devices mac with Some d -> d.acked <- false | None -> ()

let permit t mac = (device t mac).decision <- Some Permitted

let deny t mac =
  (device t mac).decision <- Some Denied;
  reset_acked t mac;
  match Lease_db.release t.leases mac with
  | Some lease -> emit t (Lease_revoked lease)
  | None -> ()

let forget t mac =
  match Hashtbl.find_opt t.devices mac with
  | Some d -> d.decision <- None
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

(* Replay the hwdb Leases log (chronological (mac, ip, hostname, action)
   rows) into a fresh server: the last action per client wins, so a
   device whose final record is grant/renew gets its old address back
   with a full lease, while revoked/released/denied devices stay gone.
   Restored devices are re-marked permitted and acked — their next
   REQUEST is a renewal of the same address, which is what keeps the
   paper's "all traffic visible at the router" invariant across a
   restart. *)
let restore t rows =
  let final = Hashtbl.create 16 in
  List.iter
    (fun (mac, ip, hostname, action) ->
      match action with
      | "grant" | "renew" -> Hashtbl.replace final mac (ip, hostname)
      | "revoke" | "release" | "deny" -> Hashtbl.remove final mac
      | _ -> ())
    rows;
  let survivors =
    Hashtbl.fold (fun mac (ip, hostname) acc -> (mac, ip, hostname) :: acc) final []
    |> List.sort compare
  in
  let now = t.now () in
  List.fold_left
    (fun n (mac_s, ip_s, hostname) ->
      match (Mac.of_string mac_s, Ip.of_string ip_s) with
      | Some mac, Some ip ->
          ignore (Lease_db.bind t.leases ~now ~hostname ~committed:true mac ip);
          let d = device t mac in
          d.decision <- Some Permitted;
          d.acked <- true;
          if hostname <> "" then d.last_hostname <- hostname;
          Hw_metrics.Counter.incr t.m_recovered;
          Log.info (fun m -> m "recovered lease %s -> %s" mac_s ip_s);
          n + 1
      | _ ->
          Log.warn (fun m -> m "unparseable Leases row %s / %s skipped" mac_s ip_s);
          n)
    0 survivors

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let reply_options t =
  let lease_time = Lease_db.lease_time t.leases in
  [
    Dhcp_wire.Subnet_mask t.cfg.netmask;
    Dhcp_wire.Router [ t.cfg.gateway ];
    Dhcp_wire.Dns_servers [ t.cfg.dns_server ];
    Dhcp_wire.Lease_time (Int32.of_float lease_time);
    (* RFC 2131 defaults: T1 at half-life, T2 at 7/8 *)
    Dhcp_wire.Renewal_time (Int32.of_float (lease_time /. 2.));
    Dhcp_wire.Rebinding_time (Int32.of_float (lease_time *. 0.875));
    Dhcp_wire.Server_id t.cfg.server_ip;
  ]

let frame_reply t (req : Dhcp_wire.t) reply =
  (* Per RFC 2131 the reply goes to the client's hardware address; clients
     that set the broadcast flag get a broadcast frame. *)
  let dst_mac = if req.Dhcp_wire.broadcast then Mac.broadcast else req.Dhcp_wire.chaddr in
  let dst_ip =
    if req.Dhcp_wire.broadcast || Ip.equal reply.Dhcp_wire.yiaddr Ip.any then Ip.broadcast
    else reply.Dhcp_wire.yiaddr
  in
  Packet.dhcp_packet ~src_mac:t.cfg.server_mac ~dst_mac ~src_ip:t.cfg.server_ip ~dst_ip reply

let nak t (req : Dhcp_wire.t) message =
  Dhcp_wire.make_reply
    ~options:[ Dhcp_wire.Server_id t.cfg.server_ip; Dhcp_wire.Message message ]
    ~xid:req.Dhcp_wire.xid ~chaddr:req.Dhcp_wire.chaddr ~yiaddr:Ip.any ~siaddr:t.cfg.server_ip
    Dhcp_wire.Nak

let refuse t (req : Dhcp_wire.t) hostname =
  (* A refused device gets a NAK; Homework surfaces it to the control UI
     (Figure 3) as pending or denied. *)
  let mac = req.Dhcp_wire.chaddr in
  (match device_state t mac with
  | Pending -> emit t (Device_pending { mac; hostname })
  | Denied -> emit t (Request_denied { mac; hostname })
  | Permitted -> assert false);
  [ frame_reply t req (nak t req "access not permitted") ]

let handle_dhcp t (req : Dhcp_wire.t) =
  let mac = req.Dhcp_wire.chaddr in
  let hostname = Option.value (Dhcp_wire.find_hostname req) ~default:"" in
  let d = device t mac in
  if hostname <> "" then d.last_hostname <- hostname;
  match Dhcp_wire.find_message_type req with
  | Some Dhcp_wire.Discover ->
      if not (effective_permit t mac) then refuse t req hostname
      else begin
        match
          Lease_db.allocate t.leases ~now:(t.now ())
            ?requested:(Dhcp_wire.find_requested_ip req) ~hostname mac
        with
        | None ->
            Log.warn (fun m -> m "pool exhausted; cannot offer to %s" (Mac.to_string mac));
            [ frame_reply t req (nak t req "address pool exhausted") ]
        | Some lease ->
            let offer =
              Dhcp_wire.make_reply ~options:(reply_options t) ~xid:req.Dhcp_wire.xid
                ~chaddr:mac ~yiaddr:lease.Lease_db.ip ~siaddr:t.cfg.server_ip Dhcp_wire.Offer
            in
            [ frame_reply t req offer ]
      end
  | Some Dhcp_wire.Request ->
      if not (effective_permit t mac) then refuse t req hostname
      else begin
        let requested =
          match Dhcp_wire.find_requested_ip req with
          | Some ip -> Some ip
          | None ->
              if Ip.equal req.Dhcp_wire.ciaddr Ip.any then None else Some req.Dhcp_wire.ciaddr
        in
        match requested with
        | None -> [ frame_reply t req (nak t req "no address requested") ]
        | Some ip -> (
            match Lease_db.confirm t.leases ~now:(t.now ()) mac ip ~hostname () with
            | Some lease ->
                let renewal = d.acked in
                d.acked <- true;
                emit t (if renewal then Lease_renewed lease else Lease_granted lease);
                let ack =
                  Dhcp_wire.make_reply ~options:(reply_options t) ~xid:req.Dhcp_wire.xid
                    ~chaddr:mac ~yiaddr:lease.Lease_db.ip ~siaddr:t.cfg.server_ip Dhcp_wire.Ack
                in
                [ frame_reply t req ack ]
            | None -> [ frame_reply t req (nak t req "requested address unavailable") ])
      end
  | Some Dhcp_wire.Release -> (
      reset_acked t mac;
      match Lease_db.release t.leases mac with
      | Some lease ->
          emit t (Lease_released lease);
          []
      | None -> [])
  | Some Dhcp_wire.Decline -> (
      (* client found the address in use; forget the binding *)
      match Lease_db.release t.leases mac with
      | Some lease ->
          emit t (Lease_revoked lease);
          []
      | None -> [])
  | Some Dhcp_wire.Inform ->
      let ack =
        Dhcp_wire.make_reply
          ~options:
            [
              Dhcp_wire.Subnet_mask t.cfg.netmask;
              Dhcp_wire.Router [ t.cfg.gateway ];
              Dhcp_wire.Dns_servers [ t.cfg.dns_server ];
              Dhcp_wire.Server_id t.cfg.server_ip;
            ]
          ~xid:req.Dhcp_wire.xid ~chaddr:mac ~yiaddr:Ip.any ~siaddr:t.cfg.server_ip
          Dhcp_wire.Ack
      in
      [ frame_reply t req ack ]
  | Some (Dhcp_wire.Offer | Dhcp_wire.Ack | Dhcp_wire.Nak) | None ->
      (* server-to-client messages or missing type: not ours to answer *)
      []

let handle_packet t (pkt : Packet.t) =
  match pkt.Packet.l3 with
  | Packet.Ipv4 (_, Packet.Udp u) when u.Udp.dst_port = Dhcp_wire.server_port -> (
      match Dhcp_wire.decode u.Udp.payload with
      | Ok req when req.Dhcp_wire.op = Dhcp_wire.Bootrequest ->
          Tracer.with_span t.trace "dhcp.handle" (fun () ->
              if Tracer.in_trace t.trace then begin
                Tracer.set_attr t.trace "mac" (Tracer.Mac req.Dhcp_wire.chaddr);
                Tracer.set_attr t.trace "msg_type"
                  (Tracer.Str
                     (match Dhcp_wire.find_message_type req with
                     | Some Dhcp_wire.Discover -> "discover"
                     | Some Dhcp_wire.Offer -> "offer"
                     | Some Dhcp_wire.Request -> "request"
                     | Some Dhcp_wire.Decline -> "decline"
                     | Some Dhcp_wire.Ack -> "ack"
                     | Some Dhcp_wire.Nak -> "nak"
                     | Some Dhcp_wire.Release -> "release"
                     | Some Dhcp_wire.Inform -> "inform"
                     | None -> "unknown"))
              end;
              handle_dhcp t req)
      | Ok _ -> []
      | Error msg ->
          Log.debug (fun m -> m "malformed DHCP: %s" msg);
          [])
  | _ -> []

let tick t =
  List.iter
    (fun lease ->
      reset_acked t lease.Lease_db.mac;
      (* expired OFFERs (never REQUESTed) vanish silently; only committed
         leases announce a revocation *)
      if lease.Lease_db.committed then emit t (Lease_revoked lease))
    (Lease_db.expire t.leases ~now:(t.now ()))
