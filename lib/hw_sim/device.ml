open Hw_packet

let log_src = Logs.Src.create "hw.sim.device" ~doc:"Simulated home device"

module Log = (val Logs.src_log log_src : Logs.LOG)

type kind = Wired | Wireless of { mutable distance_m : float }

type config = { name : string; mac : Mac.t; kind : kind; apps : App_profile.t list }

let wireless ?(distance_m = 5.) ~name ~mac apps =
  { name; mac; kind = Wireless { distance_m }; apps }

let wired ~name ~mac apps = { name; mac; kind = Wired; apps }

type dhcp_state = Init | Selecting | Requesting | Bound | Denied

type stats = {
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable retries : int;
  mutable lost_frames : int;
  mutable dns_queries : int;
  mutable dns_failures : int;
}

type lease_info = {
  lease_ip : Ip.t;
  dns_server : Ip.t;
  lease_seconds : float;
  renewal_seconds : float; (* T1: when to start renewing *)
}

type t = {
  cfg : config;
  loop : Event_loop.t;
  raw_send : string -> unit;
  rng : Prng.t;
  rssi_params : Rssi.params;
  st : stats;
  mutable state : dhcp_state;
  mutable lease : lease_info option;
  mutable xid : int32;
  mutable running : bool;
  mutable generation : int; (* invalidates scheduled work from old sessions *)
  arp_cache : (Ip.t, Mac.t) Hashtbl.t;
  arp_pending : (Ip.t, (Mac.t -> unit) list ref) Hashtbl.t;
  dns_cache : (string, Ip.t) Hashtbl.t;
  dns_pending : (int, Ip.t option -> unit) Hashtbl.t;
  mutable next_dns_id : int;
  mutable next_port : int;
  mutable bound_handlers : (Ip.t -> unit) list;
  mutable denied_handlers : (unit -> unit) list;
}

let create ?(seed = 42) ?(rssi_params = Rssi.default_params) ~config ~loop ~send () =
  {
    cfg = config;
    loop;
    raw_send = send;
    rng = Prng.create ~seed:(seed + Hashtbl.hash (Mac.to_string config.mac));
    rssi_params;
    st =
      {
        tx_packets = 0;
        tx_bytes = 0;
        rx_packets = 0;
        rx_bytes = 0;
        retries = 0;
        lost_frames = 0;
        dns_queries = 0;
        dns_failures = 0;
      };
    state = Init;
    lease = None;
    xid = 0l;
    running = false;
    generation = 0;
    arp_cache = Hashtbl.create 8;
    arp_pending = Hashtbl.create 8;
    dns_cache = Hashtbl.create 16;
    dns_pending = Hashtbl.create 8;
    next_dns_id = 1;
    next_port = 40000;
    bound_handlers = [];
    denied_handlers = [];
  }

let name t = t.cfg.name
let mac t = t.cfg.mac
let config t = t.cfg
let dhcp_state t = t.state
let ip t = Option.map (fun l -> l.lease_ip) t.lease
let stats t = t.st

let rssi t =
  match t.cfg.kind with
  | Wired -> None
  | Wireless w -> Some (Rssi.rssi_at ~rng:t.rng t.rssi_params ~distance_m:w.distance_m)

let set_distance t d =
  match t.cfg.kind with Wired -> () | Wireless w -> w.distance_m <- Float.max 0.5 d

let on_bound t f = t.bound_handlers <- t.bound_handlers @ [ f ]
let on_denied t f = t.denied_handlers <- t.denied_handlers @ [ f ]

let fresh_port t =
  t.next_port <- (if t.next_port >= 60000 then 40000 else t.next_port + 1);
  t.next_port

(* ------------------------------------------------------------------ *)
(* Link layer: wireless retry / loss model                             *)
(* ------------------------------------------------------------------ *)

let send_frame t frame =
  let lost =
    match rssi t with
    | None -> false
    | Some r ->
        if Prng.bool t.rng (Rssi.retry_probability r) then
          t.st.retries <- t.st.retries + 1 + Prng.int t.rng 3;
        Prng.bool t.rng (Rssi.loss_probability r)
  in
  if lost then t.st.lost_frames <- t.st.lost_frames + 1
  else begin
    t.st.tx_packets <- t.st.tx_packets + 1;
    t.st.tx_bytes <- t.st.tx_bytes + String.length frame;
    t.raw_send frame
  end

let send_packet t pkt = send_frame t (Packet.encode pkt)

(* ------------------------------------------------------------------ *)
(* ARP                                                                 *)
(* ------------------------------------------------------------------ *)

let with_dst_mac t dst_ip k =
  match Hashtbl.find_opt t.arp_cache dst_ip with
  | Some m -> k m
  | None -> (
      match Hashtbl.find_opt t.arp_pending dst_ip with
      | Some waiters -> waiters := k :: !waiters
      | None ->
          Hashtbl.replace t.arp_pending dst_ip (ref [ k ]);
          let sender_ip = Option.value (ip t) ~default:Ip.any in
          let request = Arp.request ~sender_mac:t.cfg.mac ~sender_ip ~target_ip:dst_ip in
          send_packet t (Packet.arp_packet ~src_mac:t.cfg.mac request))

(* ------------------------------------------------------------------ *)
(* IP send helpers                                                     *)
(* ------------------------------------------------------------------ *)

let send_udp t ~dst_ip ~dst_port ?src_port payload =
  match ip t with
  | None -> Log.debug (fun m -> m "%s: dropping UDP send, not bound" t.cfg.name)
  | Some my_ip ->
      let src_port = Option.value src_port ~default:(fresh_port t) in
      with_dst_mac t dst_ip (fun dst_mac ->
          send_packet t
            (Packet.udp_packet ~src_mac:t.cfg.mac ~dst_mac ~src_ip:my_ip ~dst_ip ~src_port
               ~dst_port payload))

let send_tcp_segment t ~dst_ip ~dst_port ?src_port ?(flags = Tcp.ack_flag) payload =
  match ip t with
  | None -> Log.debug (fun m -> m "%s: dropping TCP send, not bound" t.cfg.name)
  | Some my_ip ->
      let src_port = Option.value src_port ~default:(fresh_port t) in
      with_dst_mac t dst_ip (fun dst_mac ->
          send_packet t
            (Packet.tcp_packet ~flags ~src_mac:t.cfg.mac ~dst_mac ~src_ip:my_ip ~dst_ip
               ~src_port ~dst_port payload))

(* ------------------------------------------------------------------ *)
(* DNS client                                                          *)
(* ------------------------------------------------------------------ *)

let resolve t hostname k =
  let hostname = Dns_wire.normalize_name hostname in
  match Hashtbl.find_opt t.dns_cache hostname with
  | Some addr -> k (Some addr)
  | None -> (
      match t.lease with
      | None -> k None
      | Some lease ->
          let id = t.next_dns_id in
          t.next_dns_id <- (t.next_dns_id + 1) land 0xffff;
          Hashtbl.replace t.dns_pending id k;
          t.st.dns_queries <- t.st.dns_queries + 1;
          let query = Dns_wire.query ~id hostname Dns_wire.A in
          let generation = t.generation in
          send_udp t ~dst_ip:lease.dns_server ~dst_port:53 ~src_port:(fresh_port t)
            (Dns_wire.encode query);
          (* time out after 5 s so sessions don't hang on blocked names *)
          Event_loop.after t.loop 5. (fun () ->
              if generation = t.generation then
                match Hashtbl.find_opt t.dns_pending id with
                | Some k ->
                    Hashtbl.remove t.dns_pending id;
                    t.st.dns_failures <- t.st.dns_failures + 1;
                    k None
                | None -> ()))

(* ------------------------------------------------------------------ *)
(* Application traffic                                                 *)
(* ------------------------------------------------------------------ *)

(* A session keeps one pending event: each packet's event sends it and
   then schedules the next at the instant an up-front schedule would
   have given it ([t0 + spacing * i], so the times are bit-identical),
   and a stopped device's session ends with its next event. The payload
   is built once per session; strings are immutable, so every packet
   shares it. *)
let run_session t (app : App_profile.t) =
  resolve t app.App_profile.dst_host (fun addr ->
      match addr with
      | None -> Log.debug (fun m -> m "%s: %s lookup failed" t.cfg.name app.App_profile.dst_host)
      | Some dst_ip ->
          let src_port = fresh_port t in
          let dst_port = app.App_profile.dst_port in
          let packets = max 1 (app.App_profile.request_bytes / app.App_profile.packet_size) in
          let spacing = app.App_profile.session_duration /. float_of_int packets in
          let generation = t.generation in
          let t0 = Event_loop.now t.loop in
          let payload = String.make app.App_profile.packet_size 'u' in
          (match app.App_profile.transport with
          | App_profile.Tcp ->
              send_tcp_segment t ~dst_ip ~dst_port ~src_port ~flags:Tcp.syn_flag ""
          | App_profile.Udp -> ());
          let rec packet i =
            Event_loop.at t.loop
              (t0 +. (spacing *. float_of_int i))
              (fun () ->
                if generation = t.generation then begin
                  (if t.state = Bound then
                     match app.App_profile.transport with
                     | App_profile.Tcp -> send_tcp_segment t ~dst_ip ~dst_port ~src_port payload
                     | App_profile.Udp -> send_udp t ~dst_ip ~dst_port ~src_port payload);
                  if i < packets then packet (i + 1)
                end)
          in
          packet 1)

let rec schedule_app t (app : App_profile.t) =
  let generation = t.generation in
  let delay = Prng.exponential t.rng ~mean:app.App_profile.session_mean_interval in
  Event_loop.after t.loop delay (fun () ->
      if generation = t.generation && t.state = Bound then begin
        run_session t app;
        schedule_app t app
      end)

let start_traffic t = List.iter (schedule_app t) t.cfg.apps

(* ------------------------------------------------------------------ *)
(* DHCP client                                                         *)
(* ------------------------------------------------------------------ *)

let fresh_xid t =
  t.xid <- Int32.of_int (Prng.int t.rng 0x3fffffff);
  t.xid

let send_dhcp t msg =
  let pkt =
    Packet.dhcp_packet ~src_mac:t.cfg.mac ~dst_mac:Mac.broadcast ~src_ip:Ip.any
      ~dst_ip:Ip.broadcast msg
  in
  send_packet t pkt

let dhcp_options t = [ Dhcp_wire.Hostname t.cfg.name ]

let rec send_discover t ~attempt =
  if t.running then begin
    t.state <- Selecting;
    let xid = fresh_xid t in
    send_dhcp t (Dhcp_wire.make_request ~options:(dhcp_options t) ~xid ~chaddr:t.cfg.mac Dhcp_wire.Discover);
    (* retry with exponential backoff while unanswered *)
    let generation = t.generation in
    let backoff = Float.min 64. (4. *. (2. ** float_of_int attempt)) in
    Event_loop.after t.loop backoff (fun () ->
        if generation = t.generation && t.running && t.state = Selecting then
          send_discover t ~attempt:(attempt + 1))
  end

(* A REQUEST whose ACK never arrives would otherwise wedge the device in
   [Requesting] forever — the discover backoff only re-fires while
   [Selecting].  Fall back to a fresh discovery if the transaction is
   still unanswered after the timeout. *)
let arm_request_timeout t =
  let generation = t.generation and xid = t.xid in
  Event_loop.after t.loop 8. (fun () ->
      if
        generation = t.generation && t.running && t.state = Requesting
        && Int32.equal xid t.xid
      then begin
        Log.debug (fun m -> m "%s: REQUEST unanswered, restarting discovery" t.cfg.name);
        send_discover t ~attempt:0
      end)

let start t =
  if not t.running then begin
    t.running <- true;
    t.generation <- t.generation + 1;
    send_discover t ~attempt:0
  end

let stop t =
  if t.running then begin
    (match t.lease, t.state with
    | Some _, Bound ->
        send_dhcp t
          (Dhcp_wire.make_request ~options:(dhcp_options t) ~xid:(fresh_xid t)
             ~chaddr:t.cfg.mac Dhcp_wire.Release)
    | _ -> ());
    t.running <- false;
    t.generation <- t.generation + 1;
    t.state <- Init;
    t.lease <- None;
    Hashtbl.reset t.dns_pending;
    Hashtbl.reset t.arp_pending
  end

let schedule_renewal t (lease : lease_info) =
  let generation = t.generation in
  Event_loop.after t.loop lease.renewal_seconds (fun () ->
      if generation = t.generation && t.state = Bound then begin
        t.state <- Requesting;
        send_dhcp t
          (Dhcp_wire.make_request
             ~options:(Dhcp_wire.Requested_ip lease.lease_ip :: dhcp_options t)
             ~xid:(fresh_xid t) ~chaddr:t.cfg.mac Dhcp_wire.Request);
        arm_request_timeout t
      end)

let handle_dhcp_reply t (reply : Dhcp_wire.t) =
  if Mac.equal reply.Dhcp_wire.chaddr t.cfg.mac && Int32.equal reply.Dhcp_wire.xid t.xid then
    match Dhcp_wire.find_message_type reply with
    | Some Dhcp_wire.Offer when t.state = Selecting ->
        t.state <- Requesting;
        let options =
          Dhcp_wire.Requested_ip reply.Dhcp_wire.yiaddr
          ::
          (match Dhcp_wire.find_server_id reply with
          | Some sid -> [ Dhcp_wire.Server_id sid ]
          | None -> [])
          @ dhcp_options t
        in
        send_dhcp t
          (Dhcp_wire.make_request ~options ~xid:t.xid ~chaddr:t.cfg.mac Dhcp_wire.Request);
        arm_request_timeout t
    | Some Dhcp_wire.Ack when t.state = Requesting ->
        let dns_server =
          match
            List.find_map
              (function Dhcp_wire.Dns_servers (s :: _) -> Some s | _ -> None)
              reply.Dhcp_wire.options
          with
          | Some s -> s
          | None -> Ip.of_octets 10 0 0 1
        in
        let lease_seconds =
          match Dhcp_wire.find_lease_time reply with
          | Some secs -> Int32.to_float secs
          | None -> 3600.
        in
        (* honour the server's T1 (renewal time) option when present *)
        let renewal_seconds =
          match
            List.find_map
              (function Dhcp_wire.Renewal_time s -> Some (Int32.to_float s) | _ -> None)
              reply.Dhcp_wire.options
          with
          | Some t1 when t1 > 0. && t1 < lease_seconds -> t1
          | _ -> lease_seconds /. 2.
        in
        let lease =
          { lease_ip = reply.Dhcp_wire.yiaddr; dns_server; lease_seconds; renewal_seconds }
        in
        let fresh = t.lease = None in
        t.lease <- Some lease;
        t.state <- Bound;
        schedule_renewal t lease;
        if fresh then begin
          List.iter (fun f -> f lease.lease_ip) t.bound_handlers;
          start_traffic t
        end
    | Some Dhcp_wire.Nak ->
        Log.info (fun m -> m "%s: DHCP NAK" t.cfg.name);
        t.lease <- None;
        t.state <- Denied;
        t.generation <- t.generation + 1;
        List.iter (fun f -> f ()) t.denied_handlers;
        (* keep asking: the control UI may permit us later *)
        let generation = t.generation in
        Event_loop.after t.loop 30. (fun () ->
            if generation = t.generation && t.running then send_discover t ~attempt:0)
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* Frame input                                                         *)
(* ------------------------------------------------------------------ *)

(* The destination MAC is the frame's first six bytes: a station on the
   shared wireless port skips its neighbours' frames on them, before
   parsing anything. *)
let dst_is frame mac =
  let mac = Mac.to_bytes mac in
  let rec from i = i = 6 || (String.unsafe_get frame i = String.unsafe_get mac i && from (i + 1)) in
  from 0

let for_me t frame =
  String.length frame >= 6 && (dst_is frame t.cfg.mac || dst_is frame Mac.broadcast)

(* A UDP or TCP data frame that is neither a DHCP reply nor a DNS
   answer is only counted, so it is read in place, not decoded. *)
let counted_only frame =
  let l4 = Frame.check frame in
  (l4 = Ipv4.proto_udp || l4 = Ipv4.proto_tcp)
  && Frame.dst_port frame <> Dhcp_wire.client_port
  && Frame.src_port frame <> 53

let count_rx t frame =
  t.st.rx_packets <- t.st.rx_packets + 1;
  t.st.rx_bytes <- t.st.rx_bytes + String.length frame

let deliver t frame =
  if not (for_me t frame) then ()
  else if counted_only frame then count_rx t frame
  else
    match Packet.decode frame with
    | Error _ -> ()
    | Ok pkt -> (
        count_rx t frame;
        match pkt.Packet.l3 with
        | Packet.Arp arp -> (
            match arp.Arp.op with
            | Arp.Request -> (
                match ip t with
                | Some my_ip when Ip.equal arp.Arp.target_ip my_ip ->
                    let reply = Arp.reply_to arp ~responder_mac:t.cfg.mac in
                    send_packet t (Packet.arp_packet ~src_mac:t.cfg.mac reply)
                | _ -> ())
            | Arp.Reply -> (
                Hashtbl.replace t.arp_cache arp.Arp.sender_ip arp.Arp.sender_mac;
                match Hashtbl.find_opt t.arp_pending arp.Arp.sender_ip with
                | Some waiters ->
                    Hashtbl.remove t.arp_pending arp.Arp.sender_ip;
                    List.iter (fun k -> k arp.Arp.sender_mac) (List.rev !waiters)
                | None -> ()))
        | Packet.Ipv4 (_, Packet.Udp u) when u.Udp.dst_port = Dhcp_wire.client_port -> (
            match Dhcp_wire.decode u.Udp.payload with
            | Ok reply when reply.Dhcp_wire.op = Dhcp_wire.Bootreply -> handle_dhcp_reply t reply
            | Ok _ | Error _ -> ())
        | Packet.Ipv4 (_, Packet.Udp u) when u.Udp.src_port = 53 -> (
            match Dns_wire.decode u.Udp.payload with
            | Ok resp when resp.Dns_wire.is_response -> (
                match Hashtbl.find_opt t.dns_pending resp.Dns_wire.id with
                | Some k -> (
                    Hashtbl.remove t.dns_pending resp.Dns_wire.id;
                    let addr =
                      List.find_map
                        (fun (rr : Dns_wire.rr) ->
                          match rr.Dns_wire.rdata with
                          | Dns_wire.A_data ip -> Some ip
                          | _ -> None)
                        resp.Dns_wire.answers
                    in
                    (match addr, resp.Dns_wire.questions with
                    | Some a, { Dns_wire.qname; _ } :: _ ->
                        Hashtbl.replace t.dns_cache (Dns_wire.normalize_name qname) a
                    | _ -> ());
                    if addr = None then t.st.dns_failures <- t.st.dns_failures + 1;
                    k addr)
                | None -> ())
            | Ok _ | Error _ -> ())
        | Packet.Ipv4 (_, (Packet.Udp _ | Packet.Tcp _ | Packet.Icmp _ | Packet.Raw_l4 _)) -> ()
        | Packet.Raw_l3 _ -> ())
