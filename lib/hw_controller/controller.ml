open Hw_packet
open Hw_openflow

let log_src = Logs.Src.create "hw.controller" ~doc:"NOX-like controller core"

module Log = (val Logs.src_log log_src : Logs.LOG)

type conn = {
  id : int;
  send_bytes : string -> unit;
  framing : Ofp_message.Framing.buffer;
  mutable next_xid : int32;
  mutable features : Ofp_message.switch_features option;
  mutable alive : bool;
  mutable last_heard : float;
  (* per xid: the reader of each part of a stats reply, given the part's
     bytes; forgotten after the last part *)
  stats_waiters : (int32, string -> (unit, string) result) Hashtbl.t;
  barrier_waiters : (int32, unit -> unit) Hashtbl.t;
}

type packet_in_event = {
  conn : conn;
  pi : Ofp_message.packet_in;
  packet : Packet.t option Lazy.t;
  fields : Ofp_match.fields option;
}

type disposition = Continue | Stop

module Tracer = Hw_trace.Tracer

type packet_in_handler = {
  name : string;
  span : string; (* "ctrl.handler." ^ name, built at registration *)
  hist : Hw_metrics.Histogram.t Lazy.t;
  run : packet_in_event -> disposition;
}

type t = {
  now : unit -> float;
  metrics : Hw_metrics.Registry.t;
  trace : Tracer.t;
  mutable conns : conn list;
  mutable next_conn_id : int;
  mutable join_handlers : (string * (conn -> Ofp_message.switch_features -> unit)) list;
  mutable leave_handlers : (string * (conn -> unit)) list;
  mutable packet_in_handlers : packet_in_handler list;
  mutable flow_removed_handlers : (string * (conn -> Ofp_message.flow_removed -> unit)) list;
  mutable port_status_handlers :
    (string * (conn -> Ofp_message.port_status_reason -> Ofp_message.phy_port -> unit)) list;
  mutable packet_in_total : int;
  m_packet_in : Hw_metrics.Counter.t;
  m_flow_removed : Hw_metrics.Counter.t;
  m_port_status : Hw_metrics.Counter.t;
  m_join : Hw_metrics.Counter.t;
  m_leave : Hw_metrics.Counter.t;
  m_switch_errors : Hw_metrics.Counter.t;
  m_handler_errors : Hw_metrics.Counter.t;
  m_echo_timeouts : Hw_metrics.Counter.t;
}

let create ?(metrics = Hw_metrics.Registry.default) ?(trace = Tracer.disabled) ~now () =
  let counter name help = Hw_metrics.Registry.counter metrics name ~help in
  {
    now;
    metrics;
    trace;
    conns = [];
    next_conn_id = 1;
    join_handlers = [];
    leave_handlers = [];
    packet_in_handlers = [];
    flow_removed_handlers = [];
    port_status_handlers = [];
    packet_in_total = 0;
    m_packet_in = counter "ctrl_packet_in_total" "PACKET_IN events dispatched";
    m_flow_removed = counter "ctrl_flow_removed_total" "FLOW_REMOVED events dispatched";
    m_port_status = counter "ctrl_port_status_total" "PORT_STATUS events dispatched";
    m_join = counter "ctrl_datapath_join_total" "Datapath join events";
    m_leave = counter "ctrl_datapath_leave_total" "Datapath leave events";
    m_switch_errors = counter "ctrl_switch_errors_total" "OpenFlow error messages from switches";
    m_handler_errors = counter "ctrl_handler_errors_total" "Event handlers that raised";
    m_echo_timeouts =
      counter "echo_timeouts_total" "Connections declared dead after missed echo keepalives";
  }

let metrics t = t.metrics
let on_datapath_join t ~name f = t.join_handlers <- t.join_handlers @ [ (name, f) ]
let on_datapath_leave t ~name f = t.leave_handlers <- t.leave_handlers @ [ (name, f) ]

let on_packet_in t ~name f =
  (* The histogram is materialized on the first packet this handler
     sees: a fleet of mostly-idle routers must not pay one 40-bucket
     array per handler per instance up front. *)
  let hist =
    lazy
      (Hw_metrics.Registry.histogram t.metrics
         (Printf.sprintf "ctrl_handler_%s_seconds" (Hw_metrics.Registry.sanitize_name name))
         ~help:(Printf.sprintf "Latency of the %S packet-in handler" name))
  in
  t.packet_in_handlers <-
    t.packet_in_handlers @ [ { name; span = "ctrl.handler." ^ name; hist; run = f } ]

let on_flow_removed t ~name f =
  t.flow_removed_handlers <- t.flow_removed_handlers @ [ (name, f) ]

let on_port_status t ~name f = t.port_status_handlers <- t.port_status_handlers @ [ (name, f) ]

let handler_names t =
  List.map (fun h -> h.name) t.packet_in_handlers @ List.map fst t.join_handlers
  |> List.sort_uniq compare

let packet_in_total t = t.packet_in_total

let attach_switch t ~send =
  let conn =
    {
      id = t.next_conn_id;
      send_bytes = send;
      framing = Ofp_message.Framing.create ();
      next_xid = 1l;
      features = None;
      alive = true;
      last_heard = t.now ();
      stats_waiters = Hashtbl.create 8;
      barrier_waiters = Hashtbl.create 8;
    }
  in
  t.next_conn_id <- t.next_conn_id + 1;
  t.conns <- t.conns @ [ conn ];
  conn

let conn_dpid conn = Option.map (fun f -> f.Ofp_message.datapath_id) conn.features
let conn_features conn = conn.features
let connections t = List.filter (fun c -> c.alive) t.conns

let alloc_xid conn =
  let xid = conn.next_xid in
  conn.next_xid <- Int32.add conn.next_xid 1l;
  xid

let send_message conn msg =
  let xid = alloc_xid conn in
  conn.send_bytes (Ofp_message.encode ~xid msg);
  xid

let send_flow_mod conn fm = ignore (send_message conn (Ofp_message.Flow_mod fm))
let send_packet_out conn po = ignore (send_message conn (Ofp_message.Packet_out po))

let install_flow ?(idle_timeout = 0) ?(hard_timeout = 0) ?(priority = 0x8000) ?(cookie = 0L)
    ?buffer_id ?(send_flow_rem = false) conn m actions =
  send_flow_mod conn
    (Ofp_message.add_flow ~cookie ~idle_timeout ~hard_timeout ~priority ?buffer_id
       ~send_flow_rem m actions)

let send_packet conn ?in_port data actions =
  send_packet_out conn (Ofp_message.packet_out ?in_port ~data actions)

(* the waiter must be registered before the bytes go out: the in-process
   switch replies synchronously *)
let await_stats conn req read =
  let xid = alloc_xid conn in
  Hashtbl.replace conn.stats_waiters xid read;
  conn.send_bytes (Ofp_message.encode ~xid (Ofp_message.Stats_request req))

(* a long reply arrives in parts; the callback runs once, on the last *)
let request_stats conn req callback =
  let parts = ref [] in
  await_stats conn req (fun part ->
      match Ofp_message.decode part with
      | Ok (_, Ofp_message.Stats_reply { more; reply }) ->
          parts := reply :: !parts;
          if not more then callback (Ofp_message.join_stats_reply_parts (List.rev !parts));
          Ok ()
      | Ok (_, msg) -> Error ("stats waiter got " ^ Ofp_message.type_name msg)
      | Error err -> Error err)

let request_flow_stats conn on_part =
  await_stats conn
    (Ofp_message.Flow_stats_request
       { sr_match = Ofp_match.wildcard_all; table_id = 0xff; sr_out_port = Ofp_action.Port.none })
    (fun part ->
      match Ofp_message.Flow_stats_part.validate part with
      | Ok () ->
          on_part part;
          Ok ()
      | Error _ as e -> e)

let barrier conn callback =
  let xid = alloc_xid conn in
  Hashtbl.replace conn.barrier_waiters xid callback;
  conn.send_bytes (Ofp_message.encode ~xid Ofp_message.Barrier_request)

let detach_switch t conn =
  if conn.alive then begin
    conn.alive <- false;
    t.conns <- List.filter (fun c -> c.id <> conn.id) t.conns;
    Hw_metrics.Counter.incr t.m_leave;
    List.iter (fun (name, f) -> try f conn with exn ->
        Hw_metrics.Counter.incr t.m_handler_errors;
        Log.err (fun m -> m "leave handler %s raised %s" name (Printexc.to_string exn)))
      t.leave_handlers
  end

let dispatch_packet_in t conn (pi : Ofp_message.packet_in) =
  t.packet_in_total <- t.packet_in_total + 1;
  Hw_metrics.Counter.incr t.m_packet_in;
  (* the fields come from the bytes in place, as the datapath reads
     them; the full decode waits until a handler needs more than the
     fields (it is [None] exactly when the fields are) *)
  let data = pi.Ofp_message.data in
  let fields = Ofp_match.fields_of_frame ~in_port:pi.Ofp_message.in_port data in
  let packet =
    match fields with
    | None -> Lazy.from_val None
    | Some _ -> lazy (Result.to_option (Packet.decode data))
  in
  let ev = { conn; pi; packet; fields } in
  let rec run = function
    | [] -> ()
    | h :: rest -> (
        let invoke () =
          Hw_metrics.Histogram.observe_span (Lazy.force h.hist) ~now:t.now (fun () -> h.run ev)
        in
        match Tracer.with_span t.trace h.span invoke with
        | Stop -> if Tracer.in_trace t.trace then Tracer.set_attr t.trace "stopped_by" (Tracer.Str h.name)
        | Continue -> run rest
        | exception exn ->
            Hw_metrics.Counter.incr t.m_handler_errors;
            Log.err (fun m -> m "packet-in handler %s raised %s" h.name (Printexc.to_string exn));
            run rest)
  in
  (* Roots a trace when the packet-in arrived without one (a foreign
     event source); nests as a child span under the datapath's
     dp.packet_in root otherwise. *)
  Tracer.with_trace t.trace "ctrl.dispatch" (fun () ->
      if Tracer.in_trace t.trace then begin
        Tracer.set_attr t.trace "conn" (Tracer.Int conn.id);
        Tracer.set_attr t.trace "in_port" (Tracer.Int pi.Ofp_message.in_port);
        Tracer.set_attr t.trace "total_len" (Tracer.Int pi.Ofp_message.total_len)
      end;
      run t.packet_in_handlers)

let handle_message t conn xid msg =
  match msg with
  | Ofp_message.Hello ->
      (* NOX replies with its own HELLO then drives the feature handshake. *)
      conn.send_bytes (Ofp_message.encode ~xid:0l Ofp_message.Hello);
      ignore (send_message conn Ofp_message.Features_request)
  | Ofp_message.Echo_request data ->
      conn.send_bytes (Ofp_message.encode ~xid (Ofp_message.Echo_reply data))
  | Ofp_message.Echo_reply _ -> ()
  | Ofp_message.Features_reply features ->
      conn.features <- Some features;
      Hw_metrics.Counter.incr t.m_join;
      ignore
        (send_message conn (Ofp_message.Set_config { flags = 0; miss_send_len = 0xffff }));
      List.iter
        (fun (name, f) ->
          try f conn features
          with exn ->
            Hw_metrics.Counter.incr t.m_handler_errors;
            Log.err (fun m -> m "join handler %s raised %s" name (Printexc.to_string exn)))
        t.join_handlers
  | Ofp_message.Packet_in pi -> dispatch_packet_in t conn pi
  | Ofp_message.Flow_removed fr ->
      Hw_metrics.Counter.incr t.m_flow_removed;
      List.iter (fun (_, f) -> f conn fr) t.flow_removed_handlers
  | Ofp_message.Port_status (reason, port) ->
      Hw_metrics.Counter.incr t.m_port_status;
      List.iter (fun (_, f) -> f conn reason port) t.port_status_handlers
  | Ofp_message.Stats_reply _ ->
      (* a reply with a waiter went to it undecoded ([handle_frame]) *)
      Log.debug (fun m -> m "unsolicited stats reply xid=%ld" xid)
  | Ofp_message.Barrier_reply -> (
      match Hashtbl.find_opt conn.barrier_waiters xid with
      | Some callback ->
          Hashtbl.remove conn.barrier_waiters xid;
          callback ()
      | None -> ())
  | Ofp_message.Error_msg e ->
      Hw_metrics.Counter.incr t.m_switch_errors;
      Log.warn (fun m ->
          m "switch error type=%d code=%d" (match e.Ofp_message.err_type with
            | Ofp_message.Hello_failed -> 0
            | Ofp_message.Bad_request -> 1
            | Ofp_message.Bad_action -> 2
            | Ofp_message.Flow_mod_failed -> 3
            | Ofp_message.Port_mod_failed -> 4
            | Ofp_message.Queue_op_failed -> 5)
            e.Ofp_message.err_code)
  | Ofp_message.Get_config_reply _ -> ()
  | Ofp_message.Features_request | Ofp_message.Get_config_request | Ofp_message.Set_config _
  | Ofp_message.Packet_out _ | Ofp_message.Flow_mod _ | Ofp_message.Port_mod _
  | Ofp_message.Stats_request _ | Ofp_message.Barrier_request ->
      Log.warn (fun m -> m "switch sent controller-bound message %s" (Ofp_message.type_name msg))

let send_echo conn = ignore (send_message conn (Ofp_message.Echo_request "hw-keepalive"))

let set_port_admin conn ~port_no ~hw_addr ~up =
  ignore
    (send_message conn
       (Ofp_message.Port_mod
          {
            Ofp_message.pm_port_no = port_no;
            pm_hw_addr = hw_addr;
            pm_config = (if up then 0l else Ofp_message.port_down_bit);
            pm_mask = Ofp_message.port_down_bit;
            pm_advertise = 0l;
          }))

let conn_last_heard conn = conn.last_heard

let ping_stale t ~idle_after ~dead_after =
  let now = t.now () in
  let dead =
    List.filter (fun conn -> now -. conn.last_heard > dead_after) (connections t)
  in
  List.iter
    (fun conn ->
      Hw_metrics.Counter.incr t.m_echo_timeouts;
      detach_switch t conn)
    dead;
  List.iter
    (fun conn -> if now -. conn.last_heard > idle_after then send_echo conn)
    (connections t);
  List.length dead

let bad_frame t conn err =
  Log.err (fun m -> m "bad frame from switch: %s" err);
  detach_switch t conn

(* A stats-reply part with a waiter goes to it as bytes, to validate or
   decode as it needs; any other frame is decoded and dispatched. *)
let handle_frame t conn frame =
  let read =
    if Ofp_message.Stats_part.is_reply frame then
      Hashtbl.find_opt conn.stats_waiters (Ofp_message.Stats_part.xid frame)
    else None
  in
  match read with
  | Some read -> (
      if not (Ofp_message.Stats_part.more frame) then
        Hashtbl.remove conn.stats_waiters (Ofp_message.Stats_part.xid frame);
      match read frame with Ok () -> () | Error err -> bad_frame t conn err)
  | None -> (
      match Ofp_message.decode frame with
      | Ok (xid, msg) -> handle_message t conn xid msg
      | Error err -> bad_frame t conn err)

(* frames are handled in arrival order, including those a handler's own
   round trip appends to the buffer *)
let rec drain t conn =
  match Ofp_message.Framing.pop_frame conn.framing with
  | None -> ()
  | Some (Ok frame) ->
      handle_frame t conn frame;
      drain t conn
  | Some (Error err) -> bad_frame t conn err

let input t conn bytes =
  conn.last_heard <- t.now ();
  Ofp_message.Framing.input conn.framing bytes;
  drain t conn
