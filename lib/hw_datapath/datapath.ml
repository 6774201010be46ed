open Hw_packet
open Hw_openflow

let src = Logs.Src.create "hw.datapath" ~doc:"OpenFlow software datapath"

module Log = (val Logs.src_log src : Logs.LOG)

type port_config = { port_no : int; name : string; mac : Mac.t }

type port_counters = {
  mutable rx_packets : int64;
  mutable tx_packets : int64;
  mutable rx_bytes : int64;
  mutable tx_bytes : int64;
  mutable rx_dropped : int64;
  mutable tx_dropped : int64;
}

type port = { config : port_config; counters : port_counters; mutable up : bool }

module Tracer = Hw_trace.Tracer

type t = {
  dpid : int64;
  trace : Tracer.t;
  ports : (int, port) Hashtbl.t;
  table : Flow_table.t;
  transmit : port_no:int -> string -> unit;
  to_controller : string -> unit;
  now : unit -> float;
  mutable framing : Ofp_message.Framing.buffer;
  buffers : (int32, int * string) Hashtbl.t; (* buffer_id -> in_port, frame *)
  buffer_fifo : int32 Queue.t; (* insertion order, for oldest-first eviction *)
  mutable next_buffer_id : int32;
  mutable next_xid : int32;
  mutable miss_send_len : int;
  mac_learning : (Mac.t, int) Hashtbl.t; (* for OFPP_NORMAL *)
  mutable packet_ins : int;
  m_rx_frames : Hw_metrics.Counter.t;
  m_lookups : Hw_metrics.Counter.t;
  m_misses : Hw_metrics.Counter.t;
  m_packet_ins : Hw_metrics.Counter.t;
  m_buffer_evictions : Hw_metrics.Counter.t;
  (* lazy: fleet routers that never forward a frame skip the histogram *)
  m_lookup_span : Hw_metrics.Sampled.t Lazy.t;
}

let stats_description =
  {
    Ofp_message.mfr_desc = "Homework project (reproduction)";
    hw_desc = "Simulated home router, small form-factor PC";
    sw_desc = "hw_datapath (Open vSwitch stand-in), OpenFlow 1.0";
    serial_num = "HW-0001";
    dp_desc = "bridge dp0";
  }

let create ?(metrics = Hw_metrics.Registry.default) ?(trace = Tracer.disabled) ~dpid ~ports
    ~transmit ~to_controller ~now () =
  let counter name help = Hw_metrics.Registry.counter metrics name ~help in
  let t =
    {
      dpid;
      trace;
      ports = Hashtbl.create 8;
      table = Flow_table.create ();
      transmit;
      to_controller;
      now;
      framing = Ofp_message.Framing.create ();
      buffers = Hashtbl.create 64;
      buffer_fifo = Queue.create ();
      next_buffer_id = 1l;
      next_xid = 1l;
      miss_send_len = 128;
      mac_learning = Hashtbl.create 64;
      packet_ins = 0;
      m_rx_frames = counter "dp_rx_frames_total" "Frames received on datapath ports";
      m_lookups = counter "dp_flow_lookups_total" "Flow-table lookups";
      m_misses = counter "dp_flow_misses_total" "Flow-table misses (sent to controller)";
      m_packet_ins = counter "dp_packet_ins_total" "PACKET_IN messages sent to the controller";
      m_buffer_evictions =
        counter "dp_buffer_evictions_total"
          "Buffered miss frames evicted oldest-first before the controller consumed them";
      m_lookup_span =
        lazy
          (Hw_metrics.Registry.sampled_histogram metrics ~every:16 "dp_flow_lookup_seconds"
             ~help:"Flow-table lookup latency (1-in-16 sampled)");
    }
  in
  List.iter
    (fun config ->
      Hashtbl.replace t.ports config.port_no
        {
          config;
          counters =
            {
              rx_packets = 0L;
              tx_packets = 0L;
              rx_bytes = 0L;
              tx_bytes = 0L;
              rx_dropped = 0L;
              tx_dropped = 0L;
            };
          up = true;
        })
    ports;
  t

let dpid t = t.dpid
let flow_table t = t.table
let packet_in_count t = t.packet_ins

let port_counters t port_no =
  Option.map (fun p -> p.counters) (Hashtbl.find_opt t.ports port_no)

let ports t =
  Hashtbl.fold (fun _ p acc -> p.config :: acc) t.ports []
  |> List.sort (fun a b -> compare a.port_no b.port_no)

let send t msg =
  let xid = t.next_xid in
  t.next_xid <- Int32.add t.next_xid 1l;
  t.to_controller (Ofp_message.encode ~xid msg)

let send_with_xid t xid msg = t.to_controller (Ofp_message.encode ~xid msg)

let connect t = send t Ofp_message.Hello

(* A framing buffer that saw garbage (e.g. an injected corruption) is
   permanently dead by design; a reconnect must start from a fresh one
   or the revived channel stays deaf. *)
let reset_channel t = t.framing <- Ofp_message.Framing.create ()

(* ------------------------------------------------------------------ *)
(* Frame output                                                        *)
(* ------------------------------------------------------------------ *)

let transmit_on_port t port_no frame =
  match Hashtbl.find_opt t.ports port_no with
  | Some p when p.up ->
      p.counters.tx_packets <- Int64.add p.counters.tx_packets 1L;
      p.counters.tx_bytes <- Int64.add p.counters.tx_bytes (Int64.of_int (String.length frame));
      t.transmit ~port_no frame
  | Some p -> p.counters.tx_dropped <- Int64.add p.counters.tx_dropped 1L
  | None -> ()

let flood t ~in_port frame =
  Hashtbl.iter
    (fun port_no p -> if port_no <> in_port && p.up then transmit_on_port t port_no frame)
    t.ports

let send_packet_in t ~in_port ~reason ~buffer_id frame =
  let data =
    match buffer_id with
    | Some _ when String.length frame > t.miss_send_len -> String.sub frame 0 t.miss_send_len
    | _ -> frame
  in
  t.packet_ins <- t.packet_ins + 1;
  Hw_metrics.Counter.incr t.m_packet_ins;
  send t
    (Ofp_message.Packet_in
       { buffer_id; total_len = String.length frame; in_port; reason; data })

let normal_switching t ~in_port pkt frame =
  (* OFPP_NORMAL: traditional L2 learning switch. *)
  let dst = pkt.Packet.eth.Ethernet.dst in
  Hashtbl.replace t.mac_learning pkt.Packet.eth.Ethernet.src in_port;
  if Mac.is_broadcast dst || Mac.is_multicast dst then flood t ~in_port frame
  else
    match Hashtbl.find_opt t.mac_learning dst with
    | Some port_no when port_no <> in_port -> transmit_on_port t port_no frame
    | Some _ -> ()
    | None -> flood t ~in_port frame

let output t ~in_port ~port ~max_len frame =
  if port = Ofp_action.Port.controller then begin
    let data =
      if max_len > 0 && String.length frame > max_len then String.sub frame 0 max_len else frame
    in
    t.packet_ins <- t.packet_ins + 1;
    Hw_metrics.Counter.incr t.m_packet_ins;
    send t
      (Ofp_message.Packet_in
         {
           buffer_id = None;
           total_len = String.length frame;
           in_port;
           reason = Ofp_message.Action;
           data;
         })
  end
  else if port = Ofp_action.Port.flood || port = Ofp_action.Port.all then flood t ~in_port frame
  else if port = Ofp_action.Port.in_port then transmit_on_port t in_port frame
  else if port = Ofp_action.Port.none || port = Ofp_action.Port.local then ()
  else if port = in_port then () (* OF 1.0: must use OFPP_IN_PORT *)
  else transmit_on_port t port frame

(* A header-rewrite action applied to the parsed packet. *)
let rewrite action (p : Packet.t) =
  let ip f =
    match p.Packet.l3 with
    | Packet.Ipv4 (h, l4) -> { p with Packet.l3 = Packet.Ipv4 (f h, l4) }
    | Packet.Arp _ | Packet.Raw_l3 _ -> p
  in
  let l4 f =
    match p.Packet.l3 with
    | Packet.Ipv4 (h, l4) -> { p with Packet.l3 = Packet.Ipv4 (h, f l4) }
    | Packet.Arp _ | Packet.Raw_l3 _ -> p
  in
  match action with
  | Ofp_action.Set_dl_src mac -> { p with Packet.eth = { p.Packet.eth with Ethernet.src = mac } }
  | Ofp_action.Set_dl_dst mac -> { p with Packet.eth = { p.Packet.eth with Ethernet.dst = mac } }
  | Ofp_action.Set_nw_src a -> ip (fun h -> { h with Ipv4.src = a })
  | Ofp_action.Set_nw_dst a -> ip (fun h -> { h with Ipv4.dst = a })
  | Ofp_action.Set_nw_tos tos -> ip (fun h -> { h with Ipv4.dscp = tos lsr 2 })
  | Ofp_action.Set_tp_src port ->
      l4 (function
        | Packet.Udp u -> Packet.Udp { u with Udp.src_port = port }
        | Packet.Tcp seg -> Packet.Tcp { seg with Tcp.src_port = port }
        | other -> other)
  | Ofp_action.Set_tp_dst port ->
      l4 (function
        | Packet.Udp u -> Packet.Udp { u with Udp.dst_port = port }
        | Packet.Tcp seg -> Packet.Tcp { seg with Tcp.dst_port = port }
        | other -> other)
  | Ofp_action.Output _ | Ofp_action.Enqueue _ | Ofp_action.Set_vlan_vid _
  | Ofp_action.Set_vlan_pcp _ | Ofp_action.Strip_vlan ->
      p

(* How far [apply_actions] has parsed the frame: not yet, not decodable,
   or decoded (and possibly rewritten since the last output). *)
type parsed = Unparsed | Undecodable | Parsed of Packet.t

(* [frame] is what the next output sends unless [dirty]: then the
   rewritten packet is re-encoded once, at that output. *)
let render frame parsed dirty =
  match parsed with Parsed p when dirty -> Packet.encode p | _ -> frame

(* [Unparsed] implies [not dirty], so [frame] is still the input *)
let parse frame = function
  | Unparsed -> ( match Packet.decode frame with Ok p -> Parsed p | Error _ -> Undecodable)
  | (Undecodable | Parsed _) as parsed -> parsed

let rec apply t ~in_port frame parsed dirty = function
  | [] -> ()
  | action :: rest -> (
      match action with
      | Ofp_action.Output { port; _ } when port = Ofp_action.Port.normal ->
          let frame = render frame parsed dirty in
          let parsed = parse frame parsed in
          (match parsed with
          | Parsed p -> normal_switching t ~in_port p frame
          | Unparsed | Undecodable -> flood t ~in_port frame);
          apply t ~in_port frame parsed false rest
      | Ofp_action.Output { port; max_len } ->
          let frame = render frame parsed dirty in
          output t ~in_port ~port ~max_len frame;
          apply t ~in_port frame parsed false rest
      | Ofp_action.Enqueue { port; _ } ->
          let frame = render frame parsed dirty in
          transmit_on_port t port frame;
          apply t ~in_port frame parsed false rest
      | Ofp_action.Set_vlan_vid _ | Ofp_action.Set_vlan_pcp _ | Ofp_action.Strip_vlan ->
          (* The simulated home LAN is untagged; VLAN actions are accepted
             and ignored, as OVS does on untagged traffic for strip. *)
          apply t ~in_port frame parsed dirty rest
      | Ofp_action.Set_dl_src _ | Ofp_action.Set_dl_dst _ | Ofp_action.Set_nw_src _
      | Ofp_action.Set_nw_dst _ | Ofp_action.Set_nw_tos _ | Ofp_action.Set_tp_src _
      | Ofp_action.Set_tp_dst _ -> (
          match parse frame parsed with
          | Parsed p -> apply t ~in_port frame (Parsed (rewrite action p)) true rest
          | parsed -> apply t ~in_port frame parsed dirty rest))

(* Forwards [frame] as received. It is decoded at most once, on the first
   action that needs header records (a [Set_*] rewrite or OFPP_NORMAL), so
   output-only actions never parse it. *)
let apply_actions t ~in_port frame actions = apply t ~in_port frame Unparsed false actions

(* ------------------------------------------------------------------ *)
(* Dataplane input                                                     *)
(* ------------------------------------------------------------------ *)

let max_buffers = 1024

(* Buffer ids are 24-bit on the wire (0xffffffff is the reserved "no
   buffer" value); wrap at 0xffffff, skipping 0. *)
let next_buffer_id_after id = if Int32.equal id 0xffffffl then 1l else Int32.add id 1l

let buffer_frame t ~in_port frame =
  let id = t.next_buffer_id in
  t.next_buffer_id <- next_buffer_id_after id;
  (* At capacity, evict the single oldest live buffer instead of dropping
     them all. Ids already consumed by flow-mod/packet-out stay in the
     FIFO as stale markers and are drained for free as they surface. *)
  while Hashtbl.length t.buffers >= max_buffers do
    match Queue.take_opt t.buffer_fifo with
    | None -> Hashtbl.reset t.buffers (* unreachable: every live id is queued *)
    | Some old ->
        if Hashtbl.mem t.buffers old then begin
          Hashtbl.remove t.buffers old;
          Hw_metrics.Counter.incr t.m_buffer_evictions
        end
  done;
  Hashtbl.replace t.buffers id (in_port, frame);
  Queue.push id t.buffer_fifo;
  id

let buffered_count t = Hashtbl.length t.buffers

(* Root-span attributes: dpid, rx port and as much of the five-tuple as
   the frame carries, built as one list. Only computed on the (already
   slow) miss path, and only when tracing is enabled; addresses stay
   typed until a kept trace is exported. *)
let trace_attrs t (f : Ofp_match.fields) =
  if not (Tracer.enabled t.trace) then []
  else
    let l3 =
      if f.Ofp_match.f_dl_type = Ethernet.ethertype_arp then [ ("l3", Tracer.Str "arp") ]
      else if f.Ofp_match.f_dl_type <> Ethernet.ethertype_ipv4 then []
      else
        let proto = f.Ofp_match.f_nw_proto in
        ("nw_src", Tracer.Ip f.Ofp_match.f_nw_src)
        :: ("nw_dst", Tracer.Ip f.Ofp_match.f_nw_dst)
        :: ("nw_proto", Tracer.Int proto)
        ::
        (if proto = Ipv4.proto_udp || proto = Ipv4.proto_tcp then
           [ ("tp_src", Tracer.Int f.Ofp_match.f_tp_src); ("tp_dst", Tracer.Int f.Ofp_match.f_tp_dst) ]
         else [])
    in
    ("dpid", Tracer.Int (Int64.to_int t.dpid))
    :: ("in_port", Tracer.Int f.Ofp_match.f_in_port)
    :: ("eth_src", Tracer.Mac f.Ofp_match.f_dl_src)
    :: ("eth_dst", Tracer.Mac f.Ofp_match.f_dl_dst)
    :: l3

(* Batched-input accumulator: registry counters are bumped once per batch
   (in [flush_rx_stats]) rather than once per frame, so the per-frame hot
   path touches only plain ints. *)
type rx_stats = { mutable s_rx : int; mutable s_lookups : int; mutable s_misses : int }

let flush_rx_stats t s =
  if s.s_rx > 0 then Hw_metrics.Counter.add t.m_rx_frames s.s_rx;
  if s.s_lookups > 0 then Hw_metrics.Counter.add t.m_lookups s.s_lookups;
  if s.s_misses > 0 then Hw_metrics.Counter.add t.m_misses s.s_misses

let process_frame t stats ~in_port frame =
  match Hashtbl.find_opt t.ports in_port with
  | None -> Log.warn (fun m -> m "frame on unknown port %d" in_port)
  | Some p when not p.up ->
      p.counters.rx_dropped <- Int64.add p.counters.rx_dropped 1L
  | Some p -> (
      p.counters.rx_packets <- Int64.add p.counters.rx_packets 1L;
      p.counters.rx_bytes <- Int64.add p.counters.rx_bytes (Int64.of_int (String.length frame));
      stats.s_rx <- stats.s_rx + 1;
      match Ofp_match.fields_of_frame ~in_port frame with
      | None ->
          Log.debug (fun m -> m "undecodable frame on port %d" in_port);
          p.counters.rx_dropped <- Int64.add p.counters.rx_dropped 1L
      | Some fields -> (
          stats.s_lookups <- stats.s_lookups + 1;
          (* per-frame path: branch on [due] to keep the unsampled
             lookups closure- and clock-free *)
          let hit =
            let span = Lazy.force t.m_lookup_span in
            if Hw_metrics.Sampled.due span then begin
              let t0 = t.now () in
              let hit = Flow_table.lookup t.table fields in
              Hw_metrics.Histogram.observe (Hw_metrics.Sampled.histogram span) (t.now () -. t0);
              hit
            end
            else Flow_table.lookup t.table fields
          in
          match hit with
          | Some entry ->
              Flow_entry.touch entry ~now:(t.now ()) ~bytes:(String.length frame);
              apply_actions t ~in_port frame entry.Flow_entry.actions
          | None ->
              stats.s_misses <- stats.s_misses + 1;
              (* A miss is where a packet's controller lifecycle begins:
                 root the trace here so the synchronous packet-in ->
                 dispatch -> handler -> hwdb chain nests under it. The
                 hit path above never touches the tracer. *)
              Tracer.with_trace t.trace "dp.packet_in"
                ~attrs:(trace_attrs t fields)
                (fun () ->
                  let buffer_id = buffer_frame t ~in_port frame in
                  send_packet_in t ~in_port ~reason:Ofp_message.No_match
                    ~buffer_id:(Some buffer_id) frame)))

let receive_frame t ~in_port frame =
  let stats = { s_rx = 0; s_lookups = 0; s_misses = 0 } in
  process_frame t stats ~in_port frame;
  flush_rx_stats t stats

let receive_frames t frames =
  let stats = { s_rx = 0; s_lookups = 0; s_misses = 0 } in
  List.iter (fun (in_port, frame) -> process_frame t stats ~in_port frame) frames;
  flush_rx_stats t stats

(* ------------------------------------------------------------------ *)
(* Controller input                                                    *)
(* ------------------------------------------------------------------ *)

let flow_mod_error t xid code data =
  send_with_xid t xid
    (Ofp_message.Error_msg
       { Ofp_message.err_type = Ofp_message.Flow_mod_failed; err_code = code; err_data = data })

(* A failed ADD never applies the named buffer, so drop it here — otherwise
   the frame sits in [t.buffers] until eviction crowds it out. *)
let release_buffer t = function
  | Some bid -> Hashtbl.remove t.buffers bid
  | None -> ()

let rec handle_flow_mod t xid (fm : Ofp_message.flow_mod) =
  let now = t.now () in
  match fm.Ofp_message.command with
  | Ofp_message.Add -> (
      let entry =
        Flow_entry.create ~cookie:fm.Ofp_message.cookie
          ~idle_timeout:fm.Ofp_message.idle_timeout ~hard_timeout:fm.Ofp_message.hard_timeout
          ~send_flow_rem:fm.Ofp_message.send_flow_rem ~now ~priority:fm.Ofp_message.priority
          fm.Ofp_message.fm_match fm.Ofp_message.actions
      in
      try
        Flow_table.add t.table ~now ~check_overlap:fm.Ofp_message.check_overlap entry;
        (* Apply to the buffered packet, if any. *)
        match fm.Ofp_message.fm_buffer_id with
        | Some bid -> (
            match Hashtbl.find_opt t.buffers bid with
            | Some (in_port, frame) ->
                Hashtbl.remove t.buffers bid;
                Flow_entry.touch entry ~now ~bytes:(String.length frame);
                apply_actions t ~in_port frame fm.Ofp_message.actions
            | None -> ())
        | None -> ()
      with
      | Flow_table.Table_full ->
          release_buffer t fm.Ofp_message.fm_buffer_id;
          flow_mod_error t xid 0 "" (* OFPFMFC_ALL_TABLES_FULL *)
      | Flow_table.Overlap ->
          release_buffer t fm.Ofp_message.fm_buffer_id;
          flow_mod_error t xid 1 "" (* OFPFMFC_OVERLAP *))
  | Ofp_message.Modify | Ofp_message.Modify_strict ->
      let strict = fm.Ofp_message.command = Ofp_message.Modify_strict in
      let updated =
        Flow_table.modify t.table ~strict ~m:fm.Ofp_message.fm_match
          ~priority:fm.Ofp_message.priority fm.Ofp_message.actions
      in
      (* OF 1.0: MODIFY with no match behaves like ADD. *)
      if updated = 0 then
        handle_flow_mod t xid { fm with Ofp_message.command = Ofp_message.Add }
  | Ofp_message.Delete | Ofp_message.Delete_strict ->
      let strict = fm.Ofp_message.command = Ofp_message.Delete_strict in
      let removed =
        Flow_table.delete t.table ~strict ~m:fm.Ofp_message.fm_match
          ~priority:fm.Ofp_message.priority ~out_port:fm.Ofp_message.out_port
      in
      List.iter
        (fun (e : Flow_entry.t) ->
          if e.Flow_entry.send_flow_rem then begin
            let duration_sec, duration_nsec = Flow_entry.duration e ~now in
            send t
              (Ofp_message.Flow_removed
                 {
                   Ofp_message.fr_match = e.Flow_entry.entry_match;
                   fr_cookie = e.Flow_entry.cookie;
                   fr_priority = e.Flow_entry.priority;
                   fr_reason = Ofp_message.Removed_delete;
                   duration_sec;
                   duration_nsec;
                   fr_idle_timeout = e.Flow_entry.idle_timeout;
                   packet_count = e.Flow_entry.packet_count;
                   byte_count = e.Flow_entry.byte_count;
                 })
          end)
        removed

let phy_port_of (p : port) =
  let base =
    Ofp_message.phy_port ~port_no:p.config.port_no ~hw_addr:p.config.mac ~name:p.config.name
  in
  { base with Ofp_message.state = (if p.up then 0l else 1l) }

(* one entry of a flow-stats reply, written from the table entry itself *)
let write_flow_stats ~now w (e : Flow_entry.t) =
  Ofp_message.write_flow_stats_entry w ~table_id:0 ~duration_sec:(Flow_entry.duration_sec e ~now)
    ~duration_nsec:(Flow_entry.duration_nsec e ~now) ~priority:e.Flow_entry.priority
    ~idle_timeout:e.Flow_entry.idle_timeout ~hard_timeout:e.Flow_entry.hard_timeout
    ~cookie:e.Flow_entry.cookie ~packet_count:e.Flow_entry.packet_count
    ~byte_count:e.Flow_entry.byte_count e.Flow_entry.entry_match e.Flow_entry.actions

let handle_stats_request t xid req =
  let send_reply reply = List.iter (send_with_xid t xid) (Ofp_message.stats_reply_parts reply) in
  match req with
  | Ofp_message.Desc_request -> send_reply (Ofp_message.Desc_reply stats_description)
  | Ofp_message.Flow_stats_request { sr_match; sr_out_port; _ } ->
      (* written straight from the table entries, in the table's priority
         order, with no record per entry; the measurement poll asks for
         every flow, which needs no filtering *)
      let entries = Flow_table.entries t.table in
      let entries =
        if Ofp_match.equal sr_match Ofp_match.wildcard_all && sr_out_port = Ofp_action.Port.none
        then entries
        else
          List.filter
            (fun (e : Flow_entry.t) ->
              Ofp_match.subsumes ~general:sr_match ~specific:e.Flow_entry.entry_match
              && (sr_out_port = Ofp_action.Port.none
                 || List.exists
                      (function Ofp_action.Output { port; _ } -> port = sr_out_port | _ -> false)
                      e.Flow_entry.actions))
            entries
      in
      List.iter t.to_controller
        (Ofp_message.encode_flow_stats_reply ~xid
           ~actions:(fun (e : Flow_entry.t) -> e.Flow_entry.actions)
           ~write:(write_flow_stats ~now:(t.now ()))
           entries)
  | Ofp_message.Aggregate_request { sr_match; _ } ->
      let entries =
        Flow_table.entries t.table
        |> List.filter (fun (e : Flow_entry.t) ->
               Ofp_match.subsumes ~general:sr_match ~specific:e.Flow_entry.entry_match)
      in
      send_reply
        (Ofp_message.Aggregate_reply
           {
             Ofp_message.ag_packet_count =
               List.fold_left
                 (fun acc (e : Flow_entry.t) -> Int64.add acc e.Flow_entry.packet_count)
                 0L entries;
             ag_byte_count =
               List.fold_left
                 (fun acc (e : Flow_entry.t) -> Int64.add acc e.Flow_entry.byte_count)
                 0L entries;
             ag_flow_count = Int32.of_int (List.length entries);
           })
  | Ofp_message.Table_stats_request ->
      send_reply
        (Ofp_message.Table_stats_reply
           [
             {
               Ofp_message.ts_table_id = 0;
               ts_name = "dp0";
               ts_wildcards = 0x3fffffl;
               ts_max_entries = Int32.of_int (Flow_table.max_entries t.table);
               ts_active_count = Int32.of_int (Flow_table.length t.table);
               ts_lookup_count = Flow_table.lookup_count t.table;
               ts_matched_count = Flow_table.matched_count t.table;
             };
           ])
  | Ofp_message.Port_stats_request port_no ->
      let selected =
        Hashtbl.fold
          (fun no p acc -> if port_no = Ofp_action.Port.none || no = port_no then p :: acc else acc)
          t.ports []
      in
      send_reply
        (Ofp_message.Port_stats_reply
           (List.map
              (fun p ->
                {
                  Ofp_message.ps_port_no = p.config.port_no;
                  rx_packets = p.counters.rx_packets;
                  tx_packets = p.counters.tx_packets;
                  rx_bytes = p.counters.rx_bytes;
                  tx_bytes = p.counters.tx_bytes;
                  rx_dropped = p.counters.rx_dropped;
                  tx_dropped = p.counters.tx_dropped;
                  rx_errors = 0L;
                  tx_errors = 0L;
                })
              (List.sort (fun a b -> compare a.config.port_no b.config.port_no) selected)))

let handle_packet_out t xid po =
  let frame =
    match po.Ofp_message.po_buffer_id with
    | Some bid -> (
        match Hashtbl.find_opt t.buffers bid with
        | Some (_, frame) ->
            Hashtbl.remove t.buffers bid;
            Some frame
        | None -> None)
    | None -> Some po.Ofp_message.po_data
  in
  match frame with
  | None ->
      send_with_xid t xid
        (Ofp_message.Error_msg
           {
             Ofp_message.err_type = Ofp_message.Bad_request;
             err_code = 8 (* OFPBRC_BUFFER_UNKNOWN *);
             err_data = "";
           })
  | Some frame -> apply_actions t ~in_port:po.Ofp_message.po_in_port frame po.Ofp_message.po_actions

let handle_message t xid msg =
  match msg with
  | Ofp_message.Hello -> ()
  | Ofp_message.Echo_request data -> send_with_xid t xid (Ofp_message.Echo_reply data)
  | Ofp_message.Echo_reply _ -> ()
  | Ofp_message.Features_request ->
      let ports = Hashtbl.fold (fun _ p acc -> phy_port_of p :: acc) t.ports [] in
      let ports =
        List.sort (fun a b -> compare a.Ofp_message.port_no b.Ofp_message.port_no) ports
      in
      send_with_xid t xid
        (Ofp_message.Features_reply
           {
             Ofp_message.datapath_id = t.dpid;
             n_buffers = 256l;
             n_tables = 1;
             capabilities = 0x000000c7l (* flow, table, port stats; arp match ip *);
             supported_actions = 0xfffl;
             ports;
           })
  | Ofp_message.Get_config_request ->
      send_with_xid t xid
        (Ofp_message.Get_config_reply { flags = 0; miss_send_len = t.miss_send_len })
  | Ofp_message.Set_config { miss_send_len; _ } -> t.miss_send_len <- miss_send_len
  | Ofp_message.Packet_out po ->
      Tracer.with_span t.trace "dp.packet_out" (fun () -> handle_packet_out t xid po)
  | Ofp_message.Flow_mod fm ->
      Tracer.with_span t.trace "dp.flow_mod" (fun () ->
          if Tracer.in_trace t.trace then begin
            Tracer.set_attr t.trace "command"
              (Tracer.Str
                 (match fm.Ofp_message.command with
                 | Ofp_message.Add -> "add"
                 | Ofp_message.Modify -> "modify"
                 | Ofp_message.Modify_strict -> "modify_strict"
                 | Ofp_message.Delete -> "delete"
                 | Ofp_message.Delete_strict -> "delete_strict"));
            Tracer.set_attr t.trace "priority" (Tracer.Int fm.Ofp_message.priority)
          end;
          handle_flow_mod t xid fm)
  | Ofp_message.Port_mod pm -> (
      match Hashtbl.find_opt t.ports pm.Ofp_message.pm_port_no with
      | None ->
          send_with_xid t xid
            (Ofp_message.Error_msg
               {
                 Ofp_message.err_type = Ofp_message.Port_mod_failed;
                 err_code = 0 (* OFPPMFC_BAD_PORT *);
                 err_data = "";
               })
      | Some p ->
          if Int32.logand pm.Ofp_message.pm_mask Ofp_message.port_down_bit <> 0l then begin
            p.up <-
              Int32.logand pm.Ofp_message.pm_config Ofp_message.port_down_bit = 0l;
            send t (Ofp_message.Port_status (Ofp_message.Port_modify, phy_port_of p))
          end)
  | Ofp_message.Stats_request req -> handle_stats_request t xid req
  | Ofp_message.Barrier_request -> send_with_xid t xid Ofp_message.Barrier_reply
  | Ofp_message.Error_msg e ->
      Log.warn (fun m -> m "error from controller: code=%d" e.Ofp_message.err_code)
  | Ofp_message.Features_reply _ | Ofp_message.Get_config_reply _ | Ofp_message.Packet_in _
  | Ofp_message.Flow_removed _ | Ofp_message.Port_status _ | Ofp_message.Stats_reply _
  | Ofp_message.Barrier_reply ->
      Log.warn (fun m -> m "unexpected controller-bound message %s" (Ofp_message.type_name msg))

(* one frame at a time, in arrival order, including frames a nested
   input appends while one is being handled *)
let rec drain t =
  match Ofp_message.Framing.pop_frame t.framing with
  | None -> ()
  | Some (Ok frame) ->
      (match Ofp_message.decode frame with
      | Ok (xid, msg) -> handle_message t xid msg
      | Error err -> Log.err (fun m -> m "bad frame from controller: %s" err));
      drain t
  | Some (Error err) -> Log.err (fun m -> m "bad frame from controller: %s" err)

let input_from_controller t bytes =
  Ofp_message.Framing.input t.framing bytes;
  drain t

let tick t =
  let now = t.now () in
  let expired = Flow_table.expire t.table ~now in
  List.iter
    (fun ((e : Flow_entry.t), reason) ->
      if e.Flow_entry.send_flow_rem then begin
        let duration_sec, duration_nsec = Flow_entry.duration e ~now in
        send t
          (Ofp_message.Flow_removed
             {
               Ofp_message.fr_match = e.Flow_entry.entry_match;
               fr_cookie = e.Flow_entry.cookie;
               fr_priority = e.Flow_entry.priority;
               fr_reason = reason;
               duration_sec;
               duration_nsec;
               fr_idle_timeout = e.Flow_entry.idle_timeout;
               packet_count = e.Flow_entry.packet_count;
               byte_count = e.Flow_entry.byte_count;
             })
      end)
    expired

let add_port t config =
  Hashtbl.replace t.ports config.port_no
    {
      config;
      counters =
        {
          rx_packets = 0L;
          tx_packets = 0L;
          rx_bytes = 0L;
          tx_bytes = 0L;
          rx_dropped = 0L;
          tx_dropped = 0L;
        };
      up = true;
    };
  let p = Hashtbl.find t.ports config.port_no in
  send t (Ofp_message.Port_status (Ofp_message.Port_add, phy_port_of p))

let remove_port t port_no =
  match Hashtbl.find_opt t.ports port_no with
  | None -> ()
  | Some p ->
      Hashtbl.remove t.ports port_no;
      send t (Ofp_message.Port_status (Ofp_message.Port_delete, phy_port_of p))
