(* The benchmark's own homes, built from public pieces ([Router.create],
   [Hw_sim.Delay_line], [Device], [Internet]) exactly as [Home.create]
   builds one — same hop delay, same batching, same link reports — so that
   every call into [Router] passes through a benchmark timer. A world is N
   such homes on one event loop, each calling home to one fleet manager. *)

module Loop = Hw_sim.Event_loop
module Device = Hw_sim.Device
module Router = Hw_router.Router
module Rpc = Hw_hwdb.Rpc
module Table = Hw_hwdb.Table
module Database = Hw_hwdb.Database
module Manager = Hw_fleet.Manager
module Agent = Hw_fleet.Agent
module Observer = Hw_obs.Observer
module Hist = Stats.Hist

let hop_delay = 0.001 (* Home.create's default *)
let rpc_hop = 0.0005 (* Fleet_sim's *)

(* ------------------------------------------------------------------ *)
(* Meters                                                              *)
(* ------------------------------------------------------------------ *)

(* A timing series, raw and calibrated side by side (values in ns). *)
type timing = { raw : Hist.t; cal : Hist.t }

let timing () = { raw = Hist.create (); cal = Hist.create () }

(* Every timed router call lands in exactly one class; the classes add
   up to the router total. *)
type cls = C_fwd | C_setup | C_dhcp | C_tick | C_rpc | C_http | C_usb | C_link | C_agent

let cls_index = function
  | C_fwd -> 0
  | C_setup -> 1
  | C_dhcp -> 2
  | C_tick -> 3
  | C_rpc -> 4
  | C_http -> 5
  | C_usb -> 6
  | C_link -> 7
  | C_agent -> 8

let cls_names = [| "fwd"; "setup"; "dhcp"; "tick"; "rpc"; "http"; "usb"; "link"; "agent" |]
let n_cls = Array.length cls_names

type meter = {
  traced : bool;
  mutable on : bool;  (** measuring; false during set-up and warm-up *)
  mutable factor : float;  (** calibration multiplier of the current second *)
  fwd : timing;  (** per frame *)
  setup : timing;  (** per packet-in *)
  setup_by : timing array;  (** by {!Frames.setup_index} *)
  dhcp_frame : timing;  (** per DHCP call *)
  join : timing;  (** DISCOVER to Bound *)
  tick : timing;
  query : timing;  (** UI one-shot SELECT *)
  usb_insert : timing;
  usb_remove : timing;
  http : timing;
  fleet_query : timing;
  scrape : timing;
  kernel : Hist.t;
  cls_raw : float array;
  cls_cal : float array;
  mutable fwd_frames : int;
  mutable packet_ins : int;
  (* traced run only *)
  alloc : float array;  (** minor words per class *)
  phases : timing array;  (** tick: poll, metrics, traces, rest *)
  spans : Spans.t;
  span_cls : int array;
  span_setup : int array;
  span_phase : int array;
  span_query : int;
  span_fleet : int;
  span_scrape : int;
}

let create_meter ~traced =
  let spans = Spans.create ~capacity:(if traced then 100_000 else 0) in
  let intern = Spans.intern spans in
  {
    traced;
    on = false;
    factor = 1.;
    fwd = timing ();
    setup = timing ();
    setup_by = Array.init 4 (fun _ -> timing ());
    dhcp_frame = timing ();
    join = timing ();
    tick = timing ();
    query = timing ();
    usb_insert = timing ();
    usb_remove = timing ();
    http = timing ();
    fleet_query = timing ();
    scrape = timing ();
    kernel = Hist.create ();
    cls_raw = Array.make n_cls 0.;
    cls_cal = Array.make n_cls 0.;
    fwd_frames = 0;
    packet_ins = 0;
    alloc = Array.make n_cls 0.;
    phases = Array.init 4 (fun _ -> timing ());
    spans;
    span_cls = Array.map (fun n -> intern ("router." ^ n)) cls_names;
    span_setup =
      Array.map (fun c -> intern ("router.setup." ^ Frames.setup_name c)) Frames.setup_classes;
    span_phase =
      Array.map (fun n -> intern ("tick." ^ n)) [| "poll"; "metrics"; "traces"; "rest" |];
    span_query = intern "ui.query";
    span_fleet = intern "fleet.query";
    span_scrape = intern "obs.scrape";
  }

let sample m tm raw =
  if m.on then begin
    Hist.add tm.raw raw;
    Hist.add tm.cal (raw *. m.factor)
  end

let sample_pair m tm ~raw ~cal =
  if m.on then begin
    Hist.add tm.raw raw;
    Hist.add tm.cal cal
  end

let charge m cls raw =
  if m.on then begin
    let i = cls_index cls in
    m.cls_raw.(i) <- m.cls_raw.(i) +. raw;
    m.cls_cal.(i) <- m.cls_cal.(i) +. (raw *. m.factor)
  end

let charge_alloc m cls words =
  if m.on && m.traced then begin
    let i = cls_index cls in
    m.alloc.(i) <- m.alloc.(i) +. words
  end

let span m ~name ~tid ~start ~stop =
  if m.on && m.traced then Spans.record m.spans ~name ~tid ~start ~stop

(* ------------------------------------------------------------------ *)
(* Homes                                                               *)
(* ------------------------------------------------------------------ *)

type attachment = {
  device : Device.t;
  port : int;
  gated : bool;  (** network access depends on a policy (the kids) *)
  cyclable : bool;  (** the workload may power-cycle it *)
  mutable joining : bool;
  mutable binds : int;  (** fresh leases obtained (on_bound) *)
  mutable join_raw : float;
  mutable join_cal : float;
  mutable powered : bool;
}

type home = {
  idx : int;
  id : string;
  seed : int;
  rt : Router.t;
  net : Hw_sim.Internet.t;
  ingress : (int * string) Hw_sim.Delay_line.t;
  mutable attachments : attachment list;
  mutable next_wired : int;
  by_mac : (int, attachment) Hashtbl.t;
  clients : (string, Rpc.Client.t) Hashtbl.t;
  mutable tick_t0 : int;
  mutable tick_words0 : float;
  mutable in_tick : bool;
  marks : int array;  (** last Flows / Metrics / Traces insert inside the tick *)
  denied : (int, int ref) Hashtbl.t;
      (** denied devices by MAC: frames of theirs sent upstream while denied *)
}

type ops = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
}

type world = {
  loop : Loop.t;
  meter : meter;
  mutable homes : home array;
  sessions : (string, home * Agent.t) Hashtbl.t;
  manager : Manager.t;
  mutable observer : Observer.t option;
  ops : ops;
  mutable events : int;
  mutable scrape_pending : bool;
  mutable scrape_t0 : int;
  mutable scrape_before : int;
}

let mac_key mac = Int64.to_int (Hw_packet.Mac.to_int64 mac)

let fail w msg =
  w.ops.failed <- w.ops.failed + 1;
  if List.length w.ops.failures < 20 then w.ops.failures <- msg :: w.ops.failures

let attempt w = w.ops.attempted <- w.ops.attempted + 1

let account_frames w h frames ~upstream ~nframes ~raw ~dpi ~words ~t0 ~t1 =
  let m = w.meter in
  match Frames.classify ~upstream ~packet_ins:dpi frames with
  | Frames.Forward ->
      charge m C_fwd raw;
      charge_alloc m C_fwd words;
      if m.on then m.fwd_frames <- m.fwd_frames + nframes;
      sample m m.fwd (raw /. float_of_int nframes);
      span m ~name:m.span_cls.(cls_index C_fwd) ~tid:h.idx ~start:t0 ~stop:t1
  | Frames.Dhcp_call ->
      charge m C_dhcp raw;
      charge_alloc m C_dhcp words;
      sample m m.dhcp_frame raw;
      (match Hashtbl.find_opt h.by_mac (Frames.dhcp_client frames) with
      | Some a when a.joining ->
          a.join_raw <- a.join_raw +. raw;
          a.join_cal <- a.join_cal +. (raw *. m.factor)
      | _ -> ());
      span m ~name:m.span_cls.(cls_index C_dhcp) ~tid:h.idx ~start:t0 ~stop:t1
  | Frames.Flow_setup c ->
      charge m C_setup raw;
      charge_alloc m C_setup words;
      if m.on then m.packet_ins <- m.packet_ins + dpi;
      let per = raw /. float_of_int dpi in
      sample m m.setup per;
      sample m m.setup_by.(Frames.setup_index c) per;
      span m ~name:m.span_setup.(Frames.setup_index c) ~tid:h.idx ~start:t0 ~stop:t1

(* Device -> router hop: one batch per instant, as in Home. *)
let frames_call w h frames =
  let m = w.meter in
  let pi0 = Router.packet_ins h.rt in
  let words0 = if m.traced then Gc.minor_words () else 0. in
  let t0 = Calib.now_ns () in
  Router.receive_frames h.rt frames;
  let t1 = Calib.now_ns () in
  let words = if m.traced then Gc.minor_words () -. words0 else 0. in
  account_frames w h frames ~upstream:false ~nframes:(List.length frames)
    ~raw:(float_of_int (t1 - t0))
    ~dpi:(Router.packet_ins h.rt - pi0)
    ~words ~t0 ~t1

(* Internet -> router: one frame on the ISP port. *)
let upstream_call w h frame =
  let m = w.meter in
  let pi0 = Router.packet_ins h.rt in
  let words0 = if m.traced then Gc.minor_words () else 0. in
  let t0 = Calib.now_ns () in
  Router.receive_frame h.rt ~in_port:Router.upstream_port frame;
  let t1 = Calib.now_ns () in
  let words = if m.traced then Gc.minor_words () -. words0 else 0. in
  account_frames w h
    [ (Router.upstream_port, frame) ]
    ~upstream:true ~nframes:1
    ~raw:(float_of_int (t1 - t0))
    ~dpi:(Router.packet_ins h.rt - pi0)
    ~words ~t0 ~t1

(* A timed call of class [cls]; [tm] also receives the sample. *)
let timed w h cls ?tm ?span_name f =
  let m = w.meter in
  let t0 = Calib.now_ns () in
  let r = f () in
  let t1 = Calib.now_ns () in
  let raw = float_of_int (t1 - t0) in
  charge m cls raw;
  (match tm with Some tm -> sample m tm raw | None -> ());
  let name = match span_name with Some n -> n | None -> m.span_cls.(cls_index cls) in
  span m ~name ~tid:h.idx ~start:t0 ~stop:t1;
  r

(* The UI client whose one-shot SELECTs are timed as [query]. *)
let query_client = "ui-query"

let rpc_call w h ~from data =
  let m = w.meter in
  if String.equal from query_client then
    timed w h C_rpc ~tm:m.query ~span_name:m.span_query (fun () ->
        Router.rpc_datagram h.rt ~from data)
  else timed w h C_rpc (fun () -> Router.rpc_datagram h.rt ~from data)

let tick_begin w h () =
  h.in_tick <- true;
  h.marks.(0) <- 0;
  h.marks.(1) <- 0;
  h.marks.(2) <- 0;
  if w.meter.traced then h.tick_words0 <- Gc.minor_words ();
  h.tick_t0 <- Calib.now_ns ()

let tick_end w h () =
  let t1 = Calib.now_ns () in
  let m = w.meter in
  h.in_tick <- false;
  let t0 = h.tick_t0 in
  let raw = float_of_int (t1 - t0) in
  charge m C_tick raw;
  sample m m.tick raw;
  if m.traced then begin
    charge_alloc m C_tick (Gc.minor_words () -. h.tick_words0);
    span m ~name:m.span_cls.(cls_index C_tick) ~tid:h.idx ~start:t0 ~stop:t1;
    (* phases are contiguous: start .. last Flows insert .. last Metrics
       insert .. last Traces insert .. end *)
    let b1 = if h.marks.(0) > 0 then h.marks.(0) else t0 in
    let b2 = if h.marks.(1) > 0 then max b1 h.marks.(1) else b1 in
    let b3 = if h.marks.(2) > 0 then max b2 h.marks.(2) else b2 in
    let bounds = [| t0; b1; b2; b3; t1 |] in
    for p = 0 to 3 do
      sample m m.phases.(p) (float_of_int (bounds.(p + 1) - bounds.(p)));
      span m ~name:m.span_phase.(p) ~tid:h.idx ~start:bounds.(p) ~stop:bounds.(p + 1)
    done
  end

let hook_phases h =
  List.iteri
    (fun i name ->
      match Database.table (Router.db h.rt) name with
      | Some tbl ->
          ignore (Table.add_hook tbl (fun _ -> if h.in_tick then h.marks.(i) <- Calib.now_ns ()))
      | None -> ())
    [ "Flows"; "Metrics"; "Traces" ]

(* Mirrors Home.create, with the router's tick bracketed by two benchmark
   timers: [Event_loop] runs same-instant events in scheduling order, so
   a timer created just before [Router.create] fires just before the
   router's 1 s tick and one created just after fires just after it. *)
let build_home w ~idx ~seed ~config ?wal_store () =
  let loop = w.loop in
  let rec h =
    lazy
      (let before = ref (fun () -> ()) and after = ref (fun () -> ()) in
       Loop.every loop 1.0 (fun () -> !before ());
       let rt = Router.create ~config ?wal_store ~loop () in
       Loop.every loop 1.0 (fun () -> !after ());
       let net =
         Hw_sim.Internet.create ~loop ~send:(fun frame -> upstream_call w (Lazy.force h) frame) ()
       in
       Hw_sim.Internet.add_default_zone net;
       let ingress =
         Hw_sim.Delay_line.create ~loop ~delay:hop_delay ~deliver:(fun frames ->
             frames_call w (Lazy.force h) frames)
       in
       let home =
         {
           idx;
           id = Printf.sprintf "r%04d" idx;
           seed;
           rt;
           net;
           ingress;
           attachments = [];
           next_wired = 0;
           by_mac = Hashtbl.create 8;
           clients = Hashtbl.create 8;
           tick_t0 = 0;
           tick_words0 = 0.;
           in_tick = false;
           marks = Array.make 3 0;
           denied = Hashtbl.create 4;
         }
       in
       before := tick_begin w home;
       after := tick_end w home;
       home)
  in
  let home = Lazy.force h in
  let rt = home.rt in
  Router.set_transmit rt (fun ~port_no frame ->
      if port_no = Router.upstream_port && Hashtbl.length home.denied > 0 then
        (match Hashtbl.find_opt home.denied (Frames.src_mac frame) with
        | Some leaked -> incr leaked
        | None -> ());
      Loop.after loop hop_delay (fun () ->
          if port_no = Router.upstream_port then Hw_sim.Internet.deliver home.net frame
          else
            List.iter
              (fun a -> if a.port = port_no then Device.deliver a.device frame)
              home.attachments));
  (* wireless stations report their link state once per second *)
  Loop.every loop 1.0 (fun () ->
      List.iter
        (fun a ->
          match Device.rssi a.device with
          | Some rssi ->
              let st = Device.stats a.device in
              timed w home C_link (fun () ->
                  Router.report_link rt ~mac:(Device.mac a.device) ~rssi
                    ~retries:st.Device.retries ~packets:st.Device.tx_packets)
          | None -> ())
        home.attachments);
  if w.meter.traced then hook_phases home;
  home

(* Mirrors Home.add_device (port choice and Ethernet hot-plug), and permits
   the device. *)
let add_device w h ~gated ~cyclable (config : Device.config) =
  let port =
    match config.Device.kind with
    | Device.Wireless _ -> Router.wireless_port
    | Device.Wired ->
        let p = Router.wired_port h.next_wired in
        h.next_wired <- h.next_wired + 1;
        let dp = Router.datapath h.rt in
        if
          not
            (List.exists
               (fun (pc : Hw_datapath.Datapath.port_config) ->
                 pc.Hw_datapath.Datapath.port_no = p)
               (Hw_datapath.Datapath.ports dp))
        then
          Hw_datapath.Datapath.add_port dp
            {
              Hw_datapath.Datapath.port_no = p;
              name = Printf.sprintf "usb-eth%d" h.next_wired;
              mac = Hw_packet.Mac.local (0xc0 + h.next_wired);
            };
        p
  in
  Hw_dhcp.Dhcp_server.permit (Router.dhcp h.rt) config.Device.mac;
  let device =
    Device.create ~seed:h.seed ~config ~loop:w.loop
      ~send:(fun frame -> Hw_sim.Delay_line.push h.ingress (port, frame))
      ()
  in
  let a =
    {
      device;
      port;
      gated;
      cyclable;
      joining = true;
      binds = 0;
      join_raw = 0.;
      join_cal = 0.;
      powered = true;
    }
  in
  Device.on_bound device (fun _ip ->
      a.binds <- a.binds + 1;
      if a.joining then begin
        a.joining <- false;
        sample_pair w.meter w.meter.join ~raw:a.join_raw ~cal:a.join_cal
      end);
  h.attachments <- h.attachments @ [ a ];
  Hashtbl.replace h.by_mac (mac_key config.Device.mac) a;
  Device.start device;
  a

(* A device the householder has denied: none of its frames may reach the
   Internet until it is allowed again. Each denial is one enforcement
   operation, failed if anything leaked. *)
let deny h a = Hashtbl.replace h.denied (mac_key (Device.mac a.device)) (ref 0)

let allow w h a =
  let key = mac_key (Device.mac a.device) in
  match Hashtbl.find_opt h.denied key with
  | None -> ()
  | Some leaked ->
      Hashtbl.remove h.denied key;
      if w.meter.on then begin
        attempt w;
        if !leaked > 0 then
          fail w
            (Printf.sprintf "%s: %d frames reached the Internet while denied"
               (Device.name a.device) !leaked)
      end

let power_off a =
  Device.stop a.device;
  a.powered <- false;
  a.joining <- false

let power_on a =
  a.joining <- true;
  a.join_raw <- 0.;
  a.join_cal <- 0.;
  a.powered <- true;
  Device.start a.device

(* ------------------------------------------------------------------ *)
(* RPC wiring: UI clients and the call-home session                    *)
(* ------------------------------------------------------------------ *)

let ui_client w h ~addr =
  let c =
    Rpc.Client.create
      ~schedule:(fun d f -> Loop.after w.loop d f)
      ~seed:(h.seed + Hashtbl.hash addr)
      ~send:(fun data -> Loop.after w.loop rpc_hop (fun () -> rpc_call w h ~from:addr data))
      ()
  in
  Hashtbl.replace h.clients addr c;
  c

(* Attach the home's agent, then take over the router's RPC send hook so
   replies reach UI clients by address; everything addressed to the
   manager rides up the call-home session exactly as the agent sends it. *)
let call_home w h =
  let up data = Loop.after w.loop rpc_hop (fun () -> Manager.datagram w.manager ~from:h.id data) in
  let agent =
    Agent.attach ~id:h.id ~router:h.rt ~loop:w.loop ~renew_period:5.
      ~seed:(h.seed lxor 0x5eed) ~send:up ()
  in
  Router.set_rpc_send h.rt (fun ~to_ data ->
      match Hashtbl.find_opt h.clients to_ with
      | Some c -> Loop.after w.loop rpc_hop (fun () -> Rpc.Client.handle_datagram c data)
      | None -> up data);
  agent

let agent_call w h agent data =
  timed w h C_agent (fun () -> Agent.handle_datagram agent data)

let create_world ~traced ~start =
  let loop = Loop.create ~start () in
  let self = ref None in
  let manager =
    Manager.create ~lease_s:30. ~loop
      ~send:(fun ~to_ data ->
        Loop.after loop rpc_hop (fun () ->
            match !self with
            | Some w -> (
                match Hashtbl.find_opt w.sessions to_ with
                | Some (h, agent) -> agent_call w h agent data
                | None -> ())
            | None -> ()))
      ()
  in
  let w =
    {
      loop;
      meter = create_meter ~traced;
      homes = [||];
      sessions = Hashtbl.create 64;
      manager;
      observer = None;
      ops = { attempted = 0; failed = 0; failures = [] };
      events = 0;
      scrape_pending = false;
      scrape_t0 = 0;
      scrape_before = 0;
    }
  in
  self := Some w;
  w

(* Adds a home to the world and attaches its call-home agent. *)
let add_home w ~seed ~config ?wal_store () =
  let h = build_home w ~idx:(Array.length w.homes) ~seed ~config ?wal_store () in
  let agent = call_home w h in
  Hashtbl.replace w.sessions h.id (h, agent);
  w.homes <- Array.append w.homes [| h |];
  h
