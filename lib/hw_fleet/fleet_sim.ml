module Router = Hw_router.Router
module Home = Hw_router.Home
module Prng = Hw_sim.Prng

type t = {
  loop : Hw_sim.Event_loop.t;
  manager : Manager.t;
  agents : Agent.t array;
  by_addr : (string, Agent.t) Hashtbl.t;
}

let manager t = t.manager
let loop t = t.loop
let size t = Array.length t.agents
let agents t = t.agents
let agent t id = Hashtbl.find_opt t.by_addr id
let run_for t d = Hw_sim.Event_loop.run_for t.loop d
let now t = Hw_sim.Event_loop.now t.loop

let device_profiles =
  [| Hw_sim.App_profile.web; Hw_sim.App_profile.video; Hw_sim.App_profile.iot_telemetry |]

(* one transport hop, each way *)
let hop_delay = 0.0005

let create ?(seed = 7) ?(devices_per_home = 0) ?(lease_s = 30.) ?max_inflight ?retry
    ?trace_capacity ~n () =
  let renew_period = lease_s /. 6. in
  let loop = Hw_sim.Event_loop.create () in
  let by_addr = Hashtbl.create (2 * n) in
  (* the manager tracer reads the loop clock, which exists only now *)
  let trace =
    Option.map
      (fun capacity ->
        Hw_trace.Tracer.create ~capacity
          ~metrics:(Hw_metrics.Registry.create ())
          ~now:(fun () -> Hw_sim.Event_loop.now loop)
          ())
      trace_capacity
  in
  (* manager -> router: resolve the session address to its agent after
     one hop. The receive side of a dropped agent simply never fires. *)
  let manager =
    Manager.create ~lease_s ?max_inflight ?retry ?trace
      ~loop
      ~send:(fun ~to_ data ->
        Hw_sim.Event_loop.after loop hop_delay (fun () ->
            match Hashtbl.find_opt by_addr to_ with
            | Some agent -> Agent.handle_datagram agent data
            | None -> ()))
      ()
  in
  (* one immutable config shared by every router in the fleet *)
  let config = Router.config ~hwdb_capacity:256 () in
  let agents =
    Array.init n (fun i ->
        let id = Printf.sprintf "r%04d" i in
        (* independent per-home stream from the one fleet seed: NOT
           seed + i, which replays neighbours' draws shifted by one *)
        let home = Home.create ~loop ~config ~seed:(Prng.stream_seed ~seed ~index:i) () in
        if devices_per_home > 0 then begin
          let dhcp = Router.dhcp (Home.router home) in
          for d = 0 to devices_per_home - 1 do
            let cfg =
              Hw_sim.Device.wireless
                ~distance_m:(4. +. (3. *. float_of_int d))
                ~name:(Printf.sprintf "%s-dev%d" id d)
                ~mac:(Hw_packet.Mac.local (1 + d))
                [ device_profiles.(d mod Array.length device_profiles) ]
            in
            Hw_dhcp.Dhcp_server.permit dhcp cfg.Hw_sim.Device.mac;
            ignore (Home.add_device home cfg)
          done
        end;
        let agent =
          Agent.attach ~id ~router:(Home.router home) ~loop ~renew_period
            ~seed:(Prng.stream_seed ~seed ~index:(n + i))
            ~send:(fun data ->
              Hw_sim.Event_loop.after loop hop_delay (fun () ->
                  Manager.datagram manager ~from:id data))
            ()
        in
        Hashtbl.replace by_addr id agent;
        agent)
  in
  { loop; manager; agents; by_addr }

let query_sync t statement =
  let result = ref None in
  Manager.query t.manager statement ~on_done:(fun o -> result := Some o);
  let deadline = now t +. 120. in
  let rec step () =
    if !result = None && now t < deadline then begin
      Hw_sim.Event_loop.run_for t.loop 0.05;
      step ()
    end
  in
  step ();
  !result
