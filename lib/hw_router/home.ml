open Hw_packet

type attachment = { device : Hw_sim.Device.t; port : int }

type t = {
  sim_loop : Hw_sim.Event_loop.t;
  rt : Router.t;
  net : Hw_sim.Internet.t;
  ingress : (int * string) Hw_sim.Delay_line.t;
      (* device -> router hop: frames sent at the same instant arrive as
         one batch through Router.receive_frames *)
  the_seed : int;
  mutable attachments : attachment list;
  mutable next_wired : int;
}

let loop t = t.sim_loop
let router t = t.rt
let internet t = t.net
let devices t = List.map (fun a -> a.device) t.attachments
let seed t = t.the_seed
let now t = Hw_sim.Event_loop.now t.sim_loop

(* propagation delay of each hop to and from the router *)
let hop_delay = 0.001

let create ?(seed = 7) ?(start = 0.) ?loop ?config ?wal_store () =
  (* [loop] lets a fleet place N homes on ONE event loop; without it the
     home owns a private loop as before *)
  let sim_loop =
    match loop with Some l -> l | None -> Hw_sim.Event_loop.create ~start ()
  in
  let rt = Router.create ?config ?wal_store ~loop:sim_loop () in
  let net_ref = ref None in
  let net =
    Hw_sim.Internet.create ~loop:sim_loop
      ~send:(fun frame -> Router.receive_frame rt ~in_port:Router.upstream_port frame)
      ()
  in
  net_ref := Some net;
  Hw_sim.Internet.add_default_zone net;
  let ingress =
    Hw_sim.Delay_line.create ~loop:sim_loop ~delay:hop_delay
      ~deliver:(fun frames -> Router.receive_frames rt frames)
  in
  let t =
    { sim_loop; rt; net; ingress; the_seed = seed; attachments = []; next_wired = 0 }
  in
  (* router port -> attached nodes *)
  Router.set_transmit rt (fun ~port_no frame ->
      Hw_sim.Event_loop.after sim_loop hop_delay (fun () ->
          if port_no = Router.upstream_port then Hw_sim.Internet.deliver net frame
          else
            List.iter
              (fun a -> if a.port = port_no then Hw_sim.Device.deliver a.device frame)
              t.attachments));
  (* wireless stations report their link state once per second *)
  Hw_sim.Event_loop.every sim_loop 1.0 (fun () ->
      List.iter
        (fun a ->
          match Hw_sim.Device.rssi a.device with
          | Some rssi ->
              let st = Hw_sim.Device.stats a.device in
              Router.report_link rt ~mac:(Hw_sim.Device.mac a.device) ~rssi
                ~retries:st.Hw_sim.Device.retries ~packets:st.Hw_sim.Device.tx_packets
          | None -> ())
        t.attachments);
  t

let add_device t config =
  let port =
    match config.Hw_sim.Device.kind with
    | Hw_sim.Device.Wireless _ -> Router.wireless_port
    | Hw_sim.Device.Wired ->
        let p = Router.wired_port t.next_wired in
        t.next_wired <- t.next_wired + 1;
        (* hot-plug an Ethernet port when the pre-provisioned ones run out
           (a USB NIC on the real router; raises PORT_STATUS to NOX) *)
        let dp = Router.datapath t.rt in
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
              name = Printf.sprintf "usb-eth%d" t.next_wired;
              mac = Mac.local (0xc0 + t.next_wired);
            };
        p
  in
  let device =
    Hw_sim.Device.create ~seed:t.the_seed ~config ~loop:t.sim_loop
      ~send:(fun frame -> Hw_sim.Delay_line.push t.ingress (port, frame))
      ()
  in
  t.attachments <- t.attachments @ [ { device; port } ];
  Hw_sim.Device.start device;
  device

let device_by_name t name =
  List.find_map
    (fun a ->
      if String.equal (Hw_sim.Device.name a.device) name then Some a.device else None)
    t.attachments

let run_for t duration = Hw_sim.Event_loop.run_for t.sim_loop duration
let run_until t deadline = Hw_sim.Event_loop.run_until t.sim_loop deadline

let label_of_ip t ip_str =
  match Ip.of_string ip_str with
  | None -> None
  | Some addr ->
      List.find_map
        (fun a ->
          match Hw_sim.Device.ip a.device with
          | Some dev_ip when Ip.equal dev_ip addr -> Some (Hw_sim.Device.name a.device)
          | _ -> None)
        t.attachments

let permit_all t =
  List.iter
    (fun a -> Hw_dhcp.Dhcp_server.permit (Router.dhcp t.rt) (Hw_sim.Device.mac a.device))
    t.attachments

let standard_home ?(seed = 7) ?start ?wal_store () =
  let t = create ~seed ?start ?wal_store () in
  let dhcp_server = Router.dhcp t.rt in
  let open Hw_sim in
  let add ~permitted config =
    if permitted then Hw_dhcp.Dhcp_server.permit dhcp_server config.Device.mac;
    ignore (add_device t config)
  in
  add ~permitted:true
    (Device.wireless ~distance_m:4. ~name:"toms-mac-air" ~mac:(Mac.local 1)
       [ App_profile.web; App_profile.https; App_profile.video ]);
  add ~permitted:false
    (Device.wireless ~distance_m:9. ~name:"kids-tablet" ~mac:(Mac.local 2)
       [ App_profile.web; App_profile.video ]);
  add ~permitted:false
    (Device.wired ~name:"kids-console" ~mac:(Mac.local 3) [ App_profile.p2p ]);
  add ~permitted:true
    (Device.wireless ~distance_m:6. ~name:"dads-phone" ~mac:(Mac.local 4)
       [ App_profile.web; App_profile.voip ]);
  add ~permitted:true (Device.wired ~name:"tv-box" ~mac:(Mac.local 5) [ App_profile.video ]);
  add ~permitted:true
    (Device.wireless ~distance_m:12. ~name:"sensor-hub" ~mac:(Mac.local 6)
       [ App_profile.iot_telemetry ]);
  t
