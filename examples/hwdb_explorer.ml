(* The hwdb measurement plane over its UDP RPC interface.

   This is how the paper's visualisation interfaces consume measurements:
   they are satellite applications that speak a simple datagram RPC to the
   router, issuing one-shot queries and SUBSCRIBE-ing to continuous ones.

   Run: dune exec examples/hwdb_explorer.exe *)

let section title = Printf.printf "\n--- %s ---\n" title

let print_result = function
  | Ok (Some rs) ->
      List.iter
        (fun row -> Printf.printf "  %s\n" (String.concat " | " row))
        (Hw_hwdb.Query.result_to_strings rs)
  | Ok None -> print_endline "  ok"
  | Error msg -> Printf.printf "  error: %s\n" msg

let () =
  let home = Hw_router.Home.standard_home () in
  let router = Hw_router.Home.router home in
  let loop = Hw_router.Home.loop home in
  Hw_router.Home.permit_all home;

  (* a little simulated UDP fabric between the router and one client app *)
  let client_addr = "10.0.0.100:48000" in
  let client = ref None in
  Hw_router.Router.set_rpc_send router (fun ~to_ datagram ->
      if String.equal to_ client_addr then
        Hw_sim.Event_loop.after loop 0.001 (fun () ->
            match !client with
            | Some c -> Hw_hwdb.Rpc.Client.handle_datagram c datagram
            | None -> ()));
  let c =
    Hw_hwdb.Rpc.Client.create
      ~send:(fun datagram ->
        Hw_sim.Event_loop.after loop 0.001 (fun () ->
            Hw_router.Router.rpc_datagram router ~from:client_addr datagram))
      ()
  in
  client := Some c;

  Hw_router.Home.run_for home 45.;

  let ask statement =
    Printf.printf "\n> %s\n" statement;
    Hw_hwdb.Rpc.Client.request c statement ~on_reply:print_result;
    Hw_router.Home.run_for home 0.1
  in

  section "One-shot queries over the UDP RPC";
  ask "SELECT mac, ip, hostname FROM Leases [ROWS 3]";
  ask "SELECT proto, COUNT(*) AS flows, SUM(bytes) AS bytes FROM Flows [RANGE 30 SECONDS] GROUP BY proto";
  ask "SELECT mac, AVG(rssi) AS avg_rssi FROM Links [RANGE 20 SECONDS] GROUP BY mac ORDER BY avg_rssi DESC";
  ask "SELECT src_ip, dst_port, SUM(bytes) AS b FROM Flows [RANGE 30 SECONDS] WHERE dst_port = 8080 GROUP BY src_ip, dst_port";

  section "A malformed query gets a proper error back";
  ask "SELECT FROM WHERE";

  section "Continuous query: total bytes, published every 5 seconds";
  Hw_hwdb.Rpc.Client.on_publish c (fun ~subscription rs ->
      match rs.Hw_hwdb.Query.rows with
      | [ [ v ] ] ->
          Printf.printf "  [sub %d @ %s] total bytes in window: %s\n" subscription
            (Hw_time.to_string (Hw_router.Home.now home))
            (Hw_hwdb.Value.to_string v)
      | _ -> ());
  Hw_hwdb.Rpc.Client.request c
    "SUBSCRIBE SELECT SUM(bytes) AS b FROM Flows [RANGE 5 SECONDS] EVERY 5 SECONDS"
    ~on_reply:print_result;
  (* a plain SUBSCRIBE holds a 4-period (20 s) lease that nothing renews
     here, so unsubscribe before it lapses *)
  Hw_router.Home.run_for home 16.;

  section "Unsubscribe";
  Hw_hwdb.Rpc.Client.request c "UNSUBSCRIBE 1" ~on_reply:print_result;
  Hw_router.Home.run_for home 0.1;
  Printf.printf "  further publications stop; %d subscriptions remain\n"
    (Hw_hwdb.Database.subscription_count (Hw_router.Router.db router));

  section "Persisting output: a recorder logs a continuous query to CSV";
  let recorder =
    Hw_hwdb.Recorder.attach
      ~now:(fun () -> Hw_router.Home.now home)
      ~schedule:(fun d f -> Hw_sim.Event_loop.after loop d f)
      ~client:c
      ~statement:
        "SUBSCRIBE SELECT COUNT(*) AS flows, SUM(bytes) AS bytes FROM Flows [RANGE 5 SECONDS] \
         EVERY 5 SECONDS"
      ()
  in
  Hw_router.Home.run_for home 16.;
  Printf.printf "  %d snapshots recorded; CSV:\n" (Hw_hwdb.Recorder.snapshot_count recorder);
  String.split_on_char '\n' (String.trim (Hw_hwdb.Recorder.to_csv recorder))
  |> List.iter (fun line -> Printf.printf "    %s\n" line);
  Hw_hwdb.Recorder.detach recorder;

  section "ECA triggers: the 'active' database raises alerts by itself";
  ask "CREATE TABLE Alerts (what VARCHAR, who VARCHAR, bytes INTEGER)";
  ask
    "ON INSERT INTO Flows WHEN bytes > 40000 DO INSERT INTO Alerts VALUES ('heavy-flow', \
     src_ip, bytes)";
  Hw_router.Home.run_for home 30.;
  ask "SELECT who, COUNT(*) AS alerts, MAX(bytes) AS biggest FROM Alerts GROUP BY who ORDER BY alerts DESC LIMIT 4"
