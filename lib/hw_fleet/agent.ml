module Rpc = Hw_hwdb.Rpc
module Router = Hw_router.Router
module Fault = Hw_fault.Fault

type t = { id : string; router : Router.t; client : Rpc.Client.t; keeper : Rpc.Subscriber.t }

(* the address the router's RPC server sees federated requests arrive from *)
let manager_addr = "manager"

let attach ?(renew_period = 10.) ?(seed = 0xca11) ~id ~router ~loop ~send () =
  let inj = (Router.faults router).Fault.rpc in
  (* The router's own RPC server traffic is already fault-wrapped inside
     Router (both directions); the agent applies the same injector to
     its OWN client traffic so every datagram on the call-home path
     passes the choke point exactly once per direction. *)
  let guarded_send data =
    if Fault.armed inj then Fault.apply inj data ~deliver:send else send data
  in
  let client =
    Rpc.Client.create ~metrics:(Router.metrics router)
      ~schedule:(fun d f -> Hw_sim.Event_loop.after loop d f)
      ~seed ~send:guarded_send ()
  in
  (* everything the router's hwdb server sends (federated query replies,
     subscription publishes) rides up the held session, whatever
     address it was nominally for *)
  Router.set_rpc_send router (fun ~to_:_ data -> send data);
  let keeper =
    Rpc.Subscriber.attach ~metrics:(Router.metrics router)
      ~now:(fun () -> Hw_sim.Event_loop.now loop)
      ~schedule:(fun d f -> Hw_sim.Event_loop.after loop d f)
      ~client
      ~statement:(Printf.sprintf "FLEET REGISTER %s" id)
      ~period:renew_period
      ~on_result:(fun _ -> ())
      ()
  in
  { id; router; client; keeper }

let handle_datagram t data =
  match Rpc.decode data with
  | Ok (Rpc.Request _) ->
      (* a manager request for this router's hwdb server; the router
         applies its rpc fault injector on the way in *)
      Router.rpc_datagram t.router ~from:manager_addr data
  | Ok (Rpc.Response_ok _ | Rpc.Response_error _ | Rpc.Publish _) ->
      let inj = (Router.faults t.router).Fault.rpc in
      if Fault.armed inj then
        Fault.apply inj data ~deliver:(Rpc.Client.handle_datagram t.client)
      else Rpc.Client.handle_datagram t.client data
  | Error _ -> () (* malformed: UDP drop *)

let detach t = Rpc.Subscriber.detach t.keeper
let registered t = Rpc.Subscriber.sub_id t.keeper <> None
let session_token t = Rpc.Subscriber.sub_id t.keeper
let resubscribes t = Rpc.Subscriber.resubscribes t.keeper
let id t = t.id
let router t = t.router
