let log_src = Logs.Src.create "hw.fleet.manager" ~doc:"Fleet manager"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Rpc = Hw_hwdb.Rpc
module Query = Hw_hwdb.Query
module Value = Hw_hwdb.Value
module Tracer = Hw_trace.Tracer
module Builder = Hw_trace.Builder

(* One registered router. The session is the router's dialed-out
   call-home connection: [s_client] sends manager->router requests down
   it and correlates the replies coming back up. Sessions are keyed by
   router id, so a retried or re-sent REGISTER upserts in place — there
   is structurally no way to hold two sessions for one router. *)
type session = {
  s_id : string;
  mutable s_addr : string;
  s_client : Rpc.Client.t;
  mutable s_expires : float;
  s_token : int;  (* echoed in REGISTER acks; the agent's lease handle *)
  mutable s_subs : (fleet_sub * Rpc.Subscriber.t) list;
}

and fleet_sub = {
  fs_statement : string;
  fs_period : float;
  fs_on_event : router:string -> Query.result_set -> unit;
  mutable fs_active : bool;
}

type session_event =
  | Session_up of string  (** first registration of a router id *)
  | Session_renewed of string
  | Session_down of string * string  (** router id, reason *)

type t = {
  loop : Hw_sim.Event_loop.t;
  send : to_:string -> string -> unit;
  lease_s : float;
  retry : Rpc.Client.retry;
  max_inflight : int;
  seed : int;
  metrics : Hw_metrics.Registry.t;
  trace : Tracer.t;
  mutable on_session : session_event -> unit;
  sessions : (string, session) Hashtbl.t; (* by router id *)
  by_addr : (string, session) Hashtbl.t;
  mutable fleet_subs : fleet_sub list;
  mutable next_token : int;
  m_sessions : Hw_metrics.Gauge.t;
  m_registrations : Hw_metrics.Counter.t;
  m_evictions : Hw_metrics.Counter.t;
  m_fanout_requests : Hw_metrics.Counter.t;
  m_fanout_errors : Hw_metrics.Counter.t;
  m_rollup_events : Hw_metrics.Counter.t;
}

type outcome = {
  columns : string list;
  rows : Value.t list list;
  ok : int;
  errors : (string * string) list;
  trace : int;
}

let session_count t = Hashtbl.length t.sessions
let tracer (t : t) = t.trace
let metrics (t : t) = t.metrics
let on_session_event t f = t.on_session <- f

let sessions t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.sessions [] |> List.sort compare

let rollup_events_total t = Hw_metrics.Counter.value t.m_rollup_events

(* -- fleet subscriptions ------------------------------------------- *)

let attach_sub t s fs =
  let sub =
    Rpc.Subscriber.attach ~metrics:t.metrics
      ~now:(fun () -> Hw_sim.Event_loop.now t.loop)
      ~schedule:(fun d f -> Hw_sim.Event_loop.after t.loop d f)
      ~client:s.s_client ~statement:fs.fs_statement ~period:fs.fs_period
      ~on_result:(fun rs ->
        if fs.fs_active then begin
          Hw_metrics.Counter.incr t.m_rollup_events;
          fs.fs_on_event ~router:s.s_id rs
        end)
      ()
  in
  s.s_subs <- (fs, sub) :: s.s_subs

let subscribe t ~statement ~period ~on_event =
  if not (period > 0.) then invalid_arg "Manager.subscribe: period must be positive";
  (* the statement is still shipped (routers are the authority on their
     own schemas), but text the fleet's parser rejects outright will
     fail on every router — say so once here instead of N times in
     per-session retry noise *)
  (match Hw_hwdb.Parser.parse statement with
  | Ok (Hw_hwdb.Ast.Subscribe _) -> ()
  | Ok _ ->
      Log.warn (fun m -> m "fleet subscribe: %S is not a SUBSCRIBE statement" statement)
  | Error msg -> Log.warn (fun m -> m "fleet subscribe: %S: %s" statement msg));
  let fs =
    { fs_statement = statement; fs_period = period; fs_on_event = on_event; fs_active = true }
  in
  t.fleet_subs <- fs :: t.fleet_subs;
  Hashtbl.iter (fun _ s -> attach_sub t s fs) t.sessions;
  fs

let unsubscribe t fs =
  fs.fs_active <- false;
  t.fleet_subs <- List.filter (fun f -> f != fs) t.fleet_subs;
  Hashtbl.iter
    (fun _ s ->
      List.iter (fun (f, sub) -> if f == fs then Rpc.Subscriber.detach sub) s.s_subs;
      s.s_subs <- List.filter (fun (f, _) -> f != fs) s.s_subs)
    t.sessions

(* -- session lifecycle --------------------------------------------- *)

let drop_session t s ~reason =
  Hashtbl.remove t.sessions s.s_id;
  Hashtbl.remove t.by_addr s.s_addr;
  (* detaching sends UNSUBSCRIBE down a session we just declared dead;
     that is fine — it is best-effort and settles via the client's own
     retry cap *)
  List.iter (fun (_, sub) -> Rpc.Subscriber.detach sub) s.s_subs;
  s.s_subs <- [];
  Hw_metrics.Gauge.set t.m_sessions (float_of_int (Hashtbl.length t.sessions));
  Log.debug (fun m -> m "session %s dropped (%s)" s.s_id reason);
  t.on_session (Session_down (s.s_id, reason))

let evict_lapsed t =
  let now = Hw_sim.Event_loop.now t.loop in
  let lapsed =
    Hashtbl.fold (fun _ s acc -> if now > s.s_expires then s :: acc else acc) t.sessions []
  in
  List.iter
    (fun s ->
      Hw_metrics.Counter.incr t.m_evictions;
      drop_session t s ~reason:"lease lapsed")
    lapsed

let register t ~from ~id =
  let now = Hw_sim.Event_loop.now t.loop in
  match Hashtbl.find_opt t.sessions id with
  | Some s ->
      (* renewal; the router may come back on a new transport address *)
      s.s_expires <- now +. t.lease_s;
      if not (String.equal s.s_addr from) then begin
        Hashtbl.remove t.by_addr s.s_addr;
        s.s_addr <- from;
        Hashtbl.replace t.by_addr from s
      end;
      t.on_session (Session_renewed s.s_id);
      s
  | None ->
      let token = t.next_token in
      t.next_token <- t.next_token + 1;
      let s =
        {
          s_id = id;
          s_addr = from;
          s_client =
            Rpc.Client.create ~metrics:t.metrics
              ~schedule:(fun d f -> Hw_sim.Event_loop.after t.loop d f)
              ~retry:t.retry ~seed:(t.seed + token)
              ~send:(fun data -> t.send ~to_:from data)
              ();
          s_expires = now +. t.lease_s;
          s_token = token;
          s_subs = [];
        }
      in
      Hashtbl.replace t.sessions id s;
      Hashtbl.replace t.by_addr from s;
      Hw_metrics.Gauge.set t.m_sessions (float_of_int (Hashtbl.length t.sessions));
      List.iter (fun fs -> attach_sub t s fs) t.fleet_subs;
      t.on_session (Session_up s.s_id);
      s

(* Session-control statements arriving as RPC Requests up the session.
   FLEET REGISTER doubles as the renewal (the agent keeps it alive with
   the same leased-subscriber machinery hwdb subscriptions use), and the
   ack mirrors a SUBSCRIBE ack — one row, one Int, the session token —
   so Rpc.Subscriber accepts it as its subscription id. *)
let handle_request t ~from ~seq statement =
  let reply msg = t.send ~to_:from (Rpc.encode msg) in
  match String.split_on_char ' ' (String.trim statement) with
  | [ "FLEET"; "REGISTER"; id ] when id <> "" ->
      let s = register t ~from ~id in
      Hw_metrics.Counter.incr t.m_registrations;
      reply
        (Rpc.Response_ok
           {
             seq;
             result = Some { Query.columns = [ "session" ]; rows = [ [ Value.Int s.s_token ] ] };
           })
  | [ "UNSUBSCRIBE"; token ] -> (
      (* the agent's detach path: Rpc.Subscriber.detach releases its
         "subscription" — our session token *)
      match (Hashtbl.find_opt t.by_addr from, int_of_string_opt token) with
      | Some s, Some tok when s.s_token = tok ->
          drop_session t s ~reason:"unregistered";
          reply (Rpc.Response_ok { seq; result = None })
      | _ -> reply (Rpc.Response_ok { seq; result = None }))
  | _ ->
      reply (Rpc.Response_error { seq; message = "fleet: unknown control statement" })

let datagram t ~from data =
  match Rpc.decode data with
  | Ok (Rpc.Request { seq; statement; ctx = _ }) ->
      (* session-control statements are manager-terminal; nothing worth
         tracing hangs below them, so a propagated context is ignored *)
      handle_request t ~from ~seq statement
  | Ok ((Rpc.Response_ok _ | Rpc.Response_error _ | Rpc.Publish _) as msg) -> (
      match Hashtbl.find_opt t.by_addr from with
      | Some s -> Rpc.Client.handle_message s.s_client msg
      | None -> () (* a reply outliving its session; UDP semantics *))
  | Error _ -> () (* malformed datagram: drop *)

(* -- federated queries --------------------------------------------- *)

let empty_outcome = { columns = []; rows = []; ok = 0; errors = []; trace = 0 }

let query_fleet t statement ~on_done =
  let targets =
    Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []
    |> List.sort (fun a b -> compare a.s_id b.s_id)
    |> Array.of_list
  in
  let n = Array.length targets in
  if n = 0 then on_done empty_outcome
  else begin
    (* The whole federated operation is one causal trace, assembled off
       the synchronous stack (replies settle from RPC callbacks in
       arbitrary order): a fleet.query root, one child span per router
       carrying the router id, and the propagated (trace_id, span) pair
       that roots each router's server-side handler under its span. *)
    let tb =
      Builder.start t.trace "fleet.query"
        ~attrs:[ ("statement", Tracer.Str statement); ("routers", Tracer.Int n) ]
    in
    (* per-target slots keep the merge deterministic (id order)
       regardless of reply arrival order *)
    let results = Array.make n None in
    let spans = Array.make n 0 in
    let remaining = ref n in
    let launched = ref 0 in
    let finish () =
      let merge = Builder.open_span tb "fleet.merge" in
      let columns = ref [] in
      let rows = ref [] in
      let ok = ref 0 in
      let errors = ref [] in
      Array.iteri
        (fun i slot ->
          let id = targets.(i).s_id in
          match slot with
          | None -> assert false (* finish only runs at remaining = 0 *)
          | Some (Error msg) -> errors := (id, msg) :: !errors
          | Some (Ok None) -> incr ok (* non-SELECT fan-out: no rows *)
          | Some (Ok (Some rs)) ->
              if !columns = [] then columns := rs.Query.columns;
              if rs.Query.columns = !columns then begin
                incr ok;
                List.iter (fun row -> rows := (Value.Str id :: row) :: !rows) rs.Query.rows
              end
              else errors := (id, "fleet: column mismatch in federated merge") :: !errors)
        results;
      let columns = if !columns = [] then [ "router" ] else "router" :: !columns in
      Builder.set_attr tb merge "ok" (Tracer.Int !ok);
      Builder.set_attr tb merge "errors" (Tracer.Int (List.length !errors));
      Builder.close_span tb merge;
      let trace = Builder.id tb in
      Builder.finish tb;
      on_done
        { columns; rows = List.rev !rows; ok = !ok; errors = List.rev !errors; trace }
    in
    let rec launch () =
      if !launched < n then begin
        let i = !launched in
        incr launched;
        Hw_metrics.Counter.incr t.m_fanout_requests;
        let s = targets.(i) in
        let span =
          Builder.open_span tb "fleet.rpc" ~attrs:[ ("router", Tracer.Str s.s_id) ]
        in
        spans.(i) <- span;
        let ctx =
          if span = 0 then None else Some { Rpc.trace_id = Builder.id tb; parent_span = span }
        in
        let on_settled =
          if span = 0 then None
          else Some (fun ~attempts -> Builder.set_attr tb span "attempts" (Tracer.Int attempts))
        in
        Rpc.Client.request s.s_client ?ctx ?on_settled statement ~on_reply:(fun reply ->
            (match reply with
            | Error msg ->
                Hw_metrics.Counter.incr t.m_fanout_errors;
                Builder.mark_error tb span msg
            | Ok _ -> ());
            Builder.close_span tb span;
            results.(i) <- Some reply;
            decr remaining;
            if !remaining = 0 then finish () else launch ())
      end
    in
    (* bounded concurrency: an initial window of [max_inflight], then
       each settled reply (answer or final timeout) admits the next *)
    for _ = 1 to min t.max_inflight n do
      launch ()
    done
  end

let query t statement ~on_done =
  (* parse once here instead of N times router-side: a statement the
     fleet's own parser rejects would fail identically on every router,
     so the fan-out (and its retry traffic) is pure waste. Valid text
     goes out verbatim and lands in each router's plan cache. *)
  match Hw_hwdb.Parser.parse statement with
  | Error msg -> on_done { empty_outcome with errors = [ ("manager", msg) ] }
  | Ok _ -> query_fleet t statement ~on_done

let create ?(metrics = Hw_metrics.Registry.create ()) ?(trace = Tracer.disabled)
    ?(lease_s = 30.) ?(retry = Rpc.Client.default_retry) ?(max_inflight = 64)
    ?(seed = 0xf1ee7) ~loop ~send () =
  let counter name help = Hw_metrics.Registry.counter metrics name ~help in
  let t =
    {
      loop;
      send;
      lease_s;
      retry;
      max_inflight;
      seed;
      metrics;
      trace;
      on_session = ignore;
      sessions = Hashtbl.create 64;
      by_addr = Hashtbl.create 64;
      fleet_subs = [];
      next_token = 1;
      m_sessions =
        Hw_metrics.Registry.gauge metrics "fleet_sessions" ~help:"Registered router sessions";
      m_registrations = counter "fleet_registrations_total" "FLEET REGISTER requests accepted";
      m_evictions = counter "fleet_evictions_total" "Sessions evicted on lease lapse";
      m_fanout_requests = counter "fleet_fanout_requests_total" "Federated per-router requests";
      m_fanout_errors =
        counter "fleet_fanout_errors_total" "Per-router federated requests that failed";
      m_rollup_events = counter "fleet_rollup_events_total" "Publishes rolled up fleet-wide";
    }
  in
  Hw_sim.Event_loop.every loop (lease_s /. 2.) (fun () -> evict_lapsed t);
  t
