open Hw_util

let magic = 0x4877 (* "Hw" *)
let version = 1

type context = { trace_id : int; parent_span : int }

type message =
  | Request of { seq : int32; statement : string; ctx : context option }
  | Response_ok of { seq : int32; result : Query.result_set option }
  | Response_error of { seq : int32; message : string }
  | Publish of { subscription : int; result : Query.result_set }

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

exception Encode_error of string

let write_string w s =
  let len = String.length s in
  if len > 0xffff then
    raise
      (Encode_error
         (Printf.sprintf "rpc: string of %d bytes does not fit the u16 length field" len));
  Wire.Writer.u16 w len;
  Wire.Writer.string w s

let read_string r ~field =
  let len = Wire.Reader.u16 r ~field in
  Wire.Reader.bytes r ~field len

let write_value w v =
  match v with
  | Value.Int i ->
      Wire.Writer.u8 w 1;
      Wire.Writer.u64 w (Int64.of_int i)
  | Value.Real f ->
      Wire.Writer.u8 w 2;
      Wire.Writer.u64 w (Int64.bits_of_float f)
  | Value.Str s ->
      Wire.Writer.u8 w 3;
      write_string w s
  | Value.Bool b ->
      Wire.Writer.u8 w 4;
      Wire.Writer.u8 w (if b then 1 else 0)
  | Value.Ts ts ->
      Wire.Writer.u8 w 5;
      Wire.Writer.u64 w (Int64.bits_of_float ts)

let read_value r =
  match Wire.Reader.u8 r ~field:"rpc.value.tag" with
  | 1 -> Value.Int (Int64.to_int (Wire.Reader.u64 r ~field:"rpc.value.int"))
  | 2 -> Value.Real (Int64.float_of_bits (Wire.Reader.u64 r ~field:"rpc.value.real"))
  | 3 -> Value.Str (read_string r ~field:"rpc.value.str")
  | 4 -> Value.Bool (Wire.Reader.u8 r ~field:"rpc.value.bool" <> 0)
  | 5 -> Value.Ts (Int64.float_of_bits (Wire.Reader.u64 r ~field:"rpc.value.ts"))
  | n -> raise (Wire.Truncated (Printf.sprintf "rpc.value: unknown tag %d" n))

let write_result_set w (rs : Query.result_set) =
  Wire.Writer.u16 w (List.length rs.Query.columns);
  List.iter (write_string w) rs.Query.columns;
  Wire.Writer.u32_int w (List.length rs.Query.rows);
  List.iter (fun row -> List.iter (write_value w) row) rs.Query.rows

let read_result_set r =
  let ncols = Wire.Reader.u16 r ~field:"rpc.result.ncols" in
  let columns = List.init ncols (fun _ -> read_string r ~field:"rpc.result.col") in
  let nrows = Wire.Reader.u32_int r ~field:"rpc.result.nrows" in
  let rows = List.init nrows (fun _ -> List.init ncols (fun _ -> read_value r)) in
  { Query.columns; rows }

let encode msg =
  let w = Wire.Writer.create ~initial_capacity:128 () in
  Wire.Writer.u16 w magic;
  Wire.Writer.u8 w version;
  (match msg with
  | Request { seq; statement; ctx } -> (
      Wire.Writer.u8 w 1;
      Wire.Writer.u32 w seq;
      write_string w statement;
      (* Trace context rides as an optional trailing block: a context-free
         request is byte-identical to the version-1 frame, and decoders
         that predate the block stop reading at the statement and ignore
         the trailer — compatible in both directions. *)
      match ctx with
      | None -> ()
      | Some c ->
          Wire.Writer.u8 w 1;
          Wire.Writer.u64 w (Int64.of_int c.trace_id);
          Wire.Writer.u32_int w c.parent_span)
  | Response_ok { seq; result } ->
      Wire.Writer.u8 w 2;
      Wire.Writer.u32 w seq;
      (match result with
      | None -> Wire.Writer.u8 w 0
      | Some rs ->
          Wire.Writer.u8 w 1;
          write_result_set w rs)
  | Response_error { seq; message } ->
      Wire.Writer.u8 w 3;
      Wire.Writer.u32 w seq;
      write_string w message
  | Publish { subscription; result } ->
      Wire.Writer.u8 w 4;
      Wire.Writer.u32_int w subscription;
      write_result_set w result);
  Wire.Writer.contents w

let decode buf =
  try
    let r = Wire.Reader.of_string buf in
    let m = Wire.Reader.u16 r ~field:"rpc.magic" in
    let v = Wire.Reader.u8 r ~field:"rpc.version" in
    if m <> magic then Error "rpc: bad magic"
    else if v <> version then Error (Printf.sprintf "rpc: unsupported version %d" v)
    else
      match Wire.Reader.u8 r ~field:"rpc.type" with
      | 1 ->
          let seq = Wire.Reader.u32 r ~field:"rpc.seq" in
          let statement = read_string r ~field:"rpc.statement" in
          let ctx =
            if
              Wire.Reader.remaining r > 0
              && Wire.Reader.peek_u8 r ~field:"rpc.ctx.flag" = 1
            then begin
              ignore (Wire.Reader.u8 r ~field:"rpc.ctx.flag");
              let trace_id =
                Int64.to_int (Wire.Reader.u64 r ~field:"rpc.ctx.trace_id")
              in
              let parent_span = Wire.Reader.u32_int r ~field:"rpc.ctx.parent_span" in
              Some { trace_id; parent_span }
            end
            else None
          in
          Ok (Request { seq; statement; ctx })
      | 2 ->
          let seq = Wire.Reader.u32 r ~field:"rpc.seq" in
          let has_result = Wire.Reader.u8 r ~field:"rpc.has_result" <> 0 in
          let result = if has_result then Some (read_result_set r) else None in
          Ok (Response_ok { seq; result })
      | 3 ->
          let seq = Wire.Reader.u32 r ~field:"rpc.seq" in
          Ok (Response_error { seq; message = read_string r ~field:"rpc.error" })
      | 4 ->
          let subscription = Wire.Reader.u32_int r ~field:"rpc.sub" in
          Ok (Publish { subscription; result = read_result_set r })
      | n -> Error (Printf.sprintf "rpc: unknown message type %d" n)
  with Wire.Truncated f -> Error (Printf.sprintf "rpc: truncated at %s" f)

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

module Server = struct
  let log_src = Logs.Src.create "hw.hwdb.rpc" ~doc:"hwdb RPC server"

  module Log = (val Logs.src_log log_src : Logs.LOG)

  module Tracer = Hw_trace.Tracer

  (* One remote subscriber. The lease covers [lease_periods] publish
     periods; every re-SUBSCRIBE of the same (address, statement) pair
     renews it instead of creating a second subscription, and a
     subscriber whose lease has lapsed is evicted the next time its
     query fires — which is what bounds [client_subs] against clients
     that silently die. *)
  type client_sub = {
    cs_addr : string;
    cs_key : string; (* statement text + period: the renewal identity *)
    mutable cs_id : int;
    mutable cs_expires : float;
  }

  type t = {
    db : Database.t;
    trace : Tracer.t;
    now : unit -> float;
    lease_periods : int;
    send : to_:string -> string -> unit;
    mutable client_subs : client_sub list;
    (* idempotency: a retried statement that changes state replays its
       cached response instead of executing again; a SELECT keeps no
       reply and re-executes *)
    dedup : (string, string) Hashtbl.t;
    dedup_order : string Queue.t;
    dedup_cap : int;
    m_in : Hw_metrics.Counter.t;
    m_out : Hw_metrics.Counter.t;
    m_dropped : Hw_metrics.Counter.t;
    m_dedup_hits : Hw_metrics.Counter.t;
    m_subs_evicted : Hw_metrics.Counter.t;
  }

  let create ?metrics ?trace ?now ?(lease_periods = 4) ?(dedup_window = 256) ~db ~send
      () =
    (* Defaulting to the database's registry puts rpc_* rows in its own
       Metrics table, alongside the hwdb_* counters the server drives;
       same reasoning for the tracer and the clock. *)
    let metrics = Option.value metrics ~default:(Database.metrics db) in
    let trace = Option.value trace ~default:(Database.tracer db) in
    let now = Option.value now ~default:(Database.clock db) in
    (* Pre-register the client-side retry family at zero so the series
       appear on every export surface of this registry even before any
       co-resident client sends a request; a client created with the
       same registry increments these same instruments. *)
    ignore
      (Hw_metrics.Registry.counter metrics "rpc_retries_total"
         ~help:"Requests retransmitted after a timeout");
    ignore
      (Hw_metrics.Registry.counter metrics "rpc_request_timeouts_total"
         ~help:"Requests abandoned after exhausting their retry budget");
    ignore
      (Hw_metrics.Registry.counter metrics "rpc_resubscribes_total"
         ~help:"Subscriptions re-established after publish silence");
    {
      db;
      trace;
      now;
      lease_periods;
      send;
      client_subs = [];
      dedup = Hashtbl.create (2 * dedup_window);
      dedup_order = Queue.create ();
      dedup_cap = dedup_window;
      m_in =
        Hw_metrics.Registry.counter metrics "rpc_datagrams_in_total"
          ~help:"Datagrams handed to the RPC server";
      m_out =
        Hw_metrics.Registry.counter metrics "rpc_datagrams_out_total"
          ~help:"Datagrams sent by the RPC server (responses and publishes)";
      m_dropped =
        Hw_metrics.Registry.counter metrics "rpc_datagrams_dropped_total"
          ~help:"Inbound datagrams dropped (malformed or non-request)";
      m_dedup_hits =
        Hw_metrics.Registry.counter metrics "rpc_dedup_hits_total"
          ~help:"Retried requests answered from the dedup window";
      m_subs_evicted =
        Hw_metrics.Registry.counter metrics "subs_evicted_total"
          ~help:"Subscribers evicted after their lease lapsed";
    }

  let send t ~to_ data =
    Hw_metrics.Counter.incr t.m_out;
    t.send ~to_ data

  let subscriber_count t = List.length t.client_subs
  let kept_replies t = Hashtbl.length t.dedup

  let evict t cs =
    ignore (Database.unsubscribe t.db cs.cs_id);
    t.client_subs <- List.filter (fun c -> c != cs) t.client_subs;
    Hw_metrics.Counter.incr t.m_subs_evicted;
    Log.info (fun m ->
        m "evicted subscriber %s (sub %d): lease lapsed" cs.cs_addr cs.cs_id)

  let sub_ok_response seq id =
    Response_ok
      {
        seq;
        result = Some { Query.columns = [ "subscription_id" ]; rows = [ [ Value.Int id ] ] };
      }

  let handle_stmt t ~from seq statement stmt =
    match stmt with
    | Ast.Subscribe (sel, period) when period > 0. -> (
        let key = Printf.sprintf "%s|%g" statement period in
        let lease = float_of_int t.lease_periods *. period in
        match
          List.find_opt (fun cs -> cs.cs_addr = from && cs.cs_key = key) t.client_subs
        with
        | Some cs ->
            (* renewal: extend the lease, keep the existing subscription *)
            cs.cs_expires <- t.now () +. lease;
            sub_ok_response seq cs.cs_id
        | None ->
            let cs =
              { cs_addr = from; cs_key = key; cs_id = 0; cs_expires = t.now () +. lease }
            in
            let callback result =
              (* lease check rides on the publish path: a lapsed
                 subscriber is evicted instead of published to *)
              if t.now () > cs.cs_expires then evict t cs
              else send t ~to_:from (encode (Publish { subscription = cs.cs_id; result }))
            in
            let id = Database.subscribe t.db ~query:sel ~period ~callback in
            cs.cs_id <- id;
            t.client_subs <- cs :: t.client_subs;
            sub_ok_response seq id)
    | Ast.Unsubscribe id ->
        if Database.unsubscribe t.db id then begin
          t.client_subs <- List.filter (fun cs -> cs.cs_id <> id) t.client_subs;
          Response_ok { seq; result = None }
        end
        else Response_error { seq; message = Printf.sprintf "no subscription %d" id }
    | stmt -> (
        match Database.execute_stmt t.db ~text:statement stmt with
        | Ok result -> Response_ok { seq; result }
        | Error message -> Response_error { seq; message })

  (* The reply, and whether the statement changed state (only such a
     statement's reply is kept for a retry). Repeated query text
     (pollers, fleet fan-out) hits the plan cache and executes without
     parsing at all; everything else parses once and dispatches on the
     AST — never re-parsing to execute. *)
  let handle_request t ~from seq statement =
    match Database.cached_select t.db statement with
    | Some (Ok result) -> (Response_ok { seq; result = Some result }, false)
    | Some (Error message) -> (Response_error { seq; message }, false)
    | None -> (
        match Parser.parse statement with
        | Error message -> (Response_error { seq; message }, false)
        | Ok (Ast.Select _ as stmt) -> (handle_stmt t ~from seq statement stmt, false)
        | Ok stmt -> (handle_stmt t ~from seq statement stmt, true))

  (* Whether the statement's first token is the SELECT keyword, read in
     place with the lexer's rules (blanks, case-insensitive keywords,
     identifier characters): such a statement parses to a SELECT or
     fails to parse, and changes nothing either way. *)
  let is_select statement =
    let n = String.length statement in
    let rec first i =
      if i < n && String.contains " \t\n\r" statement.[i] then first (i + 1) else i
    in
    let i = first 0 in
    let rec keyword j =
      j = 6
      || Char.equal (Char.uppercase_ascii statement.[i + j]) (String.unsafe_get "SELECT" j)
         && keyword (j + 1)
    in
    i + 6 <= n
    && keyword 0
    && (i + 6 = n
       ||
       match statement.[i + 6] with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> false
       | _ -> true)

  let handle_datagram t ~from data =
    Hw_metrics.Counter.incr t.m_in;
    match decode data with
    | Ok (Request { seq; statement; ctx }) -> (
        (* an RPC query is an event lifecycle of its own: root a trace
           so the statement's hwdb work is causally recorded. A request
           carrying propagated context roots under the REMOTE trace id
           instead, stitching this node's spans into the caller's
           distributed trace. *)
        let traced serve =
          let attrs =
            if Tracer.enabled t.trace then
              [ ("from", Tracer.Str from); ("statement", Tracer.Str statement) ]
            else []
          in
          match ctx with
          | Some { trace_id; parent_span } ->
              Tracer.with_remote_trace t.trace ~trace_id ~parent_span "rpc.request" ~attrs serve
          | None -> Tracer.with_trace t.trace "rpc.request" ~attrs serve
        in
        if is_select statement then
          (* a retried SELECT re-executes; the client keeps the first
             answer *)
          traced (fun () -> send t ~to_:from (encode (fst (handle_request t ~from seq statement))))
        else
          (* (sender, seq, statement) identifies a request across
             retries; a hit replays the cached response without
             re-executing, so a retried INSERT is applied exactly once.
             Built without Printf, which no other per-request path
             runs. *)
          let dkey = from ^ "#" ^ Int32.to_string seq ^ "#" ^ statement in
          match Hashtbl.find_opt t.dedup dkey with
          | Some cached ->
              Hw_metrics.Counter.incr t.m_dedup_hits;
              send t ~to_:from cached
          | None ->
              traced (fun () ->
                  let response, changed = handle_request t ~from seq statement in
                  let data = encode response in
                  if changed then begin
                    Hashtbl.replace t.dedup dkey data;
                    Queue.add dkey t.dedup_order;
                    if Queue.length t.dedup_order > t.dedup_cap then
                      Hashtbl.remove t.dedup (Queue.pop t.dedup_order)
                  end;
                  send t ~to_:from data))
    | Ok _ ->
        Hw_metrics.Counter.incr t.m_dropped;
        Log.debug (fun m -> m "non-request datagram from %s dropped" from)
    | Error msg ->
        Hw_metrics.Counter.incr t.m_dropped;
        Log.debug (fun m -> m "malformed datagram from %s: %s" from msg)

  let drop_client t addr =
    let mine, others =
      List.partition (fun cs -> String.equal cs.cs_addr addr) t.client_subs
    in
    List.iter (fun cs -> ignore (Database.unsubscribe t.db cs.cs_id)) mine;
    t.client_subs <- others;
    List.length mine
end

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

module Client = struct
  let log_src = Logs.Src.create "hw.hwdb.rpc.client" ~doc:"hwdb RPC client"

  module Log = (val Logs.src_log log_src : Logs.LOG)

  type retry = {
    timeout : float;  (** first-attempt timeout, seconds *)
    max_attempts : int;
    backoff : float;  (** timeout multiplier per attempt *)
    max_timeout : float;  (** backoff cap *)
    jitter : float;  (** +- fraction of the timeout, e.g. 0.2 *)
  }

  let default_retry =
    { timeout = 1.; max_attempts = 5; backoff = 2.; max_timeout = 10.; jitter = 0.2 }

  type pending = {
    p_statement : string;
    p_ctx : context option; (* retransmits must carry the same context *)
    p_reply : (Query.result_set option, string) result -> unit;
    p_settled : (attempts:int -> unit) option;
    mutable p_attempt : int;
  }

  type handler_id = int

  type publish_handler = {
    ph_id : handler_id;
    ph_fn : subscription:int -> Query.result_set -> unit;
  }

  type t = {
    send : string -> unit;
    schedule : (float -> (unit -> unit) -> unit) option;
    retry : retry;
    mutable jstate : int64; (* splitmix64 state for retry jitter *)
    mutable next_seq : int32;
    pending : (int32, pending) Hashtbl.t;
    (* newest registration first, so registering is a cons; delivery
       replays the list back to front, in registration order *)
    mutable publish_handlers : publish_handler list;
    mutable next_handler : int;
    m_retries : Hw_metrics.Counter.t;
    m_timeouts : Hw_metrics.Counter.t;
  }

  let create ?(metrics = Hw_metrics.Registry.default) ?schedule ?(retry = default_retry)
      ?(seed = 1) ~send () =
    {
      send;
      schedule;
      retry;
      jstate = Int64.of_int seed;
      next_seq = 1l;
      pending = Hashtbl.create 8;
      publish_handlers = [];
      next_handler = 0;
      m_retries =
        Hw_metrics.Registry.counter metrics "rpc_retries_total"
          ~help:"Requests retransmitted after a timeout";
      m_timeouts =
        Hw_metrics.Registry.counter metrics "rpc_request_timeouts_total"
          ~help:"Requests abandoned after exhausting every retry";
    }

  (* splitmix64 step — self-contained so the client does not pull the
     simulator in just for jitter; same constants as Hw_sim.Prng *)
  let jitter_unit t =
    t.jstate <- Int64.add t.jstate 0x9E3779B97F4A7C15L;
    let z = t.jstate in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992. (* [0,1) *)

  (* the start of the error a request settles with when no attempt was
     answered, which [Subscriber] tells apart from a server's refusal *)
  let timed_out = "rpc: timed out"

  (* Arm the retransmit timer for attempt [p.p_attempt]. Retries reuse
     the original sequence number — that IS the idempotency key the
     server's dedup window matches on. Capped exponential backoff with
     +-jitter; without a scheduler requests simply never time out (the
     pre-existing fire-and-forget behaviour). *)
  let rec arm t seq p =
    match t.schedule with
    | None -> ()
    | Some schedule ->
        let attempt = p.p_attempt in
        let base =
          Float.min t.retry.max_timeout
            (t.retry.timeout *. (t.retry.backoff ** float_of_int (attempt - 1)))
        in
        let d = base *. (1. +. (t.retry.jitter *. ((2. *. jitter_unit t) -. 1.))) in
        schedule d (fun () ->
            match Hashtbl.find_opt t.pending seq with
            | Some p' when p' == p && p'.p_attempt = attempt ->
                if attempt >= t.retry.max_attempts then begin
                  Hashtbl.remove t.pending seq;
                  Hw_metrics.Counter.incr t.m_timeouts;
                  Log.debug (fun m ->
                      m "request %ld timed out after %d attempts" seq attempt);
                  (match p.p_settled with
                  | Some f -> f ~attempts:attempt
                  | None -> ());
                  p.p_reply
                    (Error (Printf.sprintf "%s after %d attempts" timed_out attempt))
                end
                else begin
                  p.p_attempt <- attempt + 1;
                  Hw_metrics.Counter.incr t.m_retries;
                  t.send
                    (encode (Request { seq; statement = p.p_statement; ctx = p.p_ctx }));
                  arm t seq p
                end
            | _ -> () (* answered (or superseded) in the meantime *))

  let request t ?ctx ?on_settled statement ~on_reply =
    let seq = t.next_seq in
    t.next_seq <- Int32.add seq 1l;
    let p =
      {
        p_statement = statement;
        p_ctx = ctx;
        p_reply = on_reply;
        p_settled = on_settled;
        p_attempt = 1;
      }
    in
    Hashtbl.replace t.pending seq p;
    t.send (encode (Request { seq; statement; ctx }));
    arm t seq p

  let add_publish_handler t f =
    let id = t.next_handler in
    t.next_handler <- id + 1;
    t.publish_handlers <- { ph_id = id; ph_fn = f } :: t.publish_handlers;
    id

  let remove_publish_handler t id =
    t.publish_handlers <- List.filter (fun h -> h.ph_id <> id) t.publish_handlers

  let on_publish t f = ignore (add_publish_handler t f : handler_id)
  let publish_handler_count t = List.length t.publish_handlers

  let rec deliver ~subscription result = function
    | [] -> ()
    | h :: older ->
        deliver ~subscription result older;
        h.ph_fn ~subscription result

  let settle t seq outcome =
    match Hashtbl.find_opt t.pending seq with
    | Some p ->
        Hashtbl.remove t.pending seq;
        (match p.p_settled with
        | Some f -> f ~attempts:p.p_attempt
        | None -> ());
        p.p_reply outcome
    | None -> () (* duplicate response after a retry raced the original *)

  let handle_message t = function
    | Response_ok { seq; result } -> settle t seq (Ok result)
    | Response_error { seq; message } -> settle t seq (Error message)
    | Publish { subscription; result } -> deliver ~subscription result t.publish_handlers
    | Request _ -> ()

  let handle_datagram t data =
    match decode data with Ok msg -> handle_message t msg | Error _ -> ()

  let pending_count t = Hashtbl.length t.pending
end

(* ------------------------------------------------------------------ *)
(* Leased subscriber                                                   *)
(* ------------------------------------------------------------------ *)

module Subscriber = struct
  (* The client half of the subscription-lease protocol: re-SUBSCRIBE
     both proactively (before the server-side lease lapses) and
     reactively (on publish silence, which is what a server restart,
     an eviction or a lost SUBSCRIBE all look like from here). The
     server treats a repeated SUBSCRIBE of the same statement as a
     renewal, so this is idempotent. *)

  type t = {
    client : Client.t;
    statement : string;
    now : unit -> float;
    renew_every : float;
    silence_after : float;
    on_result : Query.result_set -> unit;
    mutable sub_id : int option;
    mutable refusal : string option;
    mutable last_heard : float;
    mutable last_renewal : float;
    mutable resubscribes : int;
    mutable stopped : bool;
    mutable handler : Client.handler_id;
    m_resubs : Hw_metrics.Counter.t;
  }

  let subscribe t =
    t.last_renewal <- t.now ();
    Client.request t.client t.statement ~on_reply:(fun reply ->
        match reply with
        | Ok (Some { Query.rows = [ [ Value.Int id ] ]; _ }) ->
            t.sub_id <- Some id;
            t.refusal <- None;
            t.last_heard <- t.now ()
        | Error msg when not (String.starts_with ~prefix:Client.timed_out msg) ->
            (* refused; the watchdog still tries again, since a datagram
               damaged on the way reads as a refusal too *)
            t.refusal <- Some msg
        | Ok _ | Error _ -> () (* lost; the watchdog will try again *))

  let attach ?(metrics = Hw_metrics.Registry.default) ?renew_every ?silence_after ~now
      ~schedule ~client ~statement ~period ~on_result () =
    (* the watchdog reschedules itself every [period] *)
    if not (period > 0.) then invalid_arg "Rpc.Subscriber.attach: period must be positive";
    let t =
      {
        client;
        statement;
        now;
        renew_every = Option.value renew_every ~default:(2. *. period);
        silence_after = Option.value silence_after ~default:(3. *. period);
        on_result;
        sub_id = None;
        refusal = None;
        last_heard = now ();
        last_renewal = now ();
        resubscribes = 0;
        stopped = false;
        handler = -1;
        m_resubs =
          Hw_metrics.Registry.counter metrics "rpc_resubscribes_total"
            ~help:"SUBSCRIBEs re-sent on publish silence";
      }
    in
    t.handler <-
      Client.add_publish_handler client (fun ~subscription rs ->
          if (not t.stopped) && t.sub_id = Some subscription then begin
            t.last_heard <- t.now ();
            t.on_result rs
          end);
    subscribe t;
    let rec watchdog () =
      if not t.stopped then begin
        let now = t.now () in
        if now -. t.last_heard > t.silence_after then begin
          (* silent: the subscription is gone as far as we can tell *)
          t.resubscribes <- t.resubscribes + 1;
          Hw_metrics.Counter.incr t.m_resubs;
          subscribe t
        end
        else if now -. t.last_renewal >= t.renew_every then subscribe t;
        schedule period watchdog
      end
    in
    schedule period watchdog;
    t

  let detach t =
    if not t.stopped then Client.remove_publish_handler t.client t.handler;
    t.stopped <- true;
    match t.sub_id with
    | None -> ()
    | Some id ->
        t.sub_id <- None;
        Client.request t.client (Printf.sprintf "UNSUBSCRIBE %d" id)
          ~on_reply:(fun _ -> ())

  let sub_id t = t.sub_id
  let refusal t = t.refusal
  let resubscribes t = t.resubscribes
end
