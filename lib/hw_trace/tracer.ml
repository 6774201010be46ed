module Ring = Hw_util.Ring

type attr =
  | Str of string
  | Int of int
  | Bool of bool
  | Real of float
  | Ip of Hw_packet.Ip.t
  | Mac of Hw_packet.Mac.t

type span = {
  span_id : int;
  parent : int; (* span_id of the enclosing span; 0 for the root *)
  name : string;
  start : float;
  mutable duration : float;
  mutable attrs : (string * attr) list; (* reverse insertion order *)
  mutable error : string option;
}

type completed = {
  id : int;
  start : float;
  duration : float;
  errored : bool;
  spans : span array; (* open order: spans.(0) is the root *)
}

type t = {
  now : unit -> float;
  enabled : bool;
  slow_threshold : float;
  sample_every : int;
  recorder : completed Ring.t;
  (* One trace at a time: the whole packet/event lifecycle is a single
     synchronous call stack (datapath rx -> controller -> handlers ->
     hwdb), so per-trace state can live flat in the tracer. *)
  mutable trace_id : int; (* 0 when no trace is active *)
  mutable next_span_id : int; (* span ids are dense in open order, from 1 *)
  mutable stack : span list; (* open spans, innermost first *)
  (* span [i] of the active trace at slot [i - 1]: ids are dense, so a
     kept trace copies a prefix and needs no sort; reused across traces *)
  mutable slots : span array;
  mutable errored : bool;
  mutable left : int; (* Sampled-style 1-in-N countdown *)
  mutable next_trace_id : int;
  m_started : Hw_metrics.Counter.t;
  m_kept : Hw_metrics.Counter.t;
  m_dropped : Hw_metrics.Counter.t;
  m_spans : Hw_metrics.Counter.t;
  h_duration : Hw_metrics.Histogram.t;
}

let make ~enabled ~capacity ~sample_every ~slow_threshold ~counter ~histogram ~now =
  {
    now;
    enabled;
    slow_threshold;
    sample_every;
    recorder = Ring.create ~capacity;
    trace_id = 0;
    next_span_id = 1;
    stack = [];
    slots = [||];
    errored = false;
    left = 1; (* first completed trace is sampled, like Sampled.create *)
    next_trace_id = 1;
    m_started = counter "trace_started_total" "Traces opened at a root span";
    m_kept = counter "trace_kept_total" "Completed traces retained in the flight recorder";
    m_dropped = counter "trace_dropped_total" "Completed traces discarded by tail-sampling";
    m_spans = counter "trace_spans_total" "Spans closed across all traces";
    h_duration = histogram "trace_duration_seconds" "End-to-end duration of sampled traces";
  }

let create ?(capacity = 128) ?(sample_every = 1) ?(slow_threshold = 0.05) ?metrics ~now () =
  if capacity <= 0 then invalid_arg "Hw_trace.Tracer.create: capacity must be positive";
  if sample_every <= 0 then invalid_arg "Hw_trace.Tracer.create: sample_every must be positive";
  let metrics = Option.value metrics ~default:Hw_metrics.Registry.default in
  make ~enabled:true ~capacity ~sample_every ~slow_threshold
    ~counter:(fun name help -> Hw_metrics.Registry.counter metrics name ~help)
    ~histogram:(fun name help -> Hw_metrics.Registry.histogram metrics name ~help)
    ~now

(* Standalone instruments: the disabled tracer must not pollute the
   default registry (or require one). It never records, so they stay 0. *)
let disabled =
  make ~enabled:false ~capacity:1 ~sample_every:1 ~slow_threshold:infinity
    ~counter:(fun name help -> Hw_metrics.Counter.create ~name ~help)
    ~histogram:(fun name help -> Hw_metrics.Histogram.create ~name ~help)
    ~now:(fun () -> 0.)

let enabled t = t.enabled
let in_trace t = t.trace_id <> 0
let trace_id t = if t.trace_id = 0 then None else Some t.trace_id

let set_attr t key v =
  match t.stack with [] -> () | s :: _ -> s.attrs <- (key, v) :: s.attrs

let mark_error t msg =
  match t.stack with
  | [] -> ()
  | s :: _ ->
      s.error <- Some msg;
      t.errored <- true

let open_span ?parent t name attrs =
  let parent =
    match parent with
    | Some p -> p
    | None -> ( match t.stack with [] -> 0 | p :: _ -> p.span_id)
  in
  let span_id = t.next_span_id in
  t.next_span_id <- span_id + 1;
  let s =
    { span_id; parent; name; start = t.now (); duration = 0.; attrs; error = None }
  in
  if span_id > Array.length t.slots then begin
    let grown = Array.make (max 8 (2 * span_id)) s in
    Array.blit t.slots 0 grown 0 (Array.length t.slots);
    t.slots <- grown
  end;
  Array.unsafe_set t.slots (span_id - 1) s;
  t.stack <- s :: t.stack;
  s

let close_span t (s : span) =
  s.duration <- t.now () -. s.start;
  (match t.stack with
  | top :: rest when top == s -> t.stack <- rest
  | _ ->
      (* unbalanced close (shouldn't happen with the with_* combinators);
         drop everything opened above [s] as implicitly closed *)
      let rec drop = function
        | [] -> []
        | x :: rest -> if x == s then rest else drop rest
      in
      t.stack <- drop t.stack);
  Hw_metrics.Counter.incr t.m_spans

let finish_trace t root =
  close_span t root;
  let duration = root.duration in
  let sampled = t.left <= 1 in
  if sampled then begin
    t.left <- t.sample_every;
    Hw_metrics.Histogram.observe t.h_duration duration
  end
  else t.left <- t.left - 1;
  let keep = t.errored || duration >= t.slow_threshold || sampled in
  if keep then begin
    let spans = Array.sub t.slots 0 (t.next_span_id - 1) in
    Ring.push t.recorder
      { id = t.trace_id; start = root.start; duration; errored = t.errored; spans };
    Hw_metrics.Counter.incr t.m_kept
  end
  else Hw_metrics.Counter.incr t.m_dropped;
  t.trace_id <- 0;
  t.next_span_id <- 1;
  t.stack <- [];
  t.errored <- false

let with_span t ?(attrs = []) name f =
  if t.trace_id = 0 then f ()
  else begin
    let s = open_span t name attrs in
    match f () with
    | v ->
        close_span t s;
        v
    | exception exn ->
        s.error <- Some (Printexc.to_string exn);
        t.errored <- true;
        close_span t s;
        raise exn
  end

let run_as_root t root f =
  match f () with
  | v ->
      finish_trace t root;
      v
  | exception exn ->
      root.error <- Some (Printexc.to_string exn);
      t.errored <- true;
      finish_trace t root;
      raise exn

let with_trace t ?attrs name f =
  if not t.enabled then f ()
  else if t.trace_id <> 0 then with_span t ?attrs name f
  else begin
    Hw_metrics.Counter.incr t.m_started;
    t.trace_id <- t.next_trace_id;
    t.next_trace_id <- t.next_trace_id + 1;
    let root = open_span t name (Option.value attrs ~default:[]) in
    run_as_root t root f
  end

(* A trace whose causal parent lives on another node (an RPC request
   carrying propagated context): the root records under the REMOTE trace
   id with its parent pointing at the remote span, so every node's
   flight-recorder rows for one distributed operation share a trace id
   and link into one tree. Span ids stay locally dense — the id
   namespace is per node, only (trace_id, parent-of-root) cross. *)
let with_remote_trace t ~trace_id ~parent_span ?attrs name f =
  if not t.enabled then f ()
  else if t.trace_id <> 0 then with_span t ?attrs name f
  else if trace_id <= 0 then with_trace t ?attrs name f
  else begin
    Hw_metrics.Counter.incr t.m_started;
    t.trace_id <- trace_id;
    let root =
      open_span ~parent:(max 0 parent_span) t name (Option.value attrs ~default:[])
    in
    run_as_root t root f
  end

let current_span t = match t.stack with [] -> 0 | s :: _ -> s.span_id

(* Allocation + ingest hooks for externally assembled traces
   (Hw_trace.Builder drives these for async span trees that cannot live
   on the synchronous stack). *)
let next_id t =
  Hw_metrics.Counter.incr t.m_started;
  let id = t.next_trace_id in
  t.next_trace_id <- t.next_trace_id + 1;
  id

let record t (c : completed) =
  if t.enabled && Array.length c.spans > 0 then begin
    Ring.push t.recorder c;
    Hw_metrics.Counter.incr t.m_kept;
    Hw_metrics.Counter.add t.m_spans (Array.length c.spans);
    Hw_metrics.Histogram.observe t.h_duration c.duration
  end

let time t = t.now ()
let traces t = Ring.to_list_newest_first t.recorder
let pushed t = Ring.total_pushed t.recorder
let get t i = Ring.get t.recorder i
let find t id = List.find_opt (fun c -> c.id = id) (Ring.to_list t.recorder)
let kept t = Ring.length t.recorder
let capacity t = Ring.capacity t.recorder
let clear t = Ring.clear t.recorder
let started t = Hw_metrics.Counter.value t.m_started
let dropped t = Hw_metrics.Counter.value t.m_dropped

let attr_to_string = function
  | Str s -> s
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Real f -> Printf.sprintf "%g" f
  | Ip a -> Hw_packet.Ip.to_string a
  | Mac m -> Hw_packet.Mac.to_string m

(* digits straight into the buffer, as [string_of_int] spells them *)
let rec add_int buf i =
  if i < 0 then
    if i = min_int then Buffer.add_string buf (string_of_int i)
    else begin
      Buffer.add_char buf '-';
      add_int buf (-i)
    end
  else begin
    if i >= 10 then add_int buf (i / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))
  end

let add_attr buf = function
  | Str s -> Buffer.add_string buf s
  | Int i -> add_int buf i
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Real f -> Buffer.add_string buf (Printf.sprintf "%g" f)
  | Ip a -> Hw_packet.Ip.add_to_buffer buf a
  | Mac m -> Hw_packet.Mac.add_to_buffer buf m

(* One buffer for every export: the text is built in place, with no
   string per attribute, and copied out once. *)
let attrs_buf = Buffer.create 256

(* the list is newest first: write the older attributes, then this one *)
let rec add_attrs buf = function
  | [] -> ()
  | (k, v) :: older ->
      add_attrs buf older;
      (match older with [] -> () | _ :: _ -> Buffer.add_char buf ',');
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      add_attr buf v

let attrs_to_string = function
  | [] -> ""
  | attrs ->
      Buffer.clear attrs_buf;
      add_attrs attrs_buf attrs;
      Buffer.contents attrs_buf
