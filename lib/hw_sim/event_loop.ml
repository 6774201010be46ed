module Pq = struct
  (* binary min-heap on (time, seq) *)
  type 'a t = {
    mutable heap : (float * int * 'a) array;
    mutable size : int;
  }

  (* start empty and grow on demand: the first pushed item seeds the
     backing array, so no dummy element (previously an unsound
     Obj.magic 0) is ever needed *)
  let create () = { heap = [||]; size = 0 }

  let swap h i j =
    let tmp = h.heap.(i) in
    h.heap.(i) <- h.heap.(j);
    h.heap.(j) <- tmp

  (* annotated so that both comparisons compile to a float and an int
     compare, not to calls to the polymorphic compare *)
  let less ((t1 : float), (s1 : int), _) ((t2 : float), (s2 : int), _) =
    t1 < t2 || (t1 = t2 && s1 < s2)

  let push h item =
    if h.size = Array.length h.heap then begin
      let bigger = Array.make (max 64 (2 * h.size)) item in
      Array.blit h.heap 0 bigger 0 h.size;
      h.heap <- bigger
    end;
    h.heap.(h.size) <- item;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && less h.heap.(!i) h.heap.((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let peek h = if h.size = 0 then None else Some h.heap.(0)

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.heap.(0) in
      h.size <- h.size - 1;
      h.heap.(0) <- h.heap.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && less h.heap.(l) h.heap.(!smallest) then smallest := l;
        if r < h.size && less h.heap.(r) h.heap.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          swap h !i !smallest;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end

  let size h = h.size
end

let log_src = Logs.Src.create "hw.sim.loop" ~doc:"Discrete-event loop"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  clock : Hw_time.Clock.t;
  queue : (unit -> unit) Pq.t;
  mutable seq : int;
  mutable m_timer_errors : Hw_metrics.Counter.t;
}

let timer_error_counter metrics =
  Hw_metrics.Registry.counter metrics "event_loop_timer_errors_total"
    ~help:"Periodic timer thunks that raised (the timer is kept alive)"

let create ?(start = 0.) ?(metrics = Hw_metrics.Registry.default) () =
  {
    clock = Hw_time.Clock.create ~now:start ();
    queue = Pq.create ();
    seq = 0;
    m_timer_errors = timer_error_counter metrics;
  }

(* rebind the error counter into a different registry; lets a router
   that creates its own registry after the loop still own the series *)
let attach_metrics t metrics = t.m_timer_errors <- timer_error_counter metrics

let now t = Hw_time.Clock.now t.clock
let clock t = t.clock

let at t time thunk =
  let time = Float.max time (now t) in
  t.seq <- t.seq + 1;
  Pq.push t.queue (time, t.seq, thunk)

let after t delay thunk = at t (now t +. delay) thunk

let every t ?start_in period thunk =
  if period <= 0. then invalid_arg "Event_loop.every: period must be positive";
  let rec fire () =
    (* reschedule before invoking: a raising thunk must not kill the
       periodic timer *)
    after t period fire;
    try thunk ()
    with exn ->
      Hw_metrics.Counter.incr t.m_timer_errors;
      Log.warn (fun m ->
          m "periodic timer raised %s; timer kept alive" (Printexc.to_string exn))
  in
  after t (Option.value start_in ~default:period) fire

let step t =
  match Pq.pop t.queue with
  | None -> false
  | Some (time, _, thunk) ->
      Hw_time.Clock.advance_to t.clock (Float.max time (now t));
      thunk ();
      true

let run_until t deadline =
  let rec go () =
    match Pq.peek t.queue with
    | Some (time, _, _) when time <= deadline ->
        ignore (step t);
        go ()
    | Some _ | None -> ()
  in
  go ();
  if deadline > now t then Hw_time.Clock.advance_to t.clock deadline

let run_for t duration = run_until t (now t +. duration)
let pending t = Pq.size t.queue
