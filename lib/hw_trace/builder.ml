(* Off-stack span-tree assembly for callback-driven work.

   Tracer's span stack models one synchronous lifecycle; the fleet
   manager's federated fan-out instead interleaves many in-flight
   requests whose spans open and close from RPC callbacks in arbitrary
   order. A Builder holds that tree by span id until the operation
   settles, then hands the finished record to Tracer.record so it lands
   in the same flight recorder (and export surfaces) as stack traces.

   Span ids are dense from 1, as in the Tracer's slot array: span [i]
   sits at [spans.(i - 1)], open while [is_open.(i - 1)], so a finished
   trace is a prefix copy, in id order with no sort. *)

type t = {
  tracer : Tracer.t;
  id : int; (* trace id; 0 = inert (tracer disabled) *)
  start : float;
  mutable spans : Tracer.span array;
  mutable is_open : bool array;
  mutable count : int; (* spans opened so far: the ids 1..count *)
  mutable errored : bool;
  mutable finished : bool;
}

(* Shared by every builder started on a disabled tracer. Nothing
   mutates it: it is never active and holds no span to address. *)
let inert =
  {
    tracer = Tracer.disabled;
    id = 0;
    start = 0.;
    spans = [||];
    is_open = [||];
    count = 0;
    errored = false;
    finished = true;
  }

let start tracer ?(attrs = []) name =
  if not (Tracer.enabled tracer) then inert
  else begin
    let id = Tracer.next_id tracer in
    let start = Tracer.time tracer in
    let root : Tracer.span =
      { span_id = 1; parent = 0; name; start; duration = 0.; attrs; error = None }
    in
    {
      tracer;
      id;
      start;
      spans = Array.make 16 root;
      is_open = Array.make 16 true;
      count = 1;
      errored = false;
      finished = false;
    }
  end

let active b = b.id <> 0 && not b.finished
let id b = b.id
let root b = if b.id = 0 then 0 else 1

let open_span b ?(parent = 1) ?(attrs = []) name =
  if not (active b) then 0
  else begin
    let span_id = b.count + 1 in
    let s : Tracer.span =
      {
        span_id;
        parent = (if parent < 0 then 0 else parent);
        name;
        start = Tracer.time b.tracer;
        duration = 0.;
        attrs;
        error = None;
      }
    in
    if span_id > Array.length b.spans then begin
      let grown = Array.make (2 * span_id) s in
      Array.blit b.spans 0 grown 0 b.count;
      b.spans <- grown;
      let grown = Array.make (2 * span_id) false in
      Array.blit b.is_open 0 grown 0 b.count;
      b.is_open <- grown
    end;
    b.spans.(span_id - 1) <- s;
    b.is_open.(span_id - 1) <- true;
    b.count <- span_id;
    span_id
  end

(* Attrs may arrive after a span closes (a retry count settles only once
   the client gives up or succeeds), so any opened span takes them. *)
let set_attr b span key v =
  if span >= 1 && span <= b.count then begin
    let s = b.spans.(span - 1) in
    s.attrs <- (key, v) :: s.attrs
  end

let mark_error b span msg =
  if span >= 1 && span <= b.count then begin
    b.spans.(span - 1).error <- Some msg;
    b.errored <- true
  end

let close_span b span =
  if span >= 1 && span <= b.count && b.is_open.(span - 1) then begin
    b.is_open.(span - 1) <- false;
    let s = b.spans.(span - 1) in
    s.duration <- Tracer.time b.tracer -. s.start
  end

let finish b =
  if active b then begin
    b.finished <- true;
    let now = Tracer.time b.tracer in
    for i = 0 to b.count - 1 do
      if b.is_open.(i) then begin
        b.is_open.(i) <- false;
        b.spans.(i).duration <- now -. b.spans.(i).start
      end
    done;
    Tracer.record b.tracer
      {
        id = b.id;
        start = b.start;
        duration = now -. b.start;
        errored = b.errored;
        spans = Array.sub b.spans 0 b.count;
      }
  end
