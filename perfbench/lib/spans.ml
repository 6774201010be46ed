(* Benchmark-side spans for the traced run: one span per timed call into a
   router (named by path), per tick and tick phase, and per RPC, HTTP, USB
   and fleet call. Spans live in preallocated arrays (a bounded ring keeping
   the most recent [capacity]) and are written once, at exit, as Chrome
   trace-event JSON that Perfetto and chrome://tracing load. *)

type t = {
  names : string array;
  name_of : (string, int) Hashtbl.t;
  mutable n_names : int;
  name : int array;
  start : int array;
  dur : int array;
  tid : int array;
  mutable next : int;
  mutable recorded : int;
}

let max_names = 64

let create ~capacity =
  {
    names = Array.make max_names "";
    name_of = Hashtbl.create max_names;
    n_names = 0;
    name = Array.make capacity 0;
    start = Array.make capacity 0;
    dur = Array.make capacity 0;
    tid = Array.make capacity 0;
    next = 0;
    recorded = 0;
  }

(* Span names are interned once, up front, so recording allocates nothing. *)
let intern t s =
  match Hashtbl.find_opt t.name_of s with
  | Some i -> i
  | None ->
      if t.n_names >= max_names then invalid_arg "Spans.intern: too many names";
      let i = t.n_names in
      t.names.(i) <- s;
      Hashtbl.replace t.name_of s i;
      t.n_names <- i + 1;
      i

let record t ~name ~tid ~start ~stop =
  let cap = Array.length t.name in
  if cap > 0 then begin
    let i = t.next in
    t.name.(i) <- name;
    t.start.(i) <- start;
    t.dur.(i) <- stop - start;
    t.tid.(i) <- tid;
    t.next <- (if i + 1 = cap then 0 else i + 1);
    t.recorded <- t.recorded + 1
  end

let kept t = min t.recorded (Array.length t.name)

let write_chrome t oc =
  let cap = Array.length t.name in
  let kept = kept t in
  let first = if t.recorded > cap then t.next else 0 in
  let t0 = if kept = 0 then 0 else t.start.(first) in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for k = 0 to kept - 1 do
    let i = (first + k) mod cap in
    if k > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":%S,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
      t.names.(t.name.(i)) t.tid.(i)
      (float_of_int (t.start.(i) - t0) /. 1e3)
      (float_of_int t.dur.(i) /. 1e3)
  done;
  output_string oc "\n]}\n"
