(* Deterministic, seed-driven fault injection.

   An injector interposes on a message path (a [deliver] continuation)
   at one named choke point.  All randomness comes from a
   [Hw_sim.Prng.t], so a fault schedule is a pure function of the seed:
   chaos runs replay exactly.

   Hot-path discipline matches [Tracer.with_span]: a disarmed injector
   costs one branch at the call site —

     if Fault.armed inj then Fault.apply inj payload ~deliver
     else deliver payload

   Every injected fault increments [fault_injected_total{kind=...}] and
   tags the active trace (attribute "fault") when one is open. *)

module Prng = Hw_sim.Prng
module Tracer = Hw_trace.Tracer

let log_src = Logs.Src.create "hw.fault" ~doc:"Fault injection"

module Log = (val Logs.src_log log_src : Logs.LOG)

type spec =
  | Drop of float  (** drop the payload with probability p *)
  | Duplicate of float  (** deliver the payload twice with probability p *)
  | Delay of { p : float; min_s : float; max_s : float }
      (** with probability p, deliver after a uniform [min_s, max_s]
          delay (needs a scheduler; without one the delay is a no-op) *)
  | Corrupt of float  (** flip one byte of the payload with probability p *)
  | Partition of { from_s : float; until_s : float }
      (** drop everything while [from_s <= now < until_s] *)
  | Crash of float  (** [maybe_crash] raises with probability p *)

exception Injected_crash of string
(** carries the choke-point name; raised by [maybe_crash] *)

type t = {
  point : string;
  metrics : Hw_metrics.Registry.t;
  trace : Tracer.t option;
  now : unit -> float;
  schedule : (float -> (unit -> unit) -> unit) option;
  prng : Prng.t;
  mutable armed : bool;
  mutable plan : spec list;
  c_drop : Hw_metrics.Counter.t;
  c_duplicate : Hw_metrics.Counter.t;
  c_delay : Hw_metrics.Counter.t;
  c_corrupt : Hw_metrics.Counter.t;
  c_partition : Hw_metrics.Counter.t;
  c_crash : Hw_metrics.Counter.t;
}

let create ?(metrics = Hw_metrics.Registry.default) ?trace ?schedule ?(seed = 1)
    ?prng ~now ~point () =
  let prng = match prng with Some p -> p | None -> Prng.create ~seed in
  let kind k =
    Hw_metrics.Registry.labeled_counter metrics "fault_injected_total"
      ~labels:[ ("kind", k) ]
      ~help:"Faults injected, by kind"
  in
  {
    point;
    metrics;
    trace;
    now;
    schedule;
    prng;
    armed = false;
    plan = [];
    c_drop = kind "drop";
    c_duplicate = kind "duplicate";
    c_delay = kind "delay";
    c_corrupt = kind "corrupt";
    c_partition = kind "partition";
    c_crash = kind "crash";
  }

let armed t = t.armed

let count t kind c =
  Hw_metrics.Counter.incr c;
  (match t.trace with
  | Some tr when Tracer.in_trace tr ->
      Tracer.set_attr tr "fault" (Tracer.Str (t.point ^ ":" ^ kind))
  | _ -> ());
  Log.debug (fun m -> m "%s: injected %s" t.point kind)

let set_plan t specs =
  t.plan <- specs;
  t.armed <- specs <> []

let disarm t = set_plan t []

let partition_active t now_s =
  List.exists
    (function Partition { from_s; until_s } -> now_s >= from_s && now_s < until_s | _ -> false)
    t.plan

(* handler-crash injection: call where a crashing handler is survivable *)
let maybe_crash t =
  if t.armed then
    List.iter
      (function
        | Crash p when Prng.bool t.prng p ->
            count t "crash" t.c_crash;
            raise (Injected_crash t.point)
        | _ -> ())
      t.plan

(* ------------------------------------------------------------------ *)
(* Message-path injection                                              *)
(* ------------------------------------------------------------------ *)

let corrupt_byte t payload =
  if String.length payload = 0 then payload
  else begin
    let b = Bytes.of_string payload in
    let i = Prng.int t.prng (Bytes.length b) in
    (* xor with a nonzero mask so the byte always actually changes *)
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 + Prng.int t.prng 255)));
    Bytes.to_string b
  end

(* Decide this payload's fate.  Each probabilistic spec draws from the
   PRNG exactly once per message regardless of earlier outcomes, so the
   random stream — and therefore the whole fault schedule — depends only
   on the seed and the message count, never on which faults fired. *)
let apply t payload ~deliver =
  if partition_active t (t.now ()) then count t "partition" t.c_partition
  else begin
    let drop = ref false in
    let dup = ref false in
    let delay = ref None in
    let payload = ref payload in
    List.iter
      (fun spec ->
        match spec with
        | Drop p -> if Prng.bool t.prng p then drop := true
        | Duplicate p -> if Prng.bool t.prng p then dup := true
        | Delay { p; min_s; max_s } ->
            let hit = Prng.bool t.prng p in
            let d = Prng.uniform t.prng min_s max_s in
            if hit then delay := Some d
        | Corrupt p ->
            if Prng.bool t.prng p then begin
              payload := corrupt_byte t !payload;
              count t "corrupt" t.c_corrupt
            end
        | Partition _ | Crash _ -> ())
      t.plan;
    if !drop then count t "drop" t.c_drop
    else begin
      let payload = !payload in
      (match (!delay, t.schedule) with
      | Some d, Some schedule ->
          count t "delay" t.c_delay;
          schedule d (fun () -> deliver payload)
      | _ -> deliver payload);
      if !dup then begin
        count t "duplicate" t.c_duplicate;
        deliver payload
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Disk-write injection                                                 *)
(* ------------------------------------------------------------------ *)

(* The same spec vocabulary reinterpreted for a storage write (one WAL
   record handed to a [write] continuation):

     Drop p     short write — only a strict prefix reaches the store
     Corrupt p  bit-flip — one byte of the record is damaged
     Crash p    crash at the record boundary — nothing of this record
                is written and [Injected_crash] is raised
     Drop + Crash both firing is a torn write: the prefix lands, then
                the process dies

   The PRNG draw pattern matches [apply]: every probabilistic spec draws
   its decision each call regardless of outcome, so the fault schedule
   is a function of the seed and the write count alone. *)
let apply_write t payload ~write =
  let payload = ref payload in
  let short = ref None in
  let crash = ref false in
  List.iter
    (fun spec ->
      match spec with
      | Corrupt p ->
          if Prng.bool t.prng p then begin
            payload := corrupt_byte t !payload;
            count t "corrupt" t.c_corrupt
          end
      | Drop p ->
          let hit = Prng.bool t.prng p in
          let cut = Prng.int t.prng (max 1 (String.length !payload)) in
          if hit then short := Some cut
      | Crash p -> if Prng.bool t.prng p then crash := true
      | Duplicate _ | Delay _ | Partition _ -> ())
    t.plan;
  (match !short with
  | Some cut ->
      count t "drop" t.c_drop;
      write (String.sub !payload 0 cut)
  | None -> if not !crash then write !payload);
  if !crash then begin
    count t "crash" t.c_crash;
    raise (Injected_crash t.point)
  end

(* ------------------------------------------------------------------ *)
(* The router's choke points as one unit                                *)
(* ------------------------------------------------------------------ *)

type plane = { tx : t; rpc : t; chan : t; disk : t }

let plane ?(metrics = Hw_metrics.Registry.default) ?trace ?schedule ?(seed = 1)
    ~now () =
  let root = Prng.create ~seed in
  let mk point = create ~metrics ?trace ?schedule ~prng:(Prng.split root) ~now ~point () in
  (* [disk] splits last so the tx/rpc/chan streams — and therefore every
     pre-existing seeded chaos schedule — are unchanged by its addition.
     The lets pin the split order: the three-field record literal this
     replaces evaluated right-to-left, so chan drew the first split. *)
  let chan = mk "chan" in
  let rpc = mk "rpc" in
  let tx = mk "tx" in
  let disk = mk "disk" in
  { tx; rpc; chan; disk }

let disarm_plane p =
  disarm p.tx;
  disarm p.rpc;
  disarm p.chan;
  disarm p.disk
