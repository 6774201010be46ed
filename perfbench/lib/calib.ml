(* Host-speed calibration.

   The benchmark runs on small shared VMs whose speed drifts by tens of
   percent between back-to-back runs, mostly in the memory system. Once per
   simulated second the benchmark times a small fixed kernel of its own with
   the router's mix: hash-table lookups, Printf and short-lived allocation,
   plus loads that miss the private caches the way the router's reads of
   rings, tables and flow entries do (its working set is megabytes, far
   beyond L2). Every timing sample taken in that second is divided by the
   kernel's time and multiplied by [nominal_kernel_ns], so values stay in
   ns/us/ms at a nominal host speed while the drift cancels. Raw values are
   reported beside the calibrated ones. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The kernel's time on the reference host (2 vCPU VM); fixed forever so
   calibrated values stay comparable across commits. *)
let nominal_kernel_ns = 150_000.

let table =
  let t = Hashtbl.create 1024 in
  for i = 0 to 511 do
    Hashtbl.replace t (Printf.sprintf "10.0.%d.%d" (i lsr 8) (i land 255)) i
  done;
  t

(* A random cyclic permutation of [chase_slots] 8-byte slots (16 MB, well
   beyond the private L2): following it is a chain of dependent loads that
   miss L2, and the cursor carries on from call to call, so no call
   re-reads lines an earlier one brought in. Bytes are not scanned by the
   GC, so the buffer adds nothing to marking work. *)
let chase_slots = 1 lsl 21

let chase =
  let b = Bytes.create (8 * chase_slots) in
  for i = 0 to chase_slots - 1 do
    Bytes.set_int64_le b (8 * i) (Int64.of_int i)
  done;
  (* Sattolo's algorithm: one cycle through every slot *)
  let rng = Hw_sim.Prng.create ~seed:0x6b65726e in
  for i = chase_slots - 1 downto 1 do
    let j = Hw_sim.Prng.int rng i in
    let vi = Bytes.get_int64_le b (8 * i) and vj = Bytes.get_int64_le b (8 * j) in
    Bytes.set_int64_le b (8 * i) vj;
    Bytes.set_int64_le b (8 * j) vi
  done;
  b

let cursor = ref 0
let iterations = 150
let misses_per_iteration = 2
let sink = ref 0

let kernel () =
  let acc = ref 0 in
  let c = ref !cursor in
  for i = 0 to iterations - 1 do
    let key = Printf.sprintf "10.0.%d.%d" ((i * 7) land 3) (i land 255) in
    (match Hashtbl.find_opt table key with Some v -> acc := !acc + v | None -> incr acc);
    let cell = [ (key, i); (key, !acc) ] in
    acc := !acc + List.length cell + String.length key;
    for _ = 1 to misses_per_iteration do
      c := Int64.to_int (Bytes.get_int64_le chase (8 * !c))
    done
  done;
  cursor := !c;
  !acc + !c

(* Warm once, then time a second run. *)
let measure () =
  sink := kernel ();
  let t0 = now_ns () in
  sink := !sink + kernel ();
  float_of_int (now_ns () - t0)

(* The multiplier that maps a raw duration measured in a second whose
   kernel took [kernel_ns] onto the nominal host. *)
let factor ~kernel_ns = nominal_kernel_ns /. Float.max 1. kernel_ns
let scale ~kernel_ns raw = raw *. factor ~kernel_ns

(* A single 0.1 ms kernel timing is itself noisy (an interrupt, a cache
   miss burst), while the host's drift is slow, over seconds of wall time.
   Calibration therefore divides by the median of the last [size] kernel
   timings, the current second's included. Allocation-free. *)
module Window = struct
  type t = { last : float array; scratch : float array; mutable n : int; mutable next : int }

  let create size = { last = Array.make size 0.; scratch = Array.make size 0.; n = 0; next = 0 }

  let push w v =
    w.last.(w.next) <- v;
    w.next <- (w.next + 1) mod Array.length w.last;
    w.n <- min (w.n + 1) (Array.length w.last)

  let median w =
    let n = w.n in
    if n = 0 then nominal_kernel_ns
    else begin
      let a = w.scratch in
      for i = 0 to n - 1 do
        let v = w.last.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && a.(!j) > v do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- v
      done;
      if n land 1 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))
    end
end
