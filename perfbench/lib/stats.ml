(* Order statistics for the benchmark: exact percentiles over small float
   arrays (per-run aggregation, tests) and a log-bucketed histogram for the
   per-call sample streams, which can reach millions of samples per run.
   Recording into a histogram allocates nothing, so the benchmark's own
   bookkeeping does not disturb the allocation pattern it measures. *)

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let percentile xs p =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  percentile_sorted a p

let median xs = percentile xs 0.5

module Hist = struct
  (* Bucket i holds values in [ratio^i, ratio^(i+1)); values below 1 land
     in bucket 0. With a 1% ratio, 2600 buckets span 1 .. 1.7e11 (ns: up
     to three minutes). Percentiles interpolate geometrically inside the
     bucket by rank, so they move continuously with the data. *)
  let ratio = 1.01
  let log_ratio = log ratio
  let nbuckets = 2600

  type t = { counts : int array; mutable n : int; sum : float array }

  let create () = { counts = Array.make nbuckets 0; n = 0; sum = Array.make 1 0. }

  let index v =
    if v <= 1. then 0 else min (nbuckets - 1) (int_of_float (log v /. log_ratio))

  let add h v =
    let i = index v in
    Array.unsafe_set h.counts i (Array.unsafe_get h.counts i + 1);
    h.n <- h.n + 1;
    h.sum.(0) <- h.sum.(0) +. v

  let count h = h.n
  let sum h = h.sum.(0)

  let percentile h p =
    if h.n = 0 then 0.
    else begin
      let target = Float.max 1e-9 (p *. float_of_int h.n) in
      let rec walk i cum =
        if i >= nbuckets then ratio ** float_of_int nbuckets
        else
          let c = h.counts.(i) in
          let cum' = cum + c in
          if c > 0 && float_of_int cum' >= target then
            let frac = (target -. float_of_int cum) /. float_of_int c in
            (ratio ** float_of_int i) *. (ratio ** frac)
          else walk (i + 1) cum'
      in
      walk 0 0
    end
end
