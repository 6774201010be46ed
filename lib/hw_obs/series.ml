(* Fixed-footprint downsampled series. Unboxed float arrays (OCaml
   specializes [float array]) indexed through [Ring.Slots] rather than
   rings of records: at fleet scale the manager holds routers * series
   of these, so per-series footprint is the scaling constant that
   matters. *)

module Slots = Hw_util.Ring.Slots

type ring = { slots : Slots.t; ts : float array; v : float array }

type bucket_tier = {
  width : float;
  ring : ring; (* sealed buckets: start, last value *)
  vmax : float array; (* sealed buckets' max, at the ring's slots *)
  (* the open (unsealed) bucket; cur_ts is nan while none is open *)
  mutable cur_ts : float;
  mutable cur_last : float;
  mutable cur_max : float;
}

type t = { raw : ring; t10 : bucket_tier; t60 : bucket_tier }
type tier = [ `Raw | `S10 | `S60 ]

let make_ring capacity =
  { slots = Slots.create ~capacity; ts = Array.make capacity nan; v = Array.make capacity nan }

let make_tier ~width ~capacity =
  {
    width;
    ring = make_ring capacity;
    vmax = Array.make capacity nan;
    cur_ts = nan;
    cur_last = nan;
    cur_max = nan;
  }

let create ?(raw_capacity = 32) ?(s10_capacity = 32) ?(s60_capacity = 32) () =
  {
    raw = make_ring raw_capacity;
    t10 = make_tier ~width:10. ~capacity:s10_capacity;
    t60 = make_tier ~width:60. ~capacity:s60_capacity;
  }

let ring_push r ~ts v =
  let s = Slots.push r.slots in
  r.ts.(s) <- ts;
  r.v.(s) <- v;
  s

let tier_push bt ~ts v =
  let b = Float.of_int (int_of_float (floor (ts /. bt.width))) *. bt.width in
  if Float.is_nan bt.cur_ts then begin
    bt.cur_ts <- b;
    bt.cur_last <- v;
    bt.cur_max <- v
  end
  else if b > bt.cur_ts then begin
    (* the open bucket is complete: seal it and open the next *)
    bt.vmax.(ring_push bt.ring ~ts:bt.cur_ts bt.cur_last) <- bt.cur_max;
    bt.cur_ts <- b;
    bt.cur_last <- v;
    bt.cur_max <- v
  end
  else begin
    (* same bucket (or an out-of-order stamp folded into it) *)
    bt.cur_last <- v;
    if v > bt.cur_max || Float.is_nan bt.cur_max then bt.cur_max <- v
  end

let push t ~ts v =
  ignore (ring_push t.raw ~ts v);
  tier_push t.t10 ~ts v;
  tier_push t.t60 ~ts v

let samples t = Slots.total_pushed t.raw.slots

let last t =
  let n = Slots.length t.raw.slots in
  if n = 0 then nan else t.raw.v.(Slots.slot t.raw.slots (n - 1))

(* (timestamp, value) oldest first, the value read from [values] *)
let ring_points r values =
  List.init (Slots.length r.slots) (fun i ->
      let s = Slots.slot r.slots i in
      (r.ts.(s), values.(s)))

let tier_points bt ~use_max =
  let sealed = ring_points bt.ring (if use_max then bt.vmax else bt.ring.v) in
  if Float.is_nan bt.cur_ts then sealed
  else sealed @ [ (bt.cur_ts, if use_max then bt.cur_max else bt.cur_last) ]

let points t tier =
  match tier with
  | `Raw -> ring_points t.raw t.raw.v
  | `S10 -> tier_points t.t10 ~use_max:false
  | `S60 -> tier_points t.t60 ~use_max:false

(* a raw sample is its own max *)
let max_points t tier =
  match tier with
  | `Raw -> points t `Raw
  | `S10 -> tier_points t.t10 ~use_max:true
  | `S60 -> tier_points t.t60 ~use_max:true

let occupancy t tier =
  let r = match tier with `Raw -> t.raw | `S10 -> t.t10.ring | `S60 -> t.t60.ring in
  (Slots.length r.slots, Slots.capacity r.slots)

let footprint_floats t =
  (2 * Slots.capacity t.raw.slots)
  + (3 * (Slots.capacity t.t10.ring.slots + Slots.capacity t.t60.ring.slots))
