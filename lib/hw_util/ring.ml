module Slots = struct
  type t = {
    mutable start : int; (* slot of the oldest element *)
    mutable len : int;
    mutable pushed : int;
    cap : int;
  }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
    { start = 0; len = 0; pushed = 0; cap = capacity }

  let capacity t = t.cap
  let length t = t.len
  let total_pushed t = t.pushed

  (* [start + i] wraps at most once: a compare, no [mod] *)
  let slot t i =
    let j = t.start + i in
    if j >= t.cap then j - t.cap else j

  let push t =
    let s = slot t t.len in
    if t.len = t.cap then t.start <- (if t.start + 1 = t.cap then 0 else t.start + 1)
    else t.len <- t.len + 1;
    t.pushed <- t.pushed + 1;
    s

  let rec fold_seg f acc lo hi = if lo > hi then acc else fold_seg f (f acc lo) (lo + 1) hi

  let fold_range f acc t ~pos ~len =
    if pos < 0 || len < 0 || pos + len > t.len then
      invalid_arg "Ring.fold_range: window out of range";
    let first = slot t pos in
    (* at most two contiguous runs of slots *)
    if first + len <= t.cap then fold_seg f acc first (first + len - 1)
    else fold_seg f (fold_seg f acc first (t.cap - 1)) 0 (first + len - t.cap - 1)

  let lower_bound p t =
    (* invariant: every index < lo fails [p], every index >= hi satisfies it *)
    let lo = ref 0 and hi = ref t.len in
    while !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      if p (slot t mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let clear t =
    t.start <- 0;
    t.len <- 0
end

type 'a t = { slots : Slots.t; data : 'a option array }

let create ~capacity =
  let slots = Slots.create ~capacity in
  { slots; data = Array.make capacity None }

let capacity t = Slots.capacity t.slots
let length t = Slots.length t.slots
let is_empty t = length t = 0
let is_full t = length t = capacity t
let total_pushed t = Slots.total_pushed t.slots
let push t x = Array.unsafe_set t.data (Slots.push t.slots) (Some x)

let at t s = match Array.unsafe_get t.data s with Some x -> x | None -> assert false
let unsafe_get t i = at t (Slots.slot t.slots i)

let get t i =
  if i < 0 || i >= length t then invalid_arg "Ring.get: index out of range";
  unsafe_get t i

let peek_oldest t = if is_empty t then None else Some (unsafe_get t 0)
let peek_newest t = if is_empty t then None else Some (unsafe_get t (length t - 1))

let fold_range f acc t ~pos ~len =
  Slots.fold_range (fun acc s -> f acc (at t s)) acc t.slots ~pos ~len

let fold f acc t = fold_range f acc t ~pos:0 ~len:(length t)

let iter f t =
  for i = 0 to length t - 1 do
    f (unsafe_get t i)
  done

let lower_bound p t = Slots.lower_bound (fun s -> p (at t s)) t.slots
let to_list t = List.rev (fold (fun acc x -> x :: acc) [] t)
let to_list_newest_first t = fold (fun acc x -> x :: acc) [] t
let filter p t = List.filter p (to_list t)

let clear t =
  Slots.clear t.slots;
  Array.fill t.data 0 (capacity t) None
