open Hw_util

type window = [ `All | `Last_seconds of float * float | `Last_rows of int | `Now of float ]

type hook_id = int

type hook = { h_id : hook_id; h_fn : Value.tuple -> unit }

type pos = int

(* A stored row is its validated value array, with its timestamp unboxed
   in [stamps] at the same slot: no option, no tuple record, no float
   box. One array may fill many slots (a re-stamped cached row). *)
type t = {
  name : string;
  schema : Value.schema;
  slots : Ring.Slots.t;
  rows : Value.t array array;
  stamps : Float.Array.t;
  mutable triggers : hook list; (* newest registration first *)
  mutable next_hook : int;
  mutable durable : bool;
}

let create ~name ~capacity schema =
  let slots = Ring.Slots.create ~capacity in
  {
    name;
    schema;
    slots;
    rows = Array.make capacity [||];
    stamps = Float.Array.make capacity 0.;
    triggers = [];
    next_hook = 0;
    durable = false;
  }

let name t = t.name
let schema t = t.schema
let capacity t = Ring.Slots.capacity t.slots
let length t = Ring.Slots.length t.slots
let total_inserted t = Ring.Slots.total_pushed t.slots

(* exported, so bounds-checked: nothing ties a [pos] to its table *)
let stamp t p = Float.Array.get t.stamps p

(* unchecked: only for slots this table's [Ring.Slots] handed out *)
let stamp_at t s = Float.Array.unsafe_get t.stamps s

let store t ~now values =
  let s = Ring.Slots.push t.slots in
  Array.unsafe_set t.rows s values;
  Float.Array.unsafe_set t.stamps s now

(* registration order matters to trigger chains, so the reversed list is
   replayed back-to-front *)
let rec fire_triggers tuple = function
  | [] -> ()
  | hook :: rest ->
      fire_triggers tuple rest;
      hook.h_fn tuple

let append t ~now values =
  store t ~now values;
  match t.triggers with
  | [] -> ()
  | hooks -> fire_triggers { Value.ts = now; values } hooks

(* each row is one [append]: hooks are read afresh per row, as a hook
   may add or remove hooks *)
let append_rows t ~now rows =
  for i = 0 to Array.length rows - 1 do
    append t ~now (Array.unsafe_get rows i)
  done

(* One preallocated cell per integer a producer commonly writes: RSSI,
   protocol numbers, ports below 1024, span ids, small counts. [insert]
   points each such integer of a fresh row at its cell, so a stored row
   owns its array and only the cells no other row could share, and a
   window scan reads little beyond the array. Values are immutable and
   nothing compares them physically: sharing changes only the layout. *)
let small_int_min = -256
let small_int_max = 1023
let small_ints =
  Array.init (small_int_max - small_int_min + 1) (fun i -> Value.Int (small_int_min + i))

let share_small_ints row =
  for i = 0 to Array.length row - 1 do
    match Array.unsafe_get row i with
    | Value.Int n when n >= small_int_min && n <= small_int_max ->
        Array.unsafe_set row i (Array.unsafe_get small_ints (n - small_int_min))
    | _ -> ()
  done

let insert_row t ~now row =
  match Value.validate t.schema row with
  | Error _ as e -> e
  | Ok () ->
      share_small_ints row;
      append t ~now row;
      Ok ()

let insert t ~now values = insert_row t ~now (Array.of_list values)

(* WAL replay: the row was validated when first inserted and nothing may
   observe it again — no validation, no triggers (in particular not the
   durability hook, which would re-log it). Rows must arrive in their
   original (non-decreasing timestamp) order, which log order
   guarantees. *)
let restore t (tuple : Value.tuple) = store t ~now:tuple.ts tuple.values

let durable t = t.durable
let set_durable t flag = t.durable <- flag

(* Rows are appended in non-decreasing timestamp order, so every window
   is a contiguous slice of the ring whose start (and, for [`Now], end) is
   found by binary search over the timestamps alone. *)
let window_bounds t = function
  | `All -> (0, length t)
  | `Last_seconds (range, now) ->
      let cutoff = now -. range in
      let pos = Ring.Slots.lower_bound (fun s -> stamp_at t s >= cutoff) t.slots in
      (pos, length t - pos)
  | `Last_rows n ->
      let len = length t in
      let keep = min (max 0 n) len in
      (len - keep, keep)
  | `Now now ->
      let stop = Ring.Slots.lower_bound (fun s -> stamp_at t s > now) t.slots in
      if stop = 0 then (0, 0)
      else begin
        let newest = stamp_at t (Ring.Slots.slot t.slots (stop - 1)) in
        let pos = Ring.Slots.lower_bound (fun s -> stamp_at t s >= newest) t.slots in
        (pos, stop - pos)
      end

(* the window's slots lie in at most two contiguous runs; each run is
   one loop over this module's own arrays, so a row costs [f] and
   nothing else: no call into another module, no bounds check *)
let rec fold_run f rows acc s stop =
  if s >= stop then acc else fold_run f rows (f acc (Array.unsafe_get rows s) s) (s + 1) stop

let fold_window t window ~init ~f =
  let pos, len = window_bounds t window in
  if len = 0 then init
  else begin
    let first = Ring.Slots.slot t.slots pos and cap = capacity t in
    if first + len <= cap then fold_run f t.rows init first (first + len)
    else fold_run f t.rows (fold_run f t.rows init first cap) 0 (first + len - cap)
  end

let scan_window t window =
  List.rev
    (fold_window t window ~init:[] ~f:(fun acc values p ->
         { Value.ts = stamp_at t p; values } :: acc))

let scan t = scan_window t `All

let add_hook t fn =
  let id = t.next_hook in
  t.next_hook <- id + 1;
  t.triggers <- { h_id = id; h_fn = fn } :: t.triggers;
  id

let remove_hook t id = t.triggers <- List.filter (fun h -> h.h_id <> id) t.triggers
let on_insert t trigger = ignore (add_hook t trigger)

let clear t =
  Ring.Slots.clear t.slots;
  (* let the GC have the rows *)
  Array.fill t.rows 0 (capacity t) [||]
