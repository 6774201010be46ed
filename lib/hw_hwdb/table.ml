open Hw_util

type window = [ `All | `Last_seconds of float * float | `Last_rows of int | `Now of float ]

type hook_id = int

type hook = { h_id : hook_id; h_fn : Value.tuple -> unit }

type t = {
  name : string;
  schema : Value.schema;
  ring : Value.tuple Ring.t;
  mutable triggers : hook list; (* newest registration first *)
  mutable next_hook : int;
  mutable durable : bool;
}

let create ~name ~capacity schema =
  {
    name;
    schema;
    ring = Ring.create ~capacity;
    triggers = [];
    next_hook = 0;
    durable = false;
  }

let name t = t.name
let schema t = t.schema
let capacity t = Ring.capacity t.ring
let length t = Ring.length t.ring
let total_inserted t = Ring.total_pushed t.ring

(* registration order matters to trigger chains, so the reversed list is
   replayed back-to-front *)
let rec fire_triggers tuple = function
  | [] -> ()
  | hook :: rest ->
      fire_triggers tuple rest;
      hook.h_fn tuple

let append t ~now values =
  let tuple = { Value.ts = now; values } in
  Ring.push t.ring tuple;
  fire_triggers tuple t.triggers

let insert t ~now values =
  match Value.validate t.schema values with
  | Error _ as e -> e
  | Ok () ->
      append t ~now (Array.of_list values);
      Ok ()

(* WAL replay: the row was validated when first inserted and nothing may
   observe it again — no validation, no triggers (in particular not the
   durability hook, which would re-log it). Rows must arrive in their
   original (non-decreasing timestamp) order, which log order
   guarantees. *)
let restore t tuple = Ring.push t.ring tuple

let durable t = t.durable
let set_durable t flag = t.durable <- flag

(* Tuples are appended in non-decreasing timestamp order, so every window
   is a contiguous slice of the ring whose start (and, for [`Now], end) is
   found by binary search instead of scanning the whole buffer. *)
let window_bounds t = function
  | `All -> (0, Ring.length t.ring)
  | `Last_seconds (range, now) ->
      let cutoff = now -. range in
      let pos = Ring.lower_bound (fun tu -> tu.Value.ts >= cutoff) t.ring in
      (pos, Ring.length t.ring - pos)
  | `Last_rows n ->
      let len = Ring.length t.ring in
      let keep = min (max 0 n) len in
      (len - keep, keep)
  | `Now now ->
      let stop = Ring.lower_bound (fun tu -> tu.Value.ts > now) t.ring in
      if stop = 0 then (0, 0)
      else begin
        let newest = (Ring.get t.ring (stop - 1)).Value.ts in
        let pos = Ring.lower_bound (fun tu -> tu.Value.ts >= newest) t.ring in
        (pos, stop - pos)
      end

let fold_window t window ~init ~f =
  let pos, len = window_bounds t window in
  Ring.fold_range f init t.ring ~pos ~len

let scan_window t window =
  List.rev (fold_window t window ~init:[] ~f:(fun acc tu -> tu :: acc))

let scan t = Ring.to_list t.ring

let add_hook t fn =
  let id = t.next_hook in
  t.next_hook <- id + 1;
  t.triggers <- { h_id = id; h_fn = fn } :: t.triggers;
  id

let remove_hook t id = t.triggers <- List.filter (fun h -> h.h_id <> id) t.triggers
let on_insert t trigger = ignore (add_hook t trigger)
let clear t = Ring.clear t.ring
