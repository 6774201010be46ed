type 'a t = {
  loop : Event_loop.t;
  delay : float;
  deliver : 'a list -> unit;
  mutable deadline : float; (* the open batch's: the one opened last *)
  mutable items : 'a list ref; (* its items, newest first; [] once it has flushed *)
  mutable pending : int;
}

let create ~loop ~delay ~deliver =
  { loop; delay; deliver; deadline = neg_infinity; items = ref []; pending = 0 }

let push t item =
  (* A deadline is computed from the current instant and time never
     goes back, so only the batch opened last can still grow: items
     pushed at one virtual instant compute the same float deadline and
     join it. The flush event is scheduled when the batch opens, so it
     fires at the first item's original position. *)
  let deadline = Event_loop.now t.loop +. t.delay in
  match !(t.items) with
  | _ :: _ as items when deadline = t.deadline -> t.items := item :: items
  | _ ->
      let batch = ref [ item ] in
      t.deadline <- deadline;
      t.items <- batch;
      t.pending <- t.pending + 1;
      Event_loop.at t.loop deadline (fun () ->
          let items = !batch in
          batch := [];
          t.pending <- t.pending - 1;
          t.deliver (List.rev items))

let pending_batches t = t.pending
