open Hw_openflow

(* Tuple-space classifier (Srinivasan/Suri/Varghese): entries are bucketed
   by wildcard mask — one "tuple" per distinct mask — and each tuple is a
   hash table over the masked field values. A lookup probes one hash
   bucket per tuple instead of scanning every entry, and the tuple list is
   kept sorted by maximum live priority so a probe stops as soon as no
   remaining tuple can beat the best match found.

   Exact-match entries (every field specified, /32 prefixes) are the
   common case on the reactive Homework router and OF 1.0 gives them
   precedence over any wildcard entry regardless of priority, so the
   exact tuple is special-cased: probed first, and a hit returns without
   touching the wildcard tuples at all. Hashing and verifying allocate
   nothing: {!Ofp_match.hash_fields} folds the packet's fields in the int
   domain and candidates are verified with {!Ofp_match.matches}, which
   compares masked prefixes as ints too (hash collisions only cost a
   failed verify, never a wrong answer). An exact hit allocates only the
   option results below, 6 words. *)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h (* keys are already FNV-mixed *)
end)

(* Buckets keep nodes sorted by (priority desc, insertion seq asc), so the
   first verified node in a bucket is the tuple's winner. The seq number
   makes ties deterministic and identical to the old priority-sorted list:
   among equal priorities, the earlier-installed entry wins. *)
type node = { n_entry : Flow_entry.t; n_seq : int }

type tuple = {
  t_mask : Ofp_match.mask;
  t_tbl : node list Int_tbl.t;
  mutable t_max_priority : int; (* max priority of live entries *)
  mutable t_count : int;
}

type t = {
  exact : tuple;
  mutable tuples : tuple list; (* wildcard tuples, t_max_priority desc *)
  max : int;
  mutable total : int;
  mutable next_seq : int;
  (* plain ints: an int64 field would box on every update, putting an
     allocation on the per-packet hit path *)
  mutable lookups : int;
  mutable matched : int;
}

exception Table_full
exception Overlap

let make_tuple mask = { t_mask = mask; t_tbl = Int_tbl.create 64; t_max_priority = -1; t_count = 0 }

let create ?(max_entries = 65536) () =
  {
    exact = make_tuple Ofp_match.mask_exact;
    tuples = [];
    max = max_entries;
    total = 0;
    next_seq = 0;
    lookups = 0;
    matched = 0;
  }

let length t = t.total
let lookup_count t = Int64.of_int t.lookups
let matched_count t = Int64.of_int t.matched
let max_entries t = t.max
let wildcard_tuple_count t = List.length t.tuples

let resort t =
  t.tuples <- List.sort (fun a b -> compare b.t_max_priority a.t_max_priority) t.tuples

(* ------------------------------------------------------------------ *)
(* Add                                                                 *)
(* ------------------------------------------------------------------ *)

let same_flow (entry : Flow_entry.t) (n : node) =
  n.n_entry.Flow_entry.priority = entry.Flow_entry.priority
  && Ofp_match.equal n.n_entry.Flow_entry.entry_match entry.Flow_entry.entry_match

let insert_node node bucket =
  let prio = node.n_entry.Flow_entry.priority in
  let rec go = function
    | [] -> [ node ]
    | n :: rest when n.n_entry.Flow_entry.priority < prio -> node :: n :: rest
    | n :: rest -> n :: go rest
  in
  go bucket

exception Found

let tuple_exists tp pred =
  try
    Int_tbl.iter (fun _ bucket -> if List.exists pred bucket then raise Found) tp.t_tbl;
    false
  with Found -> true

(* OFPFF_CHECK_OVERLAP scans wildcard entries only (exact entries are
   unambiguous: precedence never depends on priority), and excludes the
   identical (priority, match) entry — OF 1.0 replaces identical entries
   even when overlap checking is requested. *)
let check_no_overlap t (entry : Flow_entry.t) =
  let conflict n =
    Flow_entry.overlaps entry n.n_entry
    && not (Ofp_match.equal n.n_entry.Flow_entry.entry_match entry.Flow_entry.entry_match)
  in
  if List.exists (fun tp -> tuple_exists tp (fun n -> conflict n)) t.tuples then raise Overlap

let add_to_tuple t tp (entry : Flow_entry.t) =
  let h = entry.Flow_entry.entry_hash in
  let bucket = match Int_tbl.find_opt tp.t_tbl h with Some b -> b | None -> [] in
  let replacing = List.exists (same_flow entry) bucket in
  if (not replacing) && t.total >= t.max then raise Table_full;
  let bucket = if replacing then List.filter (fun n -> not (same_flow entry n)) bucket else bucket in
  let node = { n_entry = entry; n_seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  Int_tbl.replace tp.t_tbl h (insert_node node bucket);
  if not replacing then begin
    tp.t_count <- tp.t_count + 1;
    t.total <- t.total + 1
  end;
  if entry.Flow_entry.priority > tp.t_max_priority then tp.t_max_priority <- entry.Flow_entry.priority

let find_tuple t mask = List.find_opt (fun tp -> Ofp_match.mask_equal tp.t_mask mask) t.tuples

let add t ~now:_ ~check_overlap (entry : Flow_entry.t) =
  let mask = entry.Flow_entry.entry_mask in
  if Ofp_match.mask_is_exact mask then add_to_tuple t t.exact entry
  else begin
    if check_overlap then check_no_overlap t entry;
    let tp =
      match find_tuple t mask with
      | Some tp -> tp
      | None ->
          let tp = make_tuple mask in
          t.tuples <- tp :: t.tuples;
          tp
    in
    add_to_tuple t tp entry;
    resort t
  end

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

let rec first_matching fields = function
  | [] -> None
  | n :: rest ->
      if Ofp_match.matches n.n_entry.Flow_entry.entry_match fields then Some n
      else first_matching fields rest

let probe tp fields =
  match Int_tbl.find_opt tp.t_tbl (Ofp_match.hash_fields tp.t_mask fields) with
  | None -> None
  | Some bucket -> first_matching fields bucket

let classify t fields =
  match probe t.exact fields with
  | Some n -> Some n.n_entry
  | None ->
      (* tuples are sorted by max live priority, so stop as soon as the
         best match strictly beats everything a remaining tuple can hold;
         on priority ties keep probing (a later tuple may hold an
         earlier-installed — lower seq — entry that wins the tie) *)
      let rec go best = function
        | [] -> best
        | tp :: rest -> (
            match best with
            | Some bn when bn.n_entry.Flow_entry.priority > tp.t_max_priority -> best
            | _ ->
                let best =
                  match probe tp fields with
                  | None -> best
                  | Some n -> (
                      match best with
                      | None -> Some n
                      | Some b ->
                          if
                            n.n_entry.Flow_entry.priority > b.n_entry.Flow_entry.priority
                            || (n.n_entry.Flow_entry.priority = b.n_entry.Flow_entry.priority
                               && n.n_seq < b.n_seq)
                          then Some n
                          else best)
                in
                go best rest)
      in
      (match go None t.tuples with Some n -> Some n.n_entry | None -> None)

let lookup t fields =
  t.lookups <- t.lookups + 1;
  let result = classify t fields in
  (match result with Some _ -> t.matched <- t.matched + 1 | None -> ());
  result

(* ------------------------------------------------------------------ *)
(* Iteration / modify / delete / expiry                                *)
(* ------------------------------------------------------------------ *)

let iter_all t f =
  let iter_tuple tp = Int_tbl.iter (fun _ bucket -> List.iter (fun n -> f n.n_entry) bucket) tp.t_tbl in
  iter_tuple t.exact;
  List.iter iter_tuple t.tuples

let matches_for_mod ~strict ~m ~priority (e : Flow_entry.t) =
  if strict then
    e.Flow_entry.priority = priority && Ofp_match.equal e.Flow_entry.entry_match m
  else Ofp_match.subsumes ~general:m ~specific:e.Flow_entry.entry_match

let modify t ~strict ~m ~priority actions =
  let count = ref 0 in
  iter_all t (fun e ->
      if matches_for_mod ~strict ~m ~priority e then begin
        e.Flow_entry.actions <- actions;
        incr count
      end);
  !count

let has_output_to ~out_port (e : Flow_entry.t) =
  out_port = Ofp_action.Port.none
  || List.exists
       (function Ofp_action.Output { port; _ } -> port = out_port | _ -> false)
       e.Flow_entry.actions

let recompute_max tp =
  tp.t_max_priority <-
    Int_tbl.fold
      (fun _ bucket acc ->
        List.fold_left (fun acc n -> max acc n.n_entry.Flow_entry.priority) acc bucket)
      tp.t_tbl (-1)

(* Remove every node whose entry satisfies [doomed]; returns the removed
   entries. Bucket edits are collected during the fold and applied after
   (mutating a Hashtbl mid-iteration is undefined). *)
let sweep_tuple t tp ~doomed =
  let touched =
    Int_tbl.fold
      (fun h bucket acc ->
        if List.exists (fun n -> doomed n.n_entry) bucket then (h, bucket) :: acc else acc)
      tp.t_tbl []
  in
  let removed = ref [] in
  List.iter
    (fun (h, bucket) ->
      let keep, out = List.partition (fun n -> not (doomed n.n_entry)) bucket in
      List.iter (fun n -> removed := n.n_entry :: !removed) out;
      if keep = [] then Int_tbl.remove tp.t_tbl h else Int_tbl.replace tp.t_tbl h keep;
      let gone = List.length out in
      tp.t_count <- tp.t_count - gone;
      t.total <- t.total - gone)
    touched;
  if !removed <> [] then recompute_max tp;
  !removed

let sweep_all t ~doomed =
  let removed = sweep_tuple t t.exact ~doomed in
  let removed =
    List.fold_left (fun acc tp -> List.rev_append (sweep_tuple t tp ~doomed) acc) removed t.tuples
  in
  if removed <> [] then begin
    t.tuples <- List.filter (fun tp -> tp.t_count > 0) t.tuples;
    resort t
  end;
  removed

let delete t ~strict ~m ~priority ~out_port =
  sweep_all t ~doomed:(fun e -> matches_for_mod ~strict ~m ~priority e && has_output_to ~out_port e)

let expire t ~now =
  let removed = sweep_all t ~doomed:(fun e -> Flow_entry.is_expired e ~now <> None) in
  List.map
    (fun e ->
      match Flow_entry.is_expired e ~now with
      | Some reason -> (e, reason)
      | None -> assert false)
    removed

let rec priority_ordered = function
  | (a : Flow_entry.t) :: (b :: _ as rest) ->
      a.Flow_entry.priority >= b.Flow_entry.priority && priority_ordered rest
  | [ _ ] | [] -> true

let entries t =
  let all = ref [] in
  iter_all t (fun e -> all := e :: !all);
  (* List.sort is a stable merge sort, so a list already in order (every
     entry at one priority, as in a home without NAT) is its own result;
     skipping the sort saves the poll ~27 words an entry *)
  if priority_ordered !all then !all
  else List.sort (fun a b -> compare b.Flow_entry.priority a.Flow_entry.priority) !all

let clear t =
  Int_tbl.reset t.exact.t_tbl;
  t.exact.t_count <- 0;
  t.exact.t_max_priority <- -1;
  t.tuples <- [];
  t.total <- 0
