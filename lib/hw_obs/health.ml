type state = Healthy | Degraded | Lost

let state_to_string = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Lost -> "lost"

type transition = {
  router : string;
  at : float;
  state : state;
  prev : state;
  reason : string;
}

type record = {
  mutable st : state;
  mutable last_seen : float; (* last renewal, registration or clean scrape *)
  mutable failures : int; (* consecutive scrape failures *)
  mutable cleans : int; (* consecutive clean scrapes since leaving Healthy *)
  (* whether the current degradation came from the scrape path (failures
     or advancing error counters) rather than mere silence — a lease
     renewal cures silence only *)
  mutable scrape_tainted : bool;
}

(* by router id *)
type t = (string, record) Hashtbl.t

let degraded_after = 30.
let lost_after_failures = 3
let recover_after = 2
let create () = Hashtbl.create 64

let get t router now =
  match Hashtbl.find_opt t router with
  | Some r -> r
  | None ->
      let r =
        { st = Healthy; last_seen = now; failures = 0; cleans = 0; scrape_tainted = false }
      in
      Hashtbl.replace t router r;
      r

let transition r ~router ~at ~to_ ~reason =
  if r.st = to_ then []
  else begin
    let prev = r.st in
    r.st <- to_;
    [ { router; at; state = to_; prev; reason } ]
  end

let note_up t ~router ~now =
  let is_new = not (Hashtbl.mem t router) in
  let r = get t router now in
  r.last_seen <- now;
  r.failures <- 0;
  r.cleans <- 0;
  r.scrape_tainted <- false;
  if is_new then [] (* born Healthy: nothing transitioned *)
  else transition r ~router ~at:now ~to_:Healthy ~reason:"registered"

let note_renewed t ~router ~now =
  let r = get t router now in
  r.last_seen <- now;
  (* a renewal proves the session, not the scrape path: it recovers a
     router that was only *silent*, never one degraded by scrape
     failures or advancing error counters *)
  if r.st = Degraded && not r.scrape_tainted then
    transition r ~router ~at:now ~to_:Healthy ~reason:"lease renewed"
  else []

let note_down t ~router ~now ~reason =
  match Hashtbl.find_opt t router with
  | None -> []
  | Some r ->
      r.cleans <- 0;
      transition r ~router ~at:now ~to_:Lost ~reason

let note_scrape t ~router ~now ~ok ~errors ~reason =
  let r = get t router now in
  if not ok then begin
    r.failures <- r.failures + 1;
    r.cleans <- 0;
    r.scrape_tainted <- true;
    if r.failures >= lost_after_failures then
      transition r ~router ~at:now ~to_:Lost
        ~reason:(Printf.sprintf "%d consecutive scrape failures" r.failures)
    else if r.st = Lost then
      (* a late failure (e.g. a scrape in flight across an eviction)
         must not promote a lost router back to merely-degraded *)
      []
    else
      transition r ~router ~at:now ~to_:Degraded
        ~reason:(if reason = "" then "scrape failed" else "scrape failed: " ^ reason)
  end
  else begin
    r.failures <- 0;
    r.last_seen <- now;
    if errors > 0 then begin
      r.cleans <- 0;
      r.scrape_tainted <- true;
      transition r ~router ~at:now ~to_:Degraded
        ~reason:(Printf.sprintf "error counters advanced (+%d)" errors)
    end
    else begin
      r.cleans <- r.cleans + 1;
      if r.st <> Healthy && r.cleans >= recover_after then begin
        r.scrape_tainted <- false;
        transition r ~router ~at:now ~to_:Healthy
          ~reason:(Printf.sprintf "%d clean scrapes" r.cleans)
      end
      else []
    end
  end

let tick t ~now =
  Hashtbl.fold
    (fun router r acc ->
      if r.st = Healthy && now -. r.last_seen > degraded_after then begin
        r.cleans <- 0;
        transition r ~router ~at:now ~to_:Degraded ~reason:"renewal silence" @ acc
      end
      else acc)
    t []

let state t router = Option.map (fun r -> r.st) (Hashtbl.find_opt t router)

let counts t =
  Hashtbl.fold
    (fun _ r (h, d, l) ->
      match r.st with
      | Healthy -> (h + 1, d, l)
      | Degraded -> (h, d + 1, l)
      | Lost -> (h, d, l + 1))
    t (0, 0, 0)

let routers t =
  Hashtbl.fold (fun id r acc -> (id, r.st) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
