open Hw_util

type status = Pending | Active of int | Failed of string

type t = {
  snapshots : (float * Query.result_set) Ring.t;
  (* the lease keeper, or why the statement cannot be one *)
  keeper : (Rpc.Subscriber.t, string) result;
}

let attach ?(max_snapshots = 1024) ~now ~schedule ~client ~statement () =
  let snapshots = Ring.create ~capacity:max_snapshots in
  let keeper =
    match Parser.parse statement with
    | Ok (Ast.Subscribe (_, period)) when period > 0. ->
        Ok
          (Rpc.Subscriber.attach ~now ~schedule ~client ~statement ~period
             ~on_result:(fun rs -> Ring.push snapshots (now (), rs))
             ())
    | Ok (Ast.Subscribe _) -> Error "subscription period must be positive"
    | Ok _ -> Error "statement was not a SUBSCRIBE"
    | Error msg -> Error msg
  in
  { snapshots; keeper }

let status t =
  match t.keeper with
  | Error msg -> Failed msg
  | Ok keeper -> (
      match (Rpc.Subscriber.sub_id keeper, Rpc.Subscriber.refusal keeper) with
      | Some id, _ -> Active id
      | None, Some msg -> Failed msg
      | None, None -> Pending)

let snapshot_count t = Ring.length t.snapshots
let last t = Ring.peek_newest t.snapshots

let csv_field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let to_csv t =
  let buf = Buffer.create 256 in
  (match Ring.peek_oldest t.snapshots with
  | Some (_, rs) ->
      Buffer.add_string buf
        (String.concat "," ("time" :: List.map csv_field rs.Query.columns));
      Buffer.add_char buf '\n'
  | None -> ());
  Ring.iter
    (fun (ts, rs) ->
      List.iter
        (fun row ->
          Buffer.add_string buf
            (String.concat ","
               (Printf.sprintf "%.3f" ts
               :: List.map (fun v -> csv_field (Value.to_string v)) row));
          Buffer.add_char buf '\n')
        rs.Query.rows)
    t.snapshots;
  Buffer.contents buf

let detach t = Result.iter Rpc.Subscriber.detach t.keeper
