(* Test-side reader of a controller channel: every whole frame buffered
   so far, decoded, in arrival order. *)

open Hw_openflow

let rec decoded framing =
  match Ofp_message.Framing.pop_frame framing with
  | None -> []
  | Some frame ->
      let msg = Result.bind frame Ofp_message.decode in
      msg :: decoded framing
