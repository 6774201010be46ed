(* The benchmark's measuring program. Usually started by perfbench/run.py:

     perfbench.exe --workload household --seed 1 --seconds 15 --trace 0

   With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
   the workload untraced and then traced (same seed, same length), prints
   the per-layer metrics and writes the traced pass's spans as Chrome
   trace-event JSON to --spans-out. The last line of standard output is the
   result object; the line before it carries the raw twins, the exact
   counters, the failed checks and the failed operations. Exits 1 when an
   output check fails. *)

open Perfbench

let setups = 3

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload (household|stream|churn|fleet) --seed N --seconds S \
     --trace (0|1) [--spans-out FILE]";
  exit 2

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_string s = Printf.sprintf "%S" s

let metrics_json ms =
  String.concat ", "
    (List.map
       (fun (m : Bench.metric) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.Bench.name)
           (json_float m.Bench.value) (json_string m.Bench.unit_))
       ms)

let strings_json l = "[" ^ String.concat ", " (List.map json_string l) ^ "]"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let spans_out = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--spans-out" :: v :: rest -> spans_out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let spec = match Bench.find !workload with Some s -> s | None -> usage () in
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  let run traced = Bench.run spec ~seed:!seed ~seconds:!seconds ~traced ~setups in
  let untraced = run false in
  let passes, metrics =
    if !trace = 0 then ([ untraced ], untraced.Bench.e2e)
    else begin
      let traced = run true in
      if !spans_out <> "" then begin
        let oc = open_out !spans_out in
        Spans.write_chrome traced.Bench.spans oc;
        close_out oc
      end;
      let attempted = untraced.Bench.attempted + traced.Bench.attempted in
      let failed = untraced.Bench.failed + traced.Bench.failed in
      let extra =
        [
          {
            Bench.name = "trace_overhead_pct";
            value =
              100.
              *. ((traced.Bench.router_ms_per_sim_s /. untraced.Bench.router_ms_per_sim_s) -. 1.);
            unit_ = "%";
          };
          {
            Bench.name = "ops_failed_pct";
            value = 100. *. float_of_int failed /. float_of_int (max 1 attempted);
            unit_ = "%";
          };
        ]
      in
      ([ untraced; traced ], traced.Bench.layer @ untraced.Bench.twins @ extra)
    end
  in
  let attempted = List.fold_left (fun acc r -> acc + r.Bench.attempted) 0 passes in
  let failed = List.fold_left (fun acc r -> acc + r.Bench.failed) 0 passes in
  let problems = List.concat_map (fun r -> r.Bench.problems) passes in
  let failures = List.concat_map (fun r -> r.Bench.failures) passes in
  (* a run is correct when the workload ran as specified; individual
     operations that went wrong are counted in [failed] *)
  let correct = problems = [] in
  (* the exact counters of every pass: the untraced one, then the traced *)
  let exact =
    List.mapi
      (fun i r ->
        Printf.sprintf "%s: {%s}"
          (json_string (if i = 0 then "exact" else "exact_traced"))
          (String.concat ", "
             (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) v) r.Bench.exact)))
      passes
  in
  Printf.printf "{\"detail\": {\"workload\": %s, \"seed\": %d, \"raw\": {%s}, %s, \"problems\": %s, \"failures\": %s}}\n"
    (json_string spec.Bench.name) !seed
    (metrics_json untraced.Bench.twins)
    (String.concat ", " exact)
    (strings_json problems) (strings_json failures);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    (max 1 attempted) failed (metrics_json metrics);
  exit (if correct then 0 else 1)
