module Json = Hw_json.Json

type row = { metric : string; kind : string; stat : string; value : float }

let histogram_stat_names = [ "count"; "sum"; "max"; "p50"; "p90"; "p99" ]

(* the [i]-th of [histogram_stat_names] *)
let histogram_stat h i =
  match i with
  | 0 -> float_of_int (Histogram.count h)
  | 1 -> Histogram.sum h
  | 2 -> Histogram.max_value h
  | 3 -> Histogram.percentile h 50.
  | 4 -> Histogram.percentile h 90.
  | _ -> Histogram.percentile h 99.

let histogram_stats h = List.mapi (fun i name -> (name, histogram_stat h i)) histogram_stat_names

(* The exposition format defines exactly three label-value escapes:
   backslash, double-quote and line feed. OCaml's %S is close but not
   it — it also rewrites every non-printable byte to a decimal escape
   ("\233"), which a Prometheus scraper would take literally. *)
let escape_label_value v =
  let n = String.length v in
  let plain = ref true in
  String.iter (fun c -> if c = '\\' || c = '"' || c = '\n' then plain := false) v;
  if !plain then v
  else begin
    let buf = Buffer.create (n + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '"' -> Buffer.add_string buf "\\\""
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      v;
    Buffer.contents buf
  end

(* Prometheus label syntax: {k="v",...} *)
let label_str = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v)) labels)
      ^ "}"

type shape = { sh_metric : string; sh_kind : string; sh_stats : string list }

let shape (name, instrument) =
  match instrument with
  | Registry.Counter c ->
      {
        sh_metric = Counter.name c ^ label_str (Counter.labels c);
        sh_kind = "counter";
        sh_stats = [ "value" ];
      }
  | Registry.Gauge _ -> { sh_metric = name; sh_kind = "gauge"; sh_stats = [ "value" ] }
  | Registry.Histogram _ ->
      { sh_metric = name; sh_kind = "histogram"; sh_stats = histogram_stat_names }

let stat_value instrument i =
  match instrument with
  | Registry.Counter c -> float_of_int (Counter.value c)
  | Registry.Gauge g -> Gauge.value g
  | Registry.Histogram h -> histogram_stat h i

(* every histogram stat moves only on [observe], which bumps the count *)
let version = function
  | Registry.Counter c -> Counter.value c
  | Registry.Gauge g -> Gauge.writes g
  | Registry.Histogram h -> Histogram.count h

let rows reg =
  List.concat_map
    (fun ((_, instrument) as entry) ->
      let { sh_metric = metric; sh_kind = kind; sh_stats } = shape entry in
      List.mapi (fun i stat -> { metric; kind; stat; value = stat_value instrument i }) sh_stats)
    (Registry.instruments reg)

let to_json reg =
  Json.Obj
    (List.map
       (fun (name, instrument) ->
         let fields =
           match instrument with
           | Registry.Counter c ->
               let labels =
                 match Counter.labels c with
                 | [] -> []
                 | ls ->
                     [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ls)) ]
               in
               (("kind", Json.String "counter") :: labels)
               @ [ ("value", Json.Int (Counter.value c)) ]
           | Registry.Gauge g ->
               let labels =
                 match Gauge.labels g with
                 | [] -> []
                 | ls ->
                     [ ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) ls)) ]
               in
               (("kind", Json.String "gauge") :: labels)
               @ [ ("value", Json.Float (Gauge.value g)) ]
           | Registry.Histogram h ->
               ("kind", Json.String "histogram")
               :: List.map
                    (fun (stat, v) ->
                      (stat, if stat = "count" then Json.Int (Histogram.count h) else Json.Float v))
                    (histogram_stats h)
         in
         (name, Json.Obj fields))
       (Registry.instruments reg))

(* Prometheus text format floats: plain decimal, no OCaml "1." artifacts *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let render_prometheus reg =
  let buf = Buffer.create 1024 in
  (* consecutive series of one labeled metric share a single header *)
  let last_header = ref "" in
  let header name help kind =
    if name <> !last_header then begin
      last_header := name;
      if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (name, instrument) ->
      match instrument with
      | Registry.Counter c ->
          header (Counter.name c) (Counter.help c) "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" (Counter.name c)
               (label_str (Counter.labels c))
               (Counter.value c))
      | Registry.Gauge g ->
          header name (Gauge.help g) "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name
               (label_str (Gauge.labels g))
               (float_str (Gauge.value g)))
      | Registry.Histogram h ->
          header name (Histogram.help h) "summary";
          List.iter
            (fun (q, p) ->
              Buffer.add_string buf
                (Printf.sprintf "%s{quantile=\"%s\"} %s\n" name q
                   (float_str (Histogram.percentile h p))))
            [ ("0.5", 50.); ("0.9", 90.); ("0.99", 99.) ];
          Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" name (float_str (Histogram.sum h)));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name (Histogram.count h)))
    (Registry.instruments reg);
  Buffer.contents buf
