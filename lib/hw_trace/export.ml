module Json = Hw_json.Json

let attr_json = function
  | Tracer.Str s -> Json.String s
  | Tracer.Int i -> Json.Int i
  | Tracer.Bool b -> Json.Bool b
  | Tracer.Real f -> Json.Float f
  | Tracer.Ip a -> Json.String (Hw_packet.Ip.to_string a)
  | Tracer.Mac m -> Json.String (Hw_packet.Mac.to_string m)

let attrs_json attrs =
  Json.Obj (List.rev_map (fun (k, v) -> (k, attr_json v)) attrs)

let span_json (s : Tracer.span) =
  let error =
    match s.error with None -> [] | Some e -> [ ("error", Json.String e) ]
  in
  Json.Obj
    ([
       ("span_id", Json.Int s.span_id);
       ("parent", Json.Int s.parent);
       ("name", Json.String s.name);
       ("start", Json.Float s.start);
       ("duration_ms", Json.Float (s.duration *. 1e3));
       ("attrs", attrs_json s.attrs);
     ]
    @ error)

let summary_json (c : Tracer.completed) =
  Json.Obj
    [
      ("trace_id", Json.Int c.id);
      ("root", Json.String c.spans.(0).name);
      ("start", Json.Float c.start);
      ("duration_ms", Json.Float (c.duration *. 1e3));
      ("spans", Json.Int (Array.length c.spans));
      ("errored", Json.Bool c.errored);
    ]

let summaries t = Json.List (List.map summary_json (Tracer.traces t))

let trace_json (c : Tracer.completed) =
  Json.Obj
    [
      ("trace_id", Json.Int c.id);
      ("start", Json.Float c.start);
      ("duration_ms", Json.Float (c.duration *. 1e3));
      ("errored", Json.Bool c.errored);
      ("spans", Json.List (List.map span_json (Array.to_list c.spans)));
    ]

(* Chrome trace-event format (chrome://tracing, Perfetto): complete
   events ("ph":"X") with microsecond timestamps, one thread lane. Span
   ids and parent links ride in "args" so causality survives the
   flame-chart flattening. *)
let chrome_json (c : Tracer.completed) =
  let event (s : Tracer.span) =
    let args =
      ("span_id", Json.Int s.span_id)
      :: ("parent", Json.Int s.parent)
      :: List.rev_map (fun (k, v) -> (k, attr_json v)) s.attrs
      @ match s.error with None -> [] | Some e -> [ ("error", Json.String e) ]
    in
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String (if s.error = None then "hw" else "hw,error"));
        ("ph", Json.String "X");
        ("ts", Json.Float (s.start *. 1e6));
        ("dur", Json.Float (s.duration *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj args);
      ]
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj [ ("trace_id", Json.Int c.id) ]);
      ("traceEvents", Json.List (List.map event (Array.to_list c.spans)));
    ]
