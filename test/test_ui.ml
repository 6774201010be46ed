(* hw_ui: the four interface engines, unit-tested against synthetic data *)

module Artifact = Hw_ui.Artifact
module Bandwidth_view = Hw_ui.Bandwidth_view
module Policy_ui = Hw_ui.Policy_ui
module Json = Hw_json.Json
module Http = Hw_control_api.Http

(* ------------------------------------------------------------------ *)
(* Artifact                                                            *)
(* ------------------------------------------------------------------ *)

let test_artifact_mode1_lit_count () =
  let a = Artifact.create ~leds:10 () in
  Artifact.set_mode a Artifact.Signal_strength;
  Artifact.update_rssi a (-40);
  Alcotest.(check int) "strong = all lit" 10 (Artifact.lit_count a);
  Artifact.update_rssi a (-95);
  Alcotest.(check int) "dead = none lit" 0 (Artifact.lit_count a);
  Artifact.update_rssi a (-72);
  let mid = Artifact.lit_count a in
  Alcotest.(check bool) "middling is partial" true (mid > 0 && mid < 10);
  Alcotest.(check int) "render length" 10 (String.length (Artifact.render_ascii a))

let test_artifact_mode2_speed_monotone () =
  let a = Artifact.create () in
  Artifact.set_mode a Artifact.Bandwidth_animation;
  Artifact.update_bandwidth a ~current_bps:1000.;
  (* peak is now 1000 *)
  let speeds =
    List.map
      (fun f ->
        Artifact.update_bandwidth a ~current_bps:(f *. 1000.);
        Artifact.chaser_speed a)
      [ 0.; 0.25; 0.5; 1.0 ]
  in
  Alcotest.(check bool) "monotone" true (List.sort compare speeds = speeds);
  Alcotest.(check (float 0.01)) "idle floor" (1. /. 6.) (List.nth speeds 0);
  Alcotest.(check (float 0.01)) "peak ceiling" 2.0 (List.nth speeds 3);
  (* the chaser advances exactly one LED position at a time when ticked
     finely enough *)
  let positions = Hashtbl.create 16 in
  for _ = 1 to 600 do
    (* dt small enough that even at 2 rev/s no LED is skipped *)
    Artifact.tick a ~dt:0.02;
    Hashtbl.replace positions (Artifact.render_ascii a) ()
  done;
  Alcotest.(check int) "visits every LED" (Artifact.led_count a) (Hashtbl.length positions)

let test_artifact_peak_tracking () =
  let a = Artifact.create () in
  Artifact.update_bandwidth a ~current_bps:500.;
  Artifact.update_bandwidth a ~current_bps:2000.;
  Artifact.update_bandwidth a ~current_bps:100.;
  Alcotest.(check (float 0.01)) "peak sticks" 2000. (Artifact.peak_bps a)

let test_artifact_mode3_flash_sequence () =
  let a = Artifact.create ~leds:4 () in
  Artifact.set_mode a Artifact.Event_flashes;
  Alcotest.(check string) "dark initially" "oooo" (Artifact.render_ascii a);
  Artifact.notify_lease a `Grant;
  Artifact.notify_lease a `Revoke;
  (* a flash burst is 3 on/off cycles at 4 Hz: green first *)
  let frames = ref [] in
  for _ = 1 to 12 do
    Artifact.tick a ~dt:0.25;
    frames := Artifact.render_ascii a :: !frames
  done;
  let frames = List.rev !frames in
  Alcotest.(check bool) "green phase" true (List.mem "GGGG" frames);
  Alcotest.(check bool) "blue phase after green" true (List.mem "BBBB" frames);
  let green_idx = Option.get (List.find_index (String.equal "GGGG") frames) in
  let blue_idx = Option.get (List.find_index (String.equal "BBBB") frames) in
  Alcotest.(check bool) "ordered" true (green_idx < blue_idx);
  (* queue drains *)
  for _ = 1 to 8 do
    Artifact.tick a ~dt:0.25
  done;
  Alcotest.(check string) "dark again" "oooo" (Artifact.render_ascii a)

let test_artifact_bad_config () =
  Alcotest.check_raises "zero LEDs" (Invalid_argument "Artifact.create: need at least one LED")
    (fun () -> ignore (Artifact.create ~leds:0 ()))

(* ------------------------------------------------------------------ *)
(* Bandwidth view over a synthetic database                            *)
(* ------------------------------------------------------------------ *)

let synthetic_db () =
  let now = ref 100. in
  let db = Hw_hwdb.Database.create ~now:(fun () -> !now) () in
  (* device 10.0.0.5: web up + down; device 10.0.0.6: video down only *)
  List.iter
    (fun (src, dst, sp, dp, bytes) ->
      Hw_hwdb.Database.record_flow db ~proto:6 ~src_ip:(Hw_hwdb.Value.Str src)
        ~dst_ip:(Hw_hwdb.Value.Str dst) ~src_port:sp ~dst_port:dp ~packets:1 ~bytes)
    [
      ("10.0.0.5", "93.184.216.34", 40000, 80, 1_000);
      ("93.184.216.34", "10.0.0.5", 80, 40000, 20_000);
      ("93.184.216.40", "10.0.0.6", 8080, 41000, 100_000);
    ];
  db

let test_bandwidth_view_attribution () =
  let db = synthetic_db () in
  let view =
    Bandwidth_view.create ~window_seconds:10.
      ~label_of_ip:(function "10.0.0.5" -> Some "laptop" | _ -> None)
      ~db ()
  in
  match Bandwidth_view.refresh view with
  | Error e -> Alcotest.fail e
  | Ok rows -> (
      Alcotest.(check int) "two home devices, no server rows" 2 (List.length rows);
      match rows with
      | [ top; second ] ->
          (* video device dominates *)
          Alcotest.(check string) "top is the video device" "10.0.0.6"
            top.Bandwidth_view.device_ip;
          Alcotest.(check int) "video bytes" 100_000 top.Bandwidth_view.total_bytes;
          Alcotest.(check string) "video classified by server port" "video"
            (List.hd top.Bandwidth_view.apps).Bandwidth_view.app;
          (* laptop aggregates both directions *)
          Alcotest.(check string) "metadata label" "laptop" second.Bandwidth_view.device_label;
          Alcotest.(check int) "up + down" 21_000 second.Bandwidth_view.total_bytes;
          Alcotest.(check string) "web" "web"
            (List.hd second.Bandwidth_view.apps).Bandwidth_view.app
      | _ -> Alcotest.fail "unexpected rows")

let test_bandwidth_view_render () =
  let db = synthetic_db () in
  let view = Bandwidth_view.create ~window_seconds:10. ~db () in
  ignore (Bandwidth_view.refresh view);
  let screen = Bandwidth_view.render view in
  Alcotest.(check bool) "mentions device" true
    (Re.execp (Re.compile (Re.str "10.0.0.6")) screen);
  Alcotest.(check bool) "has bars" true (String.contains screen '#');
  let drill = Bandwidth_view.render_device view "10.0.0.6" in
  Alcotest.(check bool) "drill-down names protocol" true
    (Re.execp (Re.compile (Re.str "video")) drill);
  let missing = Bandwidth_view.render_device view "10.0.0.99" in
  Alcotest.(check bool) "missing device handled" true
    (Re.execp (Re.compile (Re.str "no traffic")) missing)

let test_bandwidth_view_sparkline () =
  let now = ref 0. in
  let db = Hw_hwdb.Database.create ~now:(fun () -> !now) () in
  let view = Bandwidth_view.create ~window_seconds:10. ~db () in
  (* three refreshes: busy, silent, busy *)
  let record bytes =
    Hw_hwdb.Database.record_flow db ~proto:6 ~src_ip:(Hw_hwdb.Value.Str "10.0.0.5")
      ~dst_ip:(Hw_hwdb.Value.Str "1.2.3.4") ~src_port:1 ~dst_port:80 ~packets:1 ~bytes
  in
  record 1000;
  ignore (Bandwidth_view.refresh view);
  now := 20.;
  ignore (Bandwidth_view.refresh view);
  now := 21.;
  record 500;
  ignore (Bandwidth_view.refresh view);
  let spark = Bandwidth_view.sparkline view "10.0.0.5" in
  (* 3 samples, each a 3-byte utf8 block *)
  Alcotest.(check int) "three samples" 9 (String.length spark);
  (* first sample is the peak (full block), middle is silence (lowest) *)
  Alcotest.(check string) "peak first" "\xe2\x96\x88" (String.sub spark 0 3);
  Alcotest.(check string) "silent middle" "\xe2\x96\x81" (String.sub spark 3 3);
  Alcotest.(check string) "unknown device empty" "" (Bandwidth_view.sparkline view "10.9.9.9")

let test_bandwidth_view_window_excludes_old () =
  let now = ref 0. in
  let db = Hw_hwdb.Database.create ~now:(fun () -> !now) () in
  Hw_hwdb.Database.record_flow db ~proto:6 ~src_ip:(Hw_hwdb.Value.Str "10.0.0.5")
    ~dst_ip:(Hw_hwdb.Value.Str "1.2.3.4") ~src_port:1 ~dst_port:80 ~packets:1 ~bytes:999;
  now := 100.;
  let view = Bandwidth_view.create ~window_seconds:10. ~db () in
  (match Bandwidth_view.refresh view with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "stale traffic shown"
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "empty render" true
    (Re.execp (Re.compile (Re.str "no active devices")) (Bandwidth_view.render view))

(* ------------------------------------------------------------------ *)
(* Policy UI                                                           *)
(* ------------------------------------------------------------------ *)

let test_policy_ui_compile () =
  (* capture what gets POSTed *)
  let posted = ref None in
  let http (req : Http.request) =
    if req.Http.meth = Http.POST then begin
      posted := Some req.Http.body;
      Http.json_response ~status:201 (Json.Obj [])
    end
    else Http.json_response (Json.List [])
  in
  let ui = Policy_ui.create ~http in
  (match
     Policy_ui.submit ui ~rule_id:"r1" ~token:(Some "tok") Policy_ui.kids_facebook_weekdays
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let body = Json.of_string (Option.get !posted) in
  Alcotest.(check string) "group" "kids" (Json.get_string (Json.member "group" body));
  Alcotest.(check string) "token" "tok" (Json.get_string (Json.member "requires_token" body));
  Alcotest.(check string) "days" "weekdays" (Json.get_string (Json.member "days" body))

let test_policy_ui_requires_token_when_gated () =
  let ui = Policy_ui.create ~http:(fun _ -> Http.json_response (Json.Obj [])) in
  match Policy_ui.submit ui ~rule_id:"r" ~token:None Policy_ui.kids_facebook_weekdays with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "gated rule accepted without a token"

let test_policy_ui_render_panels () =
  let cartoon = Policy_ui.render Policy_ui.kids_facebook_weekdays in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (Re.execp (Re.compile (Re.str needle)) cartoon))
    [ "WHO"; "kids"; "WHAT"; "WHEN"; "KEY"; "homework" ]

(* ------------------------------------------------------------------ *)
(* Control UI parsing                                                  *)
(* ------------------------------------------------------------------ *)

let devices_payload =
  Json.to_string
    (Json.List
       [
         Json.Obj
           [
             ("mac", Json.String "02:00:00:00:00:01");
             ("state", Json.String "pending");
             ("hostname", Json.String "laptop");
             ("metadata", Json.String "Tom's Mac Air");
           ];
         Json.Obj
           [
             ("mac", Json.String "02:00:00:00:00:02");
             ("state", Json.String "permitted");
             ("hostname", Json.String "tv");
             ("metadata", Json.String "");
             ("lease_ip", Json.String "10.0.0.101");
           ];
         Json.Obj
           [
             ("mac", Json.String "02:00:00:00:00:03");
             ("state", Json.String "denied");
             ("hostname", Json.String "");
             ("metadata", Json.String "");
           ];
       ])

let test_control_ui_parses_columns () =
  let ui =
    Hw_ui.Control_ui.create ~http:(fun req ->
        match req.Http.path with
        | "/api/devices" -> Http.response ~body:devices_payload 200
        | _ -> Http.error_response 404 "no")
  in
  (match Hw_ui.Control_ui.refresh ui with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "one requesting" 1
    (List.length (Hw_ui.Control_ui.tabs_in ui Hw_ui.Control_ui.Requesting));
  let permitted = Hw_ui.Control_ui.tabs_in ui Hw_ui.Control_ui.Permitted_col in
  Alcotest.(check int) "one permitted" 1 (List.length permitted);
  Alcotest.(check bool) "lease shown" true
    ((List.hd permitted).Hw_ui.Control_ui.lease_ip = Some "10.0.0.101");
  (* label preference: metadata > hostname > mac *)
  let requesting = List.hd (Hw_ui.Control_ui.tabs_in ui Hw_ui.Control_ui.Requesting) in
  Alcotest.(check string) "metadata label" "Tom's Mac Air" requesting.Hw_ui.Control_ui.label;
  let denied = List.hd (Hw_ui.Control_ui.tabs_in ui Hw_ui.Control_ui.Denied_col) in
  Alcotest.(check string) "mac fallback label" "02:00:00:00:00:03" denied.Hw_ui.Control_ui.label

let test_control_ui_error_paths () =
  let ui = Hw_ui.Control_ui.create ~http:(fun _ -> Http.error_response 500 "boom") in
  (match Hw_ui.Control_ui.refresh ui with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "500 accepted");
  let ui2 = Hw_ui.Control_ui.create ~http:(fun _ -> Http.response ~body:"{}" 200) in
  match Hw_ui.Control_ui.refresh ui2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-list payload accepted"

let () =
  Alcotest.run "hw_ui"
    [
      ( "artifact",
        [
          Alcotest.test_case "mode1 lit count" `Quick test_artifact_mode1_lit_count;
          Alcotest.test_case "mode2 speed monotone" `Quick test_artifact_mode2_speed_monotone;
          Alcotest.test_case "peak tracking" `Quick test_artifact_peak_tracking;
          Alcotest.test_case "mode3 flash sequence" `Quick test_artifact_mode3_flash_sequence;
          Alcotest.test_case "bad config" `Quick test_artifact_bad_config;
        ] );
      ( "bandwidth_view",
        [
          Alcotest.test_case "attribution" `Quick test_bandwidth_view_attribution;
          Alcotest.test_case "render" `Quick test_bandwidth_view_render;
          Alcotest.test_case "sparkline" `Quick test_bandwidth_view_sparkline;
          Alcotest.test_case "window excludes old" `Quick test_bandwidth_view_window_excludes_old;
        ] );
      ( "policy_ui",
        [
          Alcotest.test_case "compile to rule json" `Quick test_policy_ui_compile;
          Alcotest.test_case "token required" `Quick test_policy_ui_requires_token_when_gated;
          Alcotest.test_case "cartoon render" `Quick test_policy_ui_render_panels;
        ] );
      ( "control_ui",
        [
          Alcotest.test_case "column parsing" `Quick test_control_ui_parses_columns;
          Alcotest.test_case "error paths" `Quick test_control_ui_error_paths;
        ] );
    ]
