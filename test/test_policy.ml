(* hw_policy: schedules, the visual policy language, USB keys, udev *)

open Hw_packet
open Hw_policy

let kid1 = Mac.local 0x21
let kid2 = Mac.local 0x22
let adult = Mac.local 0x23

let mon_17 = Hw_time.at ~day:Hw_time.Mon ~hour:17 ~min:0
let mon_10 = Hw_time.at ~day:Hw_time.Mon ~hour:10 ~min:0
let sat_17 = Hw_time.at ~day:Hw_time.Sat ~hour:17 ~min:0

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)
(* ------------------------------------------------------------------ *)

let test_schedule_always () =
  Alcotest.(check bool) "mon" true (Schedule.active_at Schedule.always mon_17);
  Alcotest.(check bool) "sat" true (Schedule.active_at Schedule.always sat_17)

let test_schedule_weekdays_window () =
  let s = Schedule.weekdays ~start_hour:16 ~end_hour:21 () in
  Alcotest.(check bool) "mon 17:00" true (Schedule.active_at s mon_17);
  Alcotest.(check bool) "mon 10:00" false (Schedule.active_at s mon_10);
  Alcotest.(check bool) "sat 17:00" false (Schedule.active_at s sat_17);
  (* boundaries: start inclusive, end exclusive *)
  Alcotest.(check bool) "16:00 in" true
    (Schedule.active_at s (Hw_time.at ~day:Hw_time.Mon ~hour:16 ~min:0));
  Alcotest.(check bool) "21:00 out" false
    (Schedule.active_at s (Hw_time.at ~day:Hw_time.Mon ~hour:21 ~min:0))

let test_schedule_wrapping_window () =
  (* 22:00 - 06:00: spans midnight into the next day *)
  let s =
    Schedule.make ~days:[ Hw_time.Fri ] ~start_tod:(Hw_time.hms ~hour:22 ~min:0 ~sec:0)
      ~end_tod:(Hw_time.hms ~hour:6 ~min:0 ~sec:0)
  in
  Alcotest.(check bool) "fri 23:00" true
    (Schedule.active_at s (Hw_time.at ~day:Hw_time.Fri ~hour:23 ~min:0));
  Alcotest.(check bool) "sat 03:00 (after friday)" true
    (Schedule.active_at s (Hw_time.at ~day:Hw_time.Sat ~hour:3 ~min:0));
  Alcotest.(check bool) "sat 12:00" false
    (Schedule.active_at s (Hw_time.at ~day:Hw_time.Sat ~hour:12 ~min:0));
  Alcotest.(check bool) "thu 23:00" false
    (Schedule.active_at s (Hw_time.at ~day:Hw_time.Thu ~hour:23 ~min:0))

let test_schedule_of_strings () =
  (match Schedule.of_strings ~days:"weekdays" ~window:"16:00-21:00" with
  | Ok s ->
      Alcotest.(check bool) "weekday window" true (Schedule.active_at s mon_17);
      Alcotest.(check bool) "weekend off" false (Schedule.active_at s sat_17)
  | Error e -> Alcotest.fail e);
  (match Schedule.of_strings ~days:"sat sun" ~window:"always" with
  | Ok s -> Alcotest.(check bool) "weekend always" true (Schedule.active_at s sat_17)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "bad days" true
    (Result.is_error (Schedule.of_strings ~days:"noday" ~window:"always"));
  Alcotest.(check bool) "bad window" true
    (Result.is_error (Schedule.of_strings ~days:"all" ~window:"16-21"));
  Alcotest.(check bool) "bad time" true
    (Result.is_error (Schedule.of_strings ~days:"all" ~window:"25:00-26:00"))

let test_schedule_string_roundtrip () =
  List.iter
    (fun s ->
      let days, window = Schedule.to_strings s in
      match Schedule.of_strings ~days ~window with
      | Ok s' ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s" days window)
            true
            (Schedule.to_strings s' = (days, window))
      | Error e -> Alcotest.fail e)
    [ Schedule.always; Schedule.weekdays ~start_hour:16 ~end_hour:21 (); Schedule.weekend () ]

(* the window text against the Printf format it used to be written
   with, for every minute of a day and for out-of-range and fractional
   times [Schedule.make] accepts *)
let test_schedule_window_text () =
  let reference tod =
    Printf.sprintf "%02d:%02d" (int_of_float (tod /. 3600.)) (int_of_float (Float.rem tod 3600. /. 60.))
  in
  let tods =
    List.init (24 * 60) (fun m -> float_of_int (m * 60))
    @ [ 59.; 86_399.; 90_000.; 400_000.; -60.; -3_600.; -36_000.; 5_430.5 ]
  in
  List.iter
    (fun tod ->
      let s = Schedule.make ~days:[ Hw_time.Mon ] ~start_tod:tod ~end_tod:(tod +. 60.) in
      Alcotest.(check string) (Printf.sprintf "window at %g" tod)
        (reference tod ^ "-" ^ reference (tod +. 60.))
        (snd (Schedule.to_strings s)))
    tods

(* ------------------------------------------------------------------ *)
(* Policy engine                                                       *)
(* ------------------------------------------------------------------ *)

let kids_rule ?(token = Some "homework") ?(services = [ Policy.facebook ]) () =
  {
    Policy.rule_id = "kids-fb";
    group = "kids";
    services;
    schedule = Schedule.weekdays ~start_hour:16 ~end_hour:21 ();
    requires_token = token;
  }

let engine () =
  let p = Policy.create () in
  Policy.define_group p "kids" [ kid1; kid2 ];
  p

let test_unconstrained_device () =
  let p = engine () in
  Policy.add_rule p (kids_rule ());
  let d = Policy.evaluate p ~mac:adult ~now:mon_17 in
  Alcotest.(check bool) "adult unconstrained" true (d = Policy.unconstrained)

let test_constrained_no_active_rule () =
  let p = engine () in
  Policy.add_rule p (kids_rule ());
  (* no token inserted *)
  let d = Policy.evaluate p ~mac:kid1 ~now:mon_17 in
  Alcotest.(check bool) "network off" false d.Policy.network_allowed;
  (* wrong time, even with token *)
  Policy.insert_token p "homework";
  let d = Policy.evaluate p ~mac:kid1 ~now:mon_10 in
  Alcotest.(check bool) "network off out of window" false d.Policy.network_allowed;
  let d = Policy.evaluate p ~mac:kid1 ~now:sat_17 in
  Alcotest.(check bool) "network off at weekend" false d.Policy.network_allowed

let test_active_rule_grants_limited_access () =
  let p = engine () in
  Policy.add_rule p (kids_rule ());
  Policy.insert_token p "homework";
  let d = Policy.evaluate p ~mac:kid1 ~now:mon_17 in
  Alcotest.(check bool) "network on" true d.Policy.network_allowed;
  (match d.Policy.dns_policy with
  | Hw_dns.Dns_proxy.Allow_only domains ->
      Alcotest.(check bool) "facebook domains" true (List.mem "facebook.com" domains)
  | _ -> Alcotest.fail "expected allow-only");
  Alcotest.(check (list string)) "matched" [ "kids-fb" ] d.Policy.matched_rules

let test_token_removal_revokes () =
  let p = engine () in
  Policy.add_rule p (kids_rule ());
  Policy.insert_token p "homework";
  Alcotest.(check bool) "on" true (Policy.evaluate p ~mac:kid1 ~now:mon_17).Policy.network_allowed;
  Policy.remove_token p "homework";
  Alcotest.(check bool) "off" false (Policy.evaluate p ~mac:kid1 ~now:mon_17).Policy.network_allowed

let test_rule_without_token_gate () =
  let p = engine () in
  Policy.add_rule p (kids_rule ~token:None ());
  let d = Policy.evaluate p ~mac:kid1 ~now:mon_17 in
  Alcotest.(check bool) "active without token" true d.Policy.network_allowed

let test_empty_services_means_everything () =
  let p = engine () in
  Policy.add_rule p (kids_rule ~token:None ~services:[] ());
  let d = Policy.evaluate p ~mac:kid1 ~now:mon_17 in
  Alcotest.(check bool) "allow all dns" true (d.Policy.dns_policy = Hw_dns.Dns_proxy.Allow_all)

let test_multiple_rules_union () =
  let p = engine () in
  Policy.add_rule p (kids_rule ~token:None ());
  Policy.add_rule p
    {
      Policy.rule_id = "kids-yt";
      group = "kids";
      services = [ Policy.youtube ];
      schedule = Schedule.always;
      requires_token = None;
    };
  let d = Policy.evaluate p ~mac:kid1 ~now:mon_17 in
  match d.Policy.dns_policy with
  | Hw_dns.Dns_proxy.Allow_only domains ->
      Alcotest.(check bool) "facebook" true (List.mem "facebook.com" domains);
      Alcotest.(check bool) "youtube" true (List.mem "youtube.com" domains)
  | _ -> Alcotest.fail "expected union allow-only"

let test_rule_replace_remove () =
  let p = engine () in
  Policy.add_rule p (kids_rule ());
  Policy.add_rule p (kids_rule ~token:None ());
  Alcotest.(check int) "replaced not duplicated" 1 (List.length (Policy.rules p));
  Alcotest.(check bool) "remove" true (Policy.remove_rule p "kids-fb");
  Alcotest.(check bool) "remove again" false (Policy.remove_rule p "kids-fb")

let test_groups_of () =
  let p = engine () in
  Policy.define_group p "adults" [ adult ];
  Alcotest.(check (list string)) "kid groups" [ "kids" ] (Policy.groups_of p kid1);
  Alcotest.(check int) "constrained devices" 3 (List.length (Policy.constrained_devices p))

let test_rule_json_roundtrip () =
  let rule = kids_rule () in
  match Policy.rule_of_json (Policy.rule_to_json rule) with
  | Ok rule' ->
      Alcotest.(check string) "id" rule.Policy.rule_id rule'.Policy.rule_id;
      Alcotest.(check string) "group" rule.Policy.group rule'.Policy.group;
      Alcotest.(check bool) "token" true (rule'.Policy.requires_token = Some "homework");
      Alcotest.(check int) "services" 1 (List.length rule'.Policy.services)
  | Error e -> Alcotest.fail e

let test_rule_json_errors () =
  Alcotest.(check bool) "missing id" true
    (Result.is_error (Policy.rule_of_json (Hw_json.Json.Obj [ ("group", Hw_json.Json.String "g") ])));
  Alcotest.(check bool) "bad window" true
    (Result.is_error
       (Policy.rule_of_json
          (Hw_json.Json.Obj
             [
               ("id", Hw_json.Json.String "x");
               ("group", Hw_json.Json.String "g");
               ("services", Hw_json.Json.List []);
               ("window", Hw_json.Json.String "whenever");
             ])))

(* ------------------------------------------------------------------ *)
(* USB keys                                                            *)
(* ------------------------------------------------------------------ *)

let test_usb_key_render_parse_roundtrip () =
  let key = { Usb_key.token = "homework-2026"; rules = [ kids_rule ~token:(Some "homework-2026") () ] } in
  match Usb_key.parse (Usb_key.render key) with
  | Ok key' ->
      Alcotest.(check string) "token" "homework-2026" key'.Usb_key.token;
      (match key'.Usb_key.rules with
      | [ rule ] ->
          Alcotest.(check string) "group" "kids" rule.Policy.group;
          (* token-gated rules bind to this key's token *)
          Alcotest.(check bool) "token substituted" true
            (rule.Policy.requires_token = Some "homework-2026")
      | _ -> Alcotest.fail "rules lost")
  | Error e -> Alcotest.fail e

let test_usb_key_missing_token () =
  match Usb_key.parse (Usb_key.Dir [ ("homework", Usb_key.Dir []) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "key without token accepted"

let test_usb_key_fail_closed_on_bad_rule () =
  let fs =
    Usb_key.Dir
      [
        ( "homework",
          Usb_key.Dir
            [
              ("token", Usb_key.File "tok\n");
              ("rules", Usb_key.Dir [ ("broken", Usb_key.File "this is not key: value pairs\nat all") ]);
            ] );
      ]
  in
  match Usb_key.parse fs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "broken rule file accepted (must fail closed)"

let test_usb_key_rule_defaults_and_comments () =
  let fs =
    Usb_key.Dir
      [
        ( "homework",
          Usb_key.Dir
            [
              ("token", Usb_key.File "tok");
              ( "rules",
                Usb_key.Dir
                  [
                    ( "simple",
                      Usb_key.File "group: kids   # who\nservices: all\n# days defaults to all\n" );
                  ] );
            ] );
      ]
  in
  match Usb_key.parse fs with
  | Ok key -> (
      match key.Usb_key.rules with
      | [ rule ] ->
          Alcotest.(check bool) "services all" true (rule.Policy.services = []);
          Alcotest.(check bool) "not token gated by default" true (rule.Policy.requires_token = None);
          Alcotest.(check bool) "always active" true (Schedule.active_at rule.Policy.schedule mon_10)
      | _ -> Alcotest.fail "rule lost")
  | Error e -> Alcotest.fail e

let test_fs_find () =
  let fs = Usb_key.Dir [ ("a", Usb_key.Dir [ ("b", Usb_key.File "x") ]) ] in
  Alcotest.(check bool) "found" true (Usb_key.find fs "a/b" = Some (Usb_key.File "x"));
  Alcotest.(check bool) "missing" true (Usb_key.find fs "a/zz" = None);
  Alcotest.(check bool) "through file" true (Usb_key.find fs "a/b/c" = None)

(* ------------------------------------------------------------------ *)
(* udev monitor                                                        *)
(* ------------------------------------------------------------------ *)

let test_udev_insert_remove () =
  let mon = Udev_monitor.create () in
  let events = ref [] in
  Udev_monitor.on_event mon (fun ev -> events := ev :: !events);
  let key = { Usb_key.token = "tok"; rules = [] } in
  (match Udev_monitor.insert mon ~device:"sdb1" (Usb_key.render key) with
  | Ok k -> Alcotest.(check string) "token" "tok" k.Usb_key.token
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "mounted" 1 (List.length (Udev_monitor.inserted_keys mon));
  (match Udev_monitor.remove mon ~device:"sdb1" with
  | Some k -> Alcotest.(check string) "removed token" "tok" k.Usb_key.token
  | None -> Alcotest.fail "remove lost the key");
  Alcotest.(check bool) "remove unknown" true (Udev_monitor.remove mon ~device:"zz" = None);
  match List.rev !events with
  | [ Udev_monitor.Key_inserted _; Udev_monitor.Key_removed _ ] -> ()
  | _ -> Alcotest.fail "event sequence wrong"

let test_udev_invalid_key_event () =
  let mon = Udev_monitor.create () in
  let invalid = ref None in
  Udev_monitor.on_event mon (fun ev ->
      match ev with Udev_monitor.Invalid_key { reason; _ } -> invalid := Some reason | _ -> ());
  (match Udev_monitor.insert mon ~device:"sdb1" (Usb_key.Dir []) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty fs accepted");
  Alcotest.(check bool) "invalid event fired" true (!invalid <> None);
  Alcotest.(check int) "nothing mounted" 0 (List.length (Udev_monitor.inserted_keys mon))

let prop_schedule_active_iff_day_listed =
  QCheck.Test.make ~name:"non-wrapping schedule active only on listed days" ~count:200
    QCheck.(pair (int_range 0 6) (int_range 0 6))
    (fun (rule_day, probe_day) ->
      let day_of i = List.nth Hw_time.all_weekdays i in
      let s =
        Schedule.make ~days:[ day_of rule_day ] ~start_tod:(Hw_time.hms ~hour:9 ~min:0 ~sec:0)
          ~end_tod:(Hw_time.hms ~hour:17 ~min:0 ~sec:0)
      in
      let t = Hw_time.at ~day:(day_of probe_day) ~hour:12 ~min:0 in
      Schedule.active_at s t = (rule_day = probe_day))

let () =
  Alcotest.run "hw_policy"
    [
      ( "schedule",
        [
          Alcotest.test_case "always" `Quick test_schedule_always;
          Alcotest.test_case "weekday window" `Quick test_schedule_weekdays_window;
          Alcotest.test_case "wrapping window" `Quick test_schedule_wrapping_window;
          Alcotest.test_case "of_strings" `Quick test_schedule_of_strings;
          Alcotest.test_case "string roundtrip" `Quick test_schedule_string_roundtrip;
          Alcotest.test_case "window text" `Quick test_schedule_window_text;
          QCheck_alcotest.to_alcotest prop_schedule_active_iff_day_listed;
        ] );
      ( "engine",
        [
          Alcotest.test_case "unconstrained device" `Quick test_unconstrained_device;
          Alcotest.test_case "constrained, no active rule" `Quick test_constrained_no_active_rule;
          Alcotest.test_case "active rule grants" `Quick test_active_rule_grants_limited_access;
          Alcotest.test_case "token removal revokes" `Quick test_token_removal_revokes;
          Alcotest.test_case "ungated rule" `Quick test_rule_without_token_gate;
          Alcotest.test_case "empty services" `Quick test_empty_services_means_everything;
          Alcotest.test_case "rule union" `Quick test_multiple_rules_union;
          Alcotest.test_case "replace/remove" `Quick test_rule_replace_remove;
          Alcotest.test_case "groups" `Quick test_groups_of;
          Alcotest.test_case "json roundtrip" `Quick test_rule_json_roundtrip;
          Alcotest.test_case "json errors" `Quick test_rule_json_errors;
        ] );
      ( "usb_key",
        [
          Alcotest.test_case "render/parse roundtrip" `Quick test_usb_key_render_parse_roundtrip;
          Alcotest.test_case "missing token" `Quick test_usb_key_missing_token;
          Alcotest.test_case "fail closed" `Quick test_usb_key_fail_closed_on_bad_rule;
          Alcotest.test_case "defaults + comments" `Quick test_usb_key_rule_defaults_and_comments;
          Alcotest.test_case "fs find" `Quick test_fs_find;
        ] );
      ( "udev",
        [
          Alcotest.test_case "insert/remove" `Quick test_udev_insert_remove;
          Alcotest.test_case "invalid key" `Quick test_udev_invalid_key_event;
        ] );
    ]
