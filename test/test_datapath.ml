(* hw_datapath: flow table semantics and the switch pipeline *)

open Hw_packet
open Hw_openflow
open Hw_datapath

let mac_a = Mac.of_string_exn "aa:bb:cc:dd:ee:01"
let mac_b = Mac.of_string_exn "aa:bb:cc:dd:ee:02"
let ip_a = Ip.of_octets 10 0 0 5
let ip_b = Ip.of_octets 10 0 0 6

let fields ?(in_port = 1) ?(tp_dst = 80) () =
  {
    Ofp_match.f_in_port = in_port;
    f_dl_src = mac_a;
    f_dl_dst = mac_b;
    f_dl_vlan = 0xffff;
    f_dl_vlan_pcp = 0;
    f_dl_type = 0x0800;
    f_nw_tos = 0;
    f_nw_proto = 6;
    f_nw_src = ip_a;
    f_nw_dst = ip_b;
    f_tp_src = 40000;
    f_tp_dst = tp_dst;
  }

let entry ?(priority = 100) ?(idle = 0) ?(hard = 0) ?(now = 0.) m actions =
  Flow_entry.create ~idle_timeout:idle ~hard_timeout:hard ~now ~priority m actions

(* ------------------------------------------------------------------ *)
(* Flow table                                                          *)
(* ------------------------------------------------------------------ *)

let test_priority_order () =
  let table = Flow_table.create () in
  let low = entry ~priority:1 Ofp_match.wildcard_all [ Ofp_action.output 1 ] in
  let high =
    entry ~priority:200
      { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 }
      [ Ofp_action.output 2 ]
  in
  Flow_table.add table ~now:0. ~check_overlap:false low;
  Flow_table.add table ~now:0. ~check_overlap:false high;
  match Flow_table.lookup table (fields ()) with
  | Some e -> Alcotest.(check int) "high priority wins" 200 e.Flow_entry.priority
  | None -> Alcotest.fail "no match"

let test_exact_beats_wildcard () =
  let table = Flow_table.create () in
  let wild = entry ~priority:0xffff Ofp_match.wildcard_all [ Ofp_action.output 1 ] in
  let exact =
    entry ~priority:1 (Ofp_match.exact_of_fields (fields ())) [ Ofp_action.output 2 ]
  in
  Flow_table.add table ~now:0. ~check_overlap:false wild;
  Flow_table.add table ~now:0. ~check_overlap:false exact;
  match Flow_table.lookup table (fields ()) with
  | Some e ->
      (* OF 1.0: exact-match entries always take precedence *)
      Alcotest.(check int) "exact wins" 1 e.Flow_entry.priority
  | None -> Alcotest.fail "no match"

let test_add_replaces_same_match () =
  let table = Flow_table.create () in
  let m = { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 } in
  let e1 = entry ~priority:5 m [ Ofp_action.output 1 ] in
  Flow_table.add table ~now:0. ~check_overlap:false e1;
  Flow_entry.touch e1 ~now:1. ~bytes:100;
  let e2 = entry ~priority:5 m [ Ofp_action.output 9 ] in
  Flow_table.add table ~now:0. ~check_overlap:false e2;
  Alcotest.(check int) "one entry" 1 (Flow_table.length table);
  match Flow_table.lookup table (fields ()) with
  | Some e ->
      Alcotest.(check int64) "counters reset" 0L e.Flow_entry.packet_count;
      Alcotest.(check bool) "new actions" true
        (Ofp_action.equal (List.hd e.Flow_entry.actions) (Ofp_action.output 9))
  | None -> Alcotest.fail "no match"

let test_overlap_detection () =
  let table = Flow_table.create () in
  Flow_table.add table ~now:0. ~check_overlap:true
    (entry ~priority:7
       { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 }
       [ Ofp_action.output 1 ]);
  Alcotest.check_raises "overlap raises" Flow_table.Overlap (fun () ->
      Flow_table.add table ~now:0. ~check_overlap:true
        (entry ~priority:7
           { Ofp_match.wildcard_all with Ofp_match.nw_proto = Some 6 }
           [ Ofp_action.output 2 ]));
  (* different priority never overlaps *)
  Flow_table.add table ~now:0. ~check_overlap:true
    (entry ~priority:8
       { Ofp_match.wildcard_all with Ofp_match.nw_proto = Some 6 }
       [ Ofp_action.output 2 ])

let test_table_full () =
  let table = Flow_table.create ~max_entries:2 () in
  Flow_table.add table ~now:0. ~check_overlap:false
    (entry ~priority:1 { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 } []);
  Flow_table.add table ~now:0. ~check_overlap:false
    (entry ~priority:2 { Ofp_match.wildcard_all with Ofp_match.in_port = Some 2 } []);
  Alcotest.check_raises "full" Flow_table.Table_full (fun () ->
      Flow_table.add table ~now:0. ~check_overlap:false
        (entry ~priority:3 { Ofp_match.wildcard_all with Ofp_match.in_port = Some 3 } []))

let test_delete_loose_vs_strict () =
  let table = Flow_table.create () in
  let m1 = { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1; nw_proto = Some 6 } in
  let m2 = { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 } in
  Flow_table.add table ~now:0. ~check_overlap:false (entry ~priority:5 m1 []);
  Flow_table.add table ~now:0. ~check_overlap:false (entry ~priority:6 m2 []);
  (* strict delete of m2 at priority 5 matches nothing *)
  let removed =
    Flow_table.delete table ~strict:true ~m:m2 ~priority:5 ~out_port:Ofp_action.Port.none
  in
  Alcotest.(check int) "strict miss" 0 (List.length removed);
  (* loose delete with m2 removes both (m2 subsumes m1) *)
  let removed =
    Flow_table.delete table ~strict:false ~m:m2 ~priority:0 ~out_port:Ofp_action.Port.none
  in
  Alcotest.(check int) "loose removes both" 2 (List.length removed);
  Alcotest.(check int) "empty" 0 (Flow_table.length table)

let test_delete_out_port_filter () =
  let table = Flow_table.create () in
  Flow_table.add table ~now:0. ~check_overlap:false
    (entry ~priority:1
       { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 }
       [ Ofp_action.output 4 ]);
  Flow_table.add table ~now:0. ~check_overlap:false
    (entry ~priority:2
       { Ofp_match.wildcard_all with Ofp_match.in_port = Some 2 }
       [ Ofp_action.output 5 ]);
  let removed =
    Flow_table.delete table ~strict:false ~m:Ofp_match.wildcard_all ~priority:0 ~out_port:4
  in
  Alcotest.(check int) "only port-4 flow" 1 (List.length removed);
  Alcotest.(check int) "one left" 1 (Flow_table.length table)

let test_modify_preserves_counters () =
  let table = Flow_table.create () in
  let m = { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 } in
  let e = entry ~priority:5 m [ Ofp_action.output 1 ] in
  Flow_table.add table ~now:0. ~check_overlap:false e;
  Flow_entry.touch e ~now:1. ~bytes:42;
  let updated = Flow_table.modify table ~strict:true ~m ~priority:5 [ Ofp_action.output 2 ] in
  Alcotest.(check int) "one updated" 1 updated;
  match Flow_table.lookup table (fields ()) with
  | Some e' ->
      Alcotest.(check int64) "counters kept" 1L e'.Flow_entry.packet_count;
      Alcotest.(check bool) "actions changed" true
        (Ofp_action.equal (List.hd e'.Flow_entry.actions) (Ofp_action.output 2))
  | None -> Alcotest.fail "entry lost"

let test_idle_and_hard_timeout () =
  let table = Flow_table.create () in
  let idle_e = entry ~priority:1 ~idle:10 (Ofp_match.exact_of_fields (fields ())) [] in
  let hard_e =
    entry ~priority:2 ~hard:30 { Ofp_match.wildcard_all with Ofp_match.in_port = Some 9 } []
  in
  Flow_table.add table ~now:0. ~check_overlap:false idle_e;
  Flow_table.add table ~now:0. ~check_overlap:false hard_e;
  Alcotest.(check int) "nothing at t=5" 0 (List.length (Flow_table.expire table ~now:5.));
  (* keep the idle flow alive *)
  Flow_entry.touch idle_e ~now:8. ~bytes:1;
  let at15 = Flow_table.expire table ~now:15. in
  Alcotest.(check int) "idle survives due to touch" 0 (List.length at15);
  let at19 = Flow_table.expire table ~now:19. in
  Alcotest.(check int) "idle expires at 18" 1 (List.length at19);
  (match at19 with
  | [ (_, reason) ] ->
      Alcotest.(check bool) "idle reason" true (reason = Ofp_message.Removed_idle_timeout)
  | _ -> Alcotest.fail "unexpected");
  let at31 = Flow_table.expire table ~now:31. in
  (match at31 with
  | [ (_, reason) ] ->
      Alcotest.(check bool) "hard reason" true (reason = Ofp_message.Removed_hard_timeout)
  | _ -> Alcotest.fail "hard not expired");
  Alcotest.(check int) "table empty" 0 (Flow_table.length table)

let test_lookup_counters () =
  let table = Flow_table.create () in
  Flow_table.add table ~now:0. ~check_overlap:false
    (entry ~priority:1 { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 } []);
  ignore (Flow_table.lookup table (fields ~in_port:1 ()));
  ignore (Flow_table.lookup table (fields ~in_port:2 ()));
  Alcotest.(check int64) "lookups" 2L (Flow_table.lookup_count table);
  Alcotest.(check int64) "matched" 1L (Flow_table.matched_count table)

(* ------------------------------------------------------------------ *)
(* Datapath pipeline (with a scripted controller side)                 *)
(* ------------------------------------------------------------------ *)

type harness = {
  dp : Datapath.t;
  transmitted : (int * string) list ref; (* port, frame; newest first *)
  to_controller : (int32 * Ofp_message.t) list ref;
  mutable now : float;
}

let make_harness ?(ports = [ 1; 2; 3 ]) () =
  let transmitted = ref [] in
  let to_controller = ref [] in
  let framing = Ofp_message.Framing.create () in
  let h = ref None in
  let dp =
    Datapath.create ~dpid:42L
      ~ports:
        (List.map
           (fun i ->
             { Datapath.port_no = i; name = Printf.sprintf "p%d" i; mac = Mac.local (0x50 + i) })
           ports)
      ~transmit:(fun ~port_no frame -> transmitted := (port_no, frame) :: !transmitted)
      ~to_controller:(fun bytes ->
        Ofp_message.Framing.input framing bytes;
        List.iter
          (function
            | Ok (xid, msg) -> to_controller := (xid, msg) :: !to_controller
            | Error e -> Alcotest.failf "bad controller frame: %s" e)
          (Ofp_frames.decoded framing))
      ~now:(fun () -> match !h with Some harness -> harness.now | None -> 0.) ()
  in
  let harness = { dp; transmitted; to_controller; now = 0. } in
  h := Some harness;
  harness

let send_to_dp h msg = Datapath.input_from_controller h.dp (Ofp_message.encode ~xid:99l msg)

let sample_frame () =
  Packet.encode
    (Packet.tcp_packet ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:40000
       ~dst_port:80 "data")

let test_miss_raises_packet_in () =
  let h = make_harness () in
  Datapath.receive_frame h.dp ~in_port:1 (sample_frame ());
  match !(h.to_controller) with
  | [ (_, Ofp_message.Packet_in pi) ] ->
      Alcotest.(check int) "in_port" 1 pi.Ofp_message.in_port;
      Alcotest.(check bool) "buffered" true (pi.Ofp_message.buffer_id <> None);
      Alcotest.(check bool) "reason" true (pi.Ofp_message.reason = Ofp_message.No_match)
  | msgs -> Alcotest.failf "expected one packet-in, got %d messages" (List.length msgs)

let test_flow_mod_then_fast_path () =
  let h = make_harness () in
  let frame = sample_frame () in
  Datapath.receive_frame h.dp ~in_port:1 frame;
  let buffer_id =
    match !(h.to_controller) with
    | [ (_, Ofp_message.Packet_in pi) ] -> pi.Ofp_message.buffer_id
    | _ -> Alcotest.fail "no packet in"
  in
  (* install a flow referencing the buffer: the buffered frame must be
     forwarded immediately *)
  let pkt = Result.get_ok (Packet.decode frame) in
  let m = Ofp_match.exact_of_fields (Ofp_match_ref.fields_of_packet ~in_port:1 pkt) in
  send_to_dp h
    (Ofp_message.Flow_mod
       {
         (Ofp_message.add_flow m [ Ofp_action.output 2 ]) with
         Ofp_message.fm_buffer_id = buffer_id;
       });
  (match !(h.transmitted) with
  | [ (2, out) ] -> Alcotest.(check string) "buffered frame forwarded" frame out
  | _ -> Alcotest.fail "buffered frame not released");
  h.transmitted := [];
  h.to_controller := [];
  (* subsequent identical frames take the fast path: no packet-in *)
  Datapath.receive_frame h.dp ~in_port:1 frame;
  Alcotest.(check int) "no controller traffic" 0 (List.length !(h.to_controller));
  (match !(h.transmitted) with
  | [ (2, _) ] -> ()
  | _ -> Alcotest.fail "fast path failed");
  (* counters *)
  match Flow_table.entries (Datapath.flow_table h.dp) with
  | [ e ] -> Alcotest.(check int64) "2 packets counted" 2L e.Flow_entry.packet_count
  | _ -> Alcotest.fail "expected one flow"

let test_packet_out_flood () =
  let h = make_harness () in
  send_to_dp h
    (Ofp_message.Packet_out
       (Ofp_message.packet_out ~in_port:1 ~data:(sample_frame ())
          [ Ofp_action.output Ofp_action.Port.flood ]));
  let ports = List.map fst !(h.transmitted) |> List.sort compare in
  Alcotest.(check (list int)) "flood skips in_port" [ 2; 3 ] ports

let test_header_rewrite_actions () =
  let h = make_harness () in
  send_to_dp h
    (Ofp_message.Packet_out
       (Ofp_message.packet_out ~data:(sample_frame ())
          [
            Ofp_action.Set_nw_dst (Ip.of_octets 9 9 9 9);
            Ofp_action.Set_tp_dst 8080;
            Ofp_action.output 2;
          ]));
  match !(h.transmitted) with
  | [ (2, out) ] -> (
      match Packet.decode out with
      | Ok { Packet.l3 = Packet.Ipv4 (ip, Packet.Tcp seg); _ } ->
          Alcotest.(check string) "nw_dst rewritten" "9.9.9.9" (Ip.to_string ip.Ipv4.dst);
          Alcotest.(check int) "tp_dst rewritten" 8080 seg.Tcp.dst_port
      | _ -> Alcotest.fail "rewrite broke the packet")
  | _ -> Alcotest.fail "no output"

let test_echo_and_features () =
  let h = make_harness () in
  send_to_dp h (Ofp_message.Echo_request "ping");
  (match !(h.to_controller) with
  | [ (99l, Ofp_message.Echo_reply "ping") ] -> ()
  | _ -> Alcotest.fail "echo broken");
  h.to_controller := [];
  send_to_dp h Ofp_message.Features_request;
  match !(h.to_controller) with
  | [ (99l, Ofp_message.Features_reply f) ] ->
      Alcotest.(check int64) "dpid" 42L f.Ofp_message.datapath_id;
      Alcotest.(check int) "ports" 3 (List.length f.Ofp_message.ports)
  | _ -> Alcotest.fail "features broken"

let test_stats_pipeline () =
  let h = make_harness () in
  send_to_dp h
    (Ofp_message.Flow_mod
       (Ofp_message.add_flow
          { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 }
          [ Ofp_action.output 2 ]));
  Datapath.receive_frame h.dp ~in_port:1 (sample_frame ());
  h.to_controller := [];
  send_to_dp h
    (Ofp_message.Stats_request
       (Ofp_message.Flow_stats_request
          {
            sr_match = Ofp_match.wildcard_all;
            table_id = 0xff;
            sr_out_port = Ofp_action.Port.none;
          }));
  (match !(h.to_controller) with
  | [ (_, Ofp_message.Stats_reply { more = false; reply = Ofp_message.Flow_stats_reply [ fs ] }) ]
    ->
      Alcotest.(check int64) "one packet" 1L fs.Ofp_message.fs_packet_count
  | _ -> Alcotest.fail "flow stats broken");
  h.to_controller := [];
  send_to_dp h (Ofp_message.Stats_request (Ofp_message.Port_stats_request Ofp_action.Port.none));
  (match !(h.to_controller) with
  | [ (_, Ofp_message.Stats_reply { more = false; reply = Ofp_message.Port_stats_reply entries }) ]
    ->
      Alcotest.(check int) "three ports" 3 (List.length entries);
      let p1 = List.find (fun p -> p.Ofp_message.ps_port_no = 1) entries in
      Alcotest.(check int64) "rx on port 1" 1L p1.Ofp_message.rx_packets
  | _ -> Alcotest.fail "port stats broken");
  h.to_controller := [];
  send_to_dp h (Ofp_message.Stats_request Ofp_message.Table_stats_request);
  match !(h.to_controller) with
  | [ (_, Ofp_message.Stats_reply { more = false; reply = Ofp_message.Table_stats_reply [ ts ] }) ]
    ->
      Alcotest.(check int32) "one active flow" 1l ts.Ofp_message.ts_active_count
  | _ -> Alcotest.fail "table stats broken"

let test_flow_removed_on_timeout () =
  let h = make_harness () in
  send_to_dp h
    (Ofp_message.Flow_mod
       (Ofp_message.add_flow ~idle_timeout:5 ~send_flow_rem:true
          { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 }
          [ Ofp_action.output 2 ]));
  h.to_controller := [];
  h.now <- 10.;
  Datapath.tick h.dp;
  match !(h.to_controller) with
  | [ (_, Ofp_message.Flow_removed fr) ] ->
      Alcotest.(check bool) "idle reason" true
        (fr.Ofp_message.fr_reason = Ofp_message.Removed_idle_timeout)
  | _ -> Alcotest.fail "no flow removed message"

let test_barrier () =
  let h = make_harness () in
  send_to_dp h Ofp_message.Barrier_request;
  match !(h.to_controller) with
  | [ (99l, Ofp_message.Barrier_reply) ] -> ()
  | _ -> Alcotest.fail "barrier broken"

let test_port_status_on_hotplug () =
  let h = make_harness () in
  Datapath.add_port h.dp { Datapath.port_no = 9; name = "usb-eth"; mac = Mac.local 0x99 };
  (match !(h.to_controller) with
  | [ (_, Ofp_message.Port_status (Ofp_message.Port_add, p)) ] ->
      Alcotest.(check int) "port no" 9 p.Ofp_message.port_no
  | _ -> Alcotest.fail "no port add status");
  h.to_controller := [];
  Datapath.remove_port h.dp 9;
  match !(h.to_controller) with
  | [ (_, Ofp_message.Port_status (Ofp_message.Port_delete, _)) ] -> ()
  | _ -> Alcotest.fail "no port delete status"

let test_undecodable_frame_dropped () =
  let h = make_harness () in
  Datapath.receive_frame h.dp ~in_port:1 "garbage";
  Alcotest.(check int) "no packet-in for garbage" 0 (List.length !(h.to_controller));
  match Datapath.port_counters h.dp 1 with
  | Some c -> Alcotest.(check int64) "counted as drop" 1L c.Datapath.rx_dropped
  | None -> Alcotest.fail "no counters"

(* Two frames arrive in one input; handling the first makes the
   controller answer at once with a third, which re-enters the datapath
   while the second is still buffered. All three are handled in arrival
   order. *)
let test_controller_frames_in_arrival_order () =
  let echo xid = Ofp_message.encode ~xid (Ofp_message.Echo_request "") in
  let framing = Ofp_message.Framing.create () in
  let dp = ref None in
  let answered = ref [] in
  let to_controller bytes =
    Ofp_message.Framing.input framing bytes;
    List.iter
      (function
        | Ok (xid, Ofp_message.Echo_reply _) ->
            answered := xid :: !answered;
            if xid = 1l then Datapath.input_from_controller (Option.get !dp) (echo 3l)
        | Ok _ -> ()
        | Error e -> Alcotest.failf "bad controller frame: %s" e)
      (Ofp_frames.decoded framing)
  in
  let port = { Datapath.port_no = 1; name = "p1"; mac = Mac.local 0x51 } in
  dp :=
    Some
      (Datapath.create ~dpid:42L ~ports:[ port ]
         ~transmit:(fun ~port_no:_ _ -> ())
         ~to_controller ~now:(fun () -> 0.) ());
  Datapath.input_from_controller (Option.get !dp) (echo 1l ^ echo 2l);
  Alcotest.(check (list int32)) "answered in arrival order" [ 1l; 2l; 3l ] (List.rev !answered)

let test_port_mod_up_down () =
  let h = make_harness () in
  (* bring port 2 down: flood no longer reaches it, tx counted as drop *)
  send_to_dp h
    (Ofp_message.Port_mod
       {
         Ofp_message.pm_port_no = 2;
         pm_hw_addr = mac_a;
         pm_config = Ofp_message.port_down_bit;
         pm_mask = Ofp_message.port_down_bit;
         pm_advertise = 0l;
       });
  (match !(h.to_controller) with
  | [ (_, Ofp_message.Port_status (Ofp_message.Port_modify, p)) ] ->
      Alcotest.(check int) "port 2 modified" 2 p.Ofp_message.port_no
  | _ -> Alcotest.fail "no port status");
  h.transmitted := [];
  send_to_dp h
    (Ofp_message.Packet_out
       (Ofp_message.packet_out ~in_port:1 ~data:(sample_frame ())
          [ Ofp_action.output Ofp_action.Port.flood ]));
  Alcotest.(check (list int)) "flood skips downed port" [ 3 ]
    (List.map fst !(h.transmitted) |> List.sort compare);
  (* direct output to the downed port is counted as a drop *)
  h.transmitted := [];
  send_to_dp h
    (Ofp_message.Packet_out
       (Ofp_message.packet_out ~in_port:1 ~data:(sample_frame ()) [ Ofp_action.output 2 ]));
  Alcotest.(check int) "nothing transmitted" 0 (List.length !(h.transmitted));
  (match Datapath.port_counters h.dp 2 with
  | Some c -> Alcotest.(check bool) "drop counted" true (Int64.compare c.Datapath.tx_dropped 0L > 0)
  | None -> Alcotest.fail "no counters");
  (* and back up *)
  send_to_dp h
    (Ofp_message.Port_mod
       {
         Ofp_message.pm_port_no = 2;
         pm_hw_addr = mac_a;
         pm_config = 0l;
         pm_mask = Ofp_message.port_down_bit;
         pm_advertise = 0l;
       });
  h.transmitted := [];
  send_to_dp h
    (Ofp_message.Packet_out
       (Ofp_message.packet_out ~in_port:1 ~data:(sample_frame ())
          [ Ofp_action.output Ofp_action.Port.flood ]));
  Alcotest.(check (list int)) "back up" [ 2; 3 ]
    (List.map fst !(h.transmitted) |> List.sort compare);
  (* unknown port errors *)
  h.to_controller := [];
  send_to_dp h
    (Ofp_message.Port_mod
       {
         Ofp_message.pm_port_no = 99;
         pm_hw_addr = mac_a;
         pm_config = 0l;
         pm_mask = Ofp_message.port_down_bit;
         pm_advertise = 0l;
       });
  match !(h.to_controller) with
  | [ (_, Ofp_message.Error_msg e) ] ->
      Alcotest.(check bool) "port mod failed" true
        (e.Ofp_message.err_type = Ofp_message.Port_mod_failed)
  | _ -> Alcotest.fail "no error for unknown port"

let test_unknown_buffer_packet_out () =
  let h = make_harness () in
  send_to_dp h
    (Ofp_message.Packet_out
       {
         Ofp_message.po_buffer_id = Some 424242l;
         po_in_port = Ofp_action.Port.none;
         po_actions = [ Ofp_action.output 1 ];
         po_data = "";
       });
  match !(h.to_controller) with
  | [ (_, Ofp_message.Error_msg e) ] ->
      Alcotest.(check bool) "bad request" true (e.Ofp_message.err_type = Ofp_message.Bad_request)
  | _ -> Alcotest.fail "no error for unknown buffer"

(* ------------------------------------------------------------------ *)
(* Pinned edge semantics and PR-6 regressions                          *)
(* ------------------------------------------------------------------ *)

(* Regression: an ADD with OFPFF_CHECK_OVERLAP must not count the
   identical (priority, match) entry it is about to replace as an
   overlap. *)
let test_overlap_excludes_replaced_entry () =
  let table = Flow_table.create () in
  let m = { Ofp_match.wildcard_all with Ofp_match.nw_proto = Some 6 } in
  Flow_table.add table ~now:0. ~check_overlap:false
    (entry ~priority:7 m [ Ofp_action.output 1 ]);
  (* re-adding the same (priority, match) replaces, even when checking *)
  Flow_table.add table ~now:0. ~check_overlap:true
    (entry ~priority:7 m [ Ofp_action.output 2 ]);
  Alcotest.(check int) "replaced, not duplicated" 1 (Flow_table.length table);
  (match Flow_table.lookup table (fields ()) with
  | Some e -> Alcotest.(check bool) "new actions live" true (e.Flow_entry.actions = [ Ofp_action.output 2 ])
  | None -> Alcotest.fail "no match");
  (* a genuinely different overlapping entry still raises *)
  Alcotest.check_raises "distinct overlap still detected" Flow_table.Overlap (fun () ->
      Flow_table.add table ~now:0. ~check_overlap:true
        (entry ~priority:7
           { Ofp_match.wildcard_all with Ofp_match.tp_src = Some 40000 }
           [ Ofp_action.output 3 ]))

let test_exact_beats_wildcard_all_priorities () =
  let table = Flow_table.create () in
  List.iter
    (fun prio ->
      Flow_table.add table ~now:0. ~check_overlap:false
        (entry ~priority:prio
           { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 }
           [ Ofp_action.output 1 ]))
    [ 0; 100; 0xffff ];
  Flow_table.add table ~now:0. ~check_overlap:false
    (entry ~priority:0 (Ofp_match.exact_of_fields (fields ())) [ Ofp_action.output 2 ]);
  match Flow_table.lookup table (fields ()) with
  | Some e ->
      Alcotest.(check bool) "priority-0 exact beats priority-0xffff wildcard" true
        (e.Flow_entry.actions = [ Ofp_action.output 2 ])
  | None -> Alcotest.fail "no match"

let test_delete_out_port_exact_entry () =
  let table = Flow_table.create () in
  let e = entry ~priority:3 (Ofp_match.exact_of_fields (fields ())) [ Ofp_action.output 2 ] in
  Flow_table.add table ~now:0. ~check_overlap:false e;
  (* non-strict delete of everything-to-port-3 must not touch it *)
  let removed =
    Flow_table.delete table ~strict:false ~m:Ofp_match.wildcard_all ~priority:0 ~out_port:3
  in
  Alcotest.(check int) "wrong out_port leaves exact entry" 0 (List.length removed);
  Alcotest.(check int) "still installed" 1 (Flow_table.length table);
  let removed =
    Flow_table.delete table ~strict:false ~m:Ofp_match.wildcard_all ~priority:0 ~out_port:2
  in
  Alcotest.(check int) "matching out_port removes it" 1 (List.length removed);
  Alcotest.(check int) "table empty" 0 (Flow_table.length table)

let test_hard_reason_when_both_expired () =
  let table = Flow_table.create () in
  Flow_table.add table ~now:0. ~check_overlap:false
    (entry ~priority:1 ~idle:5 ~hard:10 (Ofp_match.exact_of_fields (fields ())) []);
  (* at t=20 both timeouts have fired; hard takes precedence *)
  match Flow_table.expire table ~now:20. with
  | [ (_, reason) ] ->
      Alcotest.(check bool) "hard wins" true (reason = Ofp_message.Removed_hard_timeout)
  | l -> Alcotest.failf "expected one expiry, got %d" (List.length l)

let prop_flow_table_lookup_consistent =
  QCheck.Test.make ~name:"lookup result actually matches the fields" ~count:200
    QCheck.(pair (int_range 1 4) (int_bound 0xffff))
    (fun (in_port, tp_dst) ->
      let table = Flow_table.create () in
      Flow_table.add table ~now:0. ~check_overlap:false
        (entry ~priority:5 { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 } []);
      Flow_table.add table ~now:0. ~check_overlap:false
        (entry ~priority:9 { Ofp_match.wildcard_all with Ofp_match.tp_dst = Some 80 } []);
      let f = fields ~in_port ~tp_dst () in
      match Flow_table.lookup table f with
      | Some e -> Ofp_match.matches e.Flow_entry.entry_match f
      | None -> in_port <> 1 && tp_dst <> 80)

(* ------------------------------------------------------------------ *)
(* PR-6: datapath-level regressions (buffers, error paths, batching)   *)
(* ------------------------------------------------------------------ *)

(* OF 1.0: MODIFY that matches nothing behaves like ADD. *)
let test_modify_no_match_acts_as_add () =
  let h = make_harness () in
  let m = { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 } in
  send_to_dp h
    (Ofp_message.Flow_mod
       {
         (Ofp_message.add_flow m [ Ofp_action.output 2 ]) with
         Ofp_message.command = Ofp_message.Modify;
       });
  Alcotest.(check int) "entry added" 1 (Flow_table.length (Datapath.flow_table h.dp));
  Datapath.receive_frame h.dp ~in_port:1 (sample_frame ());
  match !(h.transmitted) with
  | [ (2, _) ] -> ()
  | _ -> Alcotest.fail "added entry not forwarding"

let test_buffer_id_wraparound () =
  Alcotest.(check int32) "24-bit wrap back to 1" 1l (Datapath.next_buffer_id_after 0xffffffl);
  (* regression for the five-f typo: 2^20-1 must NOT wrap *)
  Alcotest.(check int32) "no wrap at 2^20-1" 0x100000l (Datapath.next_buffer_id_after 0xfffffl);
  Alcotest.(check int32) "plain increment" 2l (Datapath.next_buffer_id_after 1l)

let test_buffer_fifo_eviction () =
  let h = make_harness () in
  let frame = sample_frame () in
  (* 1100 misses: ids 1..1100 issued; at the 1025th the oldest live
     buffer is evicted, never the whole store *)
  for _ = 1 to 1100 do
    Datapath.receive_frame h.dp ~in_port:1 frame
  done;
  Alcotest.(check int) "capped at 1024" 1024 (Datapath.buffered_count h.dp);
  (* the oldest id was evicted: referencing it errors *)
  h.to_controller := [];
  send_to_dp h
    (Ofp_message.Packet_out
       {
         Ofp_message.po_buffer_id = Some 1l;
         po_in_port = Ofp_action.Port.none;
         po_actions = [ Ofp_action.output 2 ];
         po_data = "";
       });
  (match !(h.to_controller) with
  | [ (_, Ofp_message.Error_msg e) ] ->
      Alcotest.(check bool) "evicted id unknown" true
        (e.Ofp_message.err_type = Ofp_message.Bad_request)
  | _ -> Alcotest.fail "expected buffer-unknown error for evicted id");
  (* the newest id is still live and releases its frame *)
  h.transmitted := [];
  send_to_dp h
    (Ofp_message.Packet_out
       {
         Ofp_message.po_buffer_id = Some 1100l;
         po_in_port = Ofp_action.Port.none;
         po_actions = [ Ofp_action.output 2 ];
         po_data = "";
       });
  (match !(h.transmitted) with
  | [ (2, out) ] -> Alcotest.(check string) "newest frame intact" frame out
  | _ -> Alcotest.fail "newest buffer lost");
  Alcotest.(check int) "consumed id freed" 1023 (Datapath.buffered_count h.dp)

(* Regression: a failed ADD (overlap or full table) must release the
   buffer named by fm_buffer_id instead of stranding the frame. *)
let test_failed_flow_mod_releases_buffer () =
  let h = make_harness () in
  (* install a wildcard entry that does NOT match the sample frame *)
  send_to_dp h
    (Ofp_message.Flow_mod
       (Ofp_message.add_flow ~priority:7
          { Ofp_match.wildcard_all with Ofp_match.tp_dst = Some 9999 }
          [ Ofp_action.output 2 ]));
  Datapath.receive_frame h.dp ~in_port:1 (sample_frame ());
  let bid =
    match !(h.to_controller) with
    | (_, Ofp_message.Packet_in pi) :: _ -> pi.Ofp_message.buffer_id
    | _ -> Alcotest.fail "no packet-in"
  in
  Alcotest.(check bool) "miss was buffered" true (bid <> None);
  (* overlapping same-priority ADD with CHECK_OVERLAP and the buffer id *)
  h.to_controller := [];
  send_to_dp h
    (Ofp_message.Flow_mod
       {
         (Ofp_message.add_flow ~priority:7
            { Ofp_match.wildcard_all with Ofp_match.tp_src = Some 40000 }
            [ Ofp_action.output 3 ])
         with
         Ofp_message.check_overlap = true;
         fm_buffer_id = bid;
       });
  (match !(h.to_controller) with
  | [ (_, Ofp_message.Error_msg e) ] ->
      Alcotest.(check bool) "overlap error" true
        (e.Ofp_message.err_type = Ofp_message.Flow_mod_failed && e.Ofp_message.err_code = 1)
  | _ -> Alcotest.fail "expected overlap error");
  Alcotest.(check int) "buffer released on error path" 0 (Datapath.buffered_count h.dp);
  (* and the id is really gone: packet-out on it errors *)
  h.to_controller := [];
  send_to_dp h
    (Ofp_message.Packet_out
       {
         Ofp_message.po_buffer_id = bid;
         po_in_port = Ofp_action.Port.none;
         po_actions = [ Ofp_action.output 2 ];
         po_data = "";
       });
  match !(h.to_controller) with
  | [ (_, Ofp_message.Error_msg e) ] ->
      Alcotest.(check bool) "buffer unknown" true
        (e.Ofp_message.err_type = Ofp_message.Bad_request)
  | _ -> Alcotest.fail "expected buffer-unknown error"

let test_receive_frames_batch () =
  let h = make_harness () in
  let frame = sample_frame () in
  let pkt = Result.get_ok (Packet.decode frame) in
  let m = Ofp_match.exact_of_fields (Ofp_match_ref.fields_of_packet ~in_port:1 pkt) in
  send_to_dp h (Ofp_message.Flow_mod (Ofp_message.add_flow m [ Ofp_action.output 2 ]));
  Datapath.receive_frames h.dp [ (1, frame); (1, frame); (1, frame) ];
  Alcotest.(check int) "all three forwarded" 3 (List.length !(h.transmitted));
  Alcotest.(check int) "no controller traffic" 0 (List.length !(h.to_controller));
  match Flow_table.entries (Datapath.flow_table h.dp) with
  | [ e ] -> Alcotest.(check int64) "entry counters batched" 3L e.Flow_entry.packet_count
  | _ -> Alcotest.fail "expected one flow"

(* ------------------------------------------------------------------ *)
(* In-place forwarding: fragments, checksums, lazy rewrite             *)
(* ------------------------------------------------------------------ *)

(* A 3,000-byte UDP datagram (8-byte header + 2,992 bytes) split into two
   IPv4 fragments of 1,480 and 1,520 bytes. The first carries the UDP
   header, whose length (3,000) exceeds the fragment; the second starts
   mid-payload. *)
let udp_fragments () =
  let ip = Ipv4.make ~ident:77 ~protocol:Ipv4.proto_udp ~src:ip_a ~dst:ip_b "" in
  let datagram =
    Udp.encode
      { Udp.src_port = 5004; dst_port = 5004; payload = String.make 2992 'f' }
      ~pseudo_header:(Ipv4.pseudo_header ip 3000)
  in
  let fragment ~offset ~more len =
    Packet.encode
      {
        Packet.eth = { Ethernet.src = mac_a; dst = mac_b; ethertype = 0x0800; payload = "" };
        l3 =
          Packet.Ipv4
            ( {
                ip with
                Ipv4.dont_fragment = false;
                more_fragments = more;
                fragment_offset = offset / 8;
              },
              Packet.Raw_l4 (String.sub datagram offset len) );
      }
  in
  [ fragment ~offset:0 ~more:true 1480; fragment ~offset:1480 ~more:false 1520 ]

(* OFPC_FRAG_NORMAL (the flags our Get_config_reply reports): fragments
   pass through the table with tp_src = tp_dst = 0. *)
let test_ipv4_fragments_forwarded () =
  let h = make_harness () in
  send_to_dp h
    (Ofp_message.Flow_mod
       (Ofp_message.add_flow
          { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 }
          [ Ofp_action.output 2 ]));
  let fragments = udp_fragments () in
  List.iter (Datapath.receive_frame h.dp ~in_port:1) fragments;
  Alcotest.(check (list (pair int string)))
    "both fragments forwarded on port 2, unchanged"
    (List.map (fun f -> (2, f)) fragments)
    (List.rev !(h.transmitted));
  Alcotest.(check int) "no controller traffic" 0 (List.length !(h.to_controller));
  (match Datapath.port_counters h.dp 1 with
  | Some c -> Alcotest.(check int64) "rx_dropped" 0L c.Datapath.rx_dropped
  | None -> Alcotest.fail "no counters");
  List.iter
    (fun frame ->
      match Ofp_match.fields_of_frame ~in_port:1 frame with
      | None -> Alcotest.fail "fragment rejected by the extractor"
      | Some f ->
          Alcotest.(check (pair int int)) "tp_src, tp_dst" (0, 0)
            (f.Ofp_match.f_tp_src, f.Ofp_match.f_tp_dst);
          Alcotest.(check int) "nw_proto" Ipv4.proto_udp f.Ofp_match.f_nw_proto;
          (* the controller's decode agrees, L4 left unparsed *)
          (match Packet.decode frame with
          | Ok ({ Packet.l3 = Packet.Ipv4 (_, Packet.Raw_l4 _); _ } as pkt) ->
              Alcotest.(check bool) "fields_of_packet agrees" true
                (Ofp_match_ref.fields_of_packet ~in_port:1 pkt = f)
          | Ok _ -> Alcotest.fail "fragment's L4 parsed"
          | Error e -> Alcotest.failf "fragment undecodable: %s" e))
    fragments

(* Regression: a corrupted IPv4 header checksum must drop the frame even
   when every field it carries hits an installed exact flow, so the
   in-place extractor cannot skip the checksum. *)
let test_bad_ip_checksum_dropped_on_hit () =
  let h = make_harness () in
  let frame = sample_frame () in
  let fields = Option.get (Ofp_match.fields_of_frame ~in_port:1 frame) in
  send_to_dp h
    (Ofp_message.Flow_mod
       (Ofp_message.add_flow (Ofp_match.exact_of_fields fields) [ Ofp_action.output 2 ]));
  Datapath.receive_frame h.dp ~in_port:1 frame;
  Alcotest.(check int) "the intact frame hits" 1 (List.length !(h.transmitted));
  h.transmitted := [];
  (* bytes 24-25 are the IPv4 header checksum: no matched field changes *)
  let bad = Bytes.of_string frame in
  Bytes.set_uint8 bad 25 (Bytes.get_uint8 bad 25 lxor 0x01);
  let dropped () =
    match Datapath.port_counters h.dp 1 with
    | Some c -> c.Datapath.rx_dropped
    | None -> Alcotest.fail "no counters"
  in
  let before = dropped () in
  Datapath.receive_frame h.dp ~in_port:1 (Bytes.to_string bad);
  Alcotest.(check int64) "rx_dropped +1" (Int64.add before 1L) (dropped ());
  Alcotest.(check int) "nothing transmitted" 0 (List.length !(h.transmitted));
  Alcotest.(check int) "no packet-in" 0 (List.length !(h.to_controller));
  match Flow_table.entries (Datapath.flow_table h.dp) with
  | [ e ] -> Alcotest.(check int64) "flow counted only the intact frame" 1L e.Flow_entry.packet_count
  | _ -> Alcotest.fail "expected one flow"

(* Outputs before the first rewrite send the received bytes themselves;
   each later output sends the packet as rewritten so far. *)
let test_rewrite_between_outputs () =
  let h = make_harness ~ports:[ 1; 2; 3; 4 ] () in
  let frame = sample_frame () in
  let fields = Option.get (Ofp_match.fields_of_frame ~in_port:1 frame) in
  send_to_dp h
    (Ofp_message.Flow_mod
       (Ofp_message.add_flow (Ofp_match.exact_of_fields fields)
          [
            Ofp_action.output 2;
            Ofp_action.Set_nw_dst (Ip.of_octets 9 9 9 9);
            Ofp_action.output 3;
            Ofp_action.Set_tp_dst 8080;
            Ofp_action.output 4;
          ]));
  Datapath.receive_frame h.dp ~in_port:1 frame;
  let out port =
    match List.assoc_opt port !(h.transmitted) with
    | Some o -> o
    | None -> Alcotest.failf "nothing on port %d" port
  in
  Alcotest.(check bool) "port 2: the received string itself" true (out 2 == frame);
  let dst_and_port o =
    match Packet.decode o with
    | Ok { Packet.l3 = Packet.Ipv4 (ip, Packet.Tcp seg); _ } ->
        (Ip.to_string ip.Ipv4.dst, seg.Tcp.dst_port)
    | _ -> Alcotest.fail "rewrite broke the packet"
  in
  Alcotest.(check (pair string int)) "port 3: nw_dst rewritten" ("9.9.9.9", 80) (dst_and_port (out 3));
  Alcotest.(check (pair string int)) "port 4: nw_dst and tp_dst rewritten" ("9.9.9.9", 8080)
    (dst_and_port (out 4))

(* ------------------------------------------------------------------ *)
(* PR-6: classifier vs naive linear reference (qcheck)                 *)
(* ------------------------------------------------------------------ *)

(* Small value domains force overlapping entries, shared tuples and
   priority ties; the reference implements the specified semantics
   directly: exact entries beat wildcards, then highest priority, then
   earliest install. Results are compared by physical identity. *)
module Ref_model = struct
  let ip_pool = [| Ip.of_octets 10 0 0 1; Ip.of_octets 10 0 0 2; Ip.of_octets 10 1 0 1 |]
  let mac_pool = [| mac_a; mac_b |]

  let gen_match =
    let open QCheck.Gen in
    let opt g = oneof [ return None; map Option.some g ] in
    let prefix = opt (pair (oneofa ip_pool) (oneofl [ 0; 8; 24; 32 ])) in
    let* in_port = opt (oneofl [ 1; 2 ]) in
    let* dl_src = opt (oneofa mac_pool) in
    let* dl_dst = opt (oneofa mac_pool) in
    let* dl_type = opt (oneofl [ 0x0800; 0x0806 ]) in
    let* nw_proto = opt (oneofl [ 6; 17 ]) in
    let* nw_src = prefix in
    let* nw_dst = prefix in
    let* tp_src = opt (oneofl [ 80; 443 ]) in
    let* tp_dst = opt (oneofl [ 80; 443 ]) in
    return
      {
        Ofp_match.wildcard_all with
        Ofp_match.in_port;
        dl_src;
        dl_dst;
        dl_type;
        nw_proto;
        nw_src;
        nw_dst;
        tp_src;
        tp_dst;
      }

  let gen_fields =
    let open QCheck.Gen in
    let* f_in_port = oneofl [ 1; 2 ] in
    let* f_dl_src = oneofa mac_pool in
    let* f_dl_dst = oneofa mac_pool in
    let* f_dl_type = oneofl [ 0x0800; 0x0806 ] in
    let* f_nw_proto = oneofl [ 6; 17 ] in
    let* f_nw_src = oneofa ip_pool in
    let* f_nw_dst = oneofa ip_pool in
    let* f_tp_src = oneofl [ 80; 443 ] in
    let* f_tp_dst = oneofl [ 80; 443 ] in
    return
      {
        Ofp_match.f_in_port;
        f_dl_src;
        f_dl_dst;
        f_dl_vlan = 0xffff;
        f_dl_vlan_pcp = 0;
        f_dl_type;
        f_nw_tos = 0;
        f_nw_proto;
        f_nw_src;
        f_nw_dst;
        f_tp_src;
        f_tp_dst;
      }

  let gen_spec =
    let open QCheck.Gen in
    pair (oneofl [ 1; 5; 9 ]) gen_match

  (* [entries] oldest-first; same precedence rules the classifier claims *)
  let lookup entries f =
    let matching =
      List.filter (fun e -> Ofp_match.matches e.Flow_entry.entry_match f) entries
    in
    let exacts =
      List.filter (fun e -> Ofp_match.mask_is_exact e.Flow_entry.entry_mask) matching
    in
    let pool = if exacts <> [] then exacts else matching in
    List.fold_left
      (fun acc e ->
        match acc with
        | Some best when best.Flow_entry.priority >= e.Flow_entry.priority -> acc
        | _ -> Some e)
      None pool

  let add entries (e : Flow_entry.t) =
    List.filter
      (fun (r : Flow_entry.t) ->
        not
          (r.Flow_entry.priority = e.Flow_entry.priority
          && Ofp_match.equal r.Flow_entry.entry_match e.Flow_entry.entry_match))
      entries
    @ [ e ]

  let agree table entries pkts =
    List.for_all
      (fun f ->
        match (lookup entries f, Flow_table.lookup table f) with
        | None, None -> true
        | Some a, Some b -> a == b
        | _ -> false)
      pkts
end

let prop_classifier_agrees_with_reference =
  QCheck.Test.make ~name:"tuple-space classifier = linear reference (10k)" ~count:10_000
    (QCheck.make
       QCheck.Gen.(pair (list_size (int_range 2 14) Ref_model.gen_spec)
                     (list_size (int_range 1 6) Ref_model.gen_fields)))
    (fun (specs, pkts) ->
      let table = Flow_table.create () in
      let reference =
        List.fold_left
          (fun acc (prio, m) ->
            let e = entry ~priority:prio m [] in
            Flow_table.add table ~now:0. ~check_overlap:false e;
            Ref_model.add acc e)
          [] specs
      in
      Ref_model.agree table reference pkts)

let prop_classifier_agrees_after_deletes =
  QCheck.Test.make ~name:"classifier = reference after strict deletes" ~count:1_000
    (QCheck.make
       QCheck.Gen.(pair
                     (list_size (int_range 2 12) (pair Ref_model.gen_spec bool))
                     (list_size (int_range 1 6) Ref_model.gen_fields)))
    (fun (specs, pkts) ->
      let table = Flow_table.create () in
      let reference =
        List.fold_left
          (fun acc ((prio, m), _) ->
            let e = entry ~priority:prio m [] in
            Flow_table.add table ~now:0. ~check_overlap:false e;
            Ref_model.add acc e)
          [] specs
      in
      (* strict-delete the flagged specs, exercising per-tuple removal and
         max-priority recomputation *)
      let reference =
        List.fold_left
          (fun acc ((prio, m), doomed) ->
            if not doomed then acc
            else begin
              ignore
                (Flow_table.delete table ~strict:true ~m ~priority:prio
                   ~out_port:Ofp_action.Port.none);
              List.filter
                (fun (r : Flow_entry.t) ->
                  not (r.Flow_entry.priority = prio && Ofp_match.equal r.Flow_entry.entry_match m))
                acc
            end)
          reference specs
      in
      Alcotest.(check int) "sizes agree" (List.length reference) (Flow_table.length table);
      Ref_model.agree table reference pkts)

let () =
  Alcotest.run "hw_datapath"
    [
      ( "flow_table",
        [
          Alcotest.test_case "priority order" `Quick test_priority_order;
          Alcotest.test_case "exact beats wildcard" `Quick test_exact_beats_wildcard;
          Alcotest.test_case "add replaces" `Quick test_add_replaces_same_match;
          Alcotest.test_case "overlap detection" `Quick test_overlap_detection;
          Alcotest.test_case "table full" `Quick test_table_full;
          Alcotest.test_case "delete loose/strict" `Quick test_delete_loose_vs_strict;
          Alcotest.test_case "delete out_port filter" `Quick test_delete_out_port_filter;
          Alcotest.test_case "modify preserves counters" `Quick test_modify_preserves_counters;
          Alcotest.test_case "timeouts" `Quick test_idle_and_hard_timeout;
          Alcotest.test_case "lookup counters" `Quick test_lookup_counters;
          Alcotest.test_case "overlap excludes replaced entry" `Quick
            test_overlap_excludes_replaced_entry;
          Alcotest.test_case "exact beats wildcard at any priority" `Quick
            test_exact_beats_wildcard_all_priorities;
          Alcotest.test_case "delete out_port on exact entry" `Quick
            test_delete_out_port_exact_entry;
          Alcotest.test_case "hard reason when both expired" `Quick
            test_hard_reason_when_both_expired;
          QCheck_alcotest.to_alcotest prop_flow_table_lookup_consistent;
        ] );
      ( "classifier",
        [
          QCheck_alcotest.to_alcotest prop_classifier_agrees_with_reference;
          QCheck_alcotest.to_alcotest prop_classifier_agrees_after_deletes;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "miss raises packet-in" `Quick test_miss_raises_packet_in;
          Alcotest.test_case "flow-mod then fast path" `Quick test_flow_mod_then_fast_path;
          Alcotest.test_case "packet-out flood" `Quick test_packet_out_flood;
          Alcotest.test_case "header rewrite" `Quick test_header_rewrite_actions;
          Alcotest.test_case "echo + features" `Quick test_echo_and_features;
          Alcotest.test_case "stats" `Quick test_stats_pipeline;
          Alcotest.test_case "flow removed on timeout" `Quick test_flow_removed_on_timeout;
          Alcotest.test_case "barrier" `Quick test_barrier;
          Alcotest.test_case "port hotplug" `Quick test_port_status_on_hotplug;
          Alcotest.test_case "garbage frames dropped" `Quick test_undecodable_frame_dropped;
          Alcotest.test_case "controller frames in arrival order" `Quick
            test_controller_frames_in_arrival_order;
          Alcotest.test_case "unknown buffer errors" `Quick test_unknown_buffer_packet_out;
          Alcotest.test_case "port mod up/down" `Quick test_port_mod_up_down;
          Alcotest.test_case "modify with no match acts as add" `Quick
            test_modify_no_match_acts_as_add;
          Alcotest.test_case "buffer id 24-bit wraparound" `Quick test_buffer_id_wraparound;
          Alcotest.test_case "buffer FIFO eviction" `Quick test_buffer_fifo_eviction;
          Alcotest.test_case "failed flow-mod releases buffer" `Quick
            test_failed_flow_mod_releases_buffer;
          Alcotest.test_case "batched receive_frames" `Quick test_receive_frames_batch;
          Alcotest.test_case "ipv4 fragments forwarded" `Quick test_ipv4_fragments_forwarded;
          Alcotest.test_case "bad ip checksum dropped on a hit" `Quick
            test_bad_ip_checksum_dropped_on_hit;
          Alcotest.test_case "rewrite between outputs" `Quick test_rewrite_between_outputs;
        ] );
    ]
