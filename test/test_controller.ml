(* hw_controller: handshake, event dispatch, component chaining *)

open Hw_packet
open Hw_openflow
module Controller = Hw_controller.Controller

let mac_a = Mac.of_string_exn "aa:bb:cc:dd:ee:01"
let mac_b = Mac.of_string_exn "aa:bb:cc:dd:ee:02"

(* A fake switch: records controller->switch messages and lets the test
   inject switch->controller messages. *)
type fake_switch = {
  ctrl : Controller.t;
  conn : Controller.conn;
  received : (int32 * Ofp_message.t) list ref;
  mutable next_xid : int32;
}

let make_fake () =
  let received = ref [] in
  let framing = Ofp_message.Framing.create () in
  let ctrl = Controller.create ~now:(fun () -> 0.) () in
  let conn =
    Controller.attach_switch ctrl ~send:(fun bytes ->
        Ofp_message.Framing.input framing bytes;
        List.iter
          (function
            | Ok msg -> received := msg :: !received
            | Error e -> Alcotest.failf "controller sent bad bytes: %s" e)
          (Ofp_frames.decoded framing))
  in
  { ctrl; conn; received; next_xid = 100l }

let inject fs msg =
  fs.next_xid <- Int32.add fs.next_xid 1l;
  Controller.input fs.ctrl fs.conn (Ofp_message.encode ~xid:fs.next_xid msg)

let inject_xid fs xid msg = Controller.input fs.ctrl fs.conn (Ofp_message.encode ~xid msg)

let features =
  {
    Ofp_message.datapath_id = 7L;
    n_buffers = 256l;
    n_tables = 1;
    capabilities = 0l;
    supported_actions = 0l;
    ports = [];
  }

let handshake fs =
  inject fs Ofp_message.Hello;
  (* controller replies hello + features_request *)
  inject fs (Ofp_message.Features_reply features)

let test_handshake () =
  let fs = make_fake () in
  let joined = ref None in
  Controller.on_datapath_join fs.ctrl ~name:"t" (fun _conn f ->
      joined := Some f.Ofp_message.datapath_id);
  handshake fs;
  Alcotest.(check bool) "join fired" true (!joined = Some 7L);
  Alcotest.(check bool) "dpid recorded" true (Controller.conn_dpid fs.conn = Some 7L);
  let sent = List.rev_map snd !(fs.received) in
  Alcotest.(check bool) "hello sent" true
    (List.exists (function Ofp_message.Hello -> true | _ -> false) sent);
  Alcotest.(check bool) "features requested" true
    (List.exists (function Ofp_message.Features_request -> true | _ -> false) sent);
  Alcotest.(check bool) "config set" true
    (List.exists (function Ofp_message.Set_config _ -> true | _ -> false) sent)

let test_echo_handled () =
  let fs = make_fake () in
  inject_xid fs 55l (Ofp_message.Echo_request "keepalive");
  match !(fs.received) with
  | [ (55l, Ofp_message.Echo_reply "keepalive") ] -> ()
  | _ -> Alcotest.fail "echo not answered"

let packet_in_msg ?(in_port = 1) () =
  let frame =
    Packet.encode
      (Packet.tcp_packet ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(Ip.of_octets 10 0 0 2)
         ~dst_ip:(Ip.of_octets 10 0 0 3) ~src_port:1000 ~dst_port:80 "x")
  in
  Ofp_message.Packet_in
    {
      Ofp_message.buffer_id = Some 5l;
      total_len = String.length frame;
      in_port;
      reason = Ofp_message.No_match;
      data = frame;
    }

let test_packet_in_dispatch_and_parse () =
  let fs = make_fake () in
  let seen = ref [] in
  Controller.on_packet_in fs.ctrl ~name:"a" (fun ev ->
      seen := ("a", ev.Controller.fields) :: !seen;
      Controller.Continue);
  Controller.on_packet_in fs.ctrl ~name:"b" (fun _ ->
      seen := ("b", None) :: !seen;
      Controller.Stop);
  Controller.on_packet_in fs.ctrl ~name:"c" (fun _ ->
      seen := ("c", None) :: !seen;
      Controller.Continue);
  handshake fs;
  inject fs (packet_in_msg ());
  let names = List.rev_map fst !seen in
  Alcotest.(check (list string)) "stop halts the chain" [ "a"; "b" ] names;
  (* parsed fields available to handler a *)
  (match List.assoc_opt "a" (List.rev !seen) with
  | Some (Some f) -> Alcotest.(check int) "tp_dst" 80 f.Ofp_match.f_tp_dst
  | _ -> Alcotest.fail "fields not parsed");
  Alcotest.(check int) "counted" 1 (Controller.packet_in_total fs.ctrl)

(* a frame [Packet.decode] rejects (an IPv4 header with a bad checksum)
   still reaches the handlers, with no fields and nothing to decode *)
let test_undecodable_packet_in () =
  let fs = make_fake () in
  let seen = ref [] in
  Controller.on_packet_in fs.ctrl ~name:"probe" (fun ev ->
      seen := (ev.Controller.fields, Lazy.force ev.Controller.packet) :: !seen;
      Controller.Continue);
  handshake fs;
  let frame =
    Bytes.of_string
      (Packet.encode
         (Packet.udp_packet ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(Ip.of_octets 10 0 0 2)
            ~dst_ip:(Ip.of_octets 10 0 0 3) ~src_port:1 ~dst_port:2 "x"))
  in
  Bytes.set frame 24 (Char.chr (Char.code (Bytes.get frame 24) lxor 0xff));
  let data = Bytes.to_string frame in
  Alcotest.(check bool) "Packet.decode rejects it" true (Result.is_error (Packet.decode data));
  inject fs
    (Ofp_message.Packet_in
       {
         Ofp_message.buffer_id = None;
         total_len = String.length data;
         in_port = 1;
         reason = Ofp_message.No_match;
         data;
       });
  match !seen with
  | [ (None, None) ] -> ()
  | [ _ ] -> Alcotest.fail "an undecodable frame got fields or a packet"
  | l -> Alcotest.failf "handler ran %d times" (List.length l)

(* the fields come from the frame in place; the packet is decoded when a
   handler first forces it, and every later handler shares that value.
   The handlers only record: the controller catches what they raise. *)
let test_decode_shared_by_handlers () =
  let fs = make_fake () in
  let forced_at = ref [] and first = ref None and second = ref None and fields = ref None in
  let note name ev = forced_at := (name, Lazy.is_val ev.Controller.packet) :: !forced_at in
  Controller.on_packet_in fs.ctrl ~name:"fields-only" (fun ev ->
      note "fields-only" ev;
      Controller.Continue);
  Controller.on_packet_in fs.ctrl ~name:"decoder" (fun ev ->
      note "decoder" ev;
      first := Lazy.force ev.Controller.packet;
      Controller.Continue);
  Controller.on_packet_in fs.ctrl ~name:"reader" (fun ev ->
      note "reader" ev;
      second := Lazy.force ev.Controller.packet;
      fields := ev.Controller.fields;
      Controller.Stop);
  handshake fs;
  inject fs (packet_in_msg ());
  Alcotest.(check (list (pair string bool))) "forced by the decoder, not before"
    [ ("fields-only", false); ("decoder", false); ("reader", true) ]
    (List.rev !forced_at);
  match !first, !second, !fields with
  | Some a, Some b, Some f ->
      Alcotest.(check bool) "one decode, shared" true (a == b);
      Alcotest.(check bool) "fields = the decoded packet's" true
        (f = Ofp_match_ref.fields_of_packet ~in_port:1 a)
  | _ -> Alcotest.fail "decodable frame without fields or packet"

let test_handler_exception_isolated () =
  let fs = make_fake () in
  let reached = ref false in
  Controller.on_packet_in fs.ctrl ~name:"boom" (fun _ -> failwith "component bug");
  Controller.on_packet_in fs.ctrl ~name:"after" (fun _ ->
      reached := true;
      Controller.Stop);
  handshake fs;
  inject fs (packet_in_msg ());
  Alcotest.(check bool) "later handlers still run" true !reached

let test_stats_callback_correlation () =
  let fs = make_fake () in
  handshake fs;
  fs.received := [];
  let got = ref None in
  Controller.request_stats fs.conn Ofp_message.Desc_request (fun reply -> got := Some reply);
  (* find the xid the controller used *)
  let xid =
    match !(fs.received) with
    | [ (xid, Ofp_message.Stats_request Ofp_message.Desc_request) ] -> xid
    | _ -> Alcotest.fail "stats request not sent"
  in
  (* reply with a different xid first: must not fire *)
  inject_xid fs (Int32.add xid 7l)
    (Ofp_message.Stats_reply
       { more = false; reply = Ofp_message.Desc_reply Hw_datapath.Datapath.stats_description });
  Alcotest.(check bool) "wrong xid ignored" true (!got = None);
  inject_xid fs xid
    (Ofp_message.Stats_reply
       { more = false; reply = Ofp_message.Desc_reply Hw_datapath.Datapath.stats_description });
  Alcotest.(check bool) "right xid fires" true (!got <> None)

let test_barrier_callback () =
  let fs = make_fake () in
  handshake fs;
  fs.received := [];
  let fired = ref false in
  Controller.barrier fs.conn (fun () -> fired := true);
  let xid =
    match !(fs.received) with
    | [ (xid, Ofp_message.Barrier_request) ] -> xid
    | _ -> Alcotest.fail "barrier not sent"
  in
  inject_xid fs xid Ofp_message.Barrier_reply;
  Alcotest.(check bool) "barrier callback" true !fired

let test_flow_removed_event () =
  let fs = make_fake () in
  let got = ref None in
  Controller.on_flow_removed fs.ctrl ~name:"t" (fun _conn fr ->
      got := Some fr.Ofp_message.byte_count);
  handshake fs;
  inject fs
    (Ofp_message.Flow_removed
       {
         Ofp_message.fr_match = Ofp_match.wildcard_all;
         fr_cookie = 0L;
         fr_priority = 0;
         fr_reason = Ofp_message.Removed_idle_timeout;
         duration_sec = 0l;
         duration_nsec = 0l;
         fr_idle_timeout = 0;
         packet_count = 0L;
         byte_count = 1234L;
       });
  Alcotest.(check bool) "fired with counts" true (!got = Some 1234L)

let test_port_status_event () =
  let fs = make_fake () in
  let got = ref None in
  Controller.on_port_status fs.ctrl ~name:"t" (fun _conn reason p ->
      got := Some (reason, p.Ofp_message.port_no));
  handshake fs;
  inject fs
    (Ofp_message.Port_status
       (Ofp_message.Port_add, Ofp_message.phy_port ~port_no:4 ~hw_addr:mac_a ~name:"eth4"));
  Alcotest.(check bool) "port add observed" true (!got = Some (Ofp_message.Port_add, 4))

let test_detach_fires_leave () =
  let fs = make_fake () in
  let left = ref false in
  Controller.on_datapath_leave fs.ctrl ~name:"t" (fun _ -> left := true);
  handshake fs;
  Alcotest.(check int) "one connection" 1 (List.length (Controller.connections fs.ctrl));
  Controller.detach_switch fs.ctrl fs.conn;
  Alcotest.(check bool) "leave fired" true !left;
  Alcotest.(check int) "no connections" 0 (List.length (Controller.connections fs.ctrl))

let test_bad_frame_detaches () =
  let fs = make_fake () in
  let left = ref false in
  Controller.on_datapath_leave fs.ctrl ~name:"t" (fun _ -> left := true);
  handshake fs;
  Controller.input fs.ctrl fs.conn "\x07\x00\x00\x08\x00\x00\x00\x00";
  Alcotest.(check bool) "bad version detaches" true !left

let test_two_switches_one_controller () =
  (* NOX manages multiple datapaths; events carry the right connection *)
  let received_a = ref [] and received_b = ref [] in
  let ctrl = Controller.create ~now:(fun () -> 0.) () in
  let framing_a = Ofp_message.Framing.create () and framing_b = Ofp_message.Framing.create () in
  let collect framing sink bytes =
    Ofp_message.Framing.input framing bytes;
    List.iter
      (function Ok msg -> sink := msg :: !sink | Error e -> Alcotest.failf "bad: %s" e)
      (Ofp_frames.decoded framing)
  in
  let conn_a = Controller.attach_switch ctrl ~send:(collect framing_a received_a) in
  let conn_b = Controller.attach_switch ctrl ~send:(collect framing_b received_b) in
  let joins = ref [] in
  Controller.on_datapath_join ctrl ~name:"t" (fun _conn f ->
      joins := f.Ofp_message.datapath_id :: !joins);
  let seen_dpids = ref [] in
  Controller.on_packet_in ctrl ~name:"t" (fun ev ->
      seen_dpids := Controller.conn_dpid ev.Controller.conn :: !seen_dpids;
      Controller.Stop);
  let handshake conn dpid =
    Controller.input ctrl conn (Ofp_message.encode ~xid:1l Ofp_message.Hello);
    Controller.input ctrl conn
      (Ofp_message.encode ~xid:2l
         (Ofp_message.Features_reply { features with Ofp_message.datapath_id = dpid }))
  in
  handshake conn_a 0xaL;
  handshake conn_b 0xbL;
  Alcotest.(check int) "both joined" 2 (List.length !joins);
  Alcotest.(check int) "two live connections" 2 (List.length (Controller.connections ctrl));
  Controller.input ctrl conn_b (Ofp_message.encode ~xid:3l (packet_in_msg ()));
  Alcotest.(check bool) "event attributed to switch B" true (!seen_dpids = [ Some 0xbL ]);
  (* flow install goes only to the addressed switch *)
  received_a := [];
  received_b := [];
  Controller.install_flow conn_a Ofp_match.wildcard_all [ Ofp_action.output 1 ];
  Alcotest.(check int) "A got the flow-mod" 1 (List.length !received_a);
  Alcotest.(check int) "B got nothing" 0 (List.length !received_b)

let test_aggregate_stats_via_controller () =
  (* controller-side stats request against a real datapath *)
  let ctrl = Controller.create ~now:(fun () -> 0.) () in
  let dp_ref = ref None in
  let conn =
    Controller.attach_switch ctrl ~send:(fun bytes ->
        Option.iter (fun dp -> Hw_datapath.Datapath.input_from_controller dp bytes) !dp_ref)
  in
  let dp =
    Hw_datapath.Datapath.create ~dpid:5L
      ~ports:[ { Hw_datapath.Datapath.port_no = 1; name = "p1"; mac = mac_a } ]
      ~transmit:(fun ~port_no:_ _ -> ())
      ~to_controller:(fun bytes -> Controller.input ctrl conn bytes)
      ~now:(fun () -> 0.) ()
  in
  dp_ref := Some dp;
  Hw_datapath.Datapath.connect dp;
  Controller.install_flow conn
    { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1 }
    [ Ofp_action.output Ofp_action.Port.controller ];
  (* push a packet through so counters move *)
  Hw_datapath.Datapath.receive_frame dp ~in_port:1
    (Packet.encode
       (Packet.udp_packet ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:(Ip.of_octets 10 0 0 1)
          ~dst_ip:(Ip.of_octets 10 0 0 2) ~src_port:1 ~dst_port:2 "x"));
  let got = ref None in
  Controller.request_stats conn
    (Ofp_message.Aggregate_request
       {
         sr_match = Ofp_match.wildcard_all;
         table_id = 0xff;
         sr_out_port = Ofp_action.Port.none;
       })
    (fun reply -> got := Some reply);
  match !got with
  | Some (Ofp_message.Aggregate_reply a) ->
      Alcotest.(check int32) "one flow" 1l a.Ofp_message.ag_flow_count;
      Alcotest.(check int64) "one packet" 1L a.Ofp_message.ag_packet_count
  | _ -> Alcotest.fail "no aggregate reply"

(* The flow-stats waiter gets each part as bytes, in order, and is
   forgotten after the last; a later reply with that xid is decoded like
   any unsolicited message. *)
let test_flow_stats_parts_to_waiter () =
  let fs = make_fake () in
  handshake fs;
  fs.received := [];
  let got = ref [] in
  Controller.request_flow_stats fs.conn (fun part -> got := part :: !got);
  let xid =
    match !(fs.received) with
    | [ (xid, Ofp_message.Stats_request (Ofp_message.Flow_stats_request r)) ] ->
        Alcotest.(check bool) "every flow" true (Ofp_match.equal r.sr_match Ofp_match.wildcard_all);
        xid
    | _ -> Alcotest.fail "flow-stats request not sent"
  in
  let entries =
    QCheck.Gen.generate ~rand:(Random.State.make [| 3 |]) ~n:700
      (Flow_stats_gen.entry_gen ~actions:(QCheck.Gen.return [ Ofp_action.output 1 ]) ())
  in
  let parts = Flow_stats_gen.parts ~xid entries in
  Alcotest.(check int) "two parts" 2 (List.length parts);
  List.iter (Controller.input fs.ctrl fs.conn) parts;
  Alcotest.(check (list string)) "both parts, in order, as sent" parts (List.rev !got);
  List.iter (Controller.input fs.ctrl fs.conn) parts;
  Alcotest.(check int) "waiter gone after the last part" 2 (List.length !got);
  Alcotest.(check int) "still attached" 1 (List.length (Controller.connections fs.ctrl))

(* A long reply to [request_stats] is decoded part by part and joined:
   its callback runs once, on the last part, with every entry in order. *)
let test_stats_parts_joined () =
  let fs = make_fake () in
  handshake fs;
  fs.received := [];
  let got = ref [] in
  Controller.request_stats fs.conn
    (Ofp_message.Flow_stats_request
       { sr_match = Ofp_match.wildcard_all; table_id = 0xff; sr_out_port = Ofp_action.Port.none })
    (fun reply -> got := reply :: !got);
  let xid = match !(fs.received) with [ (xid, _) ] -> xid | _ -> Alcotest.fail "no request" in
  let entries =
    QCheck.Gen.generate ~rand:(Random.State.make [| 5 |]) ~n:700
      (Flow_stats_gen.entry_gen ~actions:(QCheck.Gen.return [ Ofp_action.output 1 ]) ())
  in
  match Flow_stats_gen.parts ~xid entries with
  | [ first; last ] -> (
      Controller.input fs.ctrl fs.conn first;
      Alcotest.(check int) "nothing before the last part" 0 (List.length !got);
      Controller.input fs.ctrl fs.conn last;
      match !got with
      | [ Ofp_message.Flow_stats_reply l ] ->
          Alcotest.(check bool) "every entry, in order" true (l = entries)
      | _ -> Alcotest.fail "callback did not run once with the flow stats")
  | _ -> Alcotest.fail "700 entries are not two parts"

(* A malformed part detaches the switch, with the waiter never called,
   exactly as the same bytes do when no waiter claims them and they fail
   to decode, whether [request_flow_stats] or [request_stats] is
   waiting. A header length that disagrees with the bytes is the
   framing's to catch, and is the same in all three cases. *)
let prop_malformed_part_detaches =
  QCheck.Test.make ~name:"malformed flow-stats part detaches as a decode error does" ~count:200
    (QCheck.make Flow_stats_gen.malformed_gen ~print:Flow_stats_gen.malformed_print)
    (fun (entries, mu) ->
      let outcome request =
        let fs = make_fake () in
        let left = ref 0 and parts = ref 0 in
        Controller.on_datapath_leave fs.ctrl ~name:"t" (fun _ -> incr left);
        handshake fs;
        fs.received := [];
        request fs (fun () -> incr parts);
        let xid = match !(fs.received) with [ (xid, _) ] -> xid | _ -> 999l in
        let part = List.hd (Flow_stats_gen.parts ~xid entries) in
        Controller.input fs.ctrl fs.conn (Flow_stats_gen.mutate part mu);
        (!left, !parts, List.length (Controller.connections fs.ctrl))
      in
      let in_place = outcome (fun fs f -> Controller.request_flow_stats fs.conn (fun _ -> f ())) in
      let decoded =
        outcome (fun fs f ->
            Controller.request_stats fs.conn
              (Ofp_message.Flow_stats_request
                 { sr_match = Ofp_match.wildcard_all; table_id = 0xff; sr_out_port = Ofp_action.Port.none })
              (fun _ -> f ()))
      in
      in_place = outcome (fun _ _ -> ())
      && decoded = in_place
      && match mu with Flow_stats_gen.Header_length _ -> true | _ -> in_place = (1, 0, 0))

let test_keepalive_liveness () =
  let now = ref 0. in
  let received = ref [] in
  let framing = Ofp_message.Framing.create () in
  let ctrl = Controller.create ~now:(fun () -> !now) () in
  let conn =
    Controller.attach_switch ctrl ~send:(fun bytes ->
        Ofp_message.Framing.input framing bytes;
        List.iter
          (function Ok m -> received := m :: !received | Error _ -> ())
          (Ofp_frames.decoded framing))
  in
  let left = ref false in
  Controller.on_datapath_leave ctrl ~name:"t" (fun _ -> left := true);
  Controller.input ctrl conn (Ofp_message.encode ~xid:1l Ofp_message.Hello);
  Controller.input ctrl conn (Ofp_message.encode ~xid:2l (Ofp_message.Features_reply features));
  received := [];
  (* quiet for 20 s: gets pinged, not detached *)
  now := 20.;
  Alcotest.(check int) "no detach yet" 0 (Controller.ping_stale ctrl ~idle_after:15. ~dead_after:120.);
  Alcotest.(check bool) "echo sent" true
    (List.exists (function _, Ofp_message.Echo_request _ -> true | _ -> false) !received);
  (* the switch answers: clock refreshes *)
  Controller.input ctrl conn (Ofp_message.encode ~xid:9l (Ofp_message.Echo_reply "hw-keepalive"));
  Alcotest.(check (float 0.01)) "last heard updated" 20. (Controller.conn_last_heard conn);
  (* dead silence past the threshold: detached *)
  now := 200.;
  Alcotest.(check int) "detached" 1 (Controller.ping_stale ctrl ~idle_after:15. ~dead_after:120.);
  Alcotest.(check bool) "leave fired" true !left;
  Alcotest.(check int) "gone" 0 (List.length (Controller.connections ctrl))

let test_install_flow_and_send_packet () =
  let fs = make_fake () in
  handshake fs;
  fs.received := [];
  Controller.install_flow ~idle_timeout:10 ~priority:7 fs.conn Ofp_match.wildcard_all
    [ Ofp_action.output 3 ];
  Controller.send_packet fs.conn ~in_port:2 "payload" [ Ofp_action.output 1 ];
  match List.rev_map snd !(fs.received) with
  | [ Ofp_message.Flow_mod fm; Ofp_message.Packet_out po ] ->
      Alcotest.(check int) "priority" 7 fm.Ofp_message.priority;
      Alcotest.(check int) "idle" 10 fm.Ofp_message.idle_timeout;
      Alcotest.(check string) "payload" "payload" po.Ofp_message.po_data;
      Alcotest.(check int) "in port" 2 po.Ofp_message.po_in_port
  | msgs -> Alcotest.failf "unexpected messages (%d)" (List.length msgs)

let () =
  Alcotest.run "hw_controller"
    [
      ( "controller",
        [
          Alcotest.test_case "handshake" `Quick test_handshake;
          Alcotest.test_case "echo" `Quick test_echo_handled;
          Alcotest.test_case "packet-in dispatch + parse" `Quick test_packet_in_dispatch_and_parse;
          Alcotest.test_case "handler exception isolated" `Quick test_handler_exception_isolated;
          Alcotest.test_case "stats xid correlation" `Quick test_stats_callback_correlation;
          Alcotest.test_case "barrier callback" `Quick test_barrier_callback;
          Alcotest.test_case "flow removed event" `Quick test_flow_removed_event;
          Alcotest.test_case "port status event" `Quick test_port_status_event;
          Alcotest.test_case "detach fires leave" `Quick test_detach_fires_leave;
          Alcotest.test_case "bad frame detaches" `Quick test_bad_frame_detaches;
          Alcotest.test_case "install flow / send packet" `Quick test_install_flow_and_send_packet;
          Alcotest.test_case "two switches" `Quick test_two_switches_one_controller;
          Alcotest.test_case "aggregate stats" `Quick test_aggregate_stats_via_controller;
          Alcotest.test_case "keepalive liveness" `Quick test_keepalive_liveness;
          Alcotest.test_case "flow-stats parts to the waiter" `Quick test_flow_stats_parts_to_waiter;
          Alcotest.test_case "stats parts joined" `Quick test_stats_parts_joined;
          QCheck_alcotest.to_alcotest prop_malformed_part_detaches;
        ] );
      ( "decode",
        [
          Alcotest.test_case "undecodable packet-in" `Quick test_undecodable_packet_in;
          Alcotest.test_case "decode shared by handlers" `Quick test_decode_shared_by_handlers;
        ] );
    ]
