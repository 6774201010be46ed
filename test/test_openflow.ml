(* hw_openflow: match semantics, action and message codecs, framing *)

open Hw_packet
open Hw_openflow

let mac_a = Mac.of_string_exn "aa:bb:cc:dd:ee:ff"
let mac_b = Mac.of_string_exn "02:00:00:00:00:01"
let ip_a = Ip.of_octets 10 0 0 5
let ip_b = Ip.of_octets 93 184 216 34

let sample_fields =
  {
    Ofp_match.f_in_port = 3;
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
    f_tp_dst = 80;
  }

let match_roundtrip m =
  let w = Hw_util.Wire.Writer.create () in
  Ofp_match.encode w m;
  let bytes = Hw_util.Wire.Writer.contents w in
  Alcotest.(check int) "match is 40 bytes" 40 (String.length bytes);
  Ofp_match.decode (Hw_util.Wire.Reader.of_string bytes)

(* ------------------------------------------------------------------ *)
(* Match semantics                                                     *)
(* ------------------------------------------------------------------ *)

let test_wildcard_matches_everything () =
  Alcotest.(check bool) "matches" true (Ofp_match.matches Ofp_match.wildcard_all sample_fields)

let test_exact_match () =
  let m = Ofp_match.exact_of_fields sample_fields in
  Alcotest.(check bool) "matches self" true (Ofp_match.matches m sample_fields);
  Alcotest.(check bool) "rejects different port" false
    (Ofp_match.matches m { sample_fields with Ofp_match.f_tp_dst = 81 });
  Alcotest.(check bool) "rejects different src mac" false
    (Ofp_match.matches m { sample_fields with Ofp_match.f_dl_src = mac_b })

let test_prefix_match () =
  let m =
    { Ofp_match.wildcard_all with Ofp_match.nw_dst = Some (Ip.of_octets 93 184 216 0, 24) }
  in
  Alcotest.(check bool) "in prefix" true (Ofp_match.matches m sample_fields);
  Alcotest.(check bool) "outside prefix" false
    (Ofp_match.matches m { sample_fields with Ofp_match.f_nw_dst = Ip.of_octets 93 184 217 1 });
  let m0 = { Ofp_match.wildcard_all with Ofp_match.nw_dst = Some (ip_a, 0) } in
  Alcotest.(check bool) "0 bits = wildcard" true (Ofp_match.matches m0 sample_fields);
  let m40 = { Ofp_match.wildcard_all with Ofp_match.nw_dst = Some (ip_b, 40) } in
  Alcotest.(check bool) "past /32 acts as /32: hit" true (Ofp_match.matches m40 sample_fields);
  Alcotest.(check bool) "past /32 acts as /32: miss" false
    (Ofp_match.matches m40 { sample_fields with Ofp_match.f_nw_dst = Ip.of_octets 93 184 216 35 })

let test_subsumes () =
  let wild = Ofp_match.wildcard_all in
  let exact = Ofp_match.exact_of_fields sample_fields in
  let port_only = { Ofp_match.wildcard_all with Ofp_match.in_port = Some 3 } in
  Alcotest.(check bool) "wild subsumes exact" true (Ofp_match.subsumes ~general:wild ~specific:exact);
  Alcotest.(check bool) "exact not subsumes wild" false
    (Ofp_match.subsumes ~general:exact ~specific:wild);
  Alcotest.(check bool) "port subsumes exact on port 3" true
    (Ofp_match.subsumes ~general:port_only ~specific:exact);
  Alcotest.(check bool) "prefix subsumption" true
    (Ofp_match.subsumes
       ~general:{ wild with Ofp_match.nw_src = Some (Ip.of_octets 10 0 0 0, 8) }
       ~specific:{ wild with Ofp_match.nw_src = Some (ip_a, 32) })

let test_match_wire_roundtrip () =
  let cases =
    [
      Ofp_match.wildcard_all;
      Ofp_match.exact_of_fields sample_fields;
      { Ofp_match.wildcard_all with Ofp_match.in_port = Some 1; dl_type = Some 0x0806 };
      { Ofp_match.wildcard_all with Ofp_match.nw_src = Some (Ip.of_octets 10 0 0 0, 24) };
    ]
  in
  List.iter
    (fun m -> Alcotest.(check bool) (Ofp_match.to_string m) true (Ofp_match.equal m (match_roundtrip m)))
    cases

let test_fields_of_arp () =
  let pkt =
    Packet.arp_packet ~src_mac:mac_a (Arp.request ~sender_mac:mac_a ~sender_ip:ip_a ~target_ip:ip_b)
  in
  let f = Ofp_match_ref.fields_of_packet ~in_port:2 pkt in
  Alcotest.(check int) "dl_type arp" 0x0806 f.Ofp_match.f_dl_type;
  Alcotest.(check int) "nw_proto = arp opcode" 1 f.Ofp_match.f_nw_proto;
  Alcotest.(check bool) "nw_src = sender" true (Ip.equal ip_a f.Ofp_match.f_nw_src)

(* ------------------------------------------------------------------ *)
(* Actions                                                             *)
(* ------------------------------------------------------------------ *)

let action_roundtrip actions =
  let w = Hw_util.Wire.Writer.create () in
  Ofp_action.encode_list w actions;
  let bytes = Hw_util.Wire.Writer.contents w in
  match Ofp_action.decode_list (Hw_util.Wire.Reader.of_string bytes) (String.length bytes) with
  | Ok actions' -> actions'
  | Error e -> Alcotest.failf "action decode: %s" e

let test_action_roundtrips () =
  let cases =
    [
      [ Ofp_action.output 4 ];
      [ Ofp_action.to_controller ];
      [ Ofp_action.Set_dl_src mac_a; Ofp_action.Set_dl_dst mac_b; Ofp_action.output 1 ];
      [ Ofp_action.Set_nw_src ip_a; Ofp_action.Set_nw_dst ip_b; Ofp_action.Set_nw_tos 8 ];
      [ Ofp_action.Set_tp_src 99; Ofp_action.Set_tp_dst 100 ];
      [ Ofp_action.Set_vlan_vid 5; Ofp_action.Set_vlan_pcp 3; Ofp_action.Strip_vlan ];
      [ Ofp_action.Enqueue { port = 2; queue_id = 7l } ];
      [];
    ]
  in
  List.iter
    (fun actions ->
      let actions' = action_roundtrip actions in
      Alcotest.(check bool) "roundtrip" true (List.for_all2 Ofp_action.equal actions actions'))
    cases

let test_action_sizes () =
  Alcotest.(check int) "output 8" 8 (Ofp_action.size (Ofp_action.output 1));
  Alcotest.(check int) "dl 16" 16 (Ofp_action.size (Ofp_action.Set_dl_src mac_a));
  Alcotest.(check int) "list size" 24
    (Ofp_action.list_size [ Ofp_action.output 1; Ofp_action.Set_dl_src mac_a ])

let test_port_names () =
  Alcotest.(check string) "flood" "FLOOD" (Ofp_action.Port.to_string Ofp_action.Port.flood);
  Alcotest.(check string) "controller" "CONTROLLER"
    (Ofp_action.Port.to_string Ofp_action.Port.controller);
  Alcotest.(check string) "physical" "7" (Ofp_action.Port.to_string 7)

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

let msg_roundtrip msg =
  match Ofp_message.decode (Ofp_message.encode ~xid:0x55l msg) with
  | Ok (xid, msg') ->
      Alcotest.(check int32) "xid" 0x55l xid;
      msg'
  | Error e -> Alcotest.failf "message decode (%s): %s" (Ofp_message.type_name msg) e

let test_simple_messages () =
  List.iter
    (fun msg ->
      let msg' = msg_roundtrip msg in
      Alcotest.(check string) "same type" (Ofp_message.type_name msg) (Ofp_message.type_name msg'))
    [
      Ofp_message.Hello;
      Ofp_message.Features_request;
      Ofp_message.Get_config_request;
      Ofp_message.Barrier_request;
      Ofp_message.Barrier_reply;
      Ofp_message.Echo_request "payload";
      Ofp_message.Echo_reply "payload";
      Ofp_message.Set_config { flags = 0; miss_send_len = 0xffff };
    ]

let test_features_reply () =
  let ports =
    [
      Ofp_message.phy_port ~port_no:1 ~hw_addr:mac_a ~name:"wlan0";
      Ofp_message.phy_port ~port_no:100 ~hw_addr:mac_b ~name:"upstream";
    ]
  in
  let msg =
    Ofp_message.Features_reply
      {
        Ofp_message.datapath_id = 0x42L;
        n_buffers = 256l;
        n_tables = 1;
        capabilities = 0xc7l;
        supported_actions = 0xfffl;
        ports;
      }
  in
  match msg_roundtrip msg with
  | Ofp_message.Features_reply f ->
      Alcotest.(check int64) "dpid" 0x42L f.Ofp_message.datapath_id;
      Alcotest.(check int) "ports" 2 (List.length f.Ofp_message.ports);
      Alcotest.(check string) "port name" "wlan0"
        (List.hd f.Ofp_message.ports).Ofp_message.name
  | _ -> Alcotest.fail "wrong message"

let test_packet_in_roundtrip () =
  let msg =
    Ofp_message.Packet_in
      {
        Ofp_message.buffer_id = Some 77l;
        total_len = 1000;
        in_port = 3;
        reason = Ofp_message.No_match;
        data = "frame-bytes";
      }
  in
  match msg_roundtrip msg with
  | Ofp_message.Packet_in pi ->
      Alcotest.(check bool) "buffer" true (pi.Ofp_message.buffer_id = Some 77l);
      Alcotest.(check int) "in_port" 3 pi.Ofp_message.in_port;
      Alcotest.(check string) "data" "frame-bytes" pi.Ofp_message.data
  | _ -> Alcotest.fail "wrong message"

let test_flow_mod_roundtrip () =
  let m = Ofp_match.exact_of_fields sample_fields in
  let fm =
    Ofp_message.add_flow ~cookie:9L ~idle_timeout:10 ~hard_timeout:60 ~priority:5
      ~send_flow_rem:true m
      [ Ofp_action.output 4; Ofp_action.Set_dl_dst mac_b ]
  in
  match msg_roundtrip (Ofp_message.Flow_mod fm) with
  | Ofp_message.Flow_mod fm' ->
      Alcotest.(check bool) "match" true (Ofp_match.equal m fm'.Ofp_message.fm_match);
      Alcotest.(check int64) "cookie" 9L fm'.Ofp_message.cookie;
      Alcotest.(check int) "idle" 10 fm'.Ofp_message.idle_timeout;
      Alcotest.(check bool) "send_flow_rem" true fm'.Ofp_message.send_flow_rem;
      Alcotest.(check int) "actions" 2 (List.length fm'.Ofp_message.actions)
  | _ -> Alcotest.fail "wrong message"

(* An action's length field must equal its type's size (OUTPUT 8 bytes,
   SET_DL_DST 16); a flow-mod that says otherwise is refused. *)
let test_flow_mod_action_length () =
  let actions = [ Ofp_action.output 4; Ofp_action.Set_dl_dst mac_b ] in
  let fm = Ofp_message.add_flow ~priority:5 (Ofp_match.exact_of_fields sample_fields) actions in
  let wire = Ofp_message.encode ~xid:3l (Ofp_message.Flow_mod fm) in
  let at = String.length wire - Ofp_action.list_size actions in
  let with_length action len =
    let b = Bytes.of_string wire in
    Bytes.set_uint16_be b (action + 2) len;
    Bytes.to_string b
  in
  Alcotest.(check bool) "as encoded" true (Result.is_ok (Ofp_message.decode wire));
  Alcotest.(check bool) "OUTPUT of length 16" true
    (Result.is_error (Ofp_message.decode (with_length at 16)));
  Alcotest.(check bool) "SET_DL_DST of length 8" true
    (Result.is_error (Ofp_message.decode (with_length (at + 8) 8)))

let test_packet_out_roundtrip () =
  let po = Ofp_message.packet_out ~in_port:2 ~data:"bytes" [ Ofp_action.output 7 ] in
  match msg_roundtrip (Ofp_message.Packet_out po) with
  | Ofp_message.Packet_out po' ->
      Alcotest.(check string) "data" "bytes" po'.Ofp_message.po_data;
      Alcotest.(check int) "in_port" 2 po'.Ofp_message.po_in_port
  | _ -> Alcotest.fail "wrong message"

let test_flow_removed_roundtrip () =
  let msg =
    Ofp_message.Flow_removed
      {
        Ofp_message.fr_match = Ofp_match.wildcard_all;
        fr_cookie = 3L;
        fr_priority = 9;
        fr_reason = Ofp_message.Removed_idle_timeout;
        duration_sec = 12l;
        duration_nsec = 34l;
        fr_idle_timeout = 10;
        packet_count = 55L;
        byte_count = 999L;
      }
  in
  match msg_roundtrip msg with
  | Ofp_message.Flow_removed fr ->
      Alcotest.(check int64) "packets" 55L fr.Ofp_message.packet_count;
      Alcotest.(check bool) "reason" true (fr.Ofp_message.fr_reason = Ofp_message.Removed_idle_timeout)
  | _ -> Alcotest.fail "wrong message"

let test_stats_roundtrips () =
  (* flow stats *)
  let entry =
    {
      Ofp_message.fs_table_id = 0;
      fs_match = Ofp_match.exact_of_fields sample_fields;
      fs_duration_sec = 1l;
      fs_duration_nsec = 2l;
      fs_priority = 3;
      fs_idle_timeout = 4;
      fs_hard_timeout = 5;
      fs_cookie = 6L;
      fs_packet_count = 7L;
      fs_byte_count = 8L;
      fs_actions = [ Ofp_action.output 1 ];
    }
  in
  (match
     msg_roundtrip
       (Ofp_message.Stats_reply
          { more = false; reply = Ofp_message.Flow_stats_reply [ entry; entry ] })
   with
  | Ofp_message.Stats_reply { more = false; reply = Ofp_message.Flow_stats_reply entries } ->
      Alcotest.(check int) "two entries" 2 (List.length entries);
      Alcotest.(check int64) "bytes" 8L (List.hd entries).Ofp_message.fs_byte_count
  | _ -> Alcotest.fail "wrong stats");
  (* desc *)
  (match
     msg_roundtrip
       (Ofp_message.Stats_reply
          { more = false; reply = Ofp_message.Desc_reply Hw_datapath.Datapath.stats_description })
   with
  | Ofp_message.Stats_reply { more = false; reply = Ofp_message.Desc_reply d } ->
      Alcotest.(check string) "dp_desc" "bridge dp0" d.Ofp_message.dp_desc
  | _ -> Alcotest.fail "wrong stats");
  (* aggregate *)
  (match
     msg_roundtrip
       (Ofp_message.Stats_reply
          {
            more = false;
            reply =
              Ofp_message.Aggregate_reply
                { Ofp_message.ag_packet_count = 1L; ag_byte_count = 2L; ag_flow_count = 3l };
          })
   with
  | Ofp_message.Stats_reply { more = false; reply = Ofp_message.Aggregate_reply a } ->
      Alcotest.(check int32) "flows" 3l a.Ofp_message.ag_flow_count
  | _ -> Alcotest.fail "wrong stats");
  (* port stats request/reply *)
  (match msg_roundtrip (Ofp_message.Stats_request (Ofp_message.Port_stats_request 7)) with
  | Ofp_message.Stats_request (Ofp_message.Port_stats_request 7) -> ()
  | _ -> Alcotest.fail "wrong stats request");
  match
    msg_roundtrip
      (Ofp_message.Stats_reply
         {
           more = false;
           reply =
             Ofp_message.Port_stats_reply
            [
              {
                Ofp_message.ps_port_no = 1;
                rx_packets = 1L;
                tx_packets = 2L;
                rx_bytes = 3L;
                tx_bytes = 4L;
                rx_dropped = 5L;
                tx_dropped = 6L;
                rx_errors = 0L;
                tx_errors = 0L;
              };
            ];
         })
  with
  | Ofp_message.Stats_reply { more = false; reply = Ofp_message.Port_stats_reply [ ps ] } ->
      Alcotest.(check int64) "tx bytes" 4L ps.Ofp_message.tx_bytes
  | _ -> Alcotest.fail "wrong port stats"

let test_port_mod_roundtrip () =
  let msg =
    Ofp_message.Port_mod
      {
        Ofp_message.pm_port_no = 7;
        pm_hw_addr = mac_a;
        pm_config = Ofp_message.port_down_bit;
        pm_mask = Ofp_message.port_down_bit;
        pm_advertise = 0l;
      }
  in
  match msg_roundtrip msg with
  | Ofp_message.Port_mod pm ->
      Alcotest.(check int) "port" 7 pm.Ofp_message.pm_port_no;
      Alcotest.(check int32) "config" Ofp_message.port_down_bit pm.Ofp_message.pm_config;
      Alcotest.(check bool) "hw addr" true (Mac.equal mac_a pm.Ofp_message.pm_hw_addr)
  | _ -> Alcotest.fail "wrong message"

let test_error_roundtrip () =
  let msg =
    Ofp_message.Error_msg
      { Ofp_message.err_type = Ofp_message.Flow_mod_failed; err_code = 1; err_data = "ctx" }
  in
  match msg_roundtrip msg with
  | Ofp_message.Error_msg e ->
      Alcotest.(check bool) "type" true (e.Ofp_message.err_type = Ofp_message.Flow_mod_failed);
      Alcotest.(check string) "data" "ctx" e.Ofp_message.err_data
  | _ -> Alcotest.fail "wrong message"

let test_bad_version_rejected () =
  let bytes = Ofp_message.encode ~xid:1l Ofp_message.Hello in
  let corrupted = Bytes.of_string bytes in
  Bytes.set corrupted 0 '\x04';
  match Ofp_message.decode (Bytes.to_string corrupted) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong version accepted"

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let test_framing_reassembly () =
  let b = Ofp_message.Framing.create () in
  let m1 = Ofp_message.encode ~xid:1l Ofp_message.Hello in
  let m2 = Ofp_message.encode ~xid:2l (Ofp_message.Echo_request "x") in
  let stream = m1 ^ m2 in
  (* feed byte by byte *)
  String.iter (fun c -> Ofp_message.Framing.input b (String.make 1 c)) stream;
  match Ofp_frames.decoded b with
  | [ Ok (1l, Ofp_message.Hello); Ok (2l, Ofp_message.Echo_request "x") ] -> ()
  | results -> Alcotest.failf "unexpected framing results (%d)" (List.length results)

let test_framing_partial () =
  let b = Ofp_message.Framing.create () in
  let m = Ofp_message.encode ~xid:1l (Ofp_message.Echo_request "hello") in
  Ofp_message.Framing.input b (String.sub m 0 5);
  Alcotest.(check bool) "incomplete" true (Ofp_message.Framing.pop_frame b = None);
  Ofp_message.Framing.input b (String.sub m 5 (String.length m - 5));
  match Ofp_frames.decoded b with
  | [ Ok (1l, Ofp_message.Echo_request "hello") ] -> ()
  | _ -> Alcotest.fail "message lost"

(* A flow-stats reply too long for one message (1,000 one-action flows,
   96 bytes each) leaves as several, each within the 16-bit length and
   all but the last flagged more; decoded and joined, the parts give back
   every entry in order. A reply that fits stays one message, and one
   message over the limit is refused rather than sent with a wrapped
   length. *)
let test_stats_reply_parts () =
  let entry i =
    {
      Ofp_message.fs_table_id = 0;
      fs_match = Ofp_match.exact_of_fields { sample_fields with Ofp_match.f_tp_src = i };
      fs_duration_sec = 1l;
      fs_duration_nsec = 0l;
      fs_priority = 0x8000;
      fs_idle_timeout = 0;
      fs_hard_timeout = 0;
      fs_cookie = Int64.of_int i;
      fs_packet_count = Int64.of_int (2 * i);
      fs_byte_count = Int64.of_int (100 * i);
      fs_actions = [ Ofp_action.output 1 ];
    }
  in
  let reply n = Ofp_message.Flow_stats_reply (List.init n entry) in
  let parts =
    List.map
      (fun msg ->
        let bytes = Ofp_message.encode ~xid:9l msg in
        Alcotest.(check bool) "within the 16-bit length" true
          (String.length bytes <= Ofp_message.max_length);
        match Ofp_message.decode bytes with
        | Ok (9l, Ofp_message.Stats_reply { more; reply }) -> (more, reply)
        | _ -> Alcotest.fail "part does not decode")
      (Ofp_message.stats_reply_parts (reply 1000))
  in
  Alcotest.(check (list bool)) "more on all but the last" [ true; false ] (List.map fst parts);
  (match Ofp_message.join_stats_reply_parts (List.map snd parts) with
  | Ofp_message.Flow_stats_reply entries ->
      Alcotest.(check (list int64)) "every entry, in order"
        (List.init 1000 Int64.of_int)
        (List.map (fun e -> e.Ofp_message.fs_cookie) entries);
      Alcotest.(check bool) "entries intact" true (entries = List.init 1000 entry)
  | _ -> Alcotest.fail "joined reply changed kind");
  (* 682 entries are 65,484 bytes: one message; 683 are 65,580 bytes *)
  Alcotest.(check int) "682 fit one message" 1
    (List.length (Ofp_message.stats_reply_parts (reply 682)));
  Alcotest.(check int) "683 do not" 2 (List.length (Ofp_message.stats_reply_parts (reply 683)));
  let too_long = Ofp_message.Stats_reply { more = false; reply = reply 683 } in
  match Ofp_message.encode ~xid:1l too_long with
  | _ -> Alcotest.fail "a 65,580-byte message was encoded"
  | exception Invalid_argument _ -> ()

let test_framing_kills_bad_stream () =
  let b = Ofp_message.Framing.create () in
  Ofp_message.Framing.input b "\x09\x00\x00\x08garbage-that-should-be-dropped";
  (match Ofp_message.Framing.pop_frame b with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "bad version not reported");
  (* stream is dead: further input ignored *)
  Ofp_message.Framing.input b (Ofp_message.encode ~xid:1l Ofp_message.Hello);
  Alcotest.(check bool) "dead stream" true (Ofp_message.Framing.pop_frame b = None)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let match_gen = Flow_stats_gen.match_gen

(* ------------------------------------------------------------------ *)
(* Flow-stats parts read in place                                      *)
(* ------------------------------------------------------------------ *)

module P = Ofp_message.Flow_stats_part

let walk part =
  let acc = ref [] in
  P.iter
    (fun at ->
      let counters = (P.packet_count part at, P.byte_count part at) in
      acc := (P.cookie part at, P.priority part at, fst counters, snd counters, P.match_ part at) :: !acc)
    part;
  List.rev !acc

let fields_of fs =
  ( fs.Ofp_message.fs_cookie,
    fs.Ofp_message.fs_priority,
    Int64.to_int fs.Ofp_message.fs_packet_count,
    Int64.to_int fs.Ofp_message.fs_byte_count,
    fs.Ofp_message.fs_match )

let same_fields (c, p, n, b, m) (c', p', n', b', m') =
  Int64.equal c c' && p = p' && n = n' && b = b' && Ofp_match.equal m m'

(* The in-place walker reads what the sequential decoder decodes, part by
   part, across the split at 682 one-action entries; the parts written
   straight from a table are byte-identical to the record encoder's. *)
let prop_in_place_equals_decoder =
  QCheck.Test.make ~name:"in-place flow stats = sequential decoder, 682/683 split" ~count:60
    (QCheck.make Flow_stats_gen.table_gen ~print:(fun l -> Printf.sprintf "%d entries" (List.length l)))
    (fun entries ->
      let parts = Flow_stats_gen.parts entries in
      let records =
        List.map (Ofp_message.encode ~xid:7l)
          (Ofp_message.stats_reply_parts (Ofp_message.Flow_stats_reply entries))
      in
      let one_part_each =
        List.for_all
          (fun part ->
            Ofp_message.Stats_part.is_reply part
            && P.validate part = Ok ()
            &&
            match Ofp_message.decode part with
            | Ok (7l, Ofp_message.Stats_reply { more; reply = Ofp_message.Flow_stats_reply l }) ->
                more = Ofp_message.Stats_part.more part && List.equal same_fields (walk part) (List.map fields_of l)
            | _ -> false)
          parts
      in
      let sizes =
        List.map (fun fs -> Ofp_message.flow_stats_entry_size fs.Ofp_message.fs_actions) entries
      in
      parts = records && one_part_each
      && List.equal same_fields (List.concat_map walk parts) (List.map fields_of entries)
      && List.length parts = if 12 + List.fold_left ( + ) 0 sizes <= Ofp_message.max_length then 1 else 2)

(* Every way of breaking a part is refused by both readers. *)
let prop_malformed_rejected =
  QCheck.Test.make ~name:"malformed flow-stats parts rejected by both readers" ~count:700
    (QCheck.make Flow_stats_gen.malformed_gen ~print:Flow_stats_gen.malformed_print)
    (fun (entries, mu) ->
      match Flow_stats_gen.parts entries with
      | [ part ] ->
          let bad = Flow_stats_gen.mutate part mu in
          Result.is_error (P.validate bad) && Result.is_error (Ofp_message.decode bad)
      | _ -> false)

(* The identity the poll reads from a reply entry is the one the router
   derives from the flow-removed record of the same flow. *)
let prop_identity_stats_equals_removed =
  QCheck.Test.make ~name:"flow identity: stats entry = flow-removed record" ~count:300
    (QCheck.make (Flow_stats_gen.entry_gen ()))
    (fun fs ->
      let part = List.hd (Flow_stats_gen.parts [ fs ]) in
      let removed =
        Ofp_message.encode ~xid:1l
          (Ofp_message.Flow_removed
             {
               Ofp_message.fr_match = fs.Ofp_message.fs_match;
               fr_cookie = fs.Ofp_message.fs_cookie;
               fr_priority = fs.Ofp_message.fs_priority;
               fr_reason = Ofp_message.Removed_delete;
               duration_sec = 1l;
               duration_nsec = 0l;
               fr_idle_timeout = 10;
               packet_count = fs.Ofp_message.fs_packet_count;
               byte_count = fs.Ofp_message.fs_byte_count;
             })
      in
      match Ofp_message.decode removed with
      | Ok (_, Ofp_message.Flow_removed fr) ->
          String.equal (P.identity part 12)
            (Ofp_message.flow_identity ~priority:fr.Ofp_message.fr_priority fr.Ofp_message.fr_match)
      | _ -> false)

let prop_match_roundtrip =
  QCheck.Test.make ~name:"match wire roundtrip" ~count:300
    (QCheck.make match_gen ~print:Ofp_match.to_string)
    (fun m ->
      (* prefix bits of 0 are canonically a full wildcard; normalise *)
      let w = Hw_util.Wire.Writer.create () in
      Ofp_match.encode w m;
      let m' = Ofp_match.decode (Hw_util.Wire.Reader.of_string (Hw_util.Wire.Writer.contents w)) in
      Ofp_match.equal m m')

let prop_exact_always_matches_its_fields =
  QCheck.Test.make ~name:"exact_of_fields matches the packet it came from" ~count:100
    QCheck.(pair (int_bound 0xffff) (int_bound 0xffff))
    (fun (sp, dp) ->
      let fields = { sample_fields with Ofp_match.f_tp_src = sp; f_tp_dst = dp } in
      Ofp_match.matches (Ofp_match.exact_of_fields fields) fields)

let prop_subsumes_implies_matches =
  QCheck.Test.make ~name:"if general subsumes specific, general matches what specific matches"
    ~count:300
    (QCheck.make (QCheck.Gen.pair match_gen match_gen) ~print:(fun (a, b) ->
         Ofp_match.to_string a ^ " vs " ^ Ofp_match.to_string b))
    (fun (general, specific) ->
      (* test on the sample packet as witness *)
      (not (Ofp_match.subsumes ~general ~specific))
      || (not (Ofp_match.matches specific sample_fields))
      || Ofp_match.matches general sample_fields)

(* ------------------------------------------------------------------ *)
(* matches: allocation-free verify, pinned to an Ip.Prefix reference   *)
(* ------------------------------------------------------------------ *)

(* The specified semantics spelled with [Ip.Prefix]: a specified field
   must be equal, and [net/bits] holds [addr] when [Ip.Prefix.mem] says
   so (a /0 prefix holds every address). *)
let reference_matches (m : Ofp_match.t) (f : Ofp_match.fields) =
  let field spec v = match spec with None -> true | Some x -> x = v in
  let prefix spec addr =
    match spec with
    | None -> true
    | Some (net, bits) -> Ip.Prefix.mem addr (Ip.Prefix.make net bits)
  in
  field m.Ofp_match.in_port f.Ofp_match.f_in_port
  && field m.Ofp_match.dl_src f.Ofp_match.f_dl_src
  && field m.Ofp_match.dl_dst f.Ofp_match.f_dl_dst
  && field m.Ofp_match.dl_vlan f.Ofp_match.f_dl_vlan
  && field m.Ofp_match.dl_vlan_pcp f.Ofp_match.f_dl_vlan_pcp
  && field m.Ofp_match.dl_type f.Ofp_match.f_dl_type
  && field m.Ofp_match.nw_tos f.Ofp_match.f_nw_tos
  && field m.Ofp_match.nw_proto f.Ofp_match.f_nw_proto
  && prefix m.Ofp_match.nw_src f.Ofp_match.f_nw_src
  && prefix m.Ofp_match.nw_dst f.Ofp_match.f_nw_dst
  && field m.Ofp_match.tp_src f.Ofp_match.f_tp_src
  && field m.Ofp_match.tp_dst f.Ofp_match.f_tp_dst

(* A prefix of every length 0-32 over a random network, and an address
   that is the network itself or differs from it in one random bit, so
   about half the addresses fall inside. *)
let prefix_case_gen =
  let open QCheck.Gen in
  let* net = map Int32.of_int (int_bound 0xffffffff) in
  let* bits = int_bound 32 in
  let* flip = int_range (-1) 31 in
  let addr = if flip < 0 then net else Int32.logxor net (Int32.shift_left 1l flip) in
  return ((Ip.of_int32 net, bits), Ip.of_int32 addr)

let prop_matches_prefix_reference =
  QCheck.Test.make ~name:"matches = Ip.Prefix reference over /0-/32 (10k)" ~count:10_000
    (QCheck.make
       QCheck.Gen.(
         quad prefix_case_gen prefix_case_gen (opt (oneofl [ 80; 81 ])) (opt (oneofl [ 3; 4 ])))
       ~print:(fun (((sn, sb), sa), ((dn, db), da), tp, port) ->
         Printf.sprintf "src %s/%d vs %s, dst %s/%d vs %s, tp_dst %s, in_port %s"
           (Ip.to_string sn) sb (Ip.to_string sa) (Ip.to_string dn) db (Ip.to_string da)
           (Option.fold ~none:"*" ~some:string_of_int tp)
           (Option.fold ~none:"*" ~some:string_of_int port)))
    (fun ((src, src_addr), (dst, dst_addr), tp_dst, in_port) ->
      let m =
        {
          Ofp_match.wildcard_all with
          Ofp_match.in_port;
          nw_src = Some src;
          nw_dst = Some dst;
          tp_dst;
        }
      in
      let f = { sample_fields with Ofp_match.f_nw_src = src_addr; f_nw_dst = dst_addr } in
      Bool.equal (Ofp_match.matches m f) (reference_matches m f))

(* Minor words [g] allocates over [n] calls, less the loop's own. *)
let minor_words_per_call n g =
  let measure g =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (g ()))
    done;
    Gc.minor_words () -. w0
  in
  (measure g -. measure (fun () -> true)) /. float_of_int n

let test_matches_allocates_nothing () =
  (* a fields record of its own, so the verify reads boxed addresses *)
  let f = { sample_fields with Ofp_match.f_nw_src = Ip.of_octets 10 0 0 5 } in
  let exact = Ofp_match.exact_of_fields sample_fields in
  let prefixes =
    {
      Ofp_match.wildcard_all with
      Ofp_match.nw_src = Some (Ip.of_octets 10 0 0 0, 8);
      nw_dst = Some (Ip.of_octets 93 184 216 0, 24);
    }
  in
  Alcotest.(check bool) "exact hit" true (Ofp_match.matches exact f);
  Alcotest.(check bool) "prefix hit" true (Ofp_match.matches prefixes f);
  Alcotest.(check (float 0.)) "exact-hit verify allocates 0 words" 0.
    (minor_words_per_call 10_000 (fun () -> Ofp_match.matches exact f));
  Alcotest.(check (float 0.)) "/8 + /24 verify allocates 0 words" 0.
    (minor_words_per_call 10_000 (fun () -> Ofp_match.matches prefixes f));
  (* the probe's hash: the documented other half of the zero-alloc claim *)
  Alcotest.(check (float 0.)) "exact hash_fields allocates 0 words" 0.
    (minor_words_per_call 10_000 (fun () -> Ofp_match.hash_fields Ofp_match.mask_exact f))

(* ------------------------------------------------------------------ *)
(* fields_of_frame = fields_of_packet after Packet.decode               *)
(* ------------------------------------------------------------------ *)

module Frame_gen = struct
  open QCheck.Gen

  let ip = map (fun i -> Ip.of_int32 (Int32.of_int i)) (int_bound 0xffffffff)
  let mac = map Mac.of_bytes (string_size ~gen:char (return 6))
  let port = int_bound 0xffff
  let payload = int_bound 1500 >>= fun n -> string_size ~gen:char (return n)

  let eth ethertype =
    let* src = mac in
    let* dst = mac in
    return { Ethernet.src; dst; ethertype; payload = "" }

  (* IP options pad to 32 bits, so IHL ranges over 5-7 *)
  let ipv4 ~protocol =
    let* dscp = int_bound 63 in
    let* ttl = int_range 1 255 in
    let* ident = int_bound 0xffff in
    let* options = oneofl [ ""; "\001\001\001\000"; String.make 8 '\001' ] in
    let* src = ip in
    let* dst = ip in
    return { (Ipv4.make ~ttl ~ident ~protocol ~src ~dst "") with Ipv4.dscp; options }

  let ip_packet protocol l4 =
    let* e = eth Ethernet.ethertype_ipv4 in
    let* h = ipv4 ~protocol in
    return (Packet.encode { Packet.eth = e; l3 = Packet.Ipv4 (h, l4) })

  let udp =
    let* src_port = port in
    let* dst_port = port in
    payload >>= fun payload -> ip_packet Ipv4.proto_udp (Packet.Udp { Udp.src_port; dst_port; payload })

  let tcp =
    let* src_port = port in
    let* dst_port = port in
    let* options = oneofl [ ""; "\002\004\005\180"; String.make 12 '\001' ] in
    payload >>= fun p ->
    ip_packet Ipv4.proto_tcp
      (Packet.Tcp { (Tcp.make ~src_port ~dst_port p) with Tcp.options })

  let icmp =
    let* typ = int_bound 255 in
    let* code = int_bound 255 in
    let* rest = map Int32.of_int (int_bound 0xffffffff) in
    payload >>= fun payload -> ip_packet Ipv4.proto_icmp (Packet.Icmp { Icmp.typ; code; rest; payload })

  (* arbitrary bytes under any protocol number, UDP/TCP/ICMP included *)
  let raw_ip =
    let* protocol = oneof [ int_bound 255; oneofl [ 1; 6; 17 ] ] in
    payload >>= fun p -> ip_packet protocol (Packet.Raw_l4 p)

  (* a piece of a datagram: more-fragments set and/or a non-zero offset *)
  let fragment =
    let* protocol = oneof [ int_bound 255; oneofl [ 1; 6; 17 ] ] in
    let* more_fragments = bool in
    let* fragment_offset = if more_fragments then int_bound 0x1fff else int_range 1 0x1fff in
    let* e = eth Ethernet.ethertype_ipv4 in
    let* h = ipv4 ~protocol in
    let* p = payload in
    return
      (Packet.encode
         {
           Packet.eth = e;
           l3 =
             Packet.Ipv4
               ( { h with Ipv4.more_fragments; fragment_offset; dont_fragment = false },
                 Packet.Raw_l4 p );
         })

  let arp =
    let* op = oneofl [ Arp.Request; Arp.Reply ] in
    let* sender_mac = mac in
    let* target_mac = mac in
    let* sender_ip = ip in
    let* target_ip = ip in
    let* e = eth Ethernet.ethertype_arp in
    return
      (Packet.encode
         { Packet.eth = e; l3 = Packet.Arp { Arp.op; sender_mac; sender_ip; target_mac; target_ip } })

  (* any ethertype, 0x0800 and 0x0806 included, over arbitrary bytes *)
  let other =
    let* ethertype = oneof [ int_bound 0xffff; oneofl [ 0x0800; 0x0806; 0x86dd ] ] in
    let* e = eth ethertype in
    payload >>= fun payload -> return (Ethernet.encode { e with Ethernet.payload })

  let is_ipv4 b = Bytes.length b >= 14 && Bytes.get_uint16_be b 12 = Ethernet.ethertype_ipv4
  let ihl_bytes b = if Bytes.length b > 14 then (Bytes.get_uint8 b 14 land 0xf) * 4 else 20
  let l4_off b = 14 + ihl_bytes b

  (* re-sign the IPv4 header after a field edit, so the edited field's
     own check is what the frame meets *)
  let fix_ip_checksum b =
    let hl = ihl_bytes b in
    if is_ipv4 b && hl >= 20 && 14 + hl <= Bytes.length b then begin
      Bytes.set_uint16_be b 24 0;
      Bytes.set_uint16_be b 24
        (Hw_util.Wire.checksum_ones_complement_range (Bytes.unsafe_to_string b) ~off:14 ~len:hl)
    end

  let set16 b i v = if i + 2 <= Bytes.length b then Bytes.set_uint16_be b i v
  let set8 b i v = if i < Bytes.length b then Bytes.set_uint8 b i v

  (* One edit of the frame bytes. *)
  let mutation =
    let cut_at points =
      let* base = oneofl points in
      let* delta = int_range (-1) 1 in
      return (base, delta)
    in
    frequency
      [
        ( 3,
          (* truncate at a header boundary (or a byte either side), with
             the IPv4 total length left alone or made to agree *)
          let* fix = bool in
          let* which =
            cut_at
              [ `Abs 0; `Abs 6; `Abs 12; `Abs 14; `Abs 15; `Abs 34; `Abs 42;
                `L4 0; `L4 4; `L4 8; `L4 12; `L4 13; `L4 20; `Random ]
          in
          let* r = float_bound_inclusive 1. in
          return (fun b ->
              let base, delta = which in
              let n = Bytes.length b in
              let cut =
                match base with
                | `Abs k -> k + delta
                | `L4 k -> l4_off b + k + delta
                | `Random -> int_of_float (r *. float_of_int n)
              in
              let cut = max 0 (min n cut) in
              let b = Bytes.sub b 0 cut in
              if fix && is_ipv4 b && cut >= 18 then begin
                set16 b 16 (cut - 14);
                fix_ip_checksum b
              end;
              b) );
        ( 2,
          (* Ethernet padding past the IPv4 total length *)
          let* pad = string_size ~gen:char (int_range 1 64) in
          return (fun b -> Bytes.cat b (Bytes.of_string pad)) );
        ( 3,
          (* a bit flip in the headers: IPv4 and ICMP checksums catch most *)
          let* pos = int_bound (14 + 60 + 28) in
          let* bit = int_bound 7 in
          return (fun b ->
              if pos < Bytes.length b then
                Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl bit));
              b) );
        ( 4,
          (* a bad header field, the IPv4 checksum re-signed after it *)
          let* v = int_bound 0xffff in
          let* field = oneofl [ `Version; `Ihl; `Total_len; `Udp_len; `Tcp_off; `Arp ] in
          let* arp_byte = int_bound 7 in
          return (fun b ->
              let n = Bytes.length b in
              (match field with
              | `Version -> set8 b 14 ((v land 0xf) lsl 4 lor (ihl_bytes b / 4))
              | `Ihl -> if n > 14 then set8 b 14 (0x40 lor (v land 0xf))
              | `Total_len ->
                  let options = [ v; n - 14; n - 13; n - 15; ihl_bytes b - 1; ihl_bytes b ] in
                  set16 b 16 (List.nth options (v mod List.length options) land 0xffff)
              | `Udp_len ->
                  let l4 = l4_off b in
                  let options = [ v; v land 7; n - l4; n - l4 + 1 ] in
                  set16 b (l4 + 4) (List.nth options (v mod 4) land 0xffff)
              | `Tcp_off ->
                  let l4 = l4_off b in
                  if l4 + 12 < n then set8 b (l4 + 12) ((v land 0xf) lsl 4)
              | `Arp -> set8 b (14 + arp_byte) (v land 0xff));
              fix_ip_checksum b;
              b) );
      ]

  let frame =
    let* base =
      frequency [ (3, udp); (3, tcp); (2, icmp); (2, raw_ip); (2, fragment); (2, arp); (1, other) ]
    in
    let* edits = frequency [ (2, return []); (3, list_size (int_range 1 2) mutation) ] in
    return
      (Bytes.to_string (List.fold_left (fun b edit -> edit b) (Bytes.of_string base) edits))
end

let decode_then_fields ~in_port frame =
  Result.to_option (Result.map (Ofp_match_ref.fields_of_packet ~in_port) (Packet.decode frame))

let pp_fields = function
  | None -> "None"
  | Some f ->
      Printf.sprintf "Some {type 0x%04x tos %d proto %d %s -> %s tp %d -> %d}"
        f.Ofp_match.f_dl_type f.Ofp_match.f_nw_tos f.Ofp_match.f_nw_proto
        (Ip.to_string f.Ofp_match.f_nw_src) (Ip.to_string f.Ofp_match.f_nw_dst)
        f.Ofp_match.f_tp_src f.Ofp_match.f_tp_dst

let prop_fields_of_frame_differential =
  QCheck.Test.make ~name:"fields_of_frame = fields_of_packet after Packet.decode (20k)"
    ~count:20_000
    (QCheck.make Frame_gen.frame ~print:(fun frame ->
         Printf.sprintf "%d bytes, decode says %s\n%s" (String.length frame)
           (pp_fields (decode_then_fields ~in_port:7 frame))
           (Hw_util.Wire.hex_dump (String.sub frame 0 (min 96 (String.length frame))))))
    (fun frame -> Ofp_match.fields_of_frame ~in_port:7 frame = decode_then_fields ~in_port:7 frame)

(* The in-place reader against the decoder, field by field: it accepts
   exactly the frames [Packet.decode] accepts and reads what the decoded
   packet holds. *)
let frame_reads_as_decoded frame =
  match Packet.decode frame with
  | Error _ -> Frame.check frame = -1
  | Ok pkt -> (
      let eth = pkt.Packet.eth in
      Frame.ethertype frame = eth.Ethernet.ethertype
      && Mac.equal (Frame.src_mac frame) eth.Ethernet.src
      && Mac.equal (Frame.dst_mac frame) eth.Ethernet.dst
      &&
      match pkt.Packet.l3 with
      | Packet.Raw_l3 _ -> Frame.check frame = 0
      | Packet.Arp a ->
          Frame.check frame = 0
          && Frame.arp_op frame = (match a.Arp.op with Arp.Request -> 1 | Arp.Reply -> 2)
          && Ip.equal (Frame.arp_sender_ip frame) a.Arp.sender_ip
          && Ip.equal (Frame.arp_target_ip frame) a.Arp.target_ip
      | Packet.Ipv4 (ip, l4) -> (
          Frame.ip_proto frame = ip.Ipv4.protocol
          && Frame.ip_tos frame = ip.Ipv4.dscp lsl 2
          && Ip.equal (Frame.ip_src frame) ip.Ipv4.src
          && Ip.equal (Frame.ip_dst frame) ip.Ipv4.dst
          &&
          match l4 with
          | Packet.Udp u ->
              Frame.check frame = Ipv4.proto_udp
              && Frame.src_port frame = u.Udp.src_port
              && Frame.dst_port frame = u.Udp.dst_port
              && Frame.payload_length frame = String.length u.Udp.payload
          | Packet.Tcp seg ->
              Frame.check frame = Ipv4.proto_tcp
              && Frame.src_port frame = seg.Tcp.src_port
              && Frame.dst_port frame = seg.Tcp.dst_port
              && Int32.equal (Frame.tcp_seq frame) seg.Tcp.seq
              && Frame.tcp_flags frame = seg.Tcp.flags
              && Frame.payload_length frame = String.length seg.Tcp.payload
          | Packet.Icmp i ->
              Frame.check frame = Ipv4.proto_icmp
              && Frame.icmp_type frame = i.Icmp.typ
              && Frame.icmp_code frame = i.Icmp.code
          | Packet.Raw_l4 _ -> Frame.check frame = 0))

let prop_frame_reader_differential =
  QCheck.Test.make ~name:"Frame reader = Packet.decode (20k)" ~count:20_000
    (QCheck.make Frame_gen.frame ~print:(fun frame ->
         Printf.sprintf "%d bytes\n%s" (String.length frame)
           (Hw_util.Wire.hex_dump (String.sub frame 0 (min 96 (String.length frame))))))
    frame_reads_as_decoded

(* The differential only means something if both outcomes are common. *)
let test_frame_gen_covers_both_outcomes () =
  let frames =
    QCheck.Gen.generate ~rand:(Random.State.make [| 14 |]) ~n:4000 Frame_gen.frame
  in
  let accepted = List.length (List.filter (fun f -> decode_then_fields ~in_port:1 f <> None) frames) in
  let fragments =
    List.length
      (List.filter
         (fun f ->
           match Packet.decode f with
           | Ok { Packet.l3 = Packet.Ipv4 (ip, Packet.Raw_l4 _); _ } ->
               ip.Ipv4.more_fragments || ip.Ipv4.fragment_offset <> 0
           | _ -> false)
         frames)
  in
  Alcotest.(check bool)
    (Printf.sprintf "accepted %d of 4000 (want 25-75%%)" accepted)
    true
    (accepted > 1000 && accepted < 3000);
  Alcotest.(check bool) (Printf.sprintf "%d decodable fragments" fragments) true (fragments > 100)

let test_fields_of_frame_cases () =
  let udp =
    Packet.encode
      (Packet.udp_packet ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:5353
         ~dst_port:53 (String.make 1000 'x'))
  in
  let f = Option.get (Ofp_match.fields_of_frame ~in_port:2 udp) in
  Alcotest.(check int) "tp_src" 5353 f.Ofp_match.f_tp_src;
  Alcotest.(check int) "tp_dst" 53 f.Ofp_match.f_tp_dst;
  Alcotest.(check bool) "macs" true
    (Mac.equal mac_a f.Ofp_match.f_dl_src && Mac.equal mac_b f.Ofp_match.f_dl_dst);
  Alcotest.(check bool) "padding ignored" true
    (Ofp_match.fields_of_frame ~in_port:2 (udp ^ String.make 20 '\000') = Some f);
  let bad_csum = Bytes.of_string udp in
  Bytes.set_uint8 bad_csum 25 (Bytes.get_uint8 bad_csum 25 lxor 1);
  Alcotest.(check bool) "bad header checksum rejected" true
    (Ofp_match.fields_of_frame ~in_port:2 (Bytes.to_string bad_csum) = None);
  Alcotest.(check bool) "runt rejected" true (Ofp_match.fields_of_frame ~in_port:2 "short" = None)

let () =
  Alcotest.run "hw_openflow"
    [
      ( "match",
        [
          Alcotest.test_case "wildcard matches all" `Quick test_wildcard_matches_everything;
          Alcotest.test_case "exact match" `Quick test_exact_match;
          Alcotest.test_case "prefix match" `Quick test_prefix_match;
          Alcotest.test_case "subsumes" `Quick test_subsumes;
          Alcotest.test_case "wire roundtrip" `Quick test_match_wire_roundtrip;
          Alcotest.test_case "arp fields" `Quick test_fields_of_arp;
          QCheck_alcotest.to_alcotest prop_match_roundtrip;
          QCheck_alcotest.to_alcotest prop_in_place_equals_decoder;
          QCheck_alcotest.to_alcotest prop_malformed_rejected;
          QCheck_alcotest.to_alcotest prop_identity_stats_equals_removed;
          QCheck_alcotest.to_alcotest prop_exact_always_matches_its_fields;
          QCheck_alcotest.to_alcotest prop_subsumes_implies_matches;
        ] );
      ( "verify",
        [
          Alcotest.test_case "exact-hit matches allocates nothing" `Quick
            test_matches_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_matches_prefix_reference;
        ] );
      ( "fields",
        [
          Alcotest.test_case "udp, padding, bad checksum, runt" `Quick test_fields_of_frame_cases;
          Alcotest.test_case "generator covers both outcomes" `Quick
            test_frame_gen_covers_both_outcomes;
          QCheck_alcotest.to_alcotest prop_fields_of_frame_differential;
          QCheck_alcotest.to_alcotest prop_frame_reader_differential;
        ] );
      ( "actions",
        [
          Alcotest.test_case "roundtrips" `Quick test_action_roundtrips;
          Alcotest.test_case "sizes" `Quick test_action_sizes;
          Alcotest.test_case "port names" `Quick test_port_names;
        ] );
      ( "messages",
        [
          Alcotest.test_case "simple messages" `Quick test_simple_messages;
          Alcotest.test_case "features reply" `Quick test_features_reply;
          Alcotest.test_case "packet in" `Quick test_packet_in_roundtrip;
          Alcotest.test_case "flow mod" `Quick test_flow_mod_roundtrip;
          Alcotest.test_case "flow mod action length" `Quick test_flow_mod_action_length;
          Alcotest.test_case "packet out" `Quick test_packet_out_roundtrip;
          Alcotest.test_case "flow removed" `Quick test_flow_removed_roundtrip;
          Alcotest.test_case "stats" `Quick test_stats_roundtrips;
          Alcotest.test_case "port mod" `Quick test_port_mod_roundtrip;
          Alcotest.test_case "error" `Quick test_error_roundtrip;
          Alcotest.test_case "bad version" `Quick test_bad_version_rejected;
        ] );
      ( "framing",
        [
          Alcotest.test_case "byte-by-byte reassembly" `Quick test_framing_reassembly;
          Alcotest.test_case "partial message" `Quick test_framing_partial;
          Alcotest.test_case "bad stream dies" `Quick test_framing_kills_bad_stream;
          Alcotest.test_case "stats reply parts" `Quick test_stats_reply_parts;
        ] );
    ]
