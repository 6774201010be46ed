open Hw_packet
open Hw_util

let version = 0x01
let no_buffer = 0xffffffffl

type phy_port = {
  port_no : int;
  hw_addr : Mac.t;
  name : string;
  config : int32;
  state : int32;
  curr : int32;
  advertised : int32;
  supported : int32;
  peer : int32;
}

let phy_port ~port_no ~hw_addr ~name =
  { port_no; hw_addr; name; config = 0l; state = 0l; curr = 0l; advertised = 0l; supported = 0l; peer = 0l }

type switch_features = {
  datapath_id : int64;
  n_buffers : int32;
  n_tables : int;
  capabilities : int32;
  supported_actions : int32;
  ports : phy_port list;
}

type packet_in_reason = No_match | Action

type packet_in = {
  buffer_id : int32 option;
  total_len : int;
  in_port : int;
  reason : packet_in_reason;
  data : string;
}

type flow_mod_command = Add | Modify | Modify_strict | Delete | Delete_strict

type flow_mod = {
  fm_match : Ofp_match.t;
  cookie : int64;
  command : flow_mod_command;
  idle_timeout : int;
  hard_timeout : int;
  priority : int;
  fm_buffer_id : int32 option;
  out_port : int;
  send_flow_rem : bool;
  check_overlap : bool;
  actions : Ofp_action.t list;
}

let add_flow ?(cookie = 0L) ?(idle_timeout = 0) ?(hard_timeout = 0) ?(priority = 0x8000)
    ?buffer_id ?(send_flow_rem = false) m actions =
  {
    fm_match = m;
    cookie;
    command = Add;
    idle_timeout;
    hard_timeout;
    priority;
    fm_buffer_id = buffer_id;
    out_port = Ofp_action.Port.none;
    send_flow_rem;
    check_overlap = false;
    actions;
  }

let delete_flow ?(out_port = Ofp_action.Port.none) m =
  {
    fm_match = m;
    cookie = 0L;
    command = Delete;
    idle_timeout = 0;
    hard_timeout = 0;
    priority = 0;
    fm_buffer_id = None;
    out_port;
    send_flow_rem = false;
    check_overlap = false;
    actions = [];
  }

type flow_removed_reason = Removed_idle_timeout | Removed_hard_timeout | Removed_delete

type flow_removed = {
  fr_match : Ofp_match.t;
  fr_cookie : int64;
  fr_priority : int;
  fr_reason : flow_removed_reason;
  duration_sec : int32;
  duration_nsec : int32;
  fr_idle_timeout : int;
  packet_count : int64;
  byte_count : int64;
}

type port_status_reason = Port_add | Port_delete | Port_modify

type packet_out = {
  po_buffer_id : int32 option;
  po_in_port : int;
  po_actions : Ofp_action.t list;
  po_data : string;
}

let packet_out ?(in_port = Ofp_action.Port.none) ~data actions =
  { po_buffer_id = None; po_in_port = in_port; po_actions = actions; po_data = data }

type port_mod = {
  pm_port_no : int;
  pm_hw_addr : Mac.t;
  pm_config : int32;
  pm_mask : int32;
  pm_advertise : int32;
}

let port_down_bit = 1l

type desc_stats = {
  mfr_desc : string;
  hw_desc : string;
  sw_desc : string;
  serial_num : string;
  dp_desc : string;
}

type flow_stats = {
  fs_table_id : int;
  fs_match : Ofp_match.t;
  fs_duration_sec : int32;
  fs_duration_nsec : int32;
  fs_priority : int;
  fs_idle_timeout : int;
  fs_hard_timeout : int;
  fs_cookie : int64;
  fs_packet_count : int64;
  fs_byte_count : int64;
  fs_actions : Ofp_action.t list;
}

type port_stats = {
  ps_port_no : int;
  rx_packets : int64;
  tx_packets : int64;
  rx_bytes : int64;
  tx_bytes : int64;
  rx_dropped : int64;
  tx_dropped : int64;
  rx_errors : int64;
  tx_errors : int64;
}

type table_stats = {
  ts_table_id : int;
  ts_name : string;
  ts_wildcards : int32;
  ts_max_entries : int32;
  ts_active_count : int32;
  ts_lookup_count : int64;
  ts_matched_count : int64;
}

type aggregate_stats = { ag_packet_count : int64; ag_byte_count : int64; ag_flow_count : int32 }

type stats_request =
  | Desc_request
  | Flow_stats_request of { sr_match : Ofp_match.t; table_id : int; sr_out_port : int }
  | Aggregate_request of { sr_match : Ofp_match.t; table_id : int; sr_out_port : int }
  | Table_stats_request
  | Port_stats_request of int

type stats_reply =
  | Desc_reply of desc_stats
  | Flow_stats_reply of flow_stats list
  | Aggregate_reply of aggregate_stats
  | Table_stats_reply of table_stats list
  | Port_stats_reply of port_stats list

type error_type =
  | Hello_failed
  | Bad_request
  | Bad_action
  | Flow_mod_failed
  | Port_mod_failed
  | Queue_op_failed

type error = { err_type : error_type; err_code : int; err_data : string }

type t =
  | Hello
  | Error_msg of error
  | Echo_request of string
  | Echo_reply of string
  | Features_request
  | Features_reply of switch_features
  | Get_config_request
  | Get_config_reply of { flags : int; miss_send_len : int }
  | Set_config of { flags : int; miss_send_len : int }
  | Packet_in of packet_in
  | Flow_removed of flow_removed
  | Port_status of port_status_reason * phy_port
  | Packet_out of packet_out
  | Flow_mod of flow_mod
  | Port_mod of port_mod
  | Stats_request of stats_request
  | Stats_reply of { more : bool; reply : stats_reply }
  | Barrier_request
  | Barrier_reply

let type_code = function
  | Hello -> 0
  | Error_msg _ -> 1
  | Echo_request _ -> 2
  | Echo_reply _ -> 3
  | Features_request -> 5
  | Features_reply _ -> 6
  | Get_config_request -> 7
  | Get_config_reply _ -> 8
  | Set_config _ -> 9
  | Packet_in _ -> 10
  | Flow_removed _ -> 11
  | Port_status _ -> 12
  | Packet_out _ -> 13
  | Flow_mod _ -> 14
  | Port_mod _ -> 15
  | Stats_request _ -> 16
  | Stats_reply _ -> 17
  | Barrier_request -> 18
  | Barrier_reply -> 19

let type_name = function
  | Hello -> "HELLO"
  | Error_msg _ -> "ERROR"
  | Echo_request _ -> "ECHO_REQUEST"
  | Echo_reply _ -> "ECHO_REPLY"
  | Features_request -> "FEATURES_REQUEST"
  | Features_reply _ -> "FEATURES_REPLY"
  | Get_config_request -> "GET_CONFIG_REQUEST"
  | Get_config_reply _ -> "GET_CONFIG_REPLY"
  | Set_config _ -> "SET_CONFIG"
  | Packet_in _ -> "PACKET_IN"
  | Flow_removed _ -> "FLOW_REMOVED"
  | Port_status _ -> "PORT_STATUS"
  | Packet_out _ -> "PACKET_OUT"
  | Flow_mod _ -> "FLOW_MOD"
  | Port_mod _ -> "PORT_MOD"
  | Stats_request _ -> "STATS_REQUEST"
  | Stats_reply _ -> "STATS_REPLY"
  | Barrier_request -> "BARRIER_REQUEST"
  | Barrier_reply -> "BARRIER_REPLY"

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let error_type_code = function
  | Hello_failed -> 0
  | Bad_request -> 1
  | Bad_action -> 2
  | Flow_mod_failed -> 3
  | Port_mod_failed -> 4
  | Queue_op_failed -> 5

let error_type_of_code = function
  | 0 -> Some Hello_failed
  | 1 -> Some Bad_request
  | 2 -> Some Bad_action
  | 3 -> Some Flow_mod_failed
  | 4 -> Some Port_mod_failed
  | 5 -> Some Queue_op_failed
  | _ -> None

let max_length = 65535

(* OFPSF_REPLY_MORE: more stats-reply messages with this xid follow *)
let reply_more = 1

(* ------------------------------------------------------------------ *)
(* Flow-stats entries: the one owner of their layout                   *)
(* ------------------------------------------------------------------ *)

(* ofp_flow_stats, by offset: length (0, 2 bytes), table_id (2), pad,
   match (4, 40), duration_sec (44, 4), duration_nsec (48, 4), priority
   (52, 2), idle_timeout (54, 2), hard_timeout (56, 2), pad (58, 6),
   cookie (64, 8), packet_count (72, 8), byte_count (80, 8), then the
   actions from 88 to the entry's length *)
let fs_fixed = 88
let fs_match_at = 4
let fs_priority_at = 52
let fs_cookie_at = 64
let fs_packets_at = 72
let fs_bytes_at = 80

let flow_stats_entry_size actions = fs_fixed + Ofp_action.list_size actions

let write_flow_stats_entry w ~table_id ~duration_sec ~duration_nsec ~priority ~idle_timeout
    ~hard_timeout ~cookie ~packet_count ~byte_count m actions =
  Wire.Writer.u16 w (flow_stats_entry_size actions);
  Wire.Writer.u8 w table_id;
  Wire.Writer.u8 w 0;
  Ofp_match.encode w m;
  Wire.Writer.u32_int w duration_sec;
  Wire.Writer.u32_int w duration_nsec;
  Wire.Writer.u16 w priority;
  Wire.Writer.u16 w idle_timeout;
  Wire.Writer.u16 w hard_timeout;
  Wire.Writer.zeros w 6;
  Wire.Writer.u64 w cookie;
  Wire.Writer.u64 w packet_count;
  Wire.Writer.u64 w byte_count;
  Ofp_action.encode_list w actions

let flow_stats_size fs = flow_stats_entry_size fs.fs_actions

let encode_phy_port w p =
  Wire.Writer.u16 w p.port_no;
  Wire.Writer.string w (Mac.to_bytes p.hw_addr);
  Wire.Writer.fixed_string w ~len:16 p.name;
  Wire.Writer.u32 w p.config;
  Wire.Writer.u32 w p.state;
  Wire.Writer.u32 w p.curr;
  Wire.Writer.u32 w p.advertised;
  Wire.Writer.u32 w p.supported;
  Wire.Writer.u32 w p.peer

let decode_phy_port r =
  let port_no = Wire.Reader.u16 r ~field:"port.no" in
  let hw_addr = Mac.of_bytes (Wire.Reader.bytes r ~field:"port.hw_addr" 6) in
  let raw_name = Wire.Reader.bytes r ~field:"port.name" 16 in
  let name =
    match String.index_opt raw_name '\000' with
    | Some i -> String.sub raw_name 0 i
    | None -> raw_name
  in
  let config = Wire.Reader.u32 r ~field:"port.config" in
  let state = Wire.Reader.u32 r ~field:"port.state" in
  let curr = Wire.Reader.u32 r ~field:"port.curr" in
  let advertised = Wire.Reader.u32 r ~field:"port.advertised" in
  let supported = Wire.Reader.u32 r ~field:"port.supported" in
  let peer = Wire.Reader.u32 r ~field:"port.peer" in
  { port_no; hw_addr; name; config; state; curr; advertised; supported; peer }

let encode_body w = function
  | Hello | Features_request | Get_config_request | Barrier_request | Barrier_reply -> ()
  | Error_msg e ->
      Wire.Writer.u16 w (error_type_code e.err_type);
      Wire.Writer.u16 w e.err_code;
      Wire.Writer.string w e.err_data
  | Echo_request data | Echo_reply data -> Wire.Writer.string w data
  | Features_reply f ->
      Wire.Writer.u64 w f.datapath_id;
      Wire.Writer.u32 w f.n_buffers;
      Wire.Writer.u8 w f.n_tables;
      Wire.Writer.zeros w 3;
      Wire.Writer.u32 w f.capabilities;
      Wire.Writer.u32 w f.supported_actions;
      List.iter (encode_phy_port w) f.ports
  | Get_config_reply { flags; miss_send_len } | Set_config { flags; miss_send_len } ->
      Wire.Writer.u16 w flags;
      Wire.Writer.u16 w miss_send_len
  | Packet_in p ->
      Wire.Writer.u32 w (Option.value p.buffer_id ~default:no_buffer);
      Wire.Writer.u16 w p.total_len;
      Wire.Writer.u16 w p.in_port;
      Wire.Writer.u8 w (match p.reason with No_match -> 0 | Action -> 1);
      Wire.Writer.u8 w 0;
      Wire.Writer.string w p.data
  | Flow_removed f ->
      Ofp_match.encode w f.fr_match;
      Wire.Writer.u64 w f.fr_cookie;
      Wire.Writer.u16 w f.fr_priority;
      Wire.Writer.u8 w
        (match f.fr_reason with
        | Removed_idle_timeout -> 0
        | Removed_hard_timeout -> 1
        | Removed_delete -> 2);
      Wire.Writer.u8 w 0;
      Wire.Writer.u32 w f.duration_sec;
      Wire.Writer.u32 w f.duration_nsec;
      Wire.Writer.u16 w f.fr_idle_timeout;
      Wire.Writer.zeros w 2;
      Wire.Writer.u64 w f.packet_count;
      Wire.Writer.u64 w f.byte_count
  | Port_status (reason, port) ->
      Wire.Writer.u8 w (match reason with Port_add -> 0 | Port_delete -> 1 | Port_modify -> 2);
      Wire.Writer.zeros w 7;
      encode_phy_port w port
  | Packet_out p ->
      Wire.Writer.u32 w (Option.value p.po_buffer_id ~default:no_buffer);
      Wire.Writer.u16 w p.po_in_port;
      Wire.Writer.u16 w (Ofp_action.list_size p.po_actions);
      Ofp_action.encode_list w p.po_actions;
      if p.po_buffer_id = None then Wire.Writer.string w p.po_data
  | Flow_mod f ->
      Ofp_match.encode w f.fm_match;
      Wire.Writer.u64 w f.cookie;
      Wire.Writer.u16 w
        (match f.command with
        | Add -> 0
        | Modify -> 1
        | Modify_strict -> 2
        | Delete -> 3
        | Delete_strict -> 4);
      Wire.Writer.u16 w f.idle_timeout;
      Wire.Writer.u16 w f.hard_timeout;
      Wire.Writer.u16 w f.priority;
      Wire.Writer.u32 w (Option.value f.fm_buffer_id ~default:no_buffer);
      Wire.Writer.u16 w f.out_port;
      Wire.Writer.u16 w
        ((if f.send_flow_rem then 1 else 0) lor if f.check_overlap then 2 else 0);
      Ofp_action.encode_list w f.actions
  | Port_mod pm ->
      Wire.Writer.u16 w pm.pm_port_no;
      Wire.Writer.string w (Mac.to_bytes pm.pm_hw_addr);
      Wire.Writer.u32 w pm.pm_config;
      Wire.Writer.u32 w pm.pm_mask;
      Wire.Writer.u32 w pm.pm_advertise;
      Wire.Writer.zeros w 4
  | Stats_request req -> (
      Wire.Writer.u16 w
        (match req with
        | Desc_request -> 0
        | Flow_stats_request _ -> 1
        | Aggregate_request _ -> 2
        | Table_stats_request -> 3
        | Port_stats_request _ -> 4);
      Wire.Writer.u16 w 0 (* flags *);
      match req with
      | Desc_request | Table_stats_request -> ()
      | Flow_stats_request { sr_match; table_id; sr_out_port }
      | Aggregate_request { sr_match; table_id; sr_out_port } ->
          Ofp_match.encode w sr_match;
          Wire.Writer.u8 w table_id;
          Wire.Writer.u8 w 0;
          Wire.Writer.u16 w sr_out_port
      | Port_stats_request port_no ->
          Wire.Writer.u16 w port_no;
          Wire.Writer.zeros w 6)
  | Stats_reply { more; reply } -> (
      Wire.Writer.u16 w
        (match reply with
        | Desc_reply _ -> 0
        | Flow_stats_reply _ -> 1
        | Aggregate_reply _ -> 2
        | Table_stats_reply _ -> 3
        | Port_stats_reply _ -> 4);
      Wire.Writer.u16 w (if more then reply_more else 0);
      match reply with
      | Desc_reply d ->
          Wire.Writer.fixed_string w ~len:256 d.mfr_desc;
          Wire.Writer.fixed_string w ~len:256 d.hw_desc;
          Wire.Writer.fixed_string w ~len:256 d.sw_desc;
          Wire.Writer.fixed_string w ~len:32 d.serial_num;
          Wire.Writer.fixed_string w ~len:256 d.dp_desc
      | Flow_stats_reply entries ->
          List.iter
            (fun fs ->
              write_flow_stats_entry w ~table_id:fs.fs_table_id
                ~duration_sec:(Int32.to_int fs.fs_duration_sec)
                ~duration_nsec:(Int32.to_int fs.fs_duration_nsec) ~priority:fs.fs_priority
                ~idle_timeout:fs.fs_idle_timeout ~hard_timeout:fs.fs_hard_timeout
                ~cookie:fs.fs_cookie ~packet_count:fs.fs_packet_count
                ~byte_count:fs.fs_byte_count fs.fs_match fs.fs_actions)
            entries
      | Aggregate_reply a ->
          Wire.Writer.u64 w a.ag_packet_count;
          Wire.Writer.u64 w a.ag_byte_count;
          Wire.Writer.u32 w a.ag_flow_count;
          Wire.Writer.zeros w 4
      | Table_stats_reply entries ->
          List.iter
            (fun ts ->
              Wire.Writer.u8 w ts.ts_table_id;
              Wire.Writer.zeros w 3;
              Wire.Writer.fixed_string w ~len:32 ts.ts_name;
              Wire.Writer.u32 w ts.ts_wildcards;
              Wire.Writer.u32 w ts.ts_max_entries;
              Wire.Writer.u32 w ts.ts_active_count;
              Wire.Writer.u64 w ts.ts_lookup_count;
              Wire.Writer.u64 w ts.ts_matched_count)
            entries
      | Port_stats_reply entries ->
          List.iter
            (fun ps ->
              Wire.Writer.u16 w ps.ps_port_no;
              Wire.Writer.zeros w 6;
              Wire.Writer.u64 w ps.rx_packets;
              Wire.Writer.u64 w ps.tx_packets;
              Wire.Writer.u64 w ps.rx_bytes;
              Wire.Writer.u64 w ps.tx_bytes;
              Wire.Writer.u64 w ps.rx_dropped;
              Wire.Writer.u64 w ps.tx_dropped;
              Wire.Writer.u64 w ps.rx_errors;
              Wire.Writer.u64 w ps.tx_errors;
              (* rx_frame_err, rx_over_err, rx_crc_err, collisions *)
              Wire.Writer.zeros w 32)
            entries)

(* the variable-length bytes a message carries, so that a packet-in or
   packet-out is written without growing the buffer *)
let size_hint = function
  | Packet_in p -> String.length p.data
  | Packet_out p -> String.length p.po_data
  | Echo_request d | Echo_reply d -> String.length d
  | Error_msg e -> String.length e.err_data
  | _ -> 0

let start_message w ~type_code ~xid =
  Wire.Writer.u8 w version;
  Wire.Writer.u8 w type_code;
  Wire.Writer.u16 w 0 (* length, patched by [finish_message] *);
  Wire.Writer.u32 w xid

let finish_message w ~what =
  let length = Wire.Writer.length w in
  if length > max_length then
    invalid_arg
      (Printf.sprintf "Ofp_message.encode: a %d-byte %s exceeds the 16-bit length" length what);
  Wire.Writer.patch_u16 w ~pos:2 length;
  Wire.Writer.contents w

let encode ~xid t =
  let w = Wire.Writer.create ~initial_capacity:(64 + size_hint t) () in
  start_message w ~type_code:(type_code t) ~xid;
  encode_body w t;
  finish_message w ~what:(type_name t)

(* The one splitter of a long stats reply: consecutive runs of whole
   entries, in order, each run's message (8-byte header, 4-byte stats
   header, entries) within [max_length]; an entry too long for any
   message is a run of its own. Each run comes with its OFPSF_REPLY_MORE
   flag, set on all but the last. *)
let stats_reply_runs size entries =
  let room = max_length - 12 in
  (* a reply that fits one message, as most do, is returned as it is,
     without the run lists (6 words an entry of a flow-stats reply) *)
  let rec total acc = function [] -> acc | e :: rest -> total (acc + size e) rest in
  let rec go runs run run_size = function
    | [] -> List.rev (List.rev run :: runs)
    | e :: rest ->
        let n = size e in
        if run <> [] && run_size + n > room then go (List.rev run :: runs) [ e ] n rest
        else go runs (e :: run) (run_size + n) rest
  in
  if total 0 entries <= room then [ (false, entries) ]
  else
    let runs = go [] [] 0 entries in
    let last = List.length runs - 1 in
    List.mapi (fun i run -> (i < last, run)) runs

let stats_reply_parts reply =
  let parts size wrap entries =
    List.map
      (fun (more, run) -> Stats_reply { more; reply = wrap run })
      (stats_reply_runs size entries)
  in
  match reply with
  | Desc_reply _ | Aggregate_reply _ -> [ Stats_reply { more = false; reply } ]
  | Flow_stats_reply l -> parts flow_stats_size (fun l -> Flow_stats_reply l) l
  | Table_stats_reply l -> parts (fun _ -> 64) (fun l -> Table_stats_reply l) l
  | Port_stats_reply l -> parts (fun _ -> 104) (fun l -> Port_stats_reply l) l

let encode_flow_stats_reply ~xid ~actions ~write entries =
  let size e = flow_stats_entry_size (actions e) in
  List.map
    (fun (more, run) ->
      let bytes = List.fold_left (fun acc e -> acc + size e) 12 run in
      let w = Wire.Writer.create ~initial_capacity:bytes () in
      start_message w ~type_code:17 ~xid;
      Wire.Writer.u16 w 1 (* OFPST_FLOW *);
      Wire.Writer.u16 w (if more then reply_more else 0);
      List.iter (write w) run;
      finish_message w ~what:"STATS_REPLY")
    (stats_reply_runs size entries)

let join_stats_reply_parts = function
  | [] -> invalid_arg "Ofp_message.join_stats_reply_parts: no parts"
  | [ reply ] -> reply
  | first :: _ as parts -> (
      let entries f = List.concat_map f parts in
      match first with
      | Desc_reply _ | Aggregate_reply _ -> first
      | Flow_stats_reply _ ->
          Flow_stats_reply (entries (function Flow_stats_reply l -> l | _ -> []))
      | Table_stats_reply _ ->
          Table_stats_reply (entries (function Table_stats_reply l -> l | _ -> []))
      | Port_stats_reply _ ->
          Port_stats_reply (entries (function Port_stats_reply l -> l | _ -> [])))

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let buffer_id_opt v = if Int32.equal v no_buffer then None else Some v

let decode_stats_request r =
  let stats_type = Wire.Reader.u16 r ~field:"stats.type" in
  let _flags = Wire.Reader.u16 r ~field:"stats.flags" in
  match stats_type with
  | 0 -> Ok Desc_request
  | 1 | 2 ->
      let m = Ofp_match.decode r in
      let table_id = Wire.Reader.u8 r ~field:"stats.table_id" in
      Wire.Reader.skip r 1;
      let out_port = Wire.Reader.u16 r ~field:"stats.out_port" in
      if stats_type = 1 then
        Ok (Flow_stats_request { sr_match = m; table_id; sr_out_port = out_port })
      else Ok (Aggregate_request { sr_match = m; table_id; sr_out_port = out_port })
  | 3 -> Ok Table_stats_request
  | 4 ->
      let port_no = Wire.Reader.u16 r ~field:"stats.port_no" in
      Wire.Reader.skip r 6;
      Ok (Port_stats_request port_no)
  | n -> Error (Printf.sprintf "stats_request: unknown type %d" n)

(* The sequential reference decoder; the measurement poll reads the same
   bytes in place with [Flow_stats_part], which rejects exactly the parts
   this rejects. *)
let decode_flow_stats_entries r =
  let rec loop acc =
    if Wire.Reader.remaining r = 0 then Ok (List.rev acc)
    else begin
      let entry_start = Wire.Reader.pos r in
      let entry_len = Wire.Reader.u16 r ~field:"flow_stats.len" in
      let fs_table_id = Wire.Reader.u8 r ~field:"flow_stats.table" in
      Wire.Reader.skip r 1;
      let fs_match = Ofp_match.decode r in
      let fs_duration_sec = Wire.Reader.u32 r ~field:"flow_stats.dsec" in
      let fs_duration_nsec = Wire.Reader.u32 r ~field:"flow_stats.dnsec" in
      let fs_priority = Wire.Reader.u16 r ~field:"flow_stats.prio" in
      let fs_idle_timeout = Wire.Reader.u16 r ~field:"flow_stats.idle" in
      let fs_hard_timeout = Wire.Reader.u16 r ~field:"flow_stats.hard" in
      Wire.Reader.skip r 6;
      let fs_cookie = Wire.Reader.u64 r ~field:"flow_stats.cookie" in
      let fs_packet_count = Wire.Reader.u64 r ~field:"flow_stats.pkts" in
      let fs_byte_count = Wire.Reader.u64 r ~field:"flow_stats.bytes" in
      let actions_len = entry_len - (Wire.Reader.pos r - entry_start) in
      let* fs_actions = Ofp_action.decode_list r actions_len in
      (* an entry shorter than its 88 fixed bytes fails here too *)
      if Wire.Reader.pos r <> entry_start + entry_len then
        Error "flow_stats: an entry's length disagrees with its contents"
      else
      loop
        ({
           fs_table_id;
           fs_match;
           fs_duration_sec;
           fs_duration_nsec;
           fs_priority;
           fs_idle_timeout;
           fs_hard_timeout;
           fs_cookie;
           fs_packet_count;
           fs_byte_count;
           fs_actions;
         }
        :: acc)
    end
  in
  loop []

let strip_nul s =
  match String.index_opt s '\000' with Some i -> String.sub s 0 i | None -> s

let decode_stats_reply r stats_type =
  match stats_type with
  | 0 ->
      let mfr_desc = strip_nul (Wire.Reader.bytes r ~field:"desc.mfr" 256) in
      let hw_desc = strip_nul (Wire.Reader.bytes r ~field:"desc.hw" 256) in
      let sw_desc = strip_nul (Wire.Reader.bytes r ~field:"desc.sw" 256) in
      let serial_num = strip_nul (Wire.Reader.bytes r ~field:"desc.serial" 32) in
      let dp_desc = strip_nul (Wire.Reader.bytes r ~field:"desc.dp" 256) in
      Ok (Desc_reply { mfr_desc; hw_desc; sw_desc; serial_num; dp_desc })
  | 1 ->
      let* entries = decode_flow_stats_entries r in
      Ok (Flow_stats_reply entries)
  | 2 ->
      let ag_packet_count = Wire.Reader.u64 r ~field:"agg.pkts" in
      let ag_byte_count = Wire.Reader.u64 r ~field:"agg.bytes" in
      let ag_flow_count = Wire.Reader.u32 r ~field:"agg.flows" in
      Wire.Reader.skip r 4;
      Ok (Aggregate_reply { ag_packet_count; ag_byte_count; ag_flow_count })
  | 3 ->
      let rec loop acc =
        if Wire.Reader.remaining r < 64 then Ok (List.rev acc)
        else begin
          let ts_table_id = Wire.Reader.u8 r ~field:"table.id" in
          Wire.Reader.skip r 3;
          let ts_name = strip_nul (Wire.Reader.bytes r ~field:"table.name" 32) in
          let ts_wildcards = Wire.Reader.u32 r ~field:"table.wc" in
          let ts_max_entries = Wire.Reader.u32 r ~field:"table.max" in
          let ts_active_count = Wire.Reader.u32 r ~field:"table.active" in
          let ts_lookup_count = Wire.Reader.u64 r ~field:"table.lookups" in
          let ts_matched_count = Wire.Reader.u64 r ~field:"table.matched" in
          loop
            ({ ts_table_id; ts_name; ts_wildcards; ts_max_entries; ts_active_count;
               ts_lookup_count; ts_matched_count }
            :: acc)
        end
      in
      let* entries = loop [] in
      Ok (Table_stats_reply entries)
  | 4 ->
      let rec loop acc =
        if Wire.Reader.remaining r < 104 then Ok (List.rev acc)
        else begin
          let ps_port_no = Wire.Reader.u16 r ~field:"pstats.port" in
          Wire.Reader.skip r 6;
          let rx_packets = Wire.Reader.u64 r ~field:"pstats.rxp" in
          let tx_packets = Wire.Reader.u64 r ~field:"pstats.txp" in
          let rx_bytes = Wire.Reader.u64 r ~field:"pstats.rxb" in
          let tx_bytes = Wire.Reader.u64 r ~field:"pstats.txb" in
          let rx_dropped = Wire.Reader.u64 r ~field:"pstats.rxd" in
          let tx_dropped = Wire.Reader.u64 r ~field:"pstats.txd" in
          let rx_errors = Wire.Reader.u64 r ~field:"pstats.rxe" in
          let tx_errors = Wire.Reader.u64 r ~field:"pstats.txe" in
          Wire.Reader.skip r 32;
          loop
            ({ ps_port_no; rx_packets; tx_packets; rx_bytes; tx_bytes; rx_dropped;
               tx_dropped; rx_errors; tx_errors }
            :: acc)
        end
      in
      let* entries = loop [] in
      Ok (Port_stats_reply entries)
  | n -> Error (Printf.sprintf "stats_reply: unknown type %d" n)

let decode_body type_code r =
  match type_code with
  | 0 -> Ok Hello
  | 1 -> (
      let t = Wire.Reader.u16 r ~field:"error.type" in
      let err_code = Wire.Reader.u16 r ~field:"error.code" in
      let err_data = Wire.Reader.bytes r ~field:"error.data" (Wire.Reader.remaining r) in
      match error_type_of_code t with
      | Some err_type -> Ok (Error_msg { err_type; err_code; err_data })
      | None -> Error (Printf.sprintf "error: unknown type %d" t))
  | 2 -> Ok (Echo_request (Wire.Reader.bytes r ~field:"echo" (Wire.Reader.remaining r)))
  | 3 -> Ok (Echo_reply (Wire.Reader.bytes r ~field:"echo" (Wire.Reader.remaining r)))
  | 5 -> Ok Features_request
  | 6 ->
      let datapath_id = Wire.Reader.u64 r ~field:"features.dpid" in
      let n_buffers = Wire.Reader.u32 r ~field:"features.buffers" in
      let n_tables = Wire.Reader.u8 r ~field:"features.tables" in
      Wire.Reader.skip r 3;
      let capabilities = Wire.Reader.u32 r ~field:"features.caps" in
      let supported_actions = Wire.Reader.u32 r ~field:"features.actions" in
      let rec ports acc =
        if Wire.Reader.remaining r < 48 then List.rev acc
        else ports (decode_phy_port r :: acc)
      in
      Ok
        (Features_reply
           { datapath_id; n_buffers; n_tables; capabilities; supported_actions; ports = ports [] })
  | 7 -> Ok Get_config_request
  | 8 | 9 ->
      let flags = Wire.Reader.u16 r ~field:"config.flags" in
      let miss_send_len = Wire.Reader.u16 r ~field:"config.miss_len" in
      if type_code = 8 then Ok (Get_config_reply { flags; miss_send_len })
      else Ok (Set_config { flags; miss_send_len })
  | 10 ->
      let buffer_id = buffer_id_opt (Wire.Reader.u32 r ~field:"pktin.buffer") in
      let total_len = Wire.Reader.u16 r ~field:"pktin.total_len" in
      let in_port = Wire.Reader.u16 r ~field:"pktin.in_port" in
      let reason_code = Wire.Reader.u8 r ~field:"pktin.reason" in
      Wire.Reader.skip r 1;
      let data = Wire.Reader.bytes r ~field:"pktin.data" (Wire.Reader.remaining r) in
      let reason = if reason_code = 1 then Action else No_match in
      Ok (Packet_in { buffer_id; total_len; in_port; reason; data })
  | 11 ->
      let fr_match = Ofp_match.decode r in
      let fr_cookie = Wire.Reader.u64 r ~field:"flowrem.cookie" in
      let fr_priority = Wire.Reader.u16 r ~field:"flowrem.prio" in
      let reason_code = Wire.Reader.u8 r ~field:"flowrem.reason" in
      Wire.Reader.skip r 1;
      let duration_sec = Wire.Reader.u32 r ~field:"flowrem.dsec" in
      let duration_nsec = Wire.Reader.u32 r ~field:"flowrem.dnsec" in
      let fr_idle_timeout = Wire.Reader.u16 r ~field:"flowrem.idle" in
      Wire.Reader.skip r 2;
      let packet_count = Wire.Reader.u64 r ~field:"flowrem.pkts" in
      let byte_count = Wire.Reader.u64 r ~field:"flowrem.bytes" in
      let fr_reason =
        match reason_code with
        | 1 -> Removed_hard_timeout
        | 2 -> Removed_delete
        | _ -> Removed_idle_timeout
      in
      Ok
        (Flow_removed
           { fr_match; fr_cookie; fr_priority; fr_reason; duration_sec; duration_nsec;
             fr_idle_timeout; packet_count; byte_count })
  | 12 ->
      let reason_code = Wire.Reader.u8 r ~field:"portstatus.reason" in
      Wire.Reader.skip r 7;
      let port = decode_phy_port r in
      let reason =
        match reason_code with 1 -> Port_delete | 2 -> Port_modify | _ -> Port_add
      in
      Ok (Port_status (reason, port))
  | 13 ->
      let po_buffer_id = buffer_id_opt (Wire.Reader.u32 r ~field:"pktout.buffer") in
      let po_in_port = Wire.Reader.u16 r ~field:"pktout.in_port" in
      let actions_len = Wire.Reader.u16 r ~field:"pktout.actions_len" in
      let* po_actions = Ofp_action.decode_list r actions_len in
      let po_data = Wire.Reader.bytes r ~field:"pktout.data" (Wire.Reader.remaining r) in
      Ok (Packet_out { po_buffer_id; po_in_port; po_actions; po_data })
  | 14 ->
      let fm_match = Ofp_match.decode r in
      let cookie = Wire.Reader.u64 r ~field:"flowmod.cookie" in
      let command_code = Wire.Reader.u16 r ~field:"flowmod.command" in
      let idle_timeout = Wire.Reader.u16 r ~field:"flowmod.idle" in
      let hard_timeout = Wire.Reader.u16 r ~field:"flowmod.hard" in
      let priority = Wire.Reader.u16 r ~field:"flowmod.prio" in
      let fm_buffer_id = buffer_id_opt (Wire.Reader.u32 r ~field:"flowmod.buffer") in
      let out_port = Wire.Reader.u16 r ~field:"flowmod.out_port" in
      let flags = Wire.Reader.u16 r ~field:"flowmod.flags" in
      let* actions = Ofp_action.decode_list r (Wire.Reader.remaining r) in
      let* command =
        match command_code with
        | 0 -> Ok Add
        | 1 -> Ok Modify
        | 2 -> Ok Modify_strict
        | 3 -> Ok Delete
        | 4 -> Ok Delete_strict
        | n -> Error (Printf.sprintf "flow_mod: unknown command %d" n)
      in
      Ok
        (Flow_mod
           { fm_match; cookie; command; idle_timeout; hard_timeout; priority; fm_buffer_id;
             out_port; send_flow_rem = flags land 1 <> 0; check_overlap = flags land 2 <> 0;
             actions })
  | 15 ->
      let pm_port_no = Wire.Reader.u16 r ~field:"portmod.port" in
      let pm_hw_addr = Mac.of_bytes (Wire.Reader.bytes r ~field:"portmod.hw" 6) in
      let pm_config = Wire.Reader.u32 r ~field:"portmod.config" in
      let pm_mask = Wire.Reader.u32 r ~field:"portmod.mask" in
      let pm_advertise = Wire.Reader.u32 r ~field:"portmod.adv" in
      Wire.Reader.skip r 4;
      Ok (Port_mod { pm_port_no; pm_hw_addr; pm_config; pm_mask; pm_advertise })
  | 16 ->
      let* req = decode_stats_request r in
      Ok (Stats_request req)
  | 17 ->
      let stats_type = Wire.Reader.u16 r ~field:"stats.type" in
      let flags = Wire.Reader.u16 r ~field:"stats.flags" in
      let* reply = decode_stats_reply r stats_type in
      Ok (Stats_reply { more = flags land reply_more <> 0; reply })
  | 18 -> Ok Barrier_request
  | 19 -> Ok Barrier_reply
  | n -> Error (Printf.sprintf "openflow: unknown message type %d" n)

let decode buf =
  try
    let r = Wire.Reader.of_string buf in
    let ver = Wire.Reader.u8 r ~field:"ofp.version" in
    let type_code = Wire.Reader.u8 r ~field:"ofp.type" in
    let length = Wire.Reader.u16 r ~field:"ofp.length" in
    let xid = Wire.Reader.u32 r ~field:"ofp.xid" in
    if ver <> version then Error (Printf.sprintf "openflow: unsupported version %d" ver)
    else if length <> String.length buf then Error "openflow: length mismatch"
    else
      let* body = decode_body type_code r in
      Ok (xid, body)
  with Wire.Truncated f -> Error (Printf.sprintf "openflow: truncated at %s" f)

let flow_identity ~priority m =
  let w = Wire.Writer.create ~initial_capacity:(2 + Ofp_match.size) () in
  Wire.Writer.u16 w priority;
  Ofp_match.encode w m;
  Wire.Writer.contents w

module Stats_part = struct
  (* an OFPT_STATS_REPLY (17): the 8-byte header, then the 4-byte stats
     header (type, flags) *)
  let is_reply frame = String.length frame >= 12 && Char.code frame.[1] = 17
  let xid frame = String.get_int32_be frame 4
  let more part = String.get_uint16_be part 10 land reply_more <> 0
end

module Flow_stats_part = struct
  (* a [Stats_part] of type OFPST_FLOW (1), its entries after the stats
     header *)
  let entries_at = 12
  let is_reply frame = Stats_part.is_reply frame && String.get_uint16_be frame 8 = 1

  let rec valid_entries part n at =
    if at = n then Ok ()
    else if at + 2 > n then Error "flow_stats: truncated entry"
    else
      let len = String.get_uint16_be part at in
      if len < fs_fixed then Error "flow_stats: an entry shorter than 88 bytes"
      else if at + len > n then Error "flow_stats: an entry runs past the end"
      else if not (Ofp_action.valid_list part ~off:(at + fs_fixed) ~len:(len - fs_fixed)) then
        Error "flow_stats: bad actions"
      else valid_entries part n (at + len)

  let validate part =
    let n = String.length part in
    if n < entries_at || Char.code part.[0] <> version || not (is_reply part) then
      Error "flow_stats: not a flow-stats reply"
    else if String.get_uint16_be part 2 <> n then Error "openflow: length mismatch"
    else valid_entries part n entries_at

  let rec iter_from f part at =
    if at < String.length part then begin
      f at;
      iter_from f part (at + String.get_uint16_be part at)
    end

  let iter f part = iter_from f part entries_at

  let cookie part at = String.get_int64_be part (at + fs_cookie_at)
  let priority part at = String.get_uint16_be part (at + fs_priority_at)
  let packet_count part at = Int64.to_int (String.get_int64_be part (at + fs_packets_at))
  let byte_count part at = Int64.to_int (String.get_int64_be part (at + fs_bytes_at))

  let match_ part at =
    let r = Wire.Reader.of_string part in
    Wire.Reader.seek r (at + fs_match_at);
    Ofp_match.decode r

  let identity part at =
    let b = Bytes.create (2 + Ofp_match.size) in
    Bytes.blit_string part (at + fs_priority_at) b 0 2;
    Bytes.blit_string part (at + fs_match_at) b 2 Ofp_match.size;
    Bytes.unsafe_to_string b
end

let pp fmt t =
  match t with
  | Packet_in p ->
      Format.fprintf fmt "PACKET_IN{in_port=%d, reason=%s, %d bytes}" p.in_port
        (match p.reason with No_match -> "no_match" | Action -> "action")
        (String.length p.data)
  | Flow_mod f ->
      Format.fprintf fmt "FLOW_MOD{%s %a prio=%d idle=%d actions=[%s]}"
        (match f.command with
        | Add -> "add"
        | Modify -> "mod"
        | Modify_strict -> "mod_strict"
        | Delete -> "del"
        | Delete_strict -> "del_strict")
        Ofp_match.pp f.fm_match f.priority f.idle_timeout
        (String.concat ";" (List.map (Format.asprintf "%a" Ofp_action.pp) f.actions))
  | Packet_out p ->
      Format.fprintf fmt "PACKET_OUT{in_port=%d, %d actions, %d bytes}" p.po_in_port
        (List.length p.po_actions) (String.length p.po_data)
  | other -> Format.pp_print_string fmt (type_name other)

module Framing = struct
  type buffer = { mutable pending : string; mutable dead : bool }

  let create () = { pending = ""; dead = false }

  let input b s =
    if not b.dead then b.pending <- (if b.pending = "" then s else b.pending ^ s)

  let pop_frame b =
    if b.dead then None
    else if String.length b.pending < 4 then None
    else begin
      let ver = Char.code b.pending.[0] in
      let length = (Char.code b.pending.[2] lsl 8) lor Char.code b.pending.[3] in
      if ver <> version then begin
        b.dead <- true;
        b.pending <- "";
        Some (Error (Printf.sprintf "framing: bad version %d" ver))
      end
      else if length < 8 || length > max_length then begin
        b.dead <- true;
        b.pending <- "";
        Some (Error (Printf.sprintf "framing: bad length %d" length))
      end
      else if String.length b.pending < length then None
      else if length = String.length b.pending then begin
        (* the common case, one whole message per input: no copy *)
        let msg = b.pending in
        b.pending <- "";
        Some (Ok msg)
      end
      else begin
        let msg = String.sub b.pending 0 length in
        b.pending <- String.sub b.pending length (String.length b.pending - length);
        Some (Ok msg)
      end
    end
end
