(* Random flow tables and their OFPST_FLOW reply parts, valid and
   malformed, for the properties that hold the in-place reader
   ([Ofp_message.Flow_stats_part]) to the sequential decoder and the
   controller to its handling of undecodable messages. *)

open Hw_packet
open Hw_openflow
module Gen = QCheck.Gen

(* Wire matches: prefixes of 1..32 bits, so every field survives a
   wire round trip. *)
let match_gen =
  let open Gen in
  let opt g = oneof [ return None; map Option.some g ] in
  let mac = map (fun i -> Mac.of_int64 (Int64.of_int i)) big_nat in
  let ip = map (fun i -> Ip.of_int32 (Int32.of_int i)) big_nat in
  let prefix = pair ip (int_range 1 32) in
  let port = int_bound 0xffff in
  map
    (fun ((in_port, dl_src, dl_dst, dl_type), (nw_proto, nw_src, nw_dst, tp_src, tp_dst)) ->
      {
        Ofp_match.in_port;
        dl_src;
        dl_dst;
        dl_vlan = None;
        dl_vlan_pcp = None;
        dl_type;
        nw_tos = None;
        nw_proto;
        nw_src;
        nw_dst;
        tp_src;
        tp_dst;
      })
    (pair
       (quad (opt port) (opt mac) (opt mac) (opt (int_bound 0xffff)))
       (tup5 (opt (int_bound 255)) (opt prefix) (opt prefix) (opt port) (opt port)))

(* The match as a datapath holds it: decoded from a flow-mod. *)
let decoded m =
  let w = Hw_util.Wire.Writer.create () in
  Ofp_match.encode w m;
  Ofp_match.decode (Hw_util.Wire.Reader.of_string (Hw_util.Wire.Writer.contents w))

let action_gen =
  let open Gen in
  oneof
    [
      map (fun p -> Ofp_action.output p) (int_bound 0xffff);
      map (fun m -> Ofp_action.Set_dl_src (Mac.of_int64 (Int64.of_int m))) big_nat;
      map (fun i -> Ofp_action.Set_nw_dst (Ip.of_int32 (Int32.of_int i))) big_nat;
      map (fun p -> Ofp_action.Set_tp_src p) (int_bound 0xffff);
      return Ofp_action.Strip_vlan;
    ]

let counter = Gen.map Int64.of_int (Gen.int_bound (1 lsl 40))

let entry_gen ?(actions = Gen.list_size (Gen.int_bound 3) action_gen) () =
  let open Gen in
  map
    (fun ((m, priority, cookie), (packets, bytes, dsec, fs_actions)) ->
      {
        Ofp_message.fs_table_id = 0;
        fs_match = decoded m;
        fs_duration_sec = Int32.of_int dsec;
        fs_duration_nsec = 0l;
        fs_priority = priority;
        fs_idle_timeout = 10;
        fs_hard_timeout = 0;
        fs_cookie = cookie;
        fs_packet_count = packets;
        fs_byte_count = bytes;
        fs_actions;
      })
    (pair
       (triple match_gen (int_bound 0xffff) (map Int64.of_int int))
       (quad counter counter (int_bound 100_000) actions))

(* Table sizes on both sides of the split at 682 one-action entries. *)
let table_gen =
  let open Gen in
  let one_action = entry_gen ~actions:(map (fun p -> [ Ofp_action.output p ]) (int_bound 0xfff0)) () in
  oneof
    [
      list_size (int_bound 40) (entry_gen ());
      list_size (oneofl [ 681; 682; 683; 700 ]) one_action;
    ]

(* The parts a datapath sends for [entries], written from the records
   with the same entry writer it uses for its table. *)
let parts ?(xid = 7l) entries =
  Ofp_message.encode_flow_stats_reply ~xid
    ~actions:(fun fs -> fs.Ofp_message.fs_actions)
    ~write:(fun w fs ->
      Ofp_message.write_flow_stats_entry w ~table_id:fs.Ofp_message.fs_table_id
        ~duration_sec:(Int32.to_int fs.Ofp_message.fs_duration_sec)
        ~duration_nsec:(Int32.to_int fs.Ofp_message.fs_duration_nsec)
        ~priority:fs.Ofp_message.fs_priority ~idle_timeout:fs.Ofp_message.fs_idle_timeout
        ~hard_timeout:fs.Ofp_message.fs_hard_timeout ~cookie:fs.Ofp_message.fs_cookie
        ~packet_count:fs.Ofp_message.fs_packet_count ~byte_count:fs.Ofp_message.fs_byte_count
        fs.Ofp_message.fs_match fs.Ofp_message.fs_actions)
    entries

(* Entry offsets of a part, found by their length fields. *)
let offsets part =
  let rec go at acc =
    if at >= String.length part then List.rev acc
    else go (at + String.get_uint16_be part at) (at :: acc)
  in
  go 12 []

(* the bytes of a generated action of type [typ] *)
let action_bytes typ = if typ = 4 || typ = 5 || typ = 11 then 16 else 8

let set_u16 s at v =
  let b = Bytes.of_string s in
  Bytes.set_uint16_be b at v;
  Bytes.to_string b

(* One way to break a valid part. *)
type mutation =
  | Short_entry of int * int  (** entry index, new length < 88 *)
  | Past_the_end of int * int  (** entry index, bytes beyond the end *)
  | Unknown_action of int * int  (** entry index, action type >= 12 *)
  | Short_action of int * int  (** entry index, action length < 8 *)
  | Mislengthed_action of int * int
      (** entry index, an action length >= 8 other than its type's size *)
  | Overrunning_action of int  (** entry index: its last action ends past it *)
  | Header_length of int  (** a header length other than the part's *)
  | Trailing of int  (** bytes appended, header length kept consistent *)

let mutation_gen =
  let open Gen in
  let i = int_bound 1000 in
  oneof
    [
      map2 (fun e l -> Short_entry (e, l)) i (int_bound 87);
      map2 (fun e k -> Past_the_end (e, k)) i (int_range 1 200);
      map2 (fun e t -> Unknown_action (e, t)) i (int_range 12 0xffff);
      map2 (fun e l -> Short_action (e, l)) i (int_bound 7);
      map2 (fun e l -> Mislengthed_action (e, l)) i (int_range 8 0xffff);
      map (fun e -> Overrunning_action e) i;
      map (fun d -> Header_length d) (int_range 1 11);
      map (fun k -> Trailing k) (int_range 1 87);
    ]

(* [part] broken as [mu] says; every entry has at least one action. *)
let mutate part mu =
  let n = String.length part in
  let ats = Array.of_list (offsets part) in
  let entry i = ats.(i mod Array.length ats) in
  let len at = String.get_uint16_be part at in
  let last_action at =
    let rec go a =
      let next = a + action_bytes (String.get_uint16_be part a) in
      if next >= at + len at then a else go next
    in
    go (at + 88)
  in
  match mu with
  | Short_entry (e, l) -> set_u16 part (entry e) l
  | Past_the_end (e, k) ->
      let at = entry e in
      set_u16 part at (min 0xffff (n - at + k))
  | Unknown_action (e, t) -> set_u16 part (entry e + 88) t
  | Short_action (e, l) -> set_u16 part (entry e + 90) l
  | Mislengthed_action (e, l) ->
      let at = entry e + 88 in
      set_u16 part (at + 2) (if l = action_bytes (String.get_uint16_be part at) then l + 1 else l)
  | Overrunning_action e ->
      let at = entry e in
      let a = last_action at in
      if action_bytes (String.get_uint16_be part a) = 16 then
        (* the entry cut 8 bytes short of its last action *)
        set_u16 part at (len at - 8)
      else set_u16 part a 4 (* an 8-byte action retyped Set_dl_src, 16 bytes *)
  | Header_length d -> set_u16 part 2 ((n + d) land 0xffff)
  | Trailing k -> set_u16 (part ^ String.make k '\000') 2 (n + k)

let pp_mutation = function
  | Short_entry (e, l) -> Printf.sprintf "entry %d length %d" e l
  | Past_the_end (e, k) -> Printf.sprintf "entry %d %d bytes past the end" e k
  | Unknown_action (e, t) -> Printf.sprintf "entry %d action type %d" e t
  | Short_action (e, l) | Mislengthed_action (e, l) ->
      Printf.sprintf "entry %d action length %d" e l
  | Overrunning_action e -> Printf.sprintf "entry %d last action overruns" e
  | Header_length d -> Printf.sprintf "header length +%d" d
  | Trailing k -> Printf.sprintf "%d trailing bytes" k

(* A one-part reply of 1..20 entries, each with 1..3 actions, and a way
   to break it. *)
let malformed_gen =
  let open Gen in
  let entries =
    list_size (int_range 1 20) (entry_gen ~actions:(list_size (int_range 1 3) action_gen) ())
  in
  pair entries mutation_gen

let malformed_print (entries, mu) =
  Printf.sprintf "%d entries, %s" (List.length entries) (pp_mutation mu)
