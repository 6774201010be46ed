open Hw_openflow

type t = {
  entry_match : Ofp_match.t;
  entry_mask : Ofp_match.mask;
  entry_hash : int;
  priority : int;
  cookie : int64;
  idle_timeout : int;
  hard_timeout : int;
  send_flow_rem : bool;
  mutable actions : Ofp_action.t list;
  install_time : float;
  mutable last_used : float;
  mutable packet_count : int64;
  mutable byte_count : int64;
}

let create ?(cookie = 0L) ?(idle_timeout = 0) ?(hard_timeout = 0) ?(send_flow_rem = false) ~now
    ~priority entry_match actions =
  {
    entry_match;
    entry_mask = Ofp_match.mask_of entry_match;
    entry_hash = Ofp_match.hash_match entry_match;
    priority;
    cookie;
    idle_timeout;
    hard_timeout;
    send_flow_rem;
    actions;
    install_time = now;
    last_used = now;
    packet_count = 0L;
    byte_count = 0L;
  }

let touch t ~now ~bytes =
  t.last_used <- now;
  t.packet_count <- Int64.add t.packet_count 1L;
  t.byte_count <- Int64.add t.byte_count (Int64.of_int bytes)

let is_expired t ~now =
  if t.hard_timeout > 0 && now -. t.install_time >= float_of_int t.hard_timeout then
    Some Ofp_message.Removed_hard_timeout
  else if t.idle_timeout > 0 && now -. t.last_used >= float_of_int t.idle_timeout then
    Some Ofp_message.Removed_idle_timeout
  else None

let duration_sec t ~now = Float.to_int (Float.max 0. (now -. t.install_time))

let duration_nsec t ~now =
  let d = Float.max 0. (now -. t.install_time) in
  Float.to_int ((d -. Float.of_int (Float.to_int d)) *. 1e9)

let duration t ~now = (Int32.of_int (duration_sec t ~now), Int32.of_int (duration_nsec t ~now))

(* Two matches overlap when some packet could match both: every field's
   constraints must be mutually satisfiable (either side wildcarded, or
   equal values; prefixes intersect when the shorter contains the longer's
   network). *)
let field_compatible eq a b =
  match a, b with None, _ | _, None -> true | Some x, Some y -> eq x y

let prefix_compatible a b =
  match a, b with
  | None, _ | _, None -> true
  | Some (na, ba), Some (nb, bb) ->
      let bits = min ba bb in
      bits = 0
      || Hw_packet.Ip.Prefix.mem nb (Hw_packet.Ip.Prefix.make na bits)

let match_intersects (a : Ofp_match.t) (b : Ofp_match.t) =
  field_compatible ( = ) a.Ofp_match.in_port b.Ofp_match.in_port
  && field_compatible Hw_packet.Mac.equal a.Ofp_match.dl_src b.Ofp_match.dl_src
  && field_compatible Hw_packet.Mac.equal a.Ofp_match.dl_dst b.Ofp_match.dl_dst
  && field_compatible ( = ) a.Ofp_match.dl_vlan b.Ofp_match.dl_vlan
  && field_compatible ( = ) a.Ofp_match.dl_vlan_pcp b.Ofp_match.dl_vlan_pcp
  && field_compatible ( = ) a.Ofp_match.dl_type b.Ofp_match.dl_type
  && field_compatible ( = ) a.Ofp_match.nw_tos b.Ofp_match.nw_tos
  && field_compatible ( = ) a.Ofp_match.nw_proto b.Ofp_match.nw_proto
  && prefix_compatible a.Ofp_match.nw_src b.Ofp_match.nw_src
  && prefix_compatible a.Ofp_match.nw_dst b.Ofp_match.nw_dst
  && field_compatible ( = ) a.Ofp_match.tp_src b.Ofp_match.tp_src
  && field_compatible ( = ) a.Ofp_match.tp_dst b.Ofp_match.tp_dst

let overlaps a b = a.priority = b.priority && match_intersects a.entry_match b.entry_match

let pp fmt t =
  Format.fprintf fmt "flow{prio=%d %a pkts=%Ld actions=[%s]}" t.priority Ofp_match.pp
    t.entry_match t.packet_count
    (String.concat ";" (List.map (Format.asprintf "%a" Ofp_action.pp) t.actions))
