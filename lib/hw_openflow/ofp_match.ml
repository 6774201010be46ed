open Hw_packet
open Hw_util

type t = {
  in_port : int option;
  dl_src : Mac.t option;
  dl_dst : Mac.t option;
  dl_vlan : int option;
  dl_vlan_pcp : int option;
  dl_type : int option;
  nw_tos : int option;
  nw_proto : int option;
  nw_src : (Ip.t * int) option;
  nw_dst : (Ip.t * int) option;
  tp_src : int option;
  tp_dst : int option;
}

let wildcard_all =
  {
    in_port = None;
    dl_src = None;
    dl_dst = None;
    dl_vlan = None;
    dl_vlan_pcp = None;
    dl_type = None;
    nw_tos = None;
    nw_proto = None;
    nw_src = None;
    nw_dst = None;
    tp_src = None;
    tp_dst = None;
  }

type fields = {
  f_in_port : int;
  f_dl_src : Mac.t;
  f_dl_dst : Mac.t;
  f_dl_vlan : int;
  f_dl_vlan_pcp : int;
  f_dl_type : int;
  f_nw_tos : int;
  f_nw_proto : int;
  f_nw_src : Ip.t;
  f_nw_dst : Ip.t;
  f_tp_src : int;
  f_tp_dst : int;
}

(* The 12-tuple read straight from the frame bytes by [Frame], which
   makes every test [Packet.decode] makes in place: a frame is accepted
   exactly when it decodes, and nothing but the result is allocated. *)
let frame_fields ~in_port frame ~dl_type ~nw_tos ~nw_proto ~nw_src ~nw_dst ~tp_src ~tp_dst =
  Some
    {
      f_in_port = in_port;
      f_dl_src = Frame.src_mac frame;
      f_dl_dst = Frame.dst_mac frame;
      f_dl_vlan = 0xffff;
      f_dl_vlan_pcp = 0;
      f_dl_type = dl_type;
      f_nw_tos = nw_tos;
      f_nw_proto = nw_proto;
      f_nw_src = nw_src;
      f_nw_dst = nw_dst;
      f_tp_src = tp_src;
      f_tp_dst = tp_dst;
    }

(* OF 1.0's transport fields: the UDP or TCP ports, or the ICMP type and
   code; 0 where the transport header is not parsed *)
let ipv4_fields ~in_port frame ~dl_type ~l4 =
  let ports = l4 = Ipv4.proto_udp || l4 = Ipv4.proto_tcp and icmp = l4 = Ipv4.proto_icmp in
  frame_fields ~in_port frame ~dl_type ~nw_tos:(Frame.ip_tos frame) ~nw_proto:(Frame.ip_proto frame)
    ~nw_src:(Frame.ip_src frame) ~nw_dst:(Frame.ip_dst frame)
    ~tp_src:(if ports then Frame.src_port frame else if icmp then Frame.icmp_type frame else 0)
    ~tp_dst:(if ports then Frame.dst_port frame else if icmp then Frame.icmp_code frame else 0)

let fields_of_frame ~in_port frame =
  let l4 = Frame.check frame in
  if l4 < 0 then None
  else
    let dl_type = Frame.ethertype frame in
    if dl_type = Ethernet.ethertype_arp then
      frame_fields ~in_port frame ~dl_type ~nw_tos:0 ~nw_proto:(Frame.arp_op frame)
        ~nw_src:(Frame.arp_sender_ip frame) ~nw_dst:(Frame.arp_target_ip frame) ~tp_src:0 ~tp_dst:0
    else if dl_type = Ethernet.ethertype_ipv4 then ipv4_fields ~in_port frame ~dl_type ~l4
    else
      frame_fields ~in_port frame ~dl_type ~nw_tos:0 ~nw_proto:0 ~nw_src:Ip.any ~nw_dst:Ip.any
        ~tp_src:0 ~tp_dst:0

let exact_of_fields f =
  {
    in_port = Some f.f_in_port;
    dl_src = Some f.f_dl_src;
    dl_dst = Some f.f_dl_dst;
    dl_vlan = Some f.f_dl_vlan;
    dl_vlan_pcp = Some f.f_dl_vlan_pcp;
    dl_type = Some f.f_dl_type;
    nw_tos = Some f.f_nw_tos;
    nw_proto = Some f.f_nw_proto;
    nw_src = Some (f.f_nw_src, 32);
    nw_dst = Some (f.f_nw_dst, 32);
    tp_src = Some f.f_tp_src;
    tp_dst = Some f.f_tp_dst;
  }

(* --------------------------------------------------------------- *)
(* Wildcard masks and zero-alloc field hashing (for the classifier) *)
(* --------------------------------------------------------------- *)

type mask = { m_spec : int; m_src_bits : int; m_dst_bits : int }

let mb_in_port = 1 lsl 0
let mb_dl_src = 1 lsl 1
let mb_dl_dst = 1 lsl 2
let mb_dl_vlan = 1 lsl 3
let mb_dl_vlan_pcp = 1 lsl 4
let mb_dl_type = 1 lsl 5
let mb_nw_tos = 1 lsl 6
let mb_nw_proto = 1 lsl 7
let mb_tp_src = 1 lsl 8
let mb_tp_dst = 1 lsl 9
let mb_all = (1 lsl 10) - 1

(* A /0 prefix constrains nothing, so it canonicalises to "wildcarded":
   two matches differing only between [None] and [Some (_, 0)] land in the
   same tuple and hash identically. *)
let mask_of (m : t) =
  let bit b o = match o with Some _ -> b | None -> 0 in
  let prefix_bits = function Some (_, b) when b > 0 -> b | _ -> 0 in
  {
    m_spec =
      bit mb_in_port m.in_port
      lor bit mb_dl_src m.dl_src
      lor bit mb_dl_dst m.dl_dst
      lor bit mb_dl_vlan m.dl_vlan
      lor bit mb_dl_vlan_pcp m.dl_vlan_pcp
      lor bit mb_dl_type m.dl_type
      lor bit mb_nw_tos m.nw_tos
      lor bit mb_nw_proto m.nw_proto
      lor bit mb_tp_src m.tp_src
      lor bit mb_tp_dst m.tp_dst;
    m_src_bits = prefix_bits m.nw_src;
    m_dst_bits = prefix_bits m.nw_dst;
  }

let mask_exact = { m_spec = mb_all; m_src_bits = 32; m_dst_bits = 32 }

let mask_equal a b =
  a.m_spec = b.m_spec && a.m_src_bits = b.m_src_bits && a.m_dst_bits = b.m_dst_bits

let mask_is_exact m = mask_equal m mask_exact

(* FNV-1a over the specified field values, all in the int domain so the
   hot path never allocates (Int32 ops would box their results). *)
let[@inline] mix h v = ((h lxor v) * 0x01000193) land max_int

let fnv_seed = 0x811c9dc5

let[@inline] u8 s i = Char.code (String.unsafe_get s i)
let[@inline] u16 s i = (u8 s i lsl 8) lor u8 s (i + 1)

let[@inline] mac_bits mac =
  let m = Mac.to_bytes mac (* identity: Mac.t is the 6-byte string *) in
  (u16 m 0 lsl 32) lor (u16 m 2 lsl 16) lor u16 m 4

let[@inline] ip_bits ip = Int32.to_int (Ip.to_int32 ip) land 0xffffffff

(* Total over any length: a [t] can be built with a prefix past /32, and
   [lsl] by a negative count is unspecified, so such a prefix acts as /32. *)
let[@inline] prefix_mask_bits bits =
  if bits <= 0 then 0
  else if bits >= 32 then 0xffffffff
  else 0xffffffff lsl (32 - bits) land 0xffffffff

(* [addr] lies in [net/bits]: the masked bits compared as ints, as
   [hash_fields] folds them, so the verify allocates nothing *)
let[@inline] prefix_matches (net, bits) addr =
  (ip_bits net lxor ip_bits addr) land prefix_mask_bits bits = 0

(* The two hash functions below must agree: for any match [m] and packet
   fields [f] with [matches m f], [hash_match m = hash_fields (mask_of m) f].
   Both fold the specified fields in declaration order. *)
let hash_fields mask (f : fields) =
  let s = mask.m_spec in
  let h = fnv_seed in
  let h = if s land mb_in_port <> 0 then mix h f.f_in_port else h in
  let h = if s land mb_dl_src <> 0 then mix h (mac_bits f.f_dl_src) else h in
  let h = if s land mb_dl_dst <> 0 then mix h (mac_bits f.f_dl_dst) else h in
  let h = if s land mb_dl_vlan <> 0 then mix h f.f_dl_vlan else h in
  let h = if s land mb_dl_vlan_pcp <> 0 then mix h f.f_dl_vlan_pcp else h in
  let h = if s land mb_dl_type <> 0 then mix h f.f_dl_type else h in
  let h = if s land mb_nw_tos <> 0 then mix h f.f_nw_tos else h in
  let h = if s land mb_nw_proto <> 0 then mix h f.f_nw_proto else h in
  let h =
    if mask.m_src_bits > 0 then
      mix h (ip_bits f.f_nw_src land prefix_mask_bits mask.m_src_bits)
    else h
  in
  let h =
    if mask.m_dst_bits > 0 then
      mix h (ip_bits f.f_nw_dst land prefix_mask_bits mask.m_dst_bits)
    else h
  in
  let h = if s land mb_tp_src <> 0 then mix h f.f_tp_src else h in
  let h = if s land mb_tp_dst <> 0 then mix h f.f_tp_dst else h in
  h

let hash_match (m : t) =
  let h = fnv_seed in
  let h = match m.in_port with Some v -> mix h v | None -> h in
  let h = match m.dl_src with Some v -> mix h (mac_bits v) | None -> h in
  let h = match m.dl_dst with Some v -> mix h (mac_bits v) | None -> h in
  let h = match m.dl_vlan with Some v -> mix h v | None -> h in
  let h = match m.dl_vlan_pcp with Some v -> mix h v | None -> h in
  let h = match m.dl_type with Some v -> mix h v | None -> h in
  let h = match m.nw_tos with Some v -> mix h v | None -> h in
  let h = match m.nw_proto with Some v -> mix h v | None -> h in
  let h =
    match m.nw_src with
    | Some (net, bits) when bits > 0 -> mix h (ip_bits net land prefix_mask_bits bits)
    | _ -> h
  in
  let h =
    match m.nw_dst with
    | Some (net, bits) when bits > 0 -> mix h (ip_bits net land prefix_mask_bits bits)
    | _ -> h
  in
  let h = match m.tp_src with Some v -> mix h v | None -> h in
  let h = match m.tp_dst with Some v -> mix h v | None -> h in
  h

(* Per-type field tests, so no comparison goes through polymorphic
   [compare]: the classifier's verify step calls [matches] per packet. *)
let[@inline] int_eq spec (v : int) = match spec with None -> true | Some x -> x = v
let[@inline] mac_eq spec v = match spec with None -> true | Some x -> Mac.equal x v
let[@inline] prefix_eq spec addr = match spec with None -> true | Some p -> prefix_matches p addr

let matches m f =
  int_eq m.in_port f.f_in_port
  && mac_eq m.dl_src f.f_dl_src
  && mac_eq m.dl_dst f.f_dl_dst
  && int_eq m.dl_vlan f.f_dl_vlan
  && int_eq m.dl_vlan_pcp f.f_dl_vlan_pcp
  && int_eq m.dl_type f.f_dl_type
  && int_eq m.nw_tos f.f_nw_tos
  && int_eq m.nw_proto f.f_nw_proto
  && prefix_eq m.nw_src f.f_nw_src
  && prefix_eq m.nw_dst f.f_nw_dst
  && int_eq m.tp_src f.f_tp_src
  && int_eq m.tp_dst f.f_tp_dst

let field_subsumes eq general specific =
  match general, specific with
  | None, _ -> true
  | Some _, None -> false
  | Some g, Some s -> eq g s

let prefix_subsumes general specific =
  match general, specific with
  | None, _ -> true
  | Some (_, 0), _ -> true
  | Some _, None -> false
  | Some (gnet, gbits), Some (snet, sbits) ->
      gbits <= sbits && prefix_matches (gnet, gbits) snet

let subsumes ~general ~specific =
  field_subsumes ( = ) general.in_port specific.in_port
  && field_subsumes Mac.equal general.dl_src specific.dl_src
  && field_subsumes Mac.equal general.dl_dst specific.dl_dst
  && field_subsumes ( = ) general.dl_vlan specific.dl_vlan
  && field_subsumes ( = ) general.dl_vlan_pcp specific.dl_vlan_pcp
  && field_subsumes ( = ) general.dl_type specific.dl_type
  && field_subsumes ( = ) general.nw_tos specific.nw_tos
  && field_subsumes ( = ) general.nw_proto specific.nw_proto
  && prefix_subsumes general.nw_src specific.nw_src
  && prefix_subsumes general.nw_dst specific.nw_dst
  && field_subsumes ( = ) general.tp_src specific.tp_src
  && field_subsumes ( = ) general.tp_dst specific.tp_dst

let equal a b =
  let opt_equal eq x y =
    match x, y with None, None -> true | Some u, Some v -> eq u v | _ -> false
  in
  opt_equal ( = ) a.in_port b.in_port
  && opt_equal Mac.equal a.dl_src b.dl_src
  && opt_equal Mac.equal a.dl_dst b.dl_dst
  && opt_equal ( = ) a.dl_vlan b.dl_vlan
  && opt_equal ( = ) a.dl_vlan_pcp b.dl_vlan_pcp
  && opt_equal ( = ) a.dl_type b.dl_type
  && opt_equal ( = ) a.nw_tos b.nw_tos
  && opt_equal ( = ) a.nw_proto b.nw_proto
  && opt_equal (fun (x, xb) (y, yb) -> Ip.equal x y && xb = yb) a.nw_src b.nw_src
  && opt_equal (fun (x, xb) (y, yb) -> Ip.equal x y && xb = yb) a.nw_dst b.nw_dst
  && opt_equal ( = ) a.tp_src b.tp_src
  && opt_equal ( = ) a.tp_dst b.tp_dst

(* --------------------------------------------------------------- *)
(* Wire format: OF 1.0 wildcard bits                                *)
(* --------------------------------------------------------------- *)

let wc_in_port = 1 lsl 0
let wc_dl_vlan = 1 lsl 1
let wc_dl_src = 1 lsl 2
let wc_dl_dst = 1 lsl 3
let wc_dl_type = 1 lsl 4
let wc_nw_proto = 1 lsl 5
let wc_tp_src = 1 lsl 6
let wc_tp_dst = 1 lsl 7
let nw_src_shift = 8
let nw_dst_shift = 14
let wc_dl_vlan_pcp = 1 lsl 20
let wc_nw_tos = 1 lsl 21

let size = 40

let encode w t =
  (* OF 1.0 encodes prefix wildcarding as "number of low bits ignored",
     0 = exact, >= 32 = full wildcard. *)
  let nw_bits_ignored = function None -> 32 | Some (_, bits) -> 32 - bits in
  let wc =
    (if t.in_port = None then wc_in_port else 0)
    lor (if t.dl_vlan = None then wc_dl_vlan else 0)
    lor (if t.dl_src = None then wc_dl_src else 0)
    lor (if t.dl_dst = None then wc_dl_dst else 0)
    lor (if t.dl_type = None then wc_dl_type else 0)
    lor (if t.nw_proto = None then wc_nw_proto else 0)
    lor (if t.tp_src = None then wc_tp_src else 0)
    lor (if t.tp_dst = None then wc_tp_dst else 0)
    lor (nw_bits_ignored t.nw_src lsl nw_src_shift)
    lor (nw_bits_ignored t.nw_dst lsl nw_dst_shift)
    lor (if t.dl_vlan_pcp = None then wc_dl_vlan_pcp else 0)
    lor if t.nw_tos = None then wc_nw_tos else 0
  in
  Wire.Writer.u32_int w wc;
  Wire.Writer.u16 w (Option.value t.in_port ~default:0);
  Wire.Writer.string w (Mac.to_bytes (Option.value t.dl_src ~default:Mac.zero));
  Wire.Writer.string w (Mac.to_bytes (Option.value t.dl_dst ~default:Mac.zero));
  Wire.Writer.u16 w (Option.value t.dl_vlan ~default:0);
  Wire.Writer.u8 w (Option.value t.dl_vlan_pcp ~default:0);
  Wire.Writer.u8 w 0 (* pad *);
  Wire.Writer.u16 w (Option.value t.dl_type ~default:0);
  Wire.Writer.u8 w (Option.value t.nw_tos ~default:0);
  Wire.Writer.u8 w (Option.value t.nw_proto ~default:0);
  Wire.Writer.u16 w 0 (* pad *);
  Wire.Writer.u32 w (Ip.to_int32 (match t.nw_src with Some (a, _) -> a | None -> Ip.any));
  Wire.Writer.u32 w (Ip.to_int32 (match t.nw_dst with Some (a, _) -> a | None -> Ip.any));
  Wire.Writer.u16 w (Option.value t.tp_src ~default:0);
  Wire.Writer.u16 w (Option.value t.tp_dst ~default:0)

let decode r =
  let wc = Wire.Reader.u32_int r ~field:"match.wildcards" in
  let in_port = Wire.Reader.u16 r ~field:"match.in_port" in
  let dl_src = Mac.of_bytes (Wire.Reader.bytes r ~field:"match.dl_src" 6) in
  let dl_dst = Mac.of_bytes (Wire.Reader.bytes r ~field:"match.dl_dst" 6) in
  let dl_vlan = Wire.Reader.u16 r ~field:"match.dl_vlan" in
  let dl_vlan_pcp = Wire.Reader.u8 r ~field:"match.dl_vlan_pcp" in
  Wire.Reader.skip r 1;
  let dl_type = Wire.Reader.u16 r ~field:"match.dl_type" in
  let nw_tos = Wire.Reader.u8 r ~field:"match.nw_tos" in
  let nw_proto = Wire.Reader.u8 r ~field:"match.nw_proto" in
  Wire.Reader.skip r 2;
  let nw_src = Ip.of_int32 (Wire.Reader.u32 r ~field:"match.nw_src") in
  let nw_dst = Ip.of_int32 (Wire.Reader.u32 r ~field:"match.nw_dst") in
  let tp_src = Wire.Reader.u16 r ~field:"match.tp_src" in
  let tp_dst = Wire.Reader.u16 r ~field:"match.tp_dst" in
  let opt bit v = if wc land bit <> 0 then None else Some v in
  let prefix shift addr =
    let ignored = min 32 ((wc lsr shift) land 0x3f) in
    if ignored >= 32 then None else Some (addr, 32 - ignored)
  in
  {
    in_port = opt wc_in_port in_port;
    dl_src = opt wc_dl_src dl_src;
    dl_dst = opt wc_dl_dst dl_dst;
    dl_vlan = opt wc_dl_vlan dl_vlan;
    dl_vlan_pcp = opt wc_dl_vlan_pcp dl_vlan_pcp;
    dl_type = opt wc_dl_type dl_type;
    nw_tos = opt wc_nw_tos nw_tos;
    nw_proto = opt wc_nw_proto nw_proto;
    nw_src = prefix nw_src_shift nw_src;
    nw_dst = prefix nw_dst_shift nw_dst;
    tp_src = opt wc_tp_src tp_src;
    tp_dst = opt wc_tp_dst tp_dst;
  }

let pp fmt t =
  let parts = ref [] in
  let add name v = parts := Printf.sprintf "%s=%s" name v :: !parts in
  Option.iter (fun v -> add "in_port" (string_of_int v)) t.in_port;
  Option.iter (fun v -> add "dl_src" (Mac.to_string v)) t.dl_src;
  Option.iter (fun v -> add "dl_dst" (Mac.to_string v)) t.dl_dst;
  Option.iter (fun v -> add "dl_vlan" (string_of_int v)) t.dl_vlan;
  Option.iter (fun v -> add "dl_type" (Printf.sprintf "0x%04x" v)) t.dl_type;
  Option.iter (fun v -> add "nw_proto" (string_of_int v)) t.nw_proto;
  Option.iter (fun (a, b) -> add "nw_src" (Printf.sprintf "%s/%d" (Ip.to_string a) b)) t.nw_src;
  Option.iter (fun (a, b) -> add "nw_dst" (Printf.sprintf "%s/%d" (Ip.to_string a) b)) t.nw_dst;
  Option.iter (fun v -> add "tp_src" (string_of_int v)) t.tp_src;
  Option.iter (fun v -> add "tp_dst" (string_of_int v)) t.tp_dst;
  match !parts with
  | [] -> Format.pp_print_string fmt "{*}"
  | ps -> Format.fprintf fmt "{%s}" (String.concat "," (List.rev ps))

let to_string t = Format.asprintf "%a" pp t
