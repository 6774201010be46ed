(* Sorting router calls into north-star paths from public state alone: the
   frame bytes at fixed offsets and the [Router.packet_ins] delta the call
   caused. Nothing here decodes a whole packet. *)

type kind = Dhcp | Dns | Arp | Ip | Other

let u16 s off = (Char.code (String.unsafe_get s off) lsl 8) lor Char.code (String.unsafe_get s (off + 1))

(* Ethernet II: ethertype at 12; IPv4: IHL at 14, protocol at 23, UDP
   ports right after the IP header. *)
let kind frame =
  let len = String.length frame in
  if len < 14 then Other
  else
    match u16 frame 12 with
    | 0x0806 -> Arp
    | 0x0800 when len >= 34 ->
        let l4 = 14 + ((Char.code frame.[14] land 0xf) * 4) in
        if Char.code frame.[23] = 17 && len >= l4 + 4 then
          let sport = u16 frame l4 and dport = u16 frame (l4 + 2) in
          if sport = 67 || sport = 68 || dport = 67 || dport = 68 then Dhcp
          else if sport = 53 || dport = 53 then Dns
          else Ip
        else Ip
    | _ -> Other

(* Source MAC as a 48-bit int (the join accounting key). *)
let src_mac frame =
  if String.length frame < 12 then 0
  else
    let b i = Char.code frame.[6 + i] in
    (b 0 lsl 40) lor (b 1 lsl 32) lor (b 2 lsl 24) lor (b 3 lsl 16) lor (b 4 lsl 8) lor b 5

type setup = Setup_ip | Setup_upstream | Setup_dns | Setup_arp

let setup_classes = [| Setup_ip; Setup_upstream; Setup_dns; Setup_arp |]
let setup_index = function Setup_ip -> 0 | Setup_upstream -> 1 | Setup_dns -> 2 | Setup_arp -> 3

let setup_name = function
  | Setup_ip -> "ip"
  | Setup_upstream -> "upstream"
  | Setup_dns -> "dns"
  | Setup_arp -> "arp"

type path =
  | Forward  (** no packet-in: the datapath fast path *)
  | Dhcp_call  (** carries a DHCP frame: part of a join, renewal or release *)
  | Flow_setup of setup  (** raised a packet-in for anything else *)

(* A call that raised no packet-in is forwarding. Otherwise the most
   specific frame kind in the batch names the path: DHCP, then DNS, then
   ARP; remaining setups are split by the port the frames came in on. *)
let classify ~upstream ~packet_ins frames =
  if packet_ins = 0 then Forward
  else
    let has k = List.exists (fun (_, f) -> kind f = k) frames in
    if has Dhcp then Dhcp_call
    else if has Dns then Flow_setup Setup_dns
    else if has Arp then Flow_setup Setup_arp
    else if upstream then Flow_setup Setup_upstream
    else Flow_setup Setup_ip

(* The source MAC of the first DHCP frame in a batch. *)
let dhcp_client frames =
  match List.find_opt (fun (_, f) -> kind f = Dhcp) frames with
  | Some (_, f) -> src_mac f
  | None -> 0
