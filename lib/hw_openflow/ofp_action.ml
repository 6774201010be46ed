open Hw_packet
open Hw_util

module Port = struct
  let max = 0xff00
  let in_port = 0xfff8
  let table = 0xfff9
  let normal = 0xfffa
  let flood = 0xfffb
  let all = 0xfffc
  let controller = 0xfffd
  let local = 0xfffe
  let none = 0xffff

  let to_string p =
    if p = in_port then "IN_PORT"
    else if p = table then "TABLE"
    else if p = normal then "NORMAL"
    else if p = flood then "FLOOD"
    else if p = all then "ALL"
    else if p = controller then "CONTROLLER"
    else if p = local then "LOCAL"
    else if p = none then "NONE"
    else string_of_int p
end

type t =
  | Output of { port : int; max_len : int }
  | Set_vlan_vid of int
  | Set_vlan_pcp of int
  | Strip_vlan
  | Set_dl_src of Mac.t
  | Set_dl_dst of Mac.t
  | Set_nw_src of Ip.t
  | Set_nw_dst of Ip.t
  | Set_nw_tos of int
  | Set_tp_src of int
  | Set_tp_dst of int
  | Enqueue of { port : int; queue_id : int32 }

let output ?(max_len = 0) port = Output { port; max_len }
let to_controller = Output { port = Port.controller; max_len = 0xffff }

let size = function
  | Output _ | Set_vlan_vid _ | Set_vlan_pcp _ | Strip_vlan | Set_nw_src _ | Set_nw_dst _
  | Set_nw_tos _ | Set_tp_src _ | Set_tp_dst _ ->
      8
  | Set_dl_src _ | Set_dl_dst _ | Enqueue _ -> 16

let list_size actions = List.fold_left (fun acc a -> acc + size a) 0 actions

(* the bytes of an action of type [typ], which its length field must
   equal; 0 for a type [decode_one] rejects *)
let size_of_type = function
  | 0 | 1 | 2 | 3 | 6 | 7 | 8 | 9 | 10 -> 8
  | 4 | 5 | 11 -> 16
  | _ -> 0

let rec valid_run s off stop =
  if off = stop then true
  else if off + 4 > stop then false
  else
    let n = size_of_type (String.get_uint16_be s off) in
    n > 0 && String.get_uint16_be s (off + 2) = n && off + n <= stop && valid_run s (off + n) stop

let valid_list s ~off ~len =
  len >= 0 && off >= 0 && off + len <= String.length s && valid_run s off (off + len)

let encode w t =
  match t with
  | Output { port; max_len } ->
      Wire.Writer.u16 w 0;
      Wire.Writer.u16 w 8;
      Wire.Writer.u16 w port;
      Wire.Writer.u16 w max_len
  | Set_vlan_vid vid ->
      Wire.Writer.u16 w 1;
      Wire.Writer.u16 w 8;
      Wire.Writer.u16 w vid;
      Wire.Writer.u16 w 0
  | Set_vlan_pcp pcp ->
      Wire.Writer.u16 w 2;
      Wire.Writer.u16 w 8;
      Wire.Writer.u8 w pcp;
      Wire.Writer.zeros w 3
  | Strip_vlan ->
      Wire.Writer.u16 w 3;
      Wire.Writer.u16 w 8;
      Wire.Writer.zeros w 4
  | Set_dl_src mac ->
      Wire.Writer.u16 w 4;
      Wire.Writer.u16 w 16;
      Wire.Writer.string w (Mac.to_bytes mac);
      Wire.Writer.zeros w 6
  | Set_dl_dst mac ->
      Wire.Writer.u16 w 5;
      Wire.Writer.u16 w 16;
      Wire.Writer.string w (Mac.to_bytes mac);
      Wire.Writer.zeros w 6
  | Set_nw_src ip ->
      Wire.Writer.u16 w 6;
      Wire.Writer.u16 w 8;
      Wire.Writer.u32 w (Ip.to_int32 ip)
  | Set_nw_dst ip ->
      Wire.Writer.u16 w 7;
      Wire.Writer.u16 w 8;
      Wire.Writer.u32 w (Ip.to_int32 ip)
  | Set_nw_tos tos ->
      Wire.Writer.u16 w 8;
      Wire.Writer.u16 w 8;
      Wire.Writer.u8 w tos;
      Wire.Writer.zeros w 3
  | Set_tp_src port ->
      Wire.Writer.u16 w 9;
      Wire.Writer.u16 w 8;
      Wire.Writer.u16 w port;
      Wire.Writer.u16 w 0
  | Set_tp_dst port ->
      Wire.Writer.u16 w 10;
      Wire.Writer.u16 w 8;
      Wire.Writer.u16 w port;
      Wire.Writer.u16 w 0
  | Enqueue { port; queue_id } ->
      Wire.Writer.u16 w 11;
      Wire.Writer.u16 w 16;
      Wire.Writer.u16 w port;
      Wire.Writer.zeros w 6;
      Wire.Writer.u32 w queue_id

(* not [List.iter (encode w)], whose closure would cost each entry of a
   flow-stats reply 5 words *)
let rec encode_list w = function
  | [] -> ()
  | a :: rest ->
      encode w a;
      encode_list w rest

let decode_one r =
  let typ = Wire.Reader.u16 r ~field:"action.type" in
  let len = Wire.Reader.u16 r ~field:"action.len" in
  let size = size_of_type typ in
  if size > 0 && len <> size then
    Error (Printf.sprintf "action: type %d has length %d, not %d" typ len size)
  else
    match typ with
    | 0 ->
        let port = Wire.Reader.u16 r ~field:"action.port" in
        let max_len = Wire.Reader.u16 r ~field:"action.max_len" in
        Ok (Output { port; max_len })
    | 1 ->
        let vid = Wire.Reader.u16 r ~field:"action.vid" in
        Wire.Reader.skip r 2;
        Ok (Set_vlan_vid vid)
    | 2 ->
        let pcp = Wire.Reader.u8 r ~field:"action.pcp" in
        Wire.Reader.skip r 3;
        Ok (Set_vlan_pcp pcp)
    | 3 ->
        Wire.Reader.skip r 4;
        Ok Strip_vlan
    | 4 ->
        let mac = Mac.of_bytes (Wire.Reader.bytes r ~field:"action.dl" 6) in
        Wire.Reader.skip r 6;
        Ok (Set_dl_src mac)
    | 5 ->
        let mac = Mac.of_bytes (Wire.Reader.bytes r ~field:"action.dl" 6) in
        Wire.Reader.skip r 6;
        Ok (Set_dl_dst mac)
    | 6 -> Ok (Set_nw_src (Ip.of_int32 (Wire.Reader.u32 r ~field:"action.nw")))
    | 7 -> Ok (Set_nw_dst (Ip.of_int32 (Wire.Reader.u32 r ~field:"action.nw")))
    | 8 ->
        let tos = Wire.Reader.u8 r ~field:"action.tos" in
        Wire.Reader.skip r 3;
        Ok (Set_nw_tos tos)
    | 9 ->
        let port = Wire.Reader.u16 r ~field:"action.tp" in
        Wire.Reader.skip r 2;
        Ok (Set_tp_src port)
    | 10 ->
        let port = Wire.Reader.u16 r ~field:"action.tp" in
        Wire.Reader.skip r 2;
        Ok (Set_tp_dst port)
    | 11 ->
        let port = Wire.Reader.u16 r ~field:"action.port" in
        Wire.Reader.skip r 6;
        let queue_id = Wire.Reader.u32 r ~field:"action.queue" in
        Ok (Enqueue { port; queue_id })
    | n -> Error (Printf.sprintf "action: unknown type %d" n)

let decode_list r len =
  let stop = Wire.Reader.pos r + len in
  let rec loop acc =
    if Wire.Reader.pos r >= stop then Ok (List.rev acc)
    else
      match decode_one r with
      | Ok a -> loop (a :: acc)
      | Error _ as e -> e
  in
  try loop [] with Wire.Truncated f -> Error (Printf.sprintf "action: truncated at %s" f)

let equal a b =
  match a, b with
  | Output x, Output y -> x.port = y.port && x.max_len = y.max_len
  | Set_vlan_vid x, Set_vlan_vid y -> x = y
  | Set_vlan_pcp x, Set_vlan_pcp y -> x = y
  | Strip_vlan, Strip_vlan -> true
  | Set_dl_src x, Set_dl_src y | Set_dl_dst x, Set_dl_dst y -> Mac.equal x y
  | Set_nw_src x, Set_nw_src y | Set_nw_dst x, Set_nw_dst y -> Ip.equal x y
  | Set_nw_tos x, Set_nw_tos y -> x = y
  | Set_tp_src x, Set_tp_src y | Set_tp_dst x, Set_tp_dst y -> x = y
  | Enqueue x, Enqueue y -> x.port = y.port && Int32.equal x.queue_id y.queue_id
  | ( ( Output _ | Set_vlan_vid _ | Set_vlan_pcp _ | Strip_vlan | Set_dl_src _ | Set_dl_dst _
      | Set_nw_src _ | Set_nw_dst _ | Set_nw_tos _ | Set_tp_src _ | Set_tp_dst _ | Enqueue _ ),
      _ ) ->
      false

let pp fmt = function
  | Output { port; _ } -> Format.fprintf fmt "output:%s" (Port.to_string port)
  | Set_vlan_vid v -> Format.fprintf fmt "set_vlan_vid:%d" v
  | Set_vlan_pcp v -> Format.fprintf fmt "set_vlan_pcp:%d" v
  | Strip_vlan -> Format.pp_print_string fmt "strip_vlan"
  | Set_dl_src m -> Format.fprintf fmt "set_dl_src:%a" Mac.pp m
  | Set_dl_dst m -> Format.fprintf fmt "set_dl_dst:%a" Mac.pp m
  | Set_nw_src i -> Format.fprintf fmt "set_nw_src:%a" Ip.pp i
  | Set_nw_dst i -> Format.fprintf fmt "set_nw_dst:%a" Ip.pp i
  | Set_nw_tos v -> Format.fprintf fmt "set_nw_tos:%d" v
  | Set_tp_src v -> Format.fprintf fmt "set_tp_src:%d" v
  | Set_tp_dst v -> Format.fprintf fmt "set_tp_dst:%d" v
  | Enqueue { port; queue_id } -> Format.fprintf fmt "enqueue:%d:%ld" port queue_id
