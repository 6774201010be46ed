open Hw_packet

let log_src = Logs.Src.create "hw.dns" ~doc:"Homework DNS proxy module"

module Log = (val Logs.src_log log_src : Logs.LOG)

type name_policy =
  | Allow_all
  | Block_all
  | Allow_only of string list
  | Block_listed of string list

(* suffix match on whole labels: "facebook.com" covers "www.facebook.com"
   but not "notfacebook.com" *)
let domain_matches ~domain name =
  let domain = Dns_wire.normalize_name domain and name = Dns_wire.normalize_name name in
  String.equal domain name
  || (String.length name > String.length domain
     && String.ends_with ~suffix:("." ^ domain) name)

let policy_allows policy name =
  match policy with
  | Allow_all -> true
  | Block_all -> false
  | Allow_only domains -> List.exists (fun d -> domain_matches ~domain:d name) domains
  | Block_listed domains -> not (List.exists (fun d -> domain_matches ~domain:d name) domains)

type action =
  | Forward_upstream of Dns_wire.t
  | Respond_to_client of { dst_ip : Ip.t; dst_port : int; msg : Dns_wire.t }

type flow_verdict =
  | Flow_allow
  | Flow_block of string
  | Flow_reverse_lookup of Dns_wire.t

type stats = {
  mutable queries : int;
  mutable blocked : int;
  mutable forwarded : int;
  mutable cache_answers : int;
  mutable reverse_lookups : int;
}

type pending = {
  client_ip : Ip.t;
  client_port : int;
  client_id : int;
  qname : string;
}

type cache_entry = { ips : Ip.t list; inserted : float }

module Tracer = Hw_trace.Tracer

type t = {
  now : unit -> float;
  trace : Tracer.t;
  cache_ttl : float;
  policies : (Mac.t, name_policy) Hashtbl.t;
  mutable device_of_ip : Ip.t -> Mac.t option;
  name_cache : (string, cache_entry) Hashtbl.t; (* name -> addresses *)
  addr_cache : (Ip.t, string list) Hashtbl.t; (* address -> names *)
  pending : (int, pending) Hashtbl.t; (* upstream txn id -> client *)
  pending_reverse : (int, Ip.t) Hashtbl.t;
  mutable next_txid : int;
  st : stats;
  m_queries : Hw_metrics.Counter.t;
  m_blocked : Hw_metrics.Counter.t;
  m_forwarded : Hw_metrics.Counter.t;
  m_cache_answers : Hw_metrics.Counter.t;
  m_reverse_lookups : Hw_metrics.Counter.t;
  m_flow_allowed : Hw_metrics.Counter.t;
  m_flow_blocked : Hw_metrics.Counter.t;
}

let create ?(metrics = Hw_metrics.Registry.default) ?(trace = Tracer.disabled)
    ?(cache_ttl = 3600.) ~now () =
  let counter name help = Hw_metrics.Registry.counter metrics name ~help in
  {
    now;
    trace;
    cache_ttl;
    policies = Hashtbl.create 16;
    device_of_ip = (fun _ -> None);
    name_cache = Hashtbl.create 256;
    addr_cache = Hashtbl.create 256;
    pending = Hashtbl.create 32;
    pending_reverse = Hashtbl.create 32;
    next_txid = 0x1000;
    st = { queries = 0; blocked = 0; forwarded = 0; cache_answers = 0; reverse_lookups = 0 };
    m_queries = counter "dns_queries_total" "DNS queries intercepted by the proxy";
    m_blocked = counter "dns_query_blocked_total" "Queries answered NXDOMAIN by policy";
    m_forwarded = counter "dns_query_forwarded_total" "Queries forwarded upstream";
    m_cache_answers = counter "dns_cache_answers_total" "Queries answered from the proxy cache";
    m_reverse_lookups =
      counter "dns_reverse_lookups_total" "PTR lookups issued for unnamed flow destinations";
    m_flow_allowed = counter "dns_flow_allowed_total" "Flow admission checks that allowed";
    m_flow_blocked = counter "dns_flow_blocked_total" "Flow admission checks that blocked";
  }

let set_policy t mac policy = Hashtbl.replace t.policies mac policy
let clear_policy t mac = Hashtbl.remove t.policies mac
let policy_of t mac = Option.value (Hashtbl.find_opt t.policies mac) ~default:Allow_all
let set_device_of_ip t f = t.device_of_ip <- f
let stats t = t.st
let cache_size t = Hashtbl.length t.name_cache

let policy_for_ip t ip =
  match t.device_of_ip ip with None -> Allow_all | Some mac -> policy_of t mac

let fresh_txid t =
  t.next_txid <- (t.next_txid + 1) land 0xffff;
  t.next_txid

let cache_put t name ips =
  let name = Dns_wire.normalize_name name in
  Hashtbl.replace t.name_cache name { ips; inserted = t.now () };
  List.iter
    (fun ip ->
      let names = Option.value (Hashtbl.find_opt t.addr_cache ip) ~default:[] in
      if not (List.mem name names) then Hashtbl.replace t.addr_cache ip (name :: names))
    ips

let names_of t ip = Option.value (Hashtbl.find_opt t.addr_cache ip) ~default:[]

let addresses_of t name =
  match Hashtbl.find_opt t.name_cache (Dns_wire.normalize_name name) with
  | Some { ips; _ } -> ips
  | None -> []

let expire_cache t =
  let now = t.now () in
  let stale =
    Hashtbl.fold
      (fun name entry acc -> if now -. entry.inserted > t.cache_ttl then name :: acc else acc)
      t.name_cache []
  in
  List.iter
    (fun name ->
      (match Hashtbl.find_opt t.name_cache name with
      | Some entry ->
          List.iter
            (fun ip ->
              let names = List.filter (fun n -> not (String.equal n name)) (names_of t ip) in
              if names = [] then Hashtbl.remove t.addr_cache ip
              else Hashtbl.replace t.addr_cache ip names)
            entry.ips
      | None -> ());
      Hashtbl.remove t.name_cache name)
    stale

(* ------------------------------------------------------------------ *)
(* Query path                                                          *)
(* ------------------------------------------------------------------ *)

let nxdomain query = Dns_wire.response ~rcode:Dns_wire.Name_error query

let verdict_attr t v =
  if Tracer.in_trace t.trace then Tracer.set_attr t.trace "verdict" (Tracer.Str v)

let handle_query_inner t ~src_ip ~src_port (query : Dns_wire.t) =
  t.st.queries <- t.st.queries + 1;
  Hw_metrics.Counter.incr t.m_queries;
  match query.Dns_wire.questions with
  | [] -> []
  | { Dns_wire.qname; qtype } :: _ ->
      let policy = policy_for_ip t src_ip in
      if not (policy_allows policy qname) then begin
        t.st.blocked <- t.st.blocked + 1;
        Hw_metrics.Counter.incr t.m_blocked;
        verdict_attr t "blocked";
        Log.debug (fun m -> m "blocked lookup of %s from %s" qname (Ip.to_string src_ip));
        [ Respond_to_client { dst_ip = src_ip; dst_port = src_port; msg = nxdomain query } ]
      end
      else begin
        match qtype, addresses_of t qname with
        | Dns_wire.A, (_ :: _ as ips)
          when t.now () -. (Hashtbl.find t.name_cache (Dns_wire.normalize_name qname)).inserted
               <= t.cache_ttl ->
            t.st.cache_answers <- t.st.cache_answers + 1;
            Hw_metrics.Counter.incr t.m_cache_answers;
            verdict_attr t "cache_answer";
            let answers = List.map (fun ip -> Dns_wire.a_record qname ip) ips in
            [
              Respond_to_client
                { dst_ip = src_ip; dst_port = src_port; msg = Dns_wire.response ~answers query };
            ]
        | _ ->
            let txid = fresh_txid t in
            Hashtbl.replace t.pending txid
              {
                client_ip = src_ip;
                client_port = src_port;
                client_id = query.Dns_wire.id;
                qname;
              };
            t.st.forwarded <- t.st.forwarded + 1;
            Hw_metrics.Counter.incr t.m_forwarded;
            verdict_attr t "forwarded";
            [ Forward_upstream { query with Dns_wire.id = txid } ]
      end

let handle_query t ~src_ip ~src_port (query : Dns_wire.t) =
  Tracer.with_span t.trace "dns.query" (fun () ->
      if Tracer.in_trace t.trace then begin
        Tracer.set_attr t.trace "src" (Tracer.Ip src_ip);
        match query.Dns_wire.questions with
        | { Dns_wire.qname; _ } :: _ -> Tracer.set_attr t.trace "qname" (Tracer.Str qname)
        | [] -> ()
      end;
      handle_query_inner t ~src_ip ~src_port query)

let handle_upstream t (response : Dns_wire.t) =
  let txid = response.Dns_wire.id in
  (* harvest every A and PTR answer into the cache *)
  List.iter
    (fun (rr : Dns_wire.rr) ->
      match rr.Dns_wire.rdata with
      | Dns_wire.A_data ip ->
          let existing = addresses_of t rr.Dns_wire.name in
          cache_put t rr.Dns_wire.name
            (if List.exists (Ip.equal ip) existing then existing else ip :: existing)
      | Dns_wire.Ptr_data name -> (
          match Hashtbl.find_opt t.pending_reverse txid with
          | Some ip -> cache_put t name [ ip ]
          | None -> ())
      | Dns_wire.Cname_data _ | Dns_wire.Ns_data _ | Dns_wire.Txt_data _ | Dns_wire.Raw_data _
        -> ())
    response.Dns_wire.answers;
  Hashtbl.remove t.pending_reverse txid;
  match Hashtbl.find_opt t.pending txid with
  | None -> []
  | Some p ->
      Hashtbl.remove t.pending txid;
      [
        Respond_to_client
          {
            dst_ip = p.client_ip;
            dst_port = p.client_port;
            msg = { response with Dns_wire.id = p.client_id };
          };
      ]

(* ------------------------------------------------------------------ *)
(* Flow admission                                                      *)
(* ------------------------------------------------------------------ *)

let check_flow_verdict t ~src_ip ~dst_ip =
  match policy_for_ip t src_ip with
  | Allow_all -> Flow_allow
  | Block_all -> Flow_block "device blocked from upstream access"
  | (Allow_only _ | Block_listed _) as policy -> (
      match names_of t dst_ip with
      | [] ->
          (* the paper's reverse-lookup path for flows that match no
             previously requested name *)
          t.st.reverse_lookups <- t.st.reverse_lookups + 1;
          Hw_metrics.Counter.incr t.m_reverse_lookups;
          let txid = fresh_txid t in
          Hashtbl.replace t.pending_reverse txid dst_ip;
          Flow_reverse_lookup
            (Dns_wire.query ~id:txid (Dns_wire.reverse_name dst_ip) Dns_wire.PTR)
      | names ->
          if List.exists (policy_allows policy) names then Flow_allow
          else
            Flow_block
              (Printf.sprintf "destination %s (%s) not permitted" (Ip.to_string dst_ip)
                 (String.concat "," names)))

let check_flow t ~src_ip ~dst_ip =
  Tracer.with_span t.trace "dns.flow_check" (fun () ->
      let verdict = check_flow_verdict t ~src_ip ~dst_ip in
      (match verdict with
      | Flow_allow -> Hw_metrics.Counter.incr t.m_flow_allowed
      | Flow_block _ -> Hw_metrics.Counter.incr t.m_flow_blocked
      | Flow_reverse_lookup _ -> ());
      if Tracer.in_trace t.trace then begin
        Tracer.set_attr t.trace "src" (Tracer.Ip src_ip);
        Tracer.set_attr t.trace "dst" (Tracer.Ip dst_ip);
        Tracer.set_attr t.trace "verdict"
          (Tracer.Str
             (match verdict with
             | Flow_allow -> "allow"
             | Flow_block reason -> "block: " ^ reason
             | Flow_reverse_lookup _ -> "reverse_lookup"))
      end;
      verdict)
