(* The write-ahead log proper.

   On-disk layout, all integers big-endian:

   record   u32 len(body) | u32 crc32(body) | body
   body     u64 lsn | payload bytes
   snapshot u16 magic 0x5741 | u8 version | u64 covered_lsn
            | u32 crc32(payload) | u32 len(payload) | payload

   The length prefix bounds the scan, the CRC detects torn and
   bit-flipped records, and the LSN lets replay skip records a snapshot
   already covers. Recovery is "truncate at tear": scan from the front,
   stop at the first record that does not check out, never raise. *)

module Counter = Hw_metrics.Counter
module Crc32 = Hw_util.Crc32

let log_src = Logs.Src.create "hw.wal" ~doc:"Write-ahead log"

module Log = (val Logs.src_log log_src : Logs.LOG)

let snap_magic = 0x5741 (* "WA" *)
let snap_version = 1
let snap_header_len = 2 + 1 + 8 + 4 + 4
let record_header_len = 8

(* far above any row the codec produces; an absurd length field is a
   tear, not an allocation request *)
let max_record = 1 lsl 26

type recovered = {
  snapshot : string option;
  records : string list;
  next_lsn : int;
  tail_truncated : bool;
}

type interposer = string -> write:(string -> unit) -> unit

(* Pending records live in one place: [batch], a manually-grown byte
   buffer holding the framed records in append order. An append
   allocates nothing and promotes nothing to the major heap while its
   record waits for the group commit. CRC fields are left blank at
   append time and patched in one pass at flush: an unflushed record is
   lost in a crash either way, so checksumming it early buys nothing,
   and deferring it keeps the insert hot path to a couple of blits. *)
type t = {
  store : Store.t;
  wal_name : string;
  log_name : string;
  snap_name : string;
  interpose : unit -> interposer option; (* asked at each flush *)
  snapshot_every : int;
  max_pending : int;
  mutable next : int; (* next LSN to assign *)
  mutable batch : Bytes.t; (* framed records, append order *)
  mutable batch_len : int; (* valid bytes in [batch] *)
  mutable pending : int; (* records in [batch] *)
  mutable since_snapshot : int;
  mutable snapshot_source : (unit -> string) option;
  c_appends : Counter.t;
  c_flushes : Counter.t;
  c_flushed_bytes : Counter.t;
  c_snapshots : Counter.t;
}

let name t = t.wal_name
let next_lsn t = t.next
let pending t = t.pending

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let u32_at s pos = Int32.to_int (String.get_int32_be s pos) land 0xFFFFFFFF

(* Scan a log blob from the front. Returns the records that check out
   (in order), the byte length of the valid prefix, and whether a torn
   tail was cut. Never raises on malformed input. *)
let scan_log data =
  let len = String.length data in
  let pos = ref 0 in
  let torn = ref false in
  let acc = ref [] in
  (try
     while !pos < len do
       if len - !pos < record_header_len then begin
         torn := true;
         raise Exit
       end;
       let blen = u32_at data !pos in
       let crc = u32_at data (!pos + 4) in
       if blen < 8 || blen > max_record || len - !pos - record_header_len < blen
       then begin
         torn := true;
         raise Exit
       end;
       if Crc32.sub data ~pos:(!pos + record_header_len) ~len:blen <> crc
       then begin
         torn := true;
         raise Exit
       end;
       let lsn = Int64.to_int (String.get_int64_be data (!pos + 8)) in
       let payload = String.sub data (!pos + 16) (blen - 8) in
       acc := (lsn, payload) :: !acc;
       pos := !pos + record_header_len + blen
     done
   with Exit -> ());
  (List.rev !acc, !pos, !torn)

let parse_snapshot data =
  if String.length data < snap_header_len then Error ()
  else begin
    let magic = Char.code data.[0] lsl 8 lor Char.code data.[1] in
    let version = Char.code data.[2] in
    let covered = Int64.to_int (String.get_int64_be data 3) in
    let crc = u32_at data 11 in
    let blen = u32_at data 15 in
    if
      magic <> snap_magic || version <> snap_version
      || String.length data <> snap_header_len + blen
    then Error ()
    else if Crc32.sub data ~pos:snap_header_len ~len:blen <> crc then Error ()
    else Ok (covered, String.sub data snap_header_len blen)
  end

let render_snapshot ~covered payload =
  let b = Bytes.create snap_header_len in
  Bytes.set b 0 (Char.chr (snap_magic lsr 8));
  Bytes.set b 1 (Char.chr (snap_magic land 0xFF));
  Bytes.set b 2 (Char.chr snap_version);
  Bytes.set_int64_be b 3 (Int64.of_int covered);
  Bytes.set_int32_be b 11 (Int32.of_int (Crc32.string payload));
  Bytes.set_int32_be b 15 (Int32.of_int (String.length payload));
  Bytes.unsafe_to_string b ^ payload

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let recover_raw ~store ~name =
  let log_name = name ^ ".log" and snap_name = name ^ ".snap" in
  let snapshot, covered, snap_corrupt =
    match Store.load store snap_name with
    | None -> (None, -1, false)
    | Some data -> (
        match parse_snapshot data with
        | Ok (covered, body) -> (Some body, covered, false)
        | Error () -> (None, -1, true))
  in
  let log = match Store.load store log_name with Some l -> l | None -> "" in
  let records, valid_len, torn = scan_log log in
  (* records the snapshot already covers are replayed from it, not the
     log — this is what makes a crash between snapshot publication and
     log truncation recover cleanly *)
  let tail = List.filter (fun (lsn, _) -> lsn > covered) records in
  let last =
    List.fold_left (fun acc (lsn, _) -> max acc lsn) covered records
  in
  ( {
      snapshot;
      records = List.map snd tail;
      next_lsn = last + 1;
      tail_truncated = torn;
    },
    valid_len,
    snap_corrupt,
    List.length records )

let recover ~store ~name =
  let r, _, _, _ = recover_raw ~store ~name in
  r

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)
(* ------------------------------------------------------------------ *)

(* Patch the CRC field of every record in [batch] (deferred from append
   time), walking the length prefixes. *)
let seal_batch t =
  let b = t.batch in
  let s = Bytes.unsafe_to_string b in
  let pos = ref 0 in
  while !pos < t.batch_len do
    let blen = u32_at s !pos in
    let crc = Crc32.sub s ~pos:(!pos + record_header_len) ~len:blen in
    Bytes.set_int32_be b (!pos + 4) (Int32.of_int crc);
    pos := !pos + record_header_len + blen
  done

(* Pass each sealed record of the first [len] bytes of [batch] through
   the interposer, in LSN order, into one store append. If the
   interposer raises (an injected crash-at-boundary), the bytes it
   already wrote are persisted first, exactly the longest durable
   prefix a real mid-batch crash would leave, and the exception
   propagates: the records after it are lost, as they would be. *)
let write_interposed t f len =
  let out = Buffer.create len in
  let persist () =
    if Buffer.length out > 0 then Store.append t.store t.log_name (Buffer.contents out)
  in
  let write s = Buffer.add_string out s in
  let s = Bytes.unsafe_to_string t.batch in
  (try
     let pos = ref 0 in
     while !pos < len do
       let total = record_header_len + u32_at s !pos in
       f (String.sub s !pos total) ~write;
       pos := !pos + total
     done
   with e ->
     persist ();
     raise e);
  persist ();
  Buffer.length out

(* Flush the group-commit buffer: seal the batch, then hand it to the
   store in one append, directly or through the interposer in force (a
   disarmed fault point installs none, and costs a flush nothing). *)
let flush_records t =
  if t.pending > 0 then begin
    let n = t.pending in
    let len = t.batch_len in
    seal_batch t;
    t.pending <- 0;
    t.batch_len <- 0;
    let written =
      match t.interpose () with
      | None ->
          Store.append_sub t.store t.log_name t.batch 0 len;
          len
      | Some f -> write_interposed t f len
    in
    Counter.add t.c_flushed_bytes written;
    t.since_snapshot <- t.since_snapshot + n;
    Counter.incr t.c_flushes
  end

let snapshot t =
  match t.snapshot_source with
  | None -> ()
  | Some source ->
      flush_records t;
      let payload = source () in
      let covered = t.next - 1 in
      Store.replace t.store t.snap_name (render_snapshot ~covered payload);
      Store.replace t.store t.log_name "";
      t.since_snapshot <- 0;
      Counter.incr t.c_snapshots;
      Log.debug (fun m ->
          m "%s: snapshot covering lsn %d (%d bytes)" t.wal_name covered
            (String.length payload))

let flush t =
  flush_records t;
  if t.snapshot_source <> None && t.since_snapshot >= t.snapshot_every then
    snapshot t

(* Frame a record straight into the batch at its current end: no
   per-record allocation. The CRC field is left zero; {!seal_batch}
   fills it during flush. [fill b pos] writes the payload in place. *)
let append_with t ~size fill =
  let lsn = t.next in
  t.next <- lsn + 1;
  let blen = 8 + size in
  let total = record_header_len + blen in
  let pos = t.batch_len in
  if Bytes.length t.batch - pos < total then begin
    let cap = max (pos + total) (2 * Bytes.length t.batch) in
    let grown = Bytes.create cap in
    Bytes.blit t.batch 0 grown 0 pos;
    t.batch <- grown
  end;
  let b = t.batch in
  Bytes.set_int32_be b pos (Int32.of_int blen);
  Bytes.set_int32_be b (pos + 4) 0l;
  Bytes.set_int64_be b (pos + 8) (Int64.of_int lsn);
  fill b (pos + 16);
  t.batch_len <- pos + total;
  t.pending <- t.pending + 1;
  Counter.incr t.c_appends;
  if t.pending >= t.max_pending then flush t

let append t payload =
  append_with t ~size:(String.length payload) (fun b pos ->
      Bytes.blit_string payload 0 b pos (String.length payload))

let set_snapshot_source t source = t.snapshot_source <- Some source

(* ------------------------------------------------------------------ *)
(* Open                                                                *)
(* ------------------------------------------------------------------ *)

let open_ ?(metrics = Hw_metrics.Registry.default) ?interpose
    ?(snapshot_every = 4096) ?(max_pending = 1024) ~store ~name () =
  let counter n help = Hw_metrics.Registry.counter metrics ~help n in
  let c_truncated =
    counter "wal_recovery_truncated_total"
      "Recoveries that cut a torn/short/corrupt log tail"
  in
  let c_recovered =
    counter "wal_recovery_records_total" "Valid records read back at recovery"
  in
  let c_snap_corrupt =
    counter "wal_snapshot_corrupt_total"
      "Snapshots discarded at recovery for failing their checksum"
  in
  let recovered, valid_len, snap_corrupt, n_records =
    recover_raw ~store ~name
  in
  let log_name = name ^ ".log" in
  if recovered.tail_truncated then begin
    (* cut the log back to the durable prefix so new appends never land
       behind garbage *)
    let log = match Store.load store log_name with Some l -> l | None -> "" in
    Store.replace store log_name (String.sub log 0 valid_len);
    Counter.incr c_truncated;
    Log.warn (fun m ->
        m "%s: torn tail truncated at byte %d of %d" name valid_len
          (String.length log))
  end;
  if snap_corrupt then Counter.incr c_snap_corrupt;
  Counter.add c_recovered n_records;
  let t =
    {
      store;
      wal_name = name;
      log_name;
      snap_name = name ^ ".snap";
      interpose = Option.value interpose ~default:(fun () -> None);
      snapshot_every;
      max_pending;
      next = recovered.next_lsn;
      batch = Bytes.create 4096;
      batch_len = 0;
      pending = 0;
      since_snapshot = List.length recovered.records;
      snapshot_source = None;
      c_appends = counter "wal_appends_total" "Records appended to the WAL";
      c_flushes = counter "wal_flushes_total" "Group-commit flushes";
      c_flushed_bytes =
        counter "wal_flushed_bytes_total" "Bytes written by flushes";
      c_snapshots = counter "wal_snapshots_total" "Snapshots taken";
    }
  in
  (t, recovered)
