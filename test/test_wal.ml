(* WAL durability suite.

   The crash-point matrix is the acceptance test for truncate-at-tear
   recovery: a generated log truncated at EVERY byte offset must recover
   exactly the records whose frames fit entirely within the prefix, and
   flipping any single byte of record i's frame must recover exactly the
   first i records.  Recovery never raises on malformed input.

   The codec properties feed hostile rows (64 KB+ strings, NaN/inf
   floats, empty rows) through the row codec and mangled logs through
   recovery; the store/database tests cover both backends and the
   durable-table spine end to end. *)

module Wal = Hw_wal.Wal
module Store = Hw_wal.Store
module Fault = Hw_fault.Fault
module Registry = Hw_metrics.Registry
module Counter = Hw_metrics.Counter
open Hw_hwdb

let counter_value metrics name = Counter.value (Registry.counter metrics name)

let fault_count metrics kind =
  Counter.value
    (Registry.labeled_counter metrics "fault_injected_total" ~labels:[ ("kind", kind) ])

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_records = Alcotest.(check (list string))

(* Frame layout mirrored from wal.ml: u32 len | u32 crc | u64 lsn | payload. *)
let frame_len payload = 16 + String.length payload

let take k xs = List.filteri (fun i _ -> i < k) xs

(* ------------------------------------------------------------------ *)
(* Round trip                                                          *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let store = Store.mem () in
  let wal, r0 = Wal.open_ ~metrics:(Registry.create ()) ~store ~name:"t" () in
  check_int "fresh next_lsn" 0 (Wal.next_lsn wal);
  check_records "fresh store recovers nothing" [] r0.Wal.records;
  check_bool "fresh store has no snapshot" true (r0.Wal.snapshot = None);
  let payloads = [ ""; "a"; String.make 300 'x'; "\x00\xff\x01" ] in
  List.iter (Wal.append wal) payloads;
  check_int "appends buffer" 4 (Wal.pending wal);
  check_int "nothing on disk before flush" 0 (Store.size store "t.log");
  Wal.flush wal;
  check_int "flush drains the buffer" 0 (Wal.pending wal);
  let r = Wal.recover ~store ~name:"t" in
  check_records "records round-trip in order" payloads r.Wal.records;
  check_bool "clean log is not torn" false r.Wal.tail_truncated;
  check_int "next_lsn counts assigned records" 4 r.Wal.next_lsn;
  (* reopen and extend: recovery accumulates across generations *)
  let wal2, r2 = Wal.open_ ~metrics:(Registry.create ()) ~store ~name:"t" () in
  check_records "reopen sees the same records" payloads r2.Wal.records;
  check_int "reopen resumes the LSN sequence" 4 (Wal.next_lsn wal2);
  Wal.append wal2 "tail";
  Wal.flush wal2;
  let r3 = Wal.recover ~store ~name:"t" in
  check_records "second-generation append lands after" (payloads @ [ "tail" ])
    r3.Wal.records

(* ------------------------------------------------------------------ *)
(* Crash-point matrix                                                  *)
(* ------------------------------------------------------------------ *)

(* A log of 12 records with assorted payload sizes (including empty),
   plus the byte offset after each record: boundaries.(k) is where the
   first k records end. *)
let build_matrix_log () =
  let store = Store.mem () in
  let wal, _ = Wal.open_ ~metrics:(Registry.create ()) ~store ~name:"m" () in
  let payloads = List.init 12 (fun i -> String.make (i * 7 mod 23) (Char.chr (65 + i))) in
  List.iter (Wal.append wal) payloads;
  Wal.flush wal;
  let log =
    match Store.load store "m.log" with
    | Some l -> l
    | None -> Alcotest.fail "flush produced no log blob"
  in
  let boundaries = Array.make (List.length payloads + 1) 0 in
  List.iteri
    (fun i p -> boundaries.(i + 1) <- boundaries.(i) + frame_len p)
    payloads;
  check_int "log is exactly the framed records"
    boundaries.(List.length payloads) (String.length log);
  (payloads, log, boundaries)

(* largest k with boundaries.(k) <= l: how many whole records fit in l bytes *)
let records_within boundaries l =
  let k = ref 0 in
  while !k + 1 < Array.length boundaries && boundaries.(!k + 1) <= l do incr k done;
  !k

let test_crash_point_matrix () =
  let payloads, log, boundaries = build_matrix_log () in
  for l = 0 to String.length log do
    let k = records_within boundaries l in
    let expected = take k payloads in
    let s = Store.mem () in
    Store.replace s "m.log" (String.sub log 0 l);
    let r = Wal.recover ~store:s ~name:"m" in
    check_records
      (Printf.sprintf "cut at byte %d recovers the first %d records" l k)
      expected r.Wal.records;
    check_bool
      (Printf.sprintf "tear flag at byte %d" l)
      (l <> boundaries.(k))
      r.Wal.tail_truncated;
    (* open_ physically truncates to the durable prefix and appends land
       cleanly after it, never behind garbage *)
    let scratch = Registry.create () in
    let w2, _ = Wal.open_ ~metrics:scratch ~store:s ~name:"m" () in
    check_int
      (Printf.sprintf "blob truncated to the durable prefix at %d" l)
      boundaries.(k) (Store.size s "m.log");
    if l <> boundaries.(k) then
      check_int
        (Printf.sprintf "truncation counted at %d" l)
        1
        (counter_value scratch "wal_recovery_truncated_total");
    Wal.append w2 "post-tear";
    Wal.flush w2;
    let r2 = Wal.recover ~store:s ~name:"m" in
    check_records
      (Printf.sprintf "append after recovery at %d extends the prefix" l)
      (expected @ [ "post-tear" ])
      r2.Wal.records;
    check_bool
      (Printf.sprintf "log is clean again after truncation at %d" l)
      false r2.Wal.tail_truncated
  done

let test_bit_flip_matrix () =
  let payloads, log, boundaries = build_matrix_log () in
  for pos = 0 to String.length log - 1 do
    (* the record whose frame owns byte [pos] is the first casualty *)
    let k = records_within boundaries pos in
    let b = Bytes.of_string log in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
    let s = Store.mem () in
    Store.replace s "m.log" (Bytes.to_string b);
    let r = Wal.recover ~store:s ~name:"m" in
    check_records
      (Printf.sprintf "flip at byte %d recovers the first %d records" pos k)
      (take k payloads) r.Wal.records;
    check_bool (Printf.sprintf "flip at byte %d is a tear" pos) true
      r.Wal.tail_truncated
  done

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let test_snapshot_and_corrupt_snapshot () =
  let store = Store.mem () in
  let wal, _ = Wal.open_ ~metrics:(Registry.create ()) ~store ~name:"s" () in
  Wal.set_snapshot_source wal (fun () -> "SNAP");
  List.iter (Wal.append wal) [ "a"; "b" ];
  Wal.flush wal;
  Wal.snapshot wal;
  check_int "snapshot truncates the log" 0 (Store.size store "s.log");
  Wal.append wal "c";
  Wal.flush wal;
  let r = Wal.recover ~store ~name:"s" in
  Alcotest.(check (option string)) "snapshot payload" (Some "SNAP") r.Wal.snapshot;
  check_records "only the post-snapshot tail replays" [ "c" ] r.Wal.records;
  check_int "next_lsn still counts covered records" 3 r.Wal.next_lsn;
  (* a snapshot that fails its CRC is treated as absent *)
  let snap =
    match Store.load store "s.snap" with
    | Some s -> s
    | None -> Alcotest.fail "snapshot blob missing"
  in
  let b = Bytes.of_string snap in
  let pos = Bytes.length b - 1 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
  Store.replace store "s.snap" (Bytes.to_string b);
  let scratch = Registry.create () in
  let _, r2 = Wal.open_ ~metrics:scratch ~store ~name:"s" () in
  check_bool "corrupt snapshot dropped" true (r2.Wal.snapshot = None);
  check_records "log tail still replays" [ "c" ] r2.Wal.records;
  check_int "corruption counted" 1 (counter_value scratch "wal_snapshot_corrupt_total")

let test_auto_snapshot_bounds_log () =
  let store = Store.mem () in
  let scratch = Registry.create () in
  let wal, _ = Wal.open_ ~metrics:scratch ~snapshot_every:8 ~store ~name:"b" () in
  (* live state = the last 8 payloads, like a ring-buffered table *)
  let live = Queue.create () in
  Wal.set_snapshot_source wal (fun () ->
      String.concat "," (List.of_seq (Queue.to_seq live)));
  for i = 1 to 100 do
    let p = Printf.sprintf "r%03d" i in
    Queue.push p live;
    if Queue.length live > 8 then ignore (Queue.pop live);
    Wal.append wal p;
    if i mod 3 = 0 then Wal.flush wal
  done;
  Wal.flush wal;
  check_bool "snapshots were taken automatically" true
    (counter_value scratch "wal_snapshots_total" >= 10);
  (* the log holds at most one snapshot interval of records (plus the
     flush granularity), never the whole history *)
  check_bool "log bounded by snapshot cadence" true
    (Store.size store "b.log" <= 11 * frame_len "rNNN");
  (* snapshot + tail reconstructs exactly the live suffix *)
  let r = Wal.recover ~store ~name:"b" in
  let from_snap =
    match r.Wal.snapshot with
    | None | Some "" -> []
    | Some s -> String.split_on_char ',' s
  in
  let replayed = from_snap @ r.Wal.records in
  let suffix =
    let n = List.length replayed in
    List.filteri (fun i _ -> i >= n - 8) replayed
  in
  check_records "replay converges on the live state"
    (List.of_seq (Queue.to_seq live))
    suffix

(* ------------------------------------------------------------------ *)
(* Crash mid-batch                                                     *)
(* ------------------------------------------------------------------ *)

let test_interposer_crash_leaves_durable_prefix () =
  let store = Store.mem () in
  let calls = ref 0 in
  let boom = ref max_int in
  let interpose record ~write =
    incr calls;
    if !calls > !boom then raise Exit;
    write record
  in
  let wal, _ =
    Wal.open_ ~metrics:(Registry.create ())
      ~interpose:(fun () -> Some interpose)
      ~store ~name:"c" ()
  in
  let payloads = List.init 10 (fun i -> Printf.sprintf "p%d" i) in
  List.iter (Wal.append wal) payloads;
  boom := 6;
  (* the 7th record of the batch crashes *)
  (match Wal.flush wal with
  | () -> Alcotest.fail "expected the injected crash to propagate"
  | exception Exit -> ());
  let r = Wal.recover ~store ~name:"c" in
  check_records "the batch prefix before the crash is durable"
    (take 6 payloads) r.Wal.records;
  check_bool "prefix flush leaves no tear" false r.Wal.tail_truncated

(* ------------------------------------------------------------------ *)
(* Interposed = direct                                                 *)
(* ------------------------------------------------------------------ *)

(* An identity interposer must not change a byte: the fault plane's
   contract is one call per record, in LSN order, and nothing else. *)
let test_interposed_writes_direct_bytes () =
  let lsns = ref [] in
  let interpose record ~write =
    lsns := Int64.to_int (String.get_int64_be record 8) :: !lsns;
    write record
  in
  let open_wal ?interpose store =
    let metrics = Registry.create () in
    let interpose = Option.map (fun f () -> Some f) interpose in
    let wal, _ =
      Wal.open_ ~metrics ?interpose ~max_pending:5 ~snapshot_every:12 ~store ~name:"e" ()
    in
    Wal.set_snapshot_source wal (fun () -> Printf.sprintf "state@%d" (Wal.next_lsn wal));
    (wal, metrics)
  in
  let direct_store = Store.mem () and interposed_store = Store.mem () in
  let direct, direct_metrics = open_wal direct_store in
  let interposed, interposed_metrics = open_wal ~interpose interposed_store in
  let n = ref 0 in
  let both f = f direct; f interposed in
  let append k =
    for _ = 1 to k do
      let p = String.init (!n mod 23) (fun i -> Char.chr (((!n * 7) + i) land 0xff)) in
      incr n;
      both (fun w -> Wal.append w p)
    done
  in
  (* 3 records; then 7, the 5th of which flushes inline *)
  append 3;
  both Wal.flush;
  append 7;
  both Wal.flush (* 10 since the last snapshot: none yet *);
  append 4;
  both Wal.flush (* 14: this flush takes the automatic snapshot *);
  append 2;
  both Wal.snapshot (* a forced one, flushing the 2 pending first *);
  append 6 (* 5 flush inline, 1 is still pending *);
  both Wal.flush;
  List.iter
    (fun blob ->
      Alcotest.(check (option string)) (blob ^ " identical") (Store.load direct_store blob)
        (Store.load interposed_store blob))
    [ "e.log"; "e.snap" ];
  Alcotest.(check (list int)) "one interposer call per record, in LSN order"
    (List.init !n Fun.id) (List.rev !lsns);
  List.iter
    (fun c ->
      check_int c (counter_value direct_metrics c) (counter_value interposed_metrics c))
    [ "wal_appends_total"; "wal_flushes_total"; "wal_flushed_bytes_total"; "wal_snapshots_total" ];
  check_int "both took two snapshots" 2 (counter_value direct_metrics "wal_snapshots_total")

(* The interposer runs at flush, so an append costs the same with it. *)
let test_interposed_append_allocates_as_direct () =
  let payload = String.make 48 'p' in
  let words_per_append ?interpose () =
    let wal, _ =
      Wal.open_ ~metrics:(Registry.create ()) ?interpose ~store:(Store.mem ()) ~name:"a" ()
    in
    (* grow the batch once, then measure a flush cycle of the same size *)
    for _ = 1 to 200 do Wal.append wal payload done;
    Wal.flush wal;
    let before = Gc.minor_words () in
    for _ = 1 to 200 do Wal.append wal payload done;
    let words = Gc.minor_words () -. before in
    Wal.flush wal;
    words /. 200.
  in
  let direct = words_per_append () in
  let interposed = words_per_append ~interpose:(fun () -> Some (fun r ~write -> write r)) () in
  Alcotest.(check (float 0.)) "words per 48-byte append, interposed = direct" direct interposed

(* ------------------------------------------------------------------ *)
(* Disk fault plane semantics                                          *)
(* ------------------------------------------------------------------ *)

let test_disk_fault_semantics () =
  let metrics = Registry.create () in
  let now () = 0. in
  let inj = Fault.create ~metrics ~seed:11 ~now ~point:"disk" () in
  let payload = "hello world" in
  let out = ref [] in
  let write s = out := s :: !out in
  (* Corrupt 1.0: same length, different bytes *)
  Fault.set_plan inj [ Fault.Corrupt 1.0 ];
  Fault.apply_write inj payload ~write;
  (match !out with
  | [ s ] ->
      check_int "corrupt keeps the length" (String.length payload) (String.length s);
      check_bool "corrupt changes a byte" true (s <> payload)
  | _ -> Alcotest.fail "corrupt should write exactly once");
  check_int "corrupt counted" 1 (fault_count metrics "corrupt");
  (* Drop 1.0: a short write — a strict prefix reaches the store *)
  Fault.set_plan inj [ Fault.Drop 1.0 ];
  out := [];
  Fault.apply_write inj payload ~write;
  (match !out with
  | [ s ] ->
      check_bool "short write is a strict prefix" true
        (String.length s < String.length payload
        && String.equal s (String.sub payload 0 (String.length s)))
  | _ -> Alcotest.fail "short write should write exactly once");
  check_bool "short write counted as drop" true (fault_count metrics "drop" >= 1);
  (* Crash 1.0: nothing written, Injected_crash carries the point *)
  Fault.set_plan inj [ Fault.Crash 1.0 ];
  out := [];
  (match Fault.apply_write inj payload ~write with
  | () -> Alcotest.fail "expected Injected_crash"
  | exception Fault.Injected_crash p ->
      Alcotest.(check string) "crash names the choke point" "disk" p);
  check_int "crash-at-boundary writes nothing" 0 (List.length !out);
  check_bool "crash counted" true (fault_count metrics "crash" >= 1);
  (* Drop + Crash: torn write, then the process dies *)
  Fault.set_plan inj [ Fault.Drop 1.0; Fault.Crash 1.0 ];
  out := [];
  (match Fault.apply_write inj payload ~write with
  | () -> Alcotest.fail "expected Injected_crash after the torn write"
  | exception Fault.Injected_crash _ -> ());
  (match !out with
  | [ s ] -> check_bool "torn prefix hit the store first" true (String.length s < String.length payload)
  | _ -> Alcotest.fail "torn-then-crash should write exactly once")

(* A WAL whose writes pass through a seeded disk injector: whatever the
   faults did, recovery must yield a clean prefix of what was appended. *)
let test_faulty_wal_recovers_prefix () =
  let seed =
    match Sys.getenv_opt "CHAOS_SEED" with
    | Some s -> ( try int_of_string (String.trim s) with _ -> 7)
    | None -> 7
  in
  let metrics = Registry.create () in
  let now () = 0. in
  let inj = Fault.create ~metrics ~seed ~now ~point:"disk" () in
  Fault.set_plan inj [ Fault.Drop 0.15; Fault.Corrupt 0.1; Fault.Crash 0.05 ];
  let store = Store.mem () in
  let interpose () = if Fault.armed inj then Some (Fault.apply_write inj) else None in
  let payloads = ref [] in
  let crashed = ref 0 in
  let generation = ref 0 in
  (* run a few crash/recover generations; each reopen must see a prefix *)
  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'
    | _ :: _, [] -> false
  in
  while !generation < 5 do
    incr generation;
    let wal, r =
      Wal.open_ ~metrics:(Registry.create ()) ~interpose ~store ~name:"f" ()
    in
    check_bool
      (Printf.sprintf "seed %d gen %d: recovery is a prefix" seed !generation)
      true
      (is_prefix r.Wal.records !payloads);
    (* the durable prefix IS the truth now: the rest was never written *)
    payloads := r.Wal.records;
    (try
       for i = 1 to 40 do
         let p = Printf.sprintf "g%d-%03d" !generation i in
         Wal.append wal p;
         payloads := !payloads @ [ p ];
         if i mod 8 = 0 then Wal.flush wal
       done;
       Wal.flush wal
     with Fault.Injected_crash _ -> incr crashed);
    (* anything still buffered (or lost to faults) must disappear from
       the truth on the next recovery — handled by the prefix check *)
  done;
  Fault.disarm inj;
  let _, r = Wal.open_ ~metrics:(Registry.create ()) ~store ~name:"f" () in
  check_bool
    (Printf.sprintf "seed %d: final recovery is a prefix" seed)
    true
    (is_prefix r.Wal.records !payloads);
  check_bool
    (Printf.sprintf "seed %d: the fault plan actually fired" seed)
    true
    (fault_count metrics "drop" + fault_count metrics "corrupt"
     + fault_count metrics "crash"
    > 0)

(* ------------------------------------------------------------------ *)
(* Store backends                                                      *)
(* ------------------------------------------------------------------ *)

let test_file_store () =
  let dir = Filename.temp_file "hw_wal_store" ".d" in
  Sys.remove dir;
  let store = Store.file ~fsync:true ~dir () in
  Store.append store "a.log" "hello ";
  Store.append store "a.log" "world";
  Alcotest.(check (option string)) "append accumulates" (Some "hello world")
    (Store.load store "a.log");
  Store.replace store "a.log" "fresh";
  Alcotest.(check (option string)) "replace swaps contents" (Some "fresh")
    (Store.load store "a.log");
  check_int "size" 5 (Store.size store "a.log");
  Alcotest.(check (option string)) "absent blob" None (Store.load store "missing");
  Store.remove store "a.log";
  Alcotest.(check (option string)) "removed blob" None (Store.load store "a.log");
  check_int "removed size" 0 (Store.size store "a.log");
  (match Store.load store "../evil" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "path separators must be rejected");
  (* WAL round-trip through the filesystem, reopened via a fresh handle *)
  let wal, _ = Wal.open_ ~metrics:(Registry.create ()) ~store ~name:"w" () in
  List.iter (Wal.append wal) [ "x"; "y"; "z" ];
  Wal.flush wal;
  let store2 = Store.file ~dir () in
  let r = Wal.recover ~store:store2 ~name:"w" in
  check_records "file-backed records survive reopen" [ "x"; "y"; "z" ] r.Wal.records;
  List.iter (Store.remove store) [ "w.log"; "w.snap" ];
  (try Sys.rmdir dir with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Row codec: hostile inputs                                           *)
(* ------------------------------------------------------------------ *)

let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let value_equal a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> x = y
  | Value.Bool x, Value.Bool y -> x = y
  | Value.Str x, Value.Str y -> String.equal x y
  | Value.Real x, Value.Real y | Value.Ts x, Value.Ts y -> feq x y
  | _ -> false

let tuple_equal (a : Value.tuple) (b : Value.tuple) =
  feq a.Value.ts b.Value.ts
  && Array.length a.Value.values = Array.length b.Value.values
  && Array.for_all2 value_equal a.Value.values b.Value.values

let print_tuple (t : Value.tuple) =
  Printf.sprintf "{ts=%h; [%s]}" t.Value.ts
    (String.concat "; "
       (List.map
          (fun v ->
            let s = Value.to_string v in
            if String.length s > 40 then
              Printf.sprintf "%s...(%d bytes)" (String.sub s 0 40) (String.length s)
            else s)
          (Array.to_list t.Value.values)))

let hostile_value_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun i -> Value.Int i) (oneofl [ 0; 1; -1; 42; max_int; min_int ]));
        ( 2,
          map
            (fun f -> Value.Real f)
            (oneofl [ 0.; -0.; 1.5; nan; infinity; neg_infinity; epsilon_float ]) );
        ( 3,
          map
            (fun s -> Value.Str s)
            (string_size
               (frequency [ (6, int_bound 20); (1, oneofl [ 65535; 65536; 70000 ]) ]))
        );
        (1, map (fun b -> Value.Bool b) bool);
        (1, map (fun f -> Value.Ts f) (oneofl [ 0.; 1.7e9; nan; infinity ]));
      ])

let hostile_row_gen =
  QCheck.Gen.(
    map2
      (fun ts values -> { Value.ts; values = Array.of_list values })
      (oneofl [ 0.; -1.; 1.7e9; nan; infinity ])
      (list_size (int_bound 6) hostile_value_gen))

let arbitrary_row = QCheck.make ~print:print_tuple hostile_row_gen

let prop_row_roundtrip =
  QCheck.Test.make ~name:"hostile rows round-trip the WAL codec exactly" ~count:200
    arbitrary_row (fun row ->
      match Wal_codec.decode_row (Wal_codec.encode_row row) with
      | Some row' -> tuple_equal row row'
      | None -> false)

let prop_rows_roundtrip =
  QCheck.Test.make ~name:"row batches round-trip the snapshot codec" ~count:100
    QCheck.(make Gen.(list_size (int_bound 5) hostile_row_gen))
    (fun rows ->
      match Wal_codec.decode_rows (Wal_codec.encode_rows rows) with
      | Some rows' ->
          List.length rows = List.length rows'
          && List.for_all2 tuple_equal rows rows'
      | None -> false)

let prop_codec_total =
  QCheck.Test.make
    ~name:"decode_row is total: arbitrary bytes yield Some or None, never raise"
    ~count:300
    QCheck.(string_of_size Gen.(int_bound 80))
    (fun junk ->
      (* mangled prefixes of a real row plus raw junk: must not raise *)
      let real = Wal_codec.encode_row { Value.ts = 1.; values = [| Value.Str junk |] } in
      let cut = String.length junk mod (String.length real + 1) in
      ignore (Wal_codec.decode_row junk);
      ignore (Wal_codec.decode_row (String.sub real 0 cut));
      ignore (Wal_codec.decode_rows junk);
      true)

let prop_mangled_log_recovers_prefix =
  QCheck.Test.make
    ~name:"randomly truncated+flipped logs recover a prefix, never raise" ~count:150
    QCheck.(
      triple
        (small_list (string_of_size Gen.(int_bound 40)))
        small_nat (option small_nat))
    (fun (payloads, cut, flip) ->
      let store = Store.mem () in
      let wal, _ = Wal.open_ ~metrics:(Registry.create ()) ~store ~name:"p" () in
      List.iter (Wal.append wal) payloads;
      Wal.flush wal;
      let log = match Store.load store "p.log" with Some l -> l | None -> "" in
      let log =
        if String.length log = 0 then log
        else String.sub log 0 (cut mod (String.length log + 1))
      in
      let log =
        match flip with
        | Some f when String.length log > 0 ->
            let b = Bytes.of_string log in
            let pos = f mod Bytes.length b in
            Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
            Bytes.to_string b
        | _ -> log
      in
      Store.replace store "p.log" log;
      let r = Wal.recover ~store ~name:"p" in
      let rec is_prefix xs ys =
        match (xs, ys) with
        | [], _ -> true
        | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'
        | _ :: _, [] -> false
      in
      is_prefix r.Wal.records payloads)

(* ------------------------------------------------------------------ *)
(* Database-level durability                                           *)
(* ------------------------------------------------------------------ *)

let scan_table db name =
  match Database.table db name with Some t -> Table.scan t | None -> []

let test_database_recovery_roundtrip () =
  let store = Store.mem () in
  let clock = ref 100. in
  let now () = !clock in
  let db1 = Database.create ~metrics:(Registry.create ()) ~recover_from:store ~now () in
  for i = 1 to 50 do
    clock := !clock +. 1.;
    Database.record_lease db1
      ~mac:(Value.Str (Printf.sprintf "00:16:3e:00:00:%02x" i))
      ~ip:(Value.Str (Printf.sprintf "10.0.0.%d" (100 + (i mod 40))))
      ~hostname:(Printf.sprintf "dev%d" i)
      ~action:(if i mod 7 = 0 then "revoke" else "grant");
    Database.record_policy db1 ~kind:"token" ~id:(Printf.sprintf "tok%d" i)
      ~payload:"" ~action:"set"
  done;
  Database.flush_wal db1;
  let db2 = Database.create ~metrics:(Registry.create ()) ~recover_from:store ~now () in
  List.iter
    (fun name ->
      let a = scan_table db1 name and b = scan_table db2 name in
      check_int (name ^ " row count recovers") (List.length a) (List.length b);
      List.iter2
        (fun x y ->
          check_bool (name ^ " tuples recover bit-exact (incl. timestamps)") true
            (tuple_equal x y))
        a b)
    [ "Leases"; "Policies" ];
  (* ephemeral tables are not logged *)
  check_records "no WAL blobs for ephemeral tables" []
    (List.filter (fun n -> Store.size store (n ^ ".log") > 0) [ "Flows"; "Links" ]);
  (* an unflushed insert is the at-most-one-tick loss window *)
  clock := !clock +. 1.;
  Database.record_lease db1 ~mac:(Value.Str "00:16:3e:00:00:ff") ~ip:(Value.Str "10.0.0.9")
    ~hostname:"late" ~action:"grant";
  let db3 = Database.create ~metrics:(Registry.create ()) ~recover_from:store ~now () in
  check_int "unflushed row is lost (bounded loss window)" 50
    (List.length (scan_table db3 "Leases"));
  (* ...and tick makes it durable *)
  Database.tick db1;
  let db4 = Database.create ~metrics:(Registry.create ()) ~recover_from:store ~now () in
  check_int "tick group-commits the pending row" 51
    (List.length (scan_table db4 "Leases"))

let test_database_snapshot_bounds_store () =
  let store = Store.mem () in
  let clock = ref 0. in
  let now () = !clock in
  (* tiny rings so snapshots trigger often *)
  let db =
    Database.create ~default_capacity:32 ~metrics:(Registry.create ())
      ~recover_from:store ~now ()
  in
  for i = 1 to 1000 do
    clock := !clock +. 1.;
    Database.record_lease db ~mac:(Value.Str "00:16:3e:00:00:01") ~ip:(Value.Str "10.0.0.100")
      ~hostname:(Printf.sprintf "h%d" i) ~action:"renew";
    if i mod 10 = 0 then Database.tick db
  done;
  Database.flush_wal db;
  (* log + snapshot are bounded by live state (32 rows; snapshots fire
     every 4x capacity = 128 records), not by the 1000 inserts — a
     structural bound: well under the ~90 KB an untruncated log of 1000
     framed rows would occupy *)
  let footprint = Store.size store "Leases.log" + Store.size store "Leases.snap" in
  check_bool
    (Printf.sprintf "store footprint bounded by live state (%d bytes)" footprint)
    true (footprint < 32 * 1024);
  let db2 =
    Database.create ~default_capacity:32 ~metrics:(Registry.create ())
      ~recover_from:store ~now ()
  in
  let a = scan_table db "Leases" and b = scan_table db2 "Leases" in
  check_int "ring contents recover" (List.length a) (List.length b);
  List.iter2
    (fun x y -> check_bool "recovered tuple matches" true (tuple_equal x y))
    a b

(* A router always installs its disk fault point, but a disarmed point
   costs a flush nothing: 64 durable inserts reach the store as the
   sealed batch, in one append of exactly their frames, with no string
   per record for an interposer (such a copy is ~10 words here, so 64
   of them cannot fit under 64 words). Growing the store's log buffer
   allocates outside the minor heap, so it does not count. *)
let test_disarmed_router_flush_copies_nothing () =
  let store = Store.mem () in
  let router = Hw_router.Router.create ~wal_store:store ~loop:(Hw_sim.Event_loop.create ()) () in
  let db = Hw_router.Router.db router in
  let metrics = Hw_router.Router.metrics router in
  let insert_64 () =
    for i = 1 to 64 do
      Database.record_policy db ~kind:"token" ~id:(Printf.sprintf "tok%03d" i) ~payload:""
        ~action:"set"
    done
  in
  for _ = 1 to 4 do
    insert_64 ();
    Database.flush_wal db
  done;
  insert_64 ();
  let size = Store.size store "Policies.log" in
  let flushed = counter_value metrics "wal_flushed_bytes_total" in
  let flushes = counter_value metrics "wal_flushes_total" in
  let before = Gc.minor_words () in
  Database.flush_wal db;
  let words = Gc.minor_words () -. before in
  let written = Store.size store "Policies.log" - size in
  check_int "one flush" (flushes + 1) (counter_value metrics "wal_flushes_total");
  check_int "the log grew by the flushed frames" (counter_value metrics "wal_flushed_bytes_total" - flushed)
    written;
  check_bool (Printf.sprintf "64 frames (%d bytes) written" written) true (written > 64 * 16);
  check_bool (Printf.sprintf "%.0f words for the flush of 64 records (< 64)" words) true (words < 64.)

let () =
  Alcotest.run "hw_wal"
    [
      ( "wal",
        [
          Alcotest.test_case "append/flush/recover round-trip" `Quick test_roundtrip;
          Alcotest.test_case "crash-point matrix: every byte offset" `Quick
            test_crash_point_matrix;
          Alcotest.test_case "bit-flip matrix: every byte" `Quick test_bit_flip_matrix;
          Alcotest.test_case "snapshot truncation + corrupt snapshot" `Quick
            test_snapshot_and_corrupt_snapshot;
          Alcotest.test_case "auto-snapshot bounds the log" `Quick
            test_auto_snapshot_bounds_log;
          Alcotest.test_case "interposer crash leaves the batch prefix" `Quick
            test_interposer_crash_leaves_durable_prefix;
          Alcotest.test_case "interposed and direct WALs write the same bytes" `Quick
            test_interposed_writes_direct_bytes;
          Alcotest.test_case "an interposed append allocates as a direct one" `Quick
            test_interposed_append_allocates_as_direct;
        ] );
      ( "faults",
        [
          Alcotest.test_case "disk fault semantics" `Quick test_disk_fault_semantics;
          Alcotest.test_case "seeded faulty WAL always recovers a prefix" `Quick
            test_faulty_wal_recovers_prefix;
        ] );
      ( "store",
        [ Alcotest.test_case "file backend" `Quick test_file_store ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_row_roundtrip;
          QCheck_alcotest.to_alcotest prop_rows_roundtrip;
          QCheck_alcotest.to_alcotest prop_codec_total;
          QCheck_alcotest.to_alcotest prop_mangled_log_recovers_prefix;
        ] );
      ( "database",
        [
          Alcotest.test_case "durable tables recover bit-exact" `Quick
            test_database_recovery_roundtrip;
          Alcotest.test_case "a disarmed router's flush copies no record" `Quick
            test_disarmed_router_flush_copies_nothing;
          Alcotest.test_case "snapshots bound the database store" `Quick
            test_database_snapshot_bounds_store;
        ] );
    ]
