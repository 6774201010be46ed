(* hw_util: ring buffer and wire codec primitives *)

open Hw_util

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

let test_ring_empty () =
  let r = Ring.create ~capacity:4 in
  check_int "length" 0 (Ring.length r);
  Alcotest.(check bool) "is_empty" true (Ring.is_empty r);
  Alcotest.(check (option int)) "peek_oldest" None (Ring.peek_oldest r);
  Alcotest.(check (option int)) "peek_newest" None (Ring.peek_newest r)

let test_ring_push_within_capacity () =
  let r = Ring.create ~capacity:4 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  check_int "length" 3 (Ring.length r);
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Ring.to_list r);
  Alcotest.(check (option int)) "oldest" (Some 1) (Ring.peek_oldest r);
  Alcotest.(check (option int)) "newest" (Some 3) (Ring.peek_newest r)

let test_ring_eviction () =
  let r = Ring.create ~capacity:3 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  check_int "length capped" 3 (Ring.length r);
  Alcotest.(check (list int)) "oldest evicted" [ 3; 4; 5 ] (Ring.to_list r);
  check_int "total pushed" 5 (Ring.total_pushed r)

let test_ring_get_bounds () =
  let r = Ring.create ~capacity:3 in
  Ring.push r 10;
  check_int "get 0" 10 (Ring.get r 0);
  Alcotest.check_raises "get out of range" (Invalid_argument "Ring.get: index out of range")
    (fun () -> ignore (Ring.get r 1))

let test_ring_capacity_validation () =
  Alcotest.check_raises "zero capacity" (Invalid_argument "Ring.create: capacity must be positive")
    (fun () -> ignore (Ring.create ~capacity:0))

let test_ring_clear () =
  let r = Ring.create ~capacity:2 in
  List.iter (Ring.push r) [ 1; 2 ];
  Ring.clear r;
  check_int "cleared" 0 (Ring.length r);
  Ring.push r 9;
  Alcotest.(check (list int)) "usable after clear" [ 9 ] (Ring.to_list r)

let test_ring_newest_first () =
  let r = Ring.create ~capacity:3 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "reverse" [ 3; 2; 1 ] (Ring.to_list_newest_first r)

let test_ring_filter_fold () =
  let r = Ring.create ~capacity:8 in
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check (list int)) "filter" [ 2; 4 ] (Ring.filter (fun x -> x mod 2 = 0) r);
  check_int "fold sum" 15 (Ring.fold ( + ) 0 r)

let test_ring_fold_range () =
  let r = Ring.create ~capacity:5 in
  (* wrapped: holds [3;4;5;6;7] *)
  List.iter (Ring.push r) [ 1; 2; 3; 4; 5; 6; 7 ];
  check_int "middle slice" 15 (Ring.fold_range ( + ) 0 r ~pos:1 ~len:3);
  check_int "whole ring" 25 (Ring.fold_range ( + ) 0 r ~pos:0 ~len:5);
  check_int "empty slice" 0 (Ring.fold_range ( + ) 0 r ~pos:2 ~len:0);
  Alcotest.(check (list int)) "order oldest-first" [ 5; 6; 7 ]
    (List.rev (Ring.fold_range (fun acc x -> x :: acc) [] r ~pos:2 ~len:3));
  Alcotest.check_raises "out of range" (Invalid_argument "Ring.fold_range: window out of range")
    (fun () -> ignore (Ring.fold_range ( + ) 0 r ~pos:3 ~len:3))

let test_ring_lower_bound () =
  let r = Ring.create ~capacity:4 in
  (* wrapped: holds [30;40;50;60] *)
  List.iter (Ring.push r) [ 10; 20; 30; 40; 50; 60 ];
  check_int "strictly inside" 2 (Ring.lower_bound (fun x -> x >= 45) r);
  check_int "exact element" 1 (Ring.lower_bound (fun x -> x >= 40) r);
  check_int "all satisfy" 0 (Ring.lower_bound (fun x -> x >= 0) r);
  check_int "none satisfy" 4 (Ring.lower_bound (fun x -> x > 100) r);
  check_int "empty ring" 0 (Ring.lower_bound (fun _ -> true) (Ring.create ~capacity:3))

let prop_ring_lower_bound_matches_scan =
  QCheck.Test.make ~name:"lower_bound agrees with a linear scan on sorted data" ~count:300
    QCheck.(triple (int_range 1 16) (small_list small_nat) (int_bound 40))
    (fun (cap, xs, threshold) ->
      let r = Ring.create ~capacity:cap in
      List.iter (Ring.push r) (List.sort compare xs);
      let p x = x >= threshold in
      let naive =
        let rec go i = if i >= Ring.length r then i else if p (Ring.get r i) then i else go (i + 1) in
        go 0
      in
      Ring.lower_bound p r = naive)

let test_ring_of_floats () =
  let r = Ring.create ~capacity:4 in
  List.iter (Ring.push r) [ 1.5; 2.5; 3.5; 4.5; 5.5; 6.5 ];
  Alcotest.(check (list (float 0.))) "wrapped" [ 3.5; 4.5; 5.5; 6.5 ] (Ring.to_list r);
  Alcotest.(check (float 0.)) "get" 5.5 (Ring.get r 2);
  check_int "lower bound" 2 (Ring.lower_bound (fun x -> x >= 5.) r);
  check_int "lower bound, none" 4 (Ring.lower_bound (fun x -> x > 7.) r);
  Ring.clear r;
  check_int "cleared" 0 (Ring.length r);
  Alcotest.(check (option (float 0.))) "empty" None (Ring.peek_newest r);
  Ring.push r 8.5;
  Alcotest.(check (list (float 0.))) "usable after clear" [ 8.5 ] (Ring.to_list r);
  check_int "total pushed" 7 (Ring.total_pushed r)

let prop_ring_capacity_bound =
  QCheck.Test.make ~name:"ring never exceeds capacity" ~count:200
    QCheck.(pair (int_range 1 20) (small_list small_int))
    (fun (cap, xs) ->
      let r = Ring.create ~capacity:cap in
      List.iter (Ring.push r) xs;
      Ring.length r <= cap && Ring.length r = min cap (List.length xs))

let prop_ring_keeps_suffix =
  QCheck.Test.make ~name:"ring keeps the most recent elements in order" ~count:200
    QCheck.(pair (int_range 1 20) (small_list small_int))
    (fun (cap, xs) ->
      let r = Ring.create ~capacity:cap in
      List.iter (Ring.push r) xs;
      let n = List.length xs in
      let expected = List.filteri (fun i _ -> i >= n - cap) xs in
      Ring.to_list r = expected)

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip_ints () =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 0xab;
  Wire.Writer.u16 w 0xbeef;
  Wire.Writer.u32 w 0xdeadbeefl;
  Wire.Writer.u64 w 0x0123456789abcdefL;
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  check_int "u8" 0xab (Wire.Reader.u8 r ~field:"a");
  check_int "u16" 0xbeef (Wire.Reader.u16 r ~field:"b");
  Alcotest.(check int32) "u32" 0xdeadbeefl (Wire.Reader.u32 r ~field:"c");
  Alcotest.(check int64) "u64" 0x0123456789abcdefL (Wire.Reader.u64 r ~field:"d");
  check_int "consumed" 0 (Wire.Reader.remaining r)

let test_wire_u32_int () =
  let w = Wire.Writer.create () in
  Wire.Writer.u32_int w 0xfffffffe;
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  check_int "u32_int" 0xfffffffe (Wire.Reader.u32_int r ~field:"x")

let test_wire_truncation () =
  let r = Wire.Reader.of_string "\x01" in
  Alcotest.check_raises "u16 on 1 byte" (Wire.Truncated "len") (fun () ->
      ignore (Wire.Reader.u16 r ~field:"len"))

let test_wire_fixed_string () =
  let w = Wire.Writer.create () in
  Wire.Writer.fixed_string w ~len:8 "abc";
  check_str "padded" "abc\000\000\000\000\000" (Wire.Writer.contents w);
  let w2 = Wire.Writer.create () in
  Wire.Writer.fixed_string w2 ~len:2 "abcdef";
  check_str "truncated" "ab" (Wire.Writer.contents w2)

let test_wire_patch_u16 () =
  let w = Wire.Writer.create () in
  Wire.Writer.u16 w 0;
  Wire.Writer.string w "body";
  Wire.Writer.patch_u16 w ~pos:0 (Wire.Writer.length w);
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  check_int "patched length" 6 (Wire.Reader.u16 r ~field:"len")

let test_wire_sub_reader () =
  let r = Wire.Reader.of_string "abcdef" in
  let sub = Wire.Reader.sub_reader r ~field:"s" 3 in
  check_str "sub" "abc" (Wire.Reader.bytes sub ~field:"s" 3);
  check_str "rest" "def" (Wire.Reader.bytes r ~field:"r" 3)

let test_checksum_rfc1071 () =
  (* the classic example from RFC 1071 ss. 3 *)
  let data = "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  check_int "checksum" 0x220d (Wire.checksum_ones_complement data)

let test_checksum_verifies_to_zero () =
  let data = "\x45\x00\x00\x1c" in
  let c = Wire.checksum_ones_complement data in
  let full =
    data ^ String.init 2 (function 0 -> Char.chr (c lsr 8) | _ -> Char.chr (c land 0xff))
  in
  check_int "self-verify" 0 (Wire.checksum_ones_complement full)

let test_hex_dump_shape () =
  let out = Wire.hex_dump "hello, homework" in
  Alcotest.(check bool) "has offset" true (String.length out > 0 && String.sub out 0 4 = "0000");
  Alcotest.(check bool) "has ascii" true
    (String.length out >= 2 && String.contains out '|')

let prop_checksum_zero_roundtrip =
  QCheck.Test.make ~name:"checksum of data plus its checksum is zero (even lengths)" ~count:200
    QCheck.(string_of_size (Gen.map (fun n -> 2 * (n mod 64)) Gen.small_nat))
    (fun data ->
      let c = Wire.checksum_ones_complement data in
      let with_csum = data ^ String.init 2 (function 0 -> Char.chr (c lsr 8) | _ -> Char.chr (c land 0xff)) in
      Wire.checksum_ones_complement with_csum = 0)

(* The range form reads in place what the plain form reads from a copy,
   odd lengths and out-of-range arguments included. *)
let prop_checksum_range_is_sub =
  QCheck.Test.make ~name:"checksum of a range = checksum of its substring" ~count:500
    QCheck.(triple (string_of_size (Gen.int_bound 80)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = b mod (n - off + 1) in
      Wire.checksum_ones_complement_range s ~off ~len
      = Wire.checksum_ones_complement (String.sub s off len)
      &&
      match Wire.checksum_ones_complement_range s ~off ~len:(n - off + 1) with
      | _ -> false
      | exception Invalid_argument _ -> true)

(* The checksum loop reads eight bytes a step; a byte-at-a-time sum of
   16-bit words, folded, is the reference, over ranges of every length
   and alignment. *)
let prop_checksum_matches_naive =
  QCheck.Test.make ~name:"checksum = byte-at-a-time 16-bit sum" ~count:1000
    QCheck.(triple (string_of_size (Gen.int_bound 200)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let off = if n = 0 then 0 else a mod (n + 1) in
      let len = b mod (n - off + 1) in
      let sum = ref 0 in
      for k = 0 to len - 1 do
        let byte = Char.code s.[off + k] in
        sum := !sum + if k land 1 = 0 then byte lsl 8 else byte
      done;
      while !sum lsr 16 <> 0 do
        sum := (!sum land 0xffff) + (!sum lsr 16)
      done;
      Wire.checksum_ones_complement_range s ~off ~len = lnot !sum land 0xffff)

(* The Writer against a plain model (a list of bytes): random sequences
   of every write, from a small initial capacity so the buffer grows, and
   with [contents] taken mid-sequence, which must neither change later
   nor be changed by later writes and patches. *)
type writer_op =
  | U8 of int
  | U16 of int
  | U32 of int32
  | U32_int of int
  | U64 of int64
  | Str of string
  | Zeros of int
  | Fixed of int * string
  | Patch of int * int
  | Contents

let writer_op_gen =
  let open QCheck.Gen in
  let any_int = map2 (fun a b -> (a lsl 30) lxor b) int int in
  let small_string = string_size ~gen:char (int_bound 20) in
  frequency
    [
      (3, map (fun v -> U8 v) any_int);
      (3, map (fun v -> U16 v) any_int);
      (2, map (fun v -> U32 (Int32.of_int v)) any_int);
      (2, map (fun v -> U32_int v) any_int);
      (2, map (fun v -> U64 (Int64.of_int v)) any_int);
      (2, map (fun s -> Str s) small_string);
      (1, map (fun n -> Zeros n) (int_bound 20));
      (1, map2 (fun n s -> Fixed (n, s)) (int_bound 20) small_string);
      (2, map2 (fun p v -> Patch (p, v)) nat any_int);
      (1, return Contents);
    ]

let model_bytes_of_op = function
  | U8 v -> [ v land 0xff ]
  | U16 v -> [ (v lsr 8) land 0xff; v land 0xff ]
  | U32 v ->
      List.init 4 (fun i -> Int32.to_int (Int32.shift_right_logical v (8 * (3 - i))) land 0xff)
  | U32_int v -> List.init 4 (fun i -> (v lsr (8 * (3 - i))) land 0xff)
  | U64 v ->
      List.init 8 (fun i -> Int64.to_int (Int64.shift_right_logical v (8 * (7 - i))) land 0xff)
  | Str s -> List.init (String.length s) (fun i -> Char.code s.[i])
  | Zeros n -> List.init n (fun _ -> 0)
  | Fixed (n, s) -> List.init n (fun i -> if i < String.length s then Char.code s.[i] else 0)
  | Patch _ | Contents -> []

let prop_writer_matches_model =
  QCheck.Test.make ~name:"writer = byte-list model, growth and patches included" ~count:1000
    QCheck.(pair (int_bound 8) (list_of_size (Gen.int_bound 60) (make writer_op_gen)))
    (fun (capacity, ops) ->
      let w = Wire.Writer.create ~initial_capacity:capacity () in
      let model = ref [||] in
      let snapshots = ref [] in
      let to_string bytes = String.init (Array.length bytes) (fun i -> Char.chr bytes.(i)) in
      List.iter
        (fun op ->
          (match op with
          | U8 v -> Wire.Writer.u8 w v
          | U16 v -> Wire.Writer.u16 w v
          | U32 v -> Wire.Writer.u32 w v
          | U32_int v -> Wire.Writer.u32_int w v
          | U64 v -> Wire.Writer.u64 w v
          | Str s -> Wire.Writer.string w s
          | Zeros n -> Wire.Writer.zeros w n
          | Fixed (len, s) -> Wire.Writer.fixed_string w ~len s
          | Patch (p, v) ->
              let n = Array.length !model in
              if n >= 2 then begin
                let pos = p mod (n - 1) in
                Wire.Writer.patch_u16 w ~pos v;
                (!model).(pos) <- (v lsr 8) land 0xff;
                (!model).(pos + 1) <- v land 0xff
              end
          | Contents ->
              let s = Wire.Writer.contents w in
              snapshots := (s, to_string !model) :: !snapshots);
          model := Array.append !model (Array.of_list (model_bytes_of_op op)))
        ops;
      Wire.Writer.length w = Array.length !model
      && String.equal (Wire.Writer.contents w) (to_string !model)
      && List.for_all (fun (got, want) -> String.equal got want) !snapshots)

let () =
  Alcotest.run "hw_util"
    [
      ( "ring",
        [
          Alcotest.test_case "empty" `Quick test_ring_empty;
          Alcotest.test_case "push within capacity" `Quick test_ring_push_within_capacity;
          Alcotest.test_case "eviction" `Quick test_ring_eviction;
          Alcotest.test_case "get bounds" `Quick test_ring_get_bounds;
          Alcotest.test_case "capacity validation" `Quick test_ring_capacity_validation;
          Alcotest.test_case "clear" `Quick test_ring_clear;
          Alcotest.test_case "newest first" `Quick test_ring_newest_first;
          Alcotest.test_case "filter and fold" `Quick test_ring_filter_fold;
          Alcotest.test_case "fold range" `Quick test_ring_fold_range;
          Alcotest.test_case "lower bound" `Quick test_ring_lower_bound;
          QCheck_alcotest.to_alcotest prop_ring_lower_bound_matches_scan;
          Alcotest.test_case "float ring" `Quick test_ring_of_floats;
          QCheck_alcotest.to_alcotest prop_ring_capacity_bound;
          QCheck_alcotest.to_alcotest prop_ring_keeps_suffix;
        ] );
      ( "wire",
        [
          Alcotest.test_case "int roundtrips" `Quick test_wire_roundtrip_ints;
          Alcotest.test_case "u32 as int" `Quick test_wire_u32_int;
          Alcotest.test_case "truncation raises" `Quick test_wire_truncation;
          Alcotest.test_case "fixed string" `Quick test_wire_fixed_string;
          Alcotest.test_case "patch u16" `Quick test_wire_patch_u16;
          Alcotest.test_case "sub reader" `Quick test_wire_sub_reader;
          Alcotest.test_case "RFC1071 example" `Quick test_checksum_rfc1071;
          Alcotest.test_case "checksum self-verify" `Quick test_checksum_verifies_to_zero;
          Alcotest.test_case "hex dump shape" `Quick test_hex_dump_shape;
          QCheck_alcotest.to_alcotest prop_checksum_zero_roundtrip;
          QCheck_alcotest.to_alcotest prop_checksum_range_is_sub;
          QCheck_alcotest.to_alcotest prop_checksum_matches_naive;
          QCheck_alcotest.to_alcotest prop_writer_matches_model;
        ] );
    ]
