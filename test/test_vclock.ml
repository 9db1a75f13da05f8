(* Vector clocks and epochs: unit tests for the representation and
   qcheck laws for the join-semilattice structure that happens-before
   detection relies on. *)

open Dgrace_vclock

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Epoch *)

let test_epoch_pack () =
  let e = Epoch.make ~tid:7 ~clock:123 in
  check_int "tid" 7 (Epoch.tid e);
  check_int "clock" 123 (Epoch.clock e);
  check "none is none" true (Epoch.is_none Epoch.none);
  check "real epoch is not none" false (Epoch.is_none e);
  Alcotest.check_raises "tid too large" (Invalid_argument "Epoch.make: tid 1024 out of range")
    (fun () -> ignore (Epoch.make ~tid:1024 ~clock:1));
  Alcotest.check_raises "negative clock" (Invalid_argument "Epoch.make: negative clock")
    (fun () -> ignore (Epoch.make ~tid:0 ~clock:(-1)))

let test_epoch_pp () =
  Alcotest.(check string) "pp" "5@2" (Epoch.to_string (Epoch.make ~tid:2 ~clock:5));
  Alcotest.(check string) "pp none" "-" (Epoch.to_string Epoch.none)

let epoch_roundtrip =
  QCheck.Test.make ~name:"epoch pack/unpack roundtrip" ~count:500
    QCheck.(pair (int_bound Epoch.max_tid) (int_bound 1_000_000))
    (fun (tid, clock) ->
      let e = Epoch.make ~tid ~clock in
      Epoch.tid e = tid && Epoch.clock e = clock)

(* ------------------------------------------------------------------ *)
(* Vector clock *)

let test_get_set () =
  let vc = Vector_clock.create () in
  check_int "unset is 0" 0 (Vector_clock.get vc 5);
  Vector_clock.set vc 5 42;
  check_int "set" 42 (Vector_clock.get vc 5);
  check_int "beyond capacity is 0" 0 (Vector_clock.get vc 1000);
  Vector_clock.tick vc 5;
  check_int "tick" 43 (Vector_clock.get vc 5);
  Vector_clock.tick vc 9;
  check_int "tick from 0" 1 (Vector_clock.get vc 9)

let test_join_leq () =
  let a = Vector_clock.create () and b = Vector_clock.create () in
  Vector_clock.set a 0 3;
  Vector_clock.set b 1 5;
  check "incomparable a<=b" false (Vector_clock.leq a b);
  check "incomparable b<=a" false (Vector_clock.leq b a);
  Vector_clock.join a b;
  check_int "join keeps own" 3 (Vector_clock.get a 0);
  check_int "join takes other" 5 (Vector_clock.get a 1);
  check "b <= join" true (Vector_clock.leq b a)

let test_equal_ignores_capacity () =
  let a = Vector_clock.create ~capacity:2 () in
  let b = Vector_clock.create ~capacity:32 () in
  Vector_clock.set a 1 7;
  Vector_clock.set b 1 7;
  check "equal across capacities" true (Vector_clock.equal a b);
  Vector_clock.set b 20 1;
  check "not equal" false (Vector_clock.equal a b)

let test_epoch_leq () =
  let vc = Vector_clock.create () in
  Vector_clock.set vc 2 10;
  check "ordered" true (Vector_clock.epoch_leq (Epoch.make ~tid:2 ~clock:10) vc);
  check "not ordered" false (Vector_clock.epoch_leq (Epoch.make ~tid:2 ~clock:11) vc);
  check "none before everything" true (Vector_clock.epoch_leq Epoch.none vc)

let test_of_epoch () =
  let vc = Vector_clock.of_epoch (Epoch.make ~tid:3 ~clock:9) in
  check_int "component" 9 (Vector_clock.get vc 3);
  check_int "others" 0 (Vector_clock.get vc 0);
  check_int "max_tid_set" 3 (Vector_clock.max_tid_set vc)

let test_assign_copy () =
  let a = Vector_clock.create () in
  Vector_clock.set a 1 4;
  let b = Vector_clock.copy a in
  Vector_clock.set a 1 9;
  check_int "copy is independent" 4 (Vector_clock.get b 1);
  Vector_clock.set b 7 2;
  Vector_clock.assign b a;
  check "assign makes equal" true (Vector_clock.equal a b);
  check_int "assign cleared stale component" 0 (Vector_clock.get b 7)

(* regression: two clocks that repeatedly join each other (the
   thread/lock pattern under contention) must not inflate each other's
   storage — this once grew exponentially with >5 threads *)
let test_mutual_join_capacity_stable () =
  let a = Vector_clock.create () and b = Vector_clock.create () in
  Vector_clock.set a 8 1;
  (* b starts smaller; repeated mutual joins must converge, not race *)
  for i = 1 to 1000 do
    Vector_clock.set a 8 i;
    Vector_clock.join b a;
    Vector_clock.set b 3 i;
    Vector_clock.join a b
  done;
  check "a stays small" true (Vector_clock.heap_words a < 64);
  check "b stays small" true (Vector_clock.heap_words b < 64)

(* PR 5 regression: assign must reuse the destination's array when the
   source fits its capacity, and the join/assign fast paths must be
   allocation-free in steady state.  Minor-word deltas, not timings —
   stable on any machine. *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_assign_reuses_array () =
  let src = Vector_clock.create () in
  Vector_clock.set src 5 9;
  let dst = Vector_clock.create ~capacity:8 () in
  Vector_clock.set dst 7 3;
  let arr_before = Vector_clock.raw dst in
  Vector_clock.assign dst src;
  check "content assigned" true (Vector_clock.equal dst src);
  check "array reused" true (Vector_clock.raw dst == arr_before);
  (* a wider source must still grow the destination correctly *)
  Vector_clock.set src 20 1;
  Vector_clock.assign dst src;
  check "grown content" true (Vector_clock.equal dst src)

let test_steady_state_allocation_free () =
  let a = Vector_clock.create () and b = Vector_clock.create () in
  for t = 0 to 7 do
    Vector_clock.set a t (t + 1);
    Vector_clock.set b t (8 - t)
  done;
  (* warm up: after the first round every capacity is settled *)
  Vector_clock.assign b a;
  Vector_clock.join b a;
  let iters = 1000 in
  let words =
    minor_words_of (fun () ->
        for i = 1 to iters do
          Vector_clock.set a 3 i;
          Vector_clock.assign b a;
          Vector_clock.join b a;
          ignore (Vector_clock.leq a b : bool)
        done)
  in
  (* zero in practice; the slack absorbs instrumentation noise *)
  if words >= 256. then
    Alcotest.failf "assign/join/leq allocated %.0f minor words / %d iters"
      words iters

let test_fold_pp () =
  let vc = Vector_clock.create () in
  Vector_clock.set vc 0 1;
  Vector_clock.set vc 2 3;
  let sum = Vector_clock.fold (fun _ c acc -> acc + c) vc 0 in
  check_int "fold over non-zero" 4 sum;
  Alcotest.(check string) "pp" "<1, 0, 3>" (Vector_clock.to_string vc)

(* qcheck: generate small clocks as lists of (tid, clock) *)
let gen_vc =
  QCheck.Gen.(
    map
      (fun l ->
        let vc = Vector_clock.create () in
        List.iter (fun (t, c) -> Vector_clock.set vc t c) l;
        vc)
      (small_list (pair (int_bound 12) (int_bound 50))))

let arb_vc = QCheck.make ~print:Vector_clock.to_string gen_vc

let join_into a b =
  let r = Vector_clock.copy a in
  Vector_clock.join r b;
  r

let law_join_commutative =
  QCheck.Test.make ~name:"join commutative" ~count:300 (QCheck.pair arb_vc arb_vc)
    (fun (a, b) -> Vector_clock.equal (join_into a b) (join_into b a))

let law_join_associative =
  QCheck.Test.make ~name:"join associative" ~count:300
    (QCheck.triple arb_vc arb_vc arb_vc) (fun (a, b, c) ->
      Vector_clock.equal (join_into (join_into a b) c) (join_into a (join_into b c)))

let law_join_idempotent =
  QCheck.Test.make ~name:"join idempotent" ~count:300 arb_vc (fun a ->
      Vector_clock.equal (join_into a a) a)

let law_join_upper_bound =
  QCheck.Test.make ~name:"join is an upper bound" ~count:300
    (QCheck.pair arb_vc arb_vc) (fun (a, b) ->
      let j = join_into a b in
      Vector_clock.leq a j && Vector_clock.leq b j)

let law_leq_antisym =
  QCheck.Test.make ~name:"leq antisymmetric" ~count:300 (QCheck.pair arb_vc arb_vc)
    (fun (a, b) ->
      if Vector_clock.leq a b && Vector_clock.leq b a then Vector_clock.equal a b
      else true)

let law_leq_transitive =
  QCheck.Test.make ~name:"leq transitive via join" ~count:300
    (QCheck.triple arb_vc arb_vc arb_vc) (fun (a, b, c) ->
      (* a <= a⊔b <= (a⊔b)⊔c *)
      let ab = join_into a b in
      let abc = join_into ab c in
      Vector_clock.leq a ab && Vector_clock.leq ab abc && Vector_clock.leq a abc)

let law_epoch_leq_consistent =
  QCheck.Test.make ~name:"epoch_leq agrees with leq of of_epoch" ~count:300
    (QCheck.pair (QCheck.pair (QCheck.int_bound 12) (QCheck.int_bound 50)) arb_vc)
    (fun ((tid, clock), vc) ->
      let e = Epoch.make ~tid ~clock in
      Vector_clock.epoch_leq e vc = Vector_clock.leq (Vector_clock.of_epoch e) vc)

(* ------------------------------------------------------------------ *)
(* Int_table against the Stdlib.Hashtbl model *)

(* Keys whose home slot is the last one of a [cap]-slot table, found
   with the table's own Fibonacci hash: three or more of them make a
   probe run that wraps round to slot 0, so removals there exercise the
   backward shift across the wrap. *)
let wrapping_keys cap n =
  let rec log2 c = if c = 1 then 0 else 1 + log2 (c lsr 1) in
  let home k = (k * 0x4F1BBCDCBFA53E0B) lsr (63 - log2 cap) in
  let rec go k acc =
    if List.length acc = n then acc
    else go (k + 1) (if home k = cap - 1 then k :: acc else acc)
  in
  go (-1000) []

let key_pool =
  Array.of_list
    ([ min_int; max_int; 0; -1; 1; min_int + 1; max_int - 1; -4096; 4096 ]
    @ wrapping_keys 8 4 @ wrapping_keys 16 5 @ wrapping_keys 32 6
    @ List.init 12 (fun i -> i + 2))

type table_op = Replace of int * int | Remove of int | Find of int

let gen_key =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun i -> key_pool.(i)) (int_bound (Array.length key_pool - 1)));
        (1, int);
      ])

let gen_table_op =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Replace (k, v)) gen_key small_nat);
        (3, map (fun k -> Remove k) gen_key);
        (2, map (fun k -> Find k) gen_key);
      ])

let pp_table_op = function
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k

let arb_table_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_table_op ops))
    QCheck.Gen.(list_size (int_range 0 120) gen_table_op)

let sorted_bindings iter t =
  let l = ref [] in
  iter (fun k v -> l := (k, v) :: !l) t;
  List.sort compare !l

(* The hash spreads the keys the clock machinery sees: lock ids a run
   numbers from 1, and consecutive page numbers.  At 3/4 load, the
   most probes any bound key takes is pinned per capacity; the
   multiplicative mix this hash replaced needed up to 34 (sequential)
   and 57 (pages) at 1,024 slots, and 109 for sequential keys at 4,096. *)
let test_int_table_probe_runs () =
  List.iter
    (fun (cap, sequential, pages) ->
      let n = cap * 3 / 4 in
      List.iter
        (fun (what, first, want) ->
          let t = Int_table.create n in
          for k = first to first + n - 1 do
            Int_table.replace t k k
          done;
          Alcotest.(check int)
            (Printf.sprintf "%s keys, %d slots" what cap)
            want (Int_table.longest_probe t))
        [ ("sequential", 1, sequential); ("page-number", 0x7f3a10000, pages) ])
    [ (64, 2, 2); (256, 2, 2); (1024, 3, 3); (4096, 3, 3) ]

(* Every lookup agrees with the model after every operation, and at the
   end so do the length, the bindings [iter] visits, and every pool
   key's [mem], [find_or] and [find_opt]. *)
let law_int_table_model =
  QCheck.Test.make ~name:"Int_table = Hashtbl model" ~count:500 arb_table_ops
    (fun ops ->
      let t = Int_table.create 1 and m = Hashtbl.create 16 in
      let agrees k =
        Int_table.find_opt t k = Hashtbl.find_opt m k
        && Int_table.mem t k = Hashtbl.mem m k
        && Int_table.find_or t k ~default:(-1)
           = Option.value (Hashtbl.find_opt m k) ~default:(-1)
        && (match Int_table.find t k with
            | v -> Hashtbl.find_opt m k = Some v
            | exception Not_found -> not (Hashtbl.mem m k))
      in
      List.for_all
        (fun op ->
          (match op with
           | Replace (k, v) ->
             Int_table.replace t k v;
             Hashtbl.replace m k v
           | Remove k ->
             Int_table.remove t k;
             Hashtbl.remove m k
           | Find _ -> ());
          match op with Replace (k, _) | Remove k | Find k -> agrees k)
        ops
      && Int_table.length t = Hashtbl.length m
      && sorted_bindings Int_table.iter t = sorted_bindings Hashtbl.iter m
      && Array.for_all agrees key_pool)

let test_int_table_extreme_keys () =
  let t = Int_table.create 4 in
  let keys = [ min_int; max_int; 0; -1; -7; 7 ] in
  List.iteri (fun i k -> Int_table.replace t k i) keys;
  check_int "all bound" (List.length keys) (Int_table.length t);
  List.iteri (fun i k -> check_int (string_of_int k) i (Int_table.find t k)) keys;
  Int_table.remove t min_int;
  Int_table.remove t 0;
  check_bool "min_int gone" false (Int_table.mem t min_int);
  check_bool "0 gone" false (Int_table.mem t 0);
  check_int "max_int kept" 1 (Int_table.find t max_int);
  check_int "miss gives default" 42 (Int_table.find_or t 0 ~default:42);
  let c = Int_table.copy t in
  Int_table.clear t;
  check_int "cleared" 0 (Int_table.length t);
  check_int "copy unaffected" 4 (Int_table.length c);
  Int_table.reset c;
  check_bool "reset empties" false (Int_table.mem c max_int)

let test_int_table_miss_allocation_free () =
  let t = Int_table.create 64 in
  for k = 0 to 40 do
    Int_table.replace t (k * 3) k
  done;
  let words =
    minor_words_of (fun () ->
        for k = 0 to 999 do
          ignore (Int_table.find_or t k ~default:(-1) : int);
          ignore (Int_table.mem t (-k) : bool)
        done)
  in
  if words >= 256. then
    Alcotest.failf "find_or/mem allocated %.0f minor words / 1000 iters" words

let suites : unit Alcotest.test list =
  let q = List.map QCheck_alcotest.to_alcotest in
  [
      ( "vclock.epoch",
        [
          Alcotest.test_case "pack/unpack + bounds" `Quick test_epoch_pack;
          Alcotest.test_case "pretty printing" `Quick test_epoch_pp;
        ]
        @ q [ epoch_roundtrip ] );
      ( "vclock.vector-clock",
        [
          Alcotest.test_case "get/set/tick" `Quick test_get_set;
          Alcotest.test_case "join and leq" `Quick test_join_leq;
          Alcotest.test_case "equal ignores capacity" `Quick test_equal_ignores_capacity;
          Alcotest.test_case "epoch_leq" `Quick test_epoch_leq;
          Alcotest.test_case "of_epoch" `Quick test_of_epoch;
          Alcotest.test_case "assign/copy" `Quick test_assign_copy;
          Alcotest.test_case "mutual join capacity stable" `Quick test_mutual_join_capacity_stable;
          Alcotest.test_case "assign reuses destination array" `Quick test_assign_reuses_array;
          Alcotest.test_case "steady-state paths allocation-free" `Quick test_steady_state_allocation_free;
          Alcotest.test_case "fold and pp" `Quick test_fold_pp;
        ] );
      ( "vclock.int_table",
        [
          Alcotest.test_case "min_int, max_int, 0, negatives" `Quick
            test_int_table_extreme_keys;
          Alcotest.test_case "lookups allocation-free" `Quick
            test_int_table_miss_allocation_free;
          Alcotest.test_case "probe runs at 3/4 load" `Quick
            test_int_table_probe_runs;
        ]
        @ q [ law_int_table_model ] );
      ( "vclock.laws",
        q
          [
            law_join_commutative;
            law_join_associative;
            law_join_idempotent;
            law_join_upper_bound;
            law_leq_antisym;
            law_leq_transitive;
            law_epoch_leq_consistent;
          ] );
    ]
