(* Shadow memory: the Fig. 4 indexing structure, the same-epoch
   bitmaps, and the accounting that feeds Tables 2 and 3. *)

open Dgrace_shadow

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The lookups return the stored value or the caller's [absent]
   sentinel, with slot bounds stashed in the table; these adapters
   rebuild option/tuple answers for the assertions.  Stored values
   are non-negative, so [-1] is never stored. *)
let absent = -1
let opt v = if v = absent then None else Some v
let get t a = opt (Shadow_table.find t a ~absent)

let bounded t v =
  if v = absent then None
  else Some (Shadow_table.found_lo t, Shadow_table.found_hi t, v)

let prev_neighbor t a = bounded t (Shadow_table.prev_neighbor t a ~absent)
let next_neighbor t a = bounded t (Shadow_table.next_neighbor t a ~absent)

let group t a ~hi =
  let v = Shadow_table.group t a ~hi ~absent in
  (Shadow_table.found_lo t, Shadow_table.found_hi t, opt v)

(* ------------------------------------------------------------------ *)
(* Shadow_table, fixed mode *)

let test_fixed_set_get () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Alcotest.(check (option int)) "absent" None (get t 0x1000);
  Shadow_table.set t 0x1001 7;
  (* slot covers the whole word *)
  Alcotest.(check (option int)) "same slot" (Some 7) (get t 0x1003);
  Alcotest.(check (option int)) "next slot" None (get t 0x1004);
  Alcotest.(check (pair int int)) "slot bounds" (0x1000, 0x1004)
    (Shadow_table.slot_bounds t 0x1002)

let test_set_range_remove_range () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set_range t ~lo:0x1000 ~hi:0x1100 1;
  check_int "entries span blocks" 2 (Shadow_table.entry_count t);
  Alcotest.(check (option int)) "covered" (Some 1) (get t 0x10fc);
  Shadow_table.remove_range t ~lo:0x1000 ~hi:0x1100;
  Alcotest.(check (option int)) "removed" None (get t 0x1050);
  check_int "empty entries dropped" 0 (Shadow_table.entry_count t)

let test_partial_remove_keeps_entry () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set_range t ~lo:0x1000 ~hi:0x1080 1;
  Shadow_table.remove_range t ~lo:0x1000 ~hi:0x1040;
  check_int "entry kept" 1 (Shadow_table.entry_count t);
  Alcotest.(check (option int)) "tail kept" (Some 1) (get t 0x1060)

(* ------------------------------------------------------------------ *)
(* Adaptive mode: m/4 -> m expansion *)

let test_adaptive_expansion () =
  let a = Accounting.create () in
  let t = Shadow_table.create ~mode:Shadow_table.Adaptive ~account:a () in
  Shadow_table.set t 0x1000 1;
  Alcotest.(check (pair int int)) "word slots initially" (0x1000, 0x1004)
    (Shadow_table.slot_bounds t 0x1001);
  let before = Shadow_table.bytes t in
  (* a sub-word access expands the entry to byte slots *)
  Shadow_table.ensure_granularity t ~addr:0x1001 ~size:1;
  Alcotest.(check (pair int int)) "byte slots after" (0x1001, 0x1002)
    (Shadow_table.slot_bounds t 0x1001);
  check_bool "index grew" true (Shadow_table.bytes t > before);
  (* the old word's pointer is inherited by each of its bytes *)
  Alcotest.(check (option int)) "byte 0" (Some 1) (get t 0x1000);
  Alcotest.(check (option int)) "byte 3" (Some 1) (get t 0x1003);
  Alcotest.(check (option int)) "byte 4" None (get t 0x1004)

let test_adaptive_word_access_no_expansion () =
  let t = Shadow_table.create ~mode:Shadow_table.Adaptive () in
  Shadow_table.set t 0x2000 1;
  Shadow_table.ensure_granularity t ~addr:0x2000 ~size:4;
  Alcotest.(check (pair int int)) "still word slots" (0x2000, 0x2004)
    (Shadow_table.slot_bounds t 0x2000);
  Shadow_table.ensure_granularity t ~addr:0x2008 ~size:8;
  Alcotest.(check (pair int int)) "8-byte aligned access stays word" (0x2008, 0x200c)
    (Shadow_table.slot_bounds t 0x2008)

let test_adaptive_precreates_byte_entry () =
  let t = Shadow_table.create ~mode:Shadow_table.Adaptive () in
  Shadow_table.ensure_granularity t ~addr:0x3001 ~size:1;
  Alcotest.(check (pair int int)) "fresh entry at byte slots" (0x3001, 0x3002)
    (Shadow_table.slot_bounds t 0x3001)

(* Regression for the x264-style packed-field scenario at offset 2:
   even but not word-aligned.  The old default-granularity predicate
   keyed on [addr land 1], so a byte access at base+2 reaching [set]
   without a prior [ensure_granularity] landed in a word slot and was
   masked into its neighbours.  The predicate is now the same
   [addr land 3] test everywhere. *)
let test_offset2_set_without_ensure () =
  let t = Shadow_table.create ~mode:Shadow_table.Adaptive () in
  Alcotest.(check (pair int int)) "fresh offset-2 slot is byte-wide"
    (0x5002, 0x5003)
    (Shadow_table.slot_bounds t 0x5002);
  Shadow_table.set t 0x5002 7;
  Alcotest.(check (pair int int)) "slot stays byte-wide" (0x5002, 0x5003)
    (Shadow_table.slot_bounds t 0x5002);
  Alcotest.(check (option int)) "word base not claimed" None
    (get t 0x5000);
  Alcotest.(check (option int)) "neighbouring byte not claimed" None
    (get t 0x5003);
  Alcotest.(check (option int)) "value stored" (Some 7)
    (get t 0x5002);
  (* same access against an existing word page expands it in place *)
  Shadow_table.set t 0x5100 1;
  Shadow_table.set t 0x5102 9;
  Alcotest.(check (pair int int)) "existing page refined" (0x5102, 0x5103)
    (Shadow_table.slot_bounds t 0x5102);
  Alcotest.(check (option int)) "word value inherited" (Some 1)
    (get t 0x5101);
  Alcotest.(check (option int)) "offset-2 byte overwritten" (Some 9)
    (get t 0x5102)

(* ------------------------------------------------------------------ *)
(* Neighbours and group *)

let test_neighbors () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x1000 1;
  Shadow_table.set t 0x1008 2;
  (match prev_neighbor t 0x1008 with
   | Some (lo, hi, v) ->
     check_int "prev lo" 0x1000 lo;
     check_int "prev hi" 0x1004 hi;
     check_int "prev v" 1 v
   | None -> Alcotest.fail "expected prev neighbor");
  (match next_neighbor t 0x1000 with
   | Some (lo, _, v) ->
     check_int "next lo" 0x1008 lo;
     check_int "next v" 2 v
   | None -> Alcotest.fail "expected next neighbor");
  check_bool "no prev of first" true (prev_neighbor t 0x1000 = None)

let test_neighbor_scan_is_bounded () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x1000 1;
  (* a value far away is beyond the bounded neighbourhood *)
  check_bool "too far" true (prev_neighbor t 0x1060 = None)

let test_neighbor_crosses_block () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x107c 5;
  (* 0x1080 is the next 128-byte block *)
  match prev_neighbor t 0x1080 with
  | Some (lo, _, v) ->
    check_int "lo" 0x107c lo;
    check_int "v" 5 v
  | None -> Alcotest.fail "expected neighbor across block boundary"

(* The documented radius is exactly [scan_limit = 4] slots, crossing
   block boundaries: a value 4 slots away is found, 5 slots away is
   not, regardless of where the block boundary falls. *)
let test_neighbor_exact_radius () =
  let probe = 0x1084 in
  let within = [ 0x1080; 0x107c; 0x1078; 0x1074 ] in
  List.iter
    (fun a ->
      let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
      Shadow_table.set t a 1;
      match prev_neighbor t probe with
      | Some (lo, _, _) ->
        check_int (Printf.sprintf "found at 0x%x" a) a lo
      | None -> Alcotest.fail (Printf.sprintf "0x%x is within the radius" a))
    within;
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x1070 1;
  check_bool "5 slots back is out of radius" true
    (prev_neighbor t probe = None);
  (* and forward, 4 slots into the next block *)
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x108c 2;
  (match next_neighbor t 0x107c with
   | Some (lo, _, _) -> check_int "4 slots forward across block" 0x108c lo
   | None -> Alcotest.fail "4th slot forward is within the radius");
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x1090 2;
  check_bool "5 slots forward is out of radius" true
    (next_neighbor t 0x107c = None)

(* A fully-released neighbouring block must answer exactly like a
   never-touched one — sharing decisions in the dynamic detector
   would otherwise depend on allocation history. *)
let test_dropped_equals_untouched () =
  let mk populate =
    let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
    Shadow_table.set t 0x2000 1;
    Shadow_table.set t 0x207c 3;
    if populate then begin
      Shadow_table.set_range t ~lo:0x2080 ~hi:0x2100 2;
      Shadow_table.remove_range t ~lo:0x2080 ~hi:0x2100
    end;
    t
  in
  let dropped = mk true and untouched = mk false in
  check_int "released block is gone"
    (Shadow_table.entry_count untouched)
    (Shadow_table.entry_count dropped);
  List.iter
    (fun probe ->
      check_bool
        (Printf.sprintf "prev at 0x%x" probe)
        true
        (prev_neighbor dropped probe
        = prev_neighbor untouched probe);
      check_bool
        (Printf.sprintf "next at 0x%x" probe)
        true
        (next_neighbor dropped probe
        = next_neighbor untouched probe))
    [ 0x2000; 0x2004; 0x2078; 0x2084; 0x2090; 0x2100; 0x2104 ]

let test_group () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set_range t ~lo:0x1000 ~hi:0x1010 1;
  Shadow_table.set_range t ~lo:0x1010 ~hi:0x1018 2;
  let glo, ghi, v = group t 0x1004 ~hi:0x1020 in
  check_int "group lo" 0x1004 glo;
  check_int "group hi stops at other cell" 0x1010 ghi;
  check_bool "value" true (v = Some 1);
  let glo, ghi, v = group t 0x1018 ~hi:0x1030 in
  check_int "empty group lo" 0x1018 glo;
  check_int "empty group extends" 0x1030 ghi;
  check_bool "empty value" true (v = None)

let test_group_clips_to_slot_boundary () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set_range t ~lo:0x1000 ~hi:0x1040 9;
  let glo, ghi, _ = group t 0x1006 ~hi:0x1007 in
  check_int "lo aligned" 0x1004 glo;
  check_int "hi rounded up to slot" 0x1008 ghi

let test_group_crosses_blocks () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set_range t ~lo:0x1000 ~hi:0x1200 3;
  let _, ghi, v = group t 0x1000 ~hi:0x1200 in
  check_int "crosses two blocks" 0x1200 ghi;
  check_bool "same value" true (v = Some 3)

(* ------------------------------------------------------------------ *)
(* Range-boundary contracts (documented in shadow_table.mli) *)

(* Fixed mode: the slot is the atomic unit, boundaries widen outward. *)
let test_fixed_range_boundaries_widen () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set_range t ~lo:0x1002 ~hi:0x1006 1;
  Alcotest.(check (option int)) "lo widened to slot" (Some 1)
    (get t 0x1000);
  Alcotest.(check (option int)) "hi widened to slot" (Some 1)
    (get t 0x1007);
  Alcotest.(check (option int)) "next slot untouched" None
    (get t 0x1008);
  Shadow_table.remove_range t ~lo:0x1002 ~hi:0x1006;
  Alcotest.(check (option int)) "remove widens too" None
    (get t 0x1000);
  check_int "no entries left" 0 (Shadow_table.entry_count t)

(* Adaptive mode: ranges are byte-exact in both directions. *)
let test_adaptive_range_boundaries_exact () =
  let t = Shadow_table.create ~mode:Shadow_table.Adaptive () in
  (* unaligned lo: the stamp starts exactly at lo *)
  Shadow_table.set_range t ~lo:0x6002 ~hi:0x6010 1;
  Alcotest.(check (option int)) "byte below lo untouched" None
    (get t 0x6001);
  Alcotest.(check (option int)) "lo stamped" (Some 1) (get t 0x6002);
  (* unaligned hi: the stamp ends exactly at hi *)
  Shadow_table.set_range t ~lo:0x6010 ~hi:0x6016 2;
  Alcotest.(check (option int)) "hi-1 stamped" (Some 2) (get t 0x6015);
  Alcotest.(check (option int)) "hi untouched" None (get t 0x6016);
  (* removal cuts an occupied word slot exactly, in both directions *)
  let t2 = Shadow_table.create ~mode:Shadow_table.Adaptive () in
  Shadow_table.set_range t2 ~lo:0x7000 ~hi:0x7010 9;
  Shadow_table.remove_range t2 ~lo:0x7000 ~hi:0x7006;
  Alcotest.(check (option int)) "cleared below unaligned hi" None
    (get t2 0x7005);
  Alcotest.(check (option int)) "kept at unaligned hi" (Some 9)
    (get t2 0x7006);
  Shadow_table.remove_range t2 ~lo:0x700a ~hi:0x7010;
  Alcotest.(check (option int)) "kept below unaligned lo" (Some 9)
    (get t2 0x7009);
  Alcotest.(check (option int)) "cleared at unaligned lo" None
    (get t2 0x700a);
  (* full removal still releases the page *)
  Shadow_table.remove_range t2 ~lo:0x7006 ~hi:0x700a;
  check_int "page released after exact clears" 0
    (Shadow_table.entry_count t2)

let test_iter_range () =
  let t = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 4) () in
  Shadow_table.set t 0x1000 1;
  Shadow_table.set t 0x1004 2;
  Shadow_table.set t 0x1010 3;
  let acc = ref [] in
  Shadow_table.iter_range (fun lo _ v -> acc := (lo, v) :: !acc) t ~lo:0x1000 ~hi:0x1008;
  Alcotest.(check (list (pair int int))) "only intersecting slots"
    [ (0x1000, 1); (0x1004, 2) ] (List.rev !acc)

(* model-based: adaptive table vs a plain per-byte Hashtbl *)
let model_test =
  let open QCheck in
  Test.make ~name:"shadow table agrees with per-byte model" ~count:200
    (small_list
       (triple (int_bound 2) (int_bound 512) (int_bound 3)))
    (fun ops ->
      let t = Shadow_table.create ~mode:Shadow_table.Adaptive () in
      let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let base = 0x4000 in
      List.iter
        (fun (op, off, szi) ->
          let addr = base + off in
          let size = [| 1; 2; 4; 8 |].(szi) in
          match op with
          | 0 ->
            Shadow_table.ensure_granularity t ~addr ~size;
            let lo, hi = Shadow_table.slot_bounds t addr in
            let lo2, hi2 = (min lo addr, max hi (addr + size)) in
            Shadow_table.set_range t ~lo:lo2 ~hi:hi2 off;
            for a = lo2 to hi2 - 1 do Hashtbl.replace model a off done
          | 1 ->
            (* adaptive removal is byte-exact: the model drops exactly
               the requested bytes *)
            Shadow_table.remove_range t ~lo:addr ~hi:(addr + size);
            for a = addr to addr + size - 1 do Hashtbl.remove model a done
          | _ ->
            let got = get t addr in
            let expect = Hashtbl.find_opt model addr in
            if got <> expect then
              Test.fail_reportf "get 0x%x: got %s, expected %s" addr
                (match got with Some v -> string_of_int v | None -> "-")
                (match expect with Some v -> string_of_int v | None -> "-"))
        ops;
      true)

(* Differential property: the Adaptive table against a [Fixed_bytes 1]
   reference driven through the same access/free sequence must make
   identical per-byte observations — same [get], compatible [group]
   claims, and the adaptive index never outgrows the byte index. *)
let differential_test =
  let open QCheck in
  Test.make ~name:"adaptive agrees with Fixed_bytes 1 reference" ~count:200
    (small_list (triple (int_bound 4) (int_bound 700) (int_bound 3)))
    (fun ops ->
      let adaptive = Shadow_table.create ~mode:Shadow_table.Adaptive () in
      let byte = Shadow_table.create ~mode:(Shadow_table.Fixed_bytes 1) () in
      let base = 0x8000 in
      let limit = base + 704 + 8 in
      List.iter
        (fun (op, off, szi) ->
          let addr = base + off in
          let size = [| 1; 2; 4; 8 |].(szi) in
          (match op with
          | 0 ->
            (* detector protocol: refine, then stamp the exact range *)
            Shadow_table.ensure_granularity adaptive ~addr ~size;
            Shadow_table.set_range adaptive ~lo:addr ~hi:(addr + size) off;
            Shadow_table.set_range byte ~lo:addr ~hi:(addr + size) off
          | 1 ->
            (* range op without a prior ensure: self-refining *)
            Shadow_table.set_range adaptive ~lo:addr ~hi:(addr + size) off;
            Shadow_table.set_range byte ~lo:addr ~hi:(addr + size) off
          | 2 ->
            Shadow_table.remove_range adaptive ~lo:addr ~hi:(addr + size);
            Shadow_table.remove_range byte ~lo:addr ~hi:(addr + size)
          | 3 ->
            (* point set: mirror the slot the adaptive table stamps *)
            Shadow_table.set adaptive addr off;
            let slo, shi = Shadow_table.slot_bounds adaptive addr in
            Shadow_table.set_range byte ~lo:slo ~hi:shi off
          | _ ->
            let got = get adaptive addr in
            let expect = get byte addr in
            if got <> expect then
              Test.fail_reportf "get 0x%x: adaptive %s, reference %s" addr
                (match got with Some v -> string_of_int v | None -> "-")
                (match expect with Some v -> string_of_int v | None -> "-"));
          (* group's claim must hold byte-for-byte in the reference *)
          let glo, ghi, v = group adaptive addr ~hi:limit in
          if not (glo <= addr && addr < ghi) then
            Test.fail_reportf "group 0x%x: [0x%x,0x%x) misses the address"
              addr glo ghi;
          for a = glo to min ghi limit - 1 do
            if get byte a <> v then
              Test.fail_reportf
                "group 0x%x claims [0x%x,0x%x)=%s but reference differs at \
                 0x%x"
                addr glo ghi
                (match v with Some v -> string_of_int v | None -> "-")
                a
          done;
          (* index accounting: non-negative and never above per-byte *)
          if Shadow_table.bytes adaptive < 0 then
            Test.fail_reportf "negative adaptive bytes";
          if Shadow_table.bytes adaptive > Shadow_table.bytes byte then
            Test.fail_reportf "adaptive index (%d B) outgrew byte index (%d B)"
              (Shadow_table.bytes adaptive)
              (Shadow_table.bytes byte))
        ops;
      (* full teardown converges both to the empty table *)
      Shadow_table.remove_range adaptive ~lo:base ~hi:limit;
      Shadow_table.remove_range byte ~lo:base ~hi:limit;
      Shadow_table.entry_count adaptive = 0
      && Shadow_table.bytes adaptive = 0
      && Shadow_table.entry_count byte = 0)

(* Naive slot-by-slot model of the lookups, built only from [find] and
   [slot_bounds].  The width of the slot holding [a] is what
   [slot_bounds] reports for [a]'s word: a page's own width, or the
   initial width for an absent page (a word-aligned probe never gets
   the byte slot a fresh unaligned address would). *)
let model_width t a =
  let lo, hi = Shadow_table.slot_bounds t (a land lnot 3) in
  hi - lo

let model_slot t a =
  let w = model_width t a in
  let lo = a land lnot (w - 1) in
  (lo, lo + w)

(* At most [scan_limit = 4] slots on the given side, nearest first. *)
let model_prev t addr =
  let rec back a n =
    if n = 0 then None
    else
      let lo, hi = model_slot t a in
      match get t lo with
      | Some v -> Some (lo, hi, v)
      | None -> back (lo - 1) (n - 1)
  in
  back (fst (Shadow_table.slot_bounds t addr) - 1) 4

let model_next t addr =
  let rec fwd a n =
    if n = 0 then None
    else
      let lo, hi = model_slot t a in
      match get t lo with
      | Some v -> Some (lo, hi, v)
      | None -> fwd hi (n - 1)
  in
  fwd (snd (Shadow_table.slot_bounds t addr)) 4

(* The run of equal slots from [addr]'s slot, stopping at the first
   slot boundary at or past [hi]. *)
let model_group t addr ~hi =
  let glo, g0hi = model_slot t addr in
  let v = get t addr in
  let rec walk cur =
    if cur >= hi then cur
    else
      let _, shi = model_slot t cur in
      if get t cur = v then walk shi else cur
  in
  (glo, walk g0hi, v)

(* An unaligned address on an absent adaptive page has a byte slot of
   its own but sits inside a word-wide virtual slot.  A forward scan
   from there counts only the whole virtual slots left in the block, so
   the model's slot count is off by one; the detector never probes
   such an address (its access refines the page to byte slots first),
   and the law leaves forward scans from it out. *)
let starts_mid_slot t addr =
  let lo, hi = Shadow_table.slot_bounds t addr in
  hi - lo < model_width t addr

let show_hit = function
  | Some (lo, hi, v) -> Printf.sprintf "[0x%x,0x%x)=%d" lo hi v
  | None -> "-"

let show_group (lo, hi, v) =
  Printf.sprintf "[0x%x,0x%x)=%s" lo hi
    (match v with Some v -> string_of_int v | None -> "-")

(* The non-allocating neighbour scans and group walk return exactly
   what the naive model returns, on random stamp/clear sequences over
   eight blocks: clears drop whole pages (absent pages inside the scan
   radius) and sub-word stamps leave byte-expanded pages beside
   word-slot ones. *)
let lookup_model_test =
  let open QCheck in
  let modes =
    [| Shadow_table.Adaptive; Shadow_table.Fixed_bytes 4;
       Shadow_table.Fixed_bytes 1 |]
  in
  Test.make ~name:"neighbour scans and group walk agree with slot model"
    ~count:300
    (pair (int_bound 2)
       (small_list (quad (int_bound 2) (int_bound 1023) (int_bound 4) small_nat)))
    (fun (mi, ops) ->
      let t = Shadow_table.create ~mode:modes.(mi) () in
      let base = 0x10000 in
      let sizes = [| 1; 2; 4; 8; 200 |] in
      List.iter
        (fun (op, off, szi, v) ->
          let addr = base + off and size = sizes.(szi) in
          match op with
          | 0 ->
            Shadow_table.ensure_granularity t ~addr ~size;
            Shadow_table.set_range t ~lo:addr ~hi:(addr + size) v
          | 1 -> Shadow_table.remove_range t ~lo:addr ~hi:(addr + size)
          | _ -> Shadow_table.set t addr v)
        ops;
      for off = -8 to 1024 + 8 do
        let addr = base + off in
        let got = prev_neighbor t addr and expect = model_prev t addr in
        if got <> expect then
          Test.fail_reportf "prev 0x%x: got %s, model %s" addr (show_hit got)
            (show_hit expect);
        let got = next_neighbor t addr and expect = model_next t addr in
        if got <> expect && not (starts_mid_slot t addr) then
          Test.fail_reportf "next 0x%x: got %s, model %s" addr (show_hit got)
            (show_hit expect);
        List.iter
          (fun len ->
            let hi = addr + len in
            let got = group t addr ~hi and expect = model_group t addr ~hi in
            if got <> expect then
              Test.fail_reportf "group 0x%x ~hi:0x%x: got %s, model %s" addr
                hi (show_group got) (show_group expect))
          [ 1; 3; 8; 130; 400 ]
      done;
      true)

(* ------------------------------------------------------------------ *)
(* Epoch bitmap *)

let test_bitmap_planes () =
  let b = Epoch_bitmap.create () in
  Epoch_bitmap.mark b ~write:false ~lo:100 ~hi:104;
  check_bool "read marked" true (Epoch_bitmap.test b ~write:false 102);
  check_bool "write plane untouched" false (Epoch_bitmap.test b ~write:true 102);
  check_bool "outside" false (Epoch_bitmap.test b ~write:false 104);
  Epoch_bitmap.mark b ~write:true ~lo:102 ~hi:103;
  check_bool "write marked" true (Epoch_bitmap.test b ~write:true 102);
  check_bool "read still marked" true (Epoch_bitmap.test b ~write:false 102);
  Epoch_bitmap.reset b;
  check_bool "reset clears" false (Epoch_bitmap.test b ~write:false 102);
  check_int "reset releases storage" 0 (Epoch_bitmap.bytes b)

(* The epoch cadence reuses chunk storage through the pool instead of
   re-allocating: directory and chunks persist across resets. *)
let test_bitmap_reset_recycles () =
  let b = Epoch_bitmap.create () in
  Epoch_bitmap.mark b ~write:true ~lo:100 ~hi:2100;
  let first = Epoch_bitmap.bytes b in
  check_bool "chunks allocated" true (first > 0);
  Epoch_bitmap.reset b;
  check_int "footprint zero after reset" 0 (Epoch_bitmap.bytes b);
  Epoch_bitmap.mark b ~write:true ~lo:100 ~hi:2100;
  check_int "same footprint next epoch" first (Epoch_bitmap.bytes b);
  check_bool "second epoch marks visible" true
    (Epoch_bitmap.test b ~write:true 1500);
  let s = Epoch_bitmap.stats b in
  check_bool "chunks were recycled, not re-allocated" true
    (s.Epoch_bitmap.chunk_recycles > 0);
  check_int "no extra allocations for the second epoch"
    s.Epoch_bitmap.chunks_live s.Epoch_bitmap.chunk_recycles

let bitmap_model =
  let open QCheck in
  Test.make ~name:"bitmap mark/test agrees with model" ~count:200
    (small_list (triple bool (int_bound 5000) (int_bound 600)))
    (fun ranges ->
      let b = Epoch_bitmap.create () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (write, lo, len) ->
          Epoch_bitmap.mark b ~write ~lo ~hi:(lo + len);
          for a = lo to lo + len - 1 do Hashtbl.replace model (write, a) () done)
        ranges;
      let ok = ref true in
      for a = 0 to 5700 do
        List.iter
          (fun write ->
            if Epoch_bitmap.test b ~write a <> Hashtbl.mem model (write, a) then
              ok := false)
          [ true; false ]
      done;
      !ok)

(* [test_range] is exact: over random marks, resets and probes (small
   chunks, so probes straddle them), a probe of [lo, hi] holds iff
   every address in it is marked in that plane. *)
let bitmap_range_law =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          (4, map3 (fun w lo len -> `Mark (w, lo, len)) bool (int_bound 700) (int_bound 40));
          (1, return `Reset);
          (6, map3 (fun w lo len -> `Test (w, lo, len)) bool (int_bound 700) (int_range 1 40));
        ])
  in
  Test.make ~name:"bitmap test_range = per-address conjunction" ~count:300
    (make Gen.(list_size (int_bound 60) op))
    (fun ops ->
      let b = Epoch_bitmap.create ~block:64 () in
      let model = Hashtbl.create 64 in
      List.for_all
        (function
          | `Mark (write, lo, len) ->
            Epoch_bitmap.mark b ~write ~lo ~hi:(lo + len);
            for a = lo to lo + len - 1 do Hashtbl.replace model (write, a) () done;
            true
          | `Reset ->
            Epoch_bitmap.reset b;
            Hashtbl.reset model;
            true
          | `Test (write, lo, len) ->
            let hi = lo + len - 1 in
            let all = ref true in
            for a = lo to hi do
              if not (Hashtbl.mem model (write, a)) then all := false
            done;
            Epoch_bitmap.test_range b ~write ~lo ~hi = !all)
        ops)

(* The probe's interior counts: both ends marked, a byte between them
   not, is a miss (the bit pattern a missed race left behind). *)
let test_bitmap_range_interior () =
  let b = Epoch_bitmap.create () in
  Epoch_bitmap.mark b ~write:true ~lo:0x1000 ~hi:0x1001;
  Epoch_bitmap.mark b ~write:true ~lo:0x1003 ~hi:0x1004;
  check_bool "ends marked, middle not" false
    (Epoch_bitmap.test_range b ~write:true ~lo:0x1000 ~hi:0x1003);
  Epoch_bitmap.mark b ~write:true ~lo:0x1001 ~hi:0x1003;
  check_bool "all marked" true
    (Epoch_bitmap.test_range b ~write:true ~lo:0x1000 ~hi:0x1003);
  check_bool "other plane" false
    (Epoch_bitmap.test_range b ~write:false ~lo:0x1000 ~hi:0x1003)

(* ------------------------------------------------------------------ *)
(* Accounting *)

let test_accounting_peaks () =
  let a = Accounting.create () in
  Accounting.add_vc a 100;
  Accounting.add_hash a 50;
  Accounting.add_vc a (-80);
  check_int "current" 70 (Accounting.current_bytes a);
  check_int "peak" 150 (Accounting.peak_bytes a);
  check_int "peak vc" 100 (Accounting.peak_vc_bytes a);
  Accounting.vc_created a;
  Accounting.vc_created a;
  Accounting.vc_freed a;
  check_int "live" 1 (Accounting.live_vcs a);
  check_int "peak vcs" 2 (Accounting.peak_vcs a);
  Accounting.bind_locations a 10;
  Alcotest.(check (float 0.001)) "avg sharing" 5.0 (Accounting.avg_sharing a);
  Accounting.reset a;
  check_int "reset" 0 (Accounting.peak_bytes a)

let suites : unit Alcotest.test list =
    [
      ( "shadow.fixed",
        [
          Alcotest.test_case "set/get" `Quick test_fixed_set_get;
          Alcotest.test_case "set_range/remove_range" `Quick test_set_range_remove_range;
          Alcotest.test_case "partial remove" `Quick test_partial_remove_keeps_entry;
        ] );
      ( "shadow.adaptive",
        [
          Alcotest.test_case "sub-word access expands" `Quick test_adaptive_expansion;
          Alcotest.test_case "word access stays" `Quick test_adaptive_word_access_no_expansion;
          Alcotest.test_case "pre-creates byte entry" `Quick test_adaptive_precreates_byte_entry;
          Alcotest.test_case "offset-2 set without ensure" `Quick test_offset2_set_without_ensure;
        ] );
      ( "shadow.ranges",
        [
          Alcotest.test_case "fixed boundaries widen" `Quick test_fixed_range_boundaries_widen;
          Alcotest.test_case "adaptive boundaries exact" `Quick test_adaptive_range_boundaries_exact;
        ] );
      ( "shadow.navigation",
        [
          Alcotest.test_case "neighbors" `Quick test_neighbors;
          Alcotest.test_case "bounded scan" `Quick test_neighbor_scan_is_bounded;
          Alcotest.test_case "cross-block neighbor" `Quick test_neighbor_crosses_block;
          Alcotest.test_case "exact scan radius" `Quick test_neighbor_exact_radius;
          Alcotest.test_case "dropped equals untouched" `Quick test_dropped_equals_untouched;
          Alcotest.test_case "group runs" `Quick test_group;
          Alcotest.test_case "group slot clipping" `Quick test_group_clips_to_slot_boundary;
          Alcotest.test_case "group across blocks" `Quick test_group_crosses_blocks;
          Alcotest.test_case "iter_range" `Quick test_iter_range;
          QCheck_alcotest.to_alcotest model_test;
          QCheck_alcotest.to_alcotest differential_test;
          QCheck_alcotest.to_alcotest lookup_model_test;
        ] );
      ( "shadow.bitmap",
        [
          Alcotest.test_case "planes and reset" `Quick test_bitmap_planes;
          Alcotest.test_case "reset recycles chunks" `Quick test_bitmap_reset_recycles;
          QCheck_alcotest.to_alcotest bitmap_model;
          Alcotest.test_case "range probe tests the interior" `Quick test_bitmap_range_interior;
          QCheck_alcotest.to_alcotest bitmap_range_law;
        ] );
      ( "shadow.accounting",
        [ Alcotest.test_case "peaks and sharing" `Quick test_accounting_peaks ] );
    ]
