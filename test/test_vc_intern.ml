(* The hash-consed vector-clock arena (lib/vclock/vc_intern.ml):
   QCheck laws for the snapshot/refcount discipline, checked against
   the unconsed contrast arena ([~hash_consing:false]), and the
   arena's gauges in run summaries.  Detectors always intern;
   test/golden pins their races on that one path. *)

open Dgrace_core
open Dgrace_workloads
module Vc = Dgrace_vclock.Vector_clock
module Vi = Dgrace_vclock.Vc_intern

(* ------------------------------------------------------------------ *)
(* generators (sparse (tid, clock) assignment lists, as in
   test_properties.ml) *)

let gen_entries =
  QCheck.Gen.(
    list_size (int_bound 12)
      (pair (int_bound 40) (map (fun c -> c + 1) (int_bound 1000))))

let vc_of_entries entries =
  let vc = Vc.create () in
  List.iter (fun (tid, c) -> Vc.set vc tid c) entries;
  vc

let pp_entries entries = Vc.to_string (vc_of_entries entries)
let arb_vc = QCheck.make ~print:pp_entries gen_entries

(* a snapshot observationally equals a clock when every component and
   the trimmed width agree, in both fold directions *)
let snap_matches_clock s vc =
  Vi.max_tid_set s = Vc.max_tid_set vc
  && (let ok = ref true in
      for t = 0 to Vc.max_tid_set vc + 2 do
        if Vi.get s t <> Vc.get vc t then ok := false
      done;
      !ok)
  && Vi.fold (fun t c acc -> acc && Vc.get vc t = c) s true
  && Vc.fold (fun t c acc -> acc && Vi.get s t = c) vc true

let p_intern_equals_deep_copy =
  QCheck.Test.make
    ~name:"intern: snapshot observationally equals a deep copy" ~count:300
    arb_vc (fun entries ->
      let vc = vc_of_entries entries in
      let deep = Vc.copy vc in
      let consed = Vi.create () and plain = Vi.create ~hash_consing:false () in
      let s = Vi.intern consed vc and p = Vi.intern plain vc in
      let ok =
        snap_matches_clock s deep && snap_matches_clock p deep
        && Vi.equal s s
        && Vi.leq_clock s deep
        && Vc.equal (Vi.to_clock s) deep
      in
      Vi.release s;
      Vi.release p;
      ok)

let p_intern_is_consed =
  QCheck.Test.make
    ~name:"intern: same content -> same physical snapshot (refs add up)"
    ~count:300 arb_vc (fun entries ->
      let vc = vc_of_entries entries in
      let a = Vi.create () in
      let s1 = Vi.intern a vc in
      (* a second clock with the same content but no memo (copy resets
         the memo fields): forces the hash-table path *)
      let s2 = Vi.intern a (Vc.copy vc) in
      let ok = s1 == s2 && Vi.refcount s1 = 2 in
      Vi.release s1;
      let ok = ok && Vi.refcount s2 = 1 in
      Vi.release s2;
      ok)

let p_with_component =
  QCheck.Test.make
    ~name:"with_component = load; set; intern" ~count:300
    (QCheck.pair arb_vc
       (QCheck.pair (QCheck.int_bound 40)
          (QCheck.map (fun c -> c + 1) (QCheck.int_bound 1000))))
    (fun (entries, (tid, clock)) ->
      let a = Vi.create () in
      let s = Vi.intern a (vc_of_entries entries) in
      let s' = Vi.with_component s ~tid ~clock in
      let expect = vc_of_entries entries in
      Vc.set expect tid clock;
      let ok = snap_matches_clock s' expect in
      Vi.release s';
      Vi.release s;
      ok)

let p_leq_agrees =
  QCheck.Test.make ~name:"snap leq agrees with clock leq" ~count:300
    (QCheck.pair arb_vc arb_vc) (fun (ea, eb) ->
      let va = vc_of_entries ea and vb = vc_of_entries eb in
      let a = Vi.create () in
      let sa = Vi.intern a va and sb = Vi.intern a vb in
      let ok =
        Vi.leq sa sb = Vc.leq va vb
        && Vi.leq_clock sa vb = Vc.leq va vb
        && Vi.equal sa sb = Vc.equal va vb
      in
      Vi.release sa;
      Vi.release sb;
      ok)

(* ------------------------------------------------------------------ *)
(* refcount discipline *)

let test_refcount_underflow () =
  let a = Vi.create () in
  let s = Vi.intern a (vc_of_entries [ (0, 3); (2, 5) ]) in
  Vi.retain s;
  Vi.release s;
  Vi.release s;
  Alcotest.check_raises "release after free" (Invalid_argument
    "Vc_intern.release: snapshot already freed") (fun () -> Vi.release s);
  Alcotest.check_raises "retain after free" (Invalid_argument
    "Vc_intern.retain: snapshot already freed") (fun () -> Vi.retain s)

let test_release_then_reuse_no_alias () =
  let a = Vi.create () in
  (* [kept] stays live across a release/recycle cycle of same-length
     payloads; its content must never change *)
  let kept = Vi.intern a (vc_of_entries [ (0, 1); (1, 2); (2, 3) ]) in
  let dead = Vi.intern a (vc_of_entries [ (0, 9); (1, 8); (2, 7) ]) in
  Vi.release dead;
  (* same length class: the recycled payload must not be [kept]'s *)
  let fresh = Vi.intern a (vc_of_entries [ (0, 4); (1, 5); (2, 6) ]) in
  Alcotest.(check int) "kept t0" 1 (Vi.get kept 0);
  Alcotest.(check int) "kept t1" 2 (Vi.get kept 1);
  Alcotest.(check int) "kept t2" 3 (Vi.get kept 2);
  Alcotest.(check int) "fresh t0" 4 (Vi.get fresh 0);
  Alcotest.(check bool) "no aliasing" false (fresh == kept);
  (* and re-interning kept's content still shares with kept, not with
     the recycled storage *)
  let again = Vi.intern a (vc_of_entries [ (0, 1); (1, 2); (2, 3) ]) in
  Alcotest.(check bool) "still consed" true (again == kept);
  Vi.release again;
  Vi.release fresh;
  Vi.release kept;
  let st = Vi.stats a in
  Alcotest.(check int) "all snapshots dead" 0 st.s_live;
  Alcotest.(check int) "bytes fully returned" 0 st.s_bytes

let test_memo_generation () =
  let a = Vi.create () in
  let vc = vc_of_entries [ (0, 7); (3, 2) ] in
  let s1 = Vi.intern a vc in
  let s2 = Vi.intern a vc in
  Alcotest.(check bool) "unchanged clock -> same snap" true (s1 == s2);
  let st = Vi.stats a in
  Alcotest.(check bool) "second intern was a memo hit" true (st.s_memo_hits >= 1);
  Vc.set vc 0 8;
  let s3 = Vi.intern a vc in
  Alcotest.(check bool) "mutation invalidates memo" false (s3 == s1);
  Vc.set vc 0 7;
  let s4 = Vi.intern a vc in
  Alcotest.(check bool) "content returns -> consed again" true (s4 == s1);
  List.iter Vi.release [ s1; s2; s3; s4 ];
  Alcotest.(check int) "drained" 0 (Vi.stats a).s_live

let test_accounting_callback () =
  let delta = ref 0 in
  let a = Vi.create ~on_bytes:(fun d -> delta := !delta + d) () in
  let s = Vi.intern a (vc_of_entries [ (0, 1); (5, 2) ]) in
  Alcotest.(check int) "allocation reported" (Vi.snap_bytes s) !delta;
  let s2 = Vi.intern a (vc_of_entries [ (0, 1); (5, 2) ]) in
  Alcotest.(check int) "sharing reports nothing" (Vi.snap_bytes s) !delta;
  Vi.release s2;
  Vi.release s;
  Alcotest.(check int) "free reported" 0 !delta

(* ------------------------------------------------------------------ *)
(* the vclock.* gauges and the interned peak surface in summaries *)

let test_gauges_exported () =
  let gauge (s : Engine.summary) name =
    match List.assoc_opt name (Dgrace_obs.Metrics.gauges s.metrics) with
    | Some v -> v
    | None -> Alcotest.failf "gauge %s missing" name
  in
  let events = Tutil.recorded (Option.get (Registry.find "raytrace")) 1 in
  let s = Tutil.(analyze (config Spec.dynamic) (event_array events)) in
  Alcotest.(check bool)
    "sequential run interned snapshots" true
    (gauge s "vclock.interns" > 0);
  Alcotest.(check bool)
    "arena peak accounted" true
    (gauge s "vclock.arena_peak_bytes" > 0);
  (* interned memory also reaches the engine's memory summary *)
  Alcotest.(check bool)
    "peak_interned_bytes surfaced" true
    (s.mem.peak_interned_bytes > 0)

let qsuite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let suites =
  [
    qsuite "vc_intern.laws"
      [
        p_intern_equals_deep_copy; p_intern_is_consed; p_with_component;
        p_leq_agrees;
      ];
    ( "vc_intern.refcounts",
      [
        Alcotest.test_case "underflow raises" `Quick test_refcount_underflow;
        Alcotest.test_case "release-then-reuse never aliases" `Quick
          test_release_then_reuse_no_alias;
        Alcotest.test_case "generation memo" `Quick test_memo_generation;
        Alcotest.test_case "accounting callback" `Quick
          test_accounting_callback;
      ] );
    ( "vc_intern.gauges",
      [
        Alcotest.test_case "exported in summaries" `Quick test_gauges_exported;
      ] );
  ]
