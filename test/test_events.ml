(* Events, race reports, the first-race-per-location collector, and
   suppression rules. *)

open Dgrace_events

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let ep ?(tid = 0) ?(kind = Event.Write) ?(clock = 1) ?(loc = "") () : Report.endpoint =
  { tid; kind; clock; loc }

let report ?(addr = 0x1000) ?(size = 4) ?cur ?prev () =
  Report.make ~addr ~size
    ~current:(Option.value cur ~default:(ep ~tid:1 ()))
    ~previous:(Option.value prev ~default:(ep ~tid:0 ()))
    ()

let test_event_pp () =
  check_str "access" "W t2 0x1a40+4 (worker:update)"
    (Event.to_string
       (Event.Access { tid = 2; kind = Event.Write; addr = 0x1a40; size = 4; loc = "worker:update" }));
  check_str "acquire" "acq t1 l3"
    (Event.to_string (Event.Acquire { tid = 1; lock = 3; sync = Event.Lock }));
  check_str "barrier release" "rel t1 b3"
    (Event.to_string (Event.Release { tid = 1; lock = 3; sync = Event.Barrier }));
  check_str "fork" "fork t0 -> t1" (Event.to_string (Event.Fork { parent = 0; child = 1 }))

let test_event_tid () =
  check_int "access tid" 4 (Event.tid (Event.Access { tid = 4; kind = Read; addr = 0; size = 1; loc = "" }));
  check_int "fork tid is parent" 2 (Event.tid (Event.Fork { parent = 2; child = 3 }));
  check_bool "is_access" true (Event.is_access (Event.Access { tid = 0; kind = Read; addr = 0; size = 1; loc = "" }));
  check_bool "not is_access" false (Event.is_access (Event.Thread_exit { tid = 0 }))

let test_report_basics () =
  let r = report ~cur:((ep ~tid:1 ~kind:Event.Write ())) ~prev:((ep ~tid:0 ~kind:Event.Write ())) () in
  check_bool "ww" true (Report.is_write_write r);
  let r2 = report ~cur:((ep ~kind:Event.Read ())) () in
  check_bool "not ww" false (Report.is_write_write r2);
  check_int "default granule lo" 0x1000 r.granule_lo;
  check_int "default granule hi" 0x1004 r.granule_hi

let test_collector_dedup () =
  let c = Report.Collector.create () in
  check_bool "first add" true (Report.Collector.add c (report ()));
  check_bool "same addr rejected" false (Report.Collector.add c (report ()));
  check_bool "different addr" true (Report.Collector.add c (report ~addr:0x2000 ()));
  check_int "count" 2 (Report.Collector.count c);
  Alcotest.(check (list int)) "racy addrs" [ 0x1000; 0x2000 ] (Report.Collector.racy_addrs c)

let test_collector_suppression () =
  let supp = Suppression.default_runtime in
  let c = Report.Collector.create ~suppression:supp () in
  (* both endpoints in the runtime: suppressed *)
  let both_runtime =
    report ~cur:((ep ~loc:"pthread:mutex" ())) ~prev:((ep ~loc:"libc:malloc" ())) ()
  in
  check_bool "suppressed" false (Report.Collector.add c both_runtime);
  check_int "suppressed count" 1 (Report.Collector.suppressed c);
  (* mixed runtime/application: reported *)
  let mixed =
    report ~addr:0x2000 ~cur:((ep ~loc:"app:update" ())) ~prev:((ep ~loc:"pthread:mutex" ())) ()
  in
  check_bool "mixed reported" true (Report.Collector.add c mixed);
  (* suppressed races still count as seen: no duplicate report later *)
  check_bool "suppressed addr is seen" false (Report.Collector.add c (report ()))

let test_suppression_rules () =
  let s = Suppression.of_rules [ Suppression.Addr_range (0x100, 0x200) ] in
  check_bool "addr in range" true (Suppression.matches s ~addr:0x150 ~locs:[ "x" ]);
  check_bool "addr out of range" false (Suppression.matches s ~addr:0x250 ~locs:[ "x" ]);
  let s = Suppression.add Suppression.empty (Suppression.Loc_prefix "rt:") in
  check_bool "all locs match" true (Suppression.matches s ~addr:0 ~locs:[ "rt:a"; "rt:b" ]);
  check_bool "one loc differs" false (Suppression.matches s ~addr:0 ~locs:[ "rt:a"; "app" ]);
  check_bool "empty loc never matches" false (Suppression.matches s ~addr:0 ~locs:[ "rt:a"; "" ]);
  check_int "rules listed" 1 (List.length (Suppression.rules s));
  check_bool "empty suppresses nothing" false
    (Suppression.matches Suppression.empty ~addr:0 ~locs:[ "anything" ])

let test_report_pp () =
  let r =
    report
      ~cur:((ep ~tid:1 ~kind:Event.Write ~clock:3 ~loc:"b" ()))
      ~prev:((ep ~tid:0 ~kind:Event.Read ~clock:2 ~loc:"a" ()))
      ()
  in
  check_str "pp"
    "race on 0x1000 (size 4, granule 0x1000-0x1004): W by t1@3 at b conflicts with R by t0@2 at a"
    (Report.to_string r)

(* ------------------------------------------------------------------ *)
(* Location ids *)

(* A copy of [s] at another address, so only the hash can find it. *)
let fresh_copy s = Bytes.to_string (Bytes.of_string s)

let arb_label = QCheck.(string_gen_of_size Gen.(int_bound 12) Gen.printable)

(* Interning then naming gives the label back, ids are dense, and a
   label at another address finds the same id. *)
let loc_table_roundtrip =
  QCheck.Test.make ~name:"loc_table: intern then name round-trips" ~count:300
    QCheck.(small_list arb_label)
    (fun labels ->
      let t = Loc_table.create () in
      let ids = List.map (fun l -> (l, Loc_table.intern t l)) labels in
      List.for_all
        (fun (l, id) ->
          id >= 0 && id < Loc_table.length t
          && Loc_table.name t id = l
          && Loc_table.intern t (fresh_copy l) = id)
        ids
      && Loc_table.name t Loc_table.empty = ""
      && Loc_table.length t
         = 1 + List.length (List.sort_uniq compare (List.filter (( <> ) "") labels)))

(* The pointer memo answers as the hash would: over 100 label
   constants (more than the memo holds, so sets overflow and evict),
   their copies at other addresses, and [""], in any order, every
   call gets the id a memo-free table gives. *)
let loc_table_memo =
  let labels = Array.init 100 (Printf.sprintf "w.c:%d") in
  QCheck.Test.make ~name:"loc_table: pointer memo agrees with the hash"
    ~count:300
    QCheck.(small_list (pair (int_bound 100) bool))
    (fun picks ->
      let t = Loc_table.create () in
      let model = Hashtbl.create 8 in
      List.for_all
        (fun (k, copy) ->
          let l = if k = 100 then "" else labels.(k) in
          let id = Loc_table.intern t (if copy then fresh_copy l else l) in
          let want =
            if l = "" then Loc_table.empty
            else
              match Hashtbl.find_opt model l with
              | Some id -> id
              | None ->
                let id = 1 + Hashtbl.length model in
                Hashtbl.replace model l id;
                id
          in
          id = want && Loc_table.name t id = l)
        picks)

let test_loc_table_growth () =
  let t = Loc_table.create () in
  let labels = Array.init 1000 (Printf.sprintf "site-%d") in
  let first = Array.map (Loc_table.intern t) labels in
  (* the table grew several times; every id still names its label *)
  Array.iteri
    (fun i id ->
      check_int "dense" (i + 1) id;
      check_str "old id keeps its label" labels.(i) (Loc_table.name t id))
    first;
  check_int "length" 1001 (Loc_table.length t);
  Alcotest.check_raises "an unknown id"
    (Invalid_argument "Loc_table.name: unknown id") (fun () ->
      ignore (Loc_table.name t 1001))

(* [intern_once] (a decoder's fresh labels: one hash, whether the
   label is found or added) and [intern] hand out the ids a
   [Hashtbl] model does, over labels that repeat, collide in the memo
   and force the table to grow. *)
let loc_table_once =
  QCheck.Test.make ~name:"loc_table: intern_once agrees with the model"
    ~count:200
    QCheck.(list (pair bool (int_bound 300)))
    (fun calls ->
      let t = Loc_table.create () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun (once, k) ->
          let l = if k = 0 then "" else Printf.sprintf "site:%d" (k * 7919) in
          let id = if once then Loc_table.intern_once t l else Loc_table.intern t l in
          let want =
            if l = "" then Loc_table.empty
            else
              match Hashtbl.find_opt model l with
              | Some id -> id
              | None ->
                let id = Hashtbl.length model + 1 in
                Hashtbl.replace model l id;
                id
          in
          id = want && Loc_table.name t id = l)
        calls)

let wr_at loc = Event.Access { tid = 1; kind = Event.Write; addr = 0x40; size = 4; loc }

(* A batch resolves its rows through its own table; copying a row into
   an empty batch carries the table along, into a non-empty batch of
   another table is refused. *)
let test_batch_tables () =
  let b = Batch.of_events [ wr_at "a.c:1"; wr_at "b.c:2" ] in
  check_str "resolved" "W t1 0x40+4 (b.c:2)" (Event.to_string (Batch.event b 1));
  let dst = Batch.create () in
  Batch.copy_row ~src:b 1 ~dst;
  check_bool "empty batch takes the source table" true
    (Batch.locs dst == Batch.locs b);
  let other = Batch.of_events [ wr_at "c.c:3" ] in
  Alcotest.check_raises "rows of two tables"
    (Invalid_argument "Batch.copy_row: batches of two location tables")
    (fun () -> Batch.copy_row ~src:other 0 ~dst);
  Batch.clear dst;
  Batch.copy_row ~src:other 0 ~dst;
  check_str "cleared batch rebinds" "W t1 0x40+4 (c.c:3)"
    (Event.to_string (Batch.event dst 0))

(* One run has one id space: a detector that resolved locations
   through one table refuses a batch from another, whichever way the
   first ids arrived. *)
let test_foreign_batch_refused () =
  let refused = Invalid_argument "Loc_table.adopt: a batch from a foreign location table" in
  List.iter
    (fun spec ->
      let name = Dgrace_core.Spec.name spec in
      let fresh () = Dgrace_core.Spec.to_detector spec in
      let batch loc = Batch.of_events [ wr_at loc ] in
      let pb (d : Dgrace_detectors.Detector.t) = Option.get d.process_batch in
      (* batches first *)
      let d = fresh () in
      pb d (batch "a.c:1");
      Alcotest.check_raises (name ^ ": batch after batch") refused (fun () ->
          pb d (batch "a.c:1"));
      (* events first *)
      let d = fresh () in
      d.on_event (wr_at "a.c:1");
      Alcotest.check_raises (name ^ ": batch after events") refused (fun () ->
          pb d (batch "a.c:1"));
      (* one table throughout is fine, and so is a detector that has
         named no location yet *)
      let d = fresh () in
      d.on_event (wr_at "");
      let locs = Loc_table.create () in
      pb d (Batch.of_events ~locs [ wr_at "a.c:1" ]);
      pb d (Batch.of_events ~locs [ wr_at "b.c:2" ]))
    Dgrace_core.Spec.[ byte; dynamic; Literace ]

let suites : unit Alcotest.test list =
    [
      ( "events.event",
        [
          Alcotest.test_case "pretty printing" `Quick test_event_pp;
          Alcotest.test_case "tid extraction" `Quick test_event_tid;
        ] );
      ( "events.report",
        [
          Alcotest.test_case "basics" `Quick test_report_basics;
          Alcotest.test_case "pretty printing" `Quick test_report_pp;
        ] );
      ( "events.collector",
        [
          Alcotest.test_case "first race per location" `Quick test_collector_dedup;
          Alcotest.test_case "suppression" `Quick test_collector_suppression;
        ] );
      ( "events.suppression",
        [ Alcotest.test_case "rule semantics" `Quick test_suppression_rules ] );
      ( "events.loc_table",
        [
          QCheck_alcotest.to_alcotest loc_table_roundtrip;
          QCheck_alcotest.to_alcotest loc_table_memo;
          QCheck_alcotest.to_alcotest loc_table_once;
          Alcotest.test_case "growth keeps old ids" `Quick test_loc_table_growth;
          Alcotest.test_case "batches carry their table" `Quick test_batch_tables;
          Alcotest.test_case "foreign batch refused" `Quick test_foreign_batch_refused;
        ] );
    ]
