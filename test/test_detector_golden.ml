(* The dynamic-granularity detector family against its golden table,
   and the allocation budget of its analysed-access path. *)

module Workload = Dgrace_workloads.Workload
module Registry = Dgrace_workloads.Registry

let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* golden results: both shapes of every case match the checked-in
   per-event line *)

let test_golden () =
  let expected =
    String.split_on_char '\n' Detector_golden_table.text
    |> List.filter (( <> ) "")
  in
  let cases = Detector_golden.cases () in
  check_int "table size" (List.length expected) (List.length cases);
  let mismatches =
    List.concat_map
      (fun (e, (c : Detector_golden.case)) ->
        List.filter_map
          (fun (shape, run) ->
            let a = Detector_golden.line c (run ()) in
            if e = a then None else Some (shape, e, a))
          [ ("event", c.event); ("batch", c.batch) ])
      (List.combine expected cases)
  in
  List.iteri
    (fun i (shape, e, a) ->
      if i < 5 then Printf.printf "expected: %s\nactual:   %s (%s)\n" e a shape)
    mismatches;
  check_int "mismatched runs" 0 (List.length mismatches)

(* ------------------------------------------------------------------ *)
(* allocation budget *)

(* Minor-heap words allocated per event while the detector consumes a
   pre-recorded stream (batches are built before the count starts).
   canneal, raytrace and ferret (the syncheavy mix) and dedup and
   pbzip2 (the churn mix) spend most of their events on the analysed
   path, where the detector keeps no per-access garbage: what remains
   is cell and page creation, read-shared snapshots and the clock
   machinery of sync events. *)
let words_per_event det events ~batched =
  let d = Detector_golden.detector det in
  let bs = if batched then Detector_golden.batches events else [] in
  let before = Gc.minor_words () in
  if batched then Detector_golden.run_batched d bs
  else Detector_golden.run_per_event d events;
  let words = Gc.minor_words () -. before in
  words /. float_of_int (Array.length events)

(* At the time of writing the twenty runs allocate 0.4-7.6 words per
   event (per run, batched and per event alike: canneal 4.7 dynamic /
   5.8 byte, dedup 3.3 / 6.8, raytrace 2.3 / 5.8, ferret 4.0 / 7.6,
   pbzip2 0.4 / 3.4).  They read 0.4-8.6 while a read epoch was a
   boxed variant and 58.7-80.5 before the analysed path stopped
   allocating.  The budget is about 25% headroom over the worst run,
   ferret under byte at 7.6; it only ever goes down. *)
let alloc_budget = 9.5

let test_alloc_budget () =
  let over = ref [] in
  List.iter
    (fun wname ->
      let w = Option.get (Registry.find wname) in
      let events = Detector_golden.record w ~seed:1 in
      List.iter
        (fun det ->
          List.iter
            (fun batched ->
              let wpe = words_per_event det events ~batched in
              let label =
                Printf.sprintf "%s/%s/%s: %.1f words/event" wname det
                  (if batched then "batch" else "event")
                  wpe
              in
              print_endline label;
              if wpe > alloc_budget then over := label :: !over)
            [ true; false ])
        [ "dynamic"; "byte" ])
    [ "canneal"; "dedup"; "raytrace"; "ferret"; "pbzip2" ];
  List.iter
    (fun label -> Printf.printf "over the budget of %.1f: %s\n" alloc_budget label)
    (List.rev !over);
  check_int "runs over the budget" 0 (List.length !over)

let suites : unit Alcotest.test list =
  [
    ( "detector.golden",
      [ Alcotest.test_case "result digests" `Quick test_golden ] );
    ( "detector.alloc_budget",
      [ Alcotest.test_case "minor words per event" `Quick test_alloc_budget ] );
  ]
