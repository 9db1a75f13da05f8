(* Prints the detector golden table (one line per case, its per-event
   digest) on stdout:

     dune exec test/golden/gen_detector_golden.exe > test/golden/detector_golden.txt

   The checked-in table is the oracle of the [detector.golden] test;
   see detector_golden.ml for what each line pins and for the rule that
   the table is never regenerated to make a detector change pass. *)

let () =
  List.iter
    (fun c -> print_endline (Detector_golden.line c (c.event ())))
    (Detector_golden.cases ())
