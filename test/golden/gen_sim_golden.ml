(* Prints the golden schedule table (one line per run) on stdout:

     dune exec test/golden/gen_sim_golden.exe > test/golden/sim_golden.txt

   The checked-in table is the oracle of the [sim.golden] test; see
   sim_golden.ml for what each line pins and for the rule that the
   table is never regenerated to make a simulator change pass. *)

let () = List.iter (fun c -> print_endline (Sim_golden.line c)) (Sim_golden.cases ())
