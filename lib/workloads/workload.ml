open Dgrace_sim

type params = { threads : int; scale : int; seed : int }

type t = {
  name : string;
  description : string;
  defaults : params;
  expected_races : int;
  program : params -> unit -> unit;
}

let with_params ?threads ?scale ?seed w =
  let d = w.defaults in
  {
    threads = Option.value threads ~default:d.threads;
    scale = Option.value scale ~default:d.scale;
    seed = Option.value seed ~default:d.seed;
  }

let run ?policy ?params ~sink w =
  let params = Option.value params ~default:w.defaults in
  Sim.run ?policy ~sink (w.program params)

let run_batches ?policy ?params ~consume w =
  let params = Option.value params ~default:w.defaults in
  Sim.run_batches ?policy ~consume (w.program params)
