type sample = { at_event : int; values : int array }

type t = {
  every : int;
  names : string array;
  reads : (unit -> int) array;
  mutable events : int;
  mutable next_at : int;  (* event count at which the next snapshot falls due *)
  mutable samples_rev : sample list;
  mutable n_samples : int;
}

let create ~every ~sources =
  if every <= 0 then invalid_arg "Sampler.create: non-positive period";
  if sources = [] then invalid_arg "Sampler.create: no sources";
  {
    every;
    names = Array.of_list (List.map fst sources);
    reads = Array.of_list (List.map snd sources);
    events = 0;
    next_at = every;
    samples_rev = [];
    n_samples = 0;
  }

let snapshot t =
  let values = Array.map (fun read -> read ()) t.reads in
  t.samples_rev <- { at_event = t.events; values } :: t.samples_rev;
  t.n_samples <- t.n_samples + 1

(* [n] events land at once (one per call on a per-event loop, one
   batch per call on a batched one).  At most one snapshot is taken,
   and the next falls due at the first multiple of [every] above the
   count, so batches keep the period's phase instead of drifting by
   the overshoot. *)
let[@inline] tick_n t n =
  t.events <- t.events + n;
  if t.events >= t.next_at then begin
    snapshot t;
    t.next_at <- ((t.events / t.every) + 1) * t.every
  end

let tick t = tick_n t 1

let flush t =
  match t.samples_rev with
  | { at_event; _ } :: _ when at_event = t.events -> ()
  | _ -> if t.events > 0 then snapshot t

let every t = t.every
let source_names t = Array.to_list t.names
let length t = t.n_samples
let samples t = List.rev t.samples_rev

let to_json t =
  Json.Obj
    [
      ("every", Json.Int t.every);
      ( "sources",
        Json.List (Array.to_list (Array.map (fun s -> Json.String s) t.names)) );
      ( "samples",
        Json.List
          (List.rev_map
             (fun s ->
               Json.List
                 (Json.Int s.at_event
                  :: Array.to_list (Array.map (fun v -> Json.Int v) s.values)))
             t.samples_rev) );
    ]
