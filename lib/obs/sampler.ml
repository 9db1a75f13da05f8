type sample = { at_event : int; values : int array }

type t = {
  every : int;
  names : string array;
  reads : (unit -> int) array;
  mutable events : int;
  mutable until_next : int;  (* countdown to the next snapshot *)
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
    until_next = every;
    samples_rev = [];
    n_samples = 0;
  }

let snapshot t =
  let values = Array.map (fun read -> read ()) t.reads in
  t.samples_rev <- { at_event = t.events; values } :: t.samples_rev;
  t.n_samples <- t.n_samples + 1

let tick t =
  t.events <- t.events + 1;
  t.until_next <- t.until_next - 1;
  if t.until_next = 0 then begin
    t.until_next <- t.every;
    snapshot t
  end

(* Batched tick for sampled event loops: [n] events land at once, at
   most one snapshot is taken (callers batch with n << every). *)
let tick_n t n =
  t.events <- t.events + n;
  t.until_next <- t.until_next - n;
  if t.until_next <= 0 then begin
    t.until_next <- t.every;
    snapshot t
  end

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
