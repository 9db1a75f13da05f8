(* The flight recorder: a Sampler plus a wall-clock reading per
   sample, so memory-over-time series have a real x-axis and can feed
   Chrome counter tracks.  The tick path is the sampler's countdown
   plus one field comparison; the clock is only read when a sample was
   actually taken. *)

type t = {
  sampler : Sampler.t;
  clock : Clock.source;
  t0_ns : int;
  mutable ns_rev : int list;  (* absolute ns, one per sample, newest first *)
  mutable stamped : int;  (* samples stamped so far *)
}

let create ?(clock = Clock.ns) ~every ~sources () =
  {
    sampler = Sampler.create ~every ~sources;
    clock;
    t0_ns = clock ();
    ns_rev = [];
    stamped = 0;
  }

(* Every new sampler sample gets the current clock; [tick] adds at
   most one sample so the loop runs 0 or 1 times. *)
let stamp t =
  let k = Sampler.length t.sampler in
  while t.stamped < k do
    t.ns_rev <- t.clock () :: t.ns_rev;
    t.stamped <- t.stamped + 1
  done

let tick_n t n =
  Sampler.tick_n t.sampler n;
  if Sampler.length t.sampler > t.stamped then stamp t

let tick t = tick_n t 1

let flush t =
  Sampler.flush t.sampler;
  stamp t

let sampler t = t.sampler
let epoch_ns t = t.t0_ns
let times_ns t = List.rev t.ns_rev

(* Each sample as (absolute ns, one value per source): the shape
   Span.add_counters takes. *)
let stamped t =
  List.map2
    (fun ns (s : Sampler.sample) -> (ns, s.values))
    (times_ns t) (Sampler.samples t.sampler)

let to_json t =
  let at_s =
    List.rev_map
      (fun ns -> Json.Float (float_of_int (ns - t.t0_ns) /. 1e9))
      t.ns_rev
  in
  match Sampler.to_json t.sampler with
  | Json.Obj fields -> Json.Obj (fields @ [ ("at_s", Json.List at_s) ])
  | j -> j
