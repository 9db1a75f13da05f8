open Dgrace_events

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let b = ref 0 and v = ref n in
  while !v > 1 do
    v := !v lsr 1;
    incr b
  done;
  !b

(* Union-find over granule ids, grown on demand.  Accesses that
   straddle a granule boundary weld the granules they touch into one
   super-granule, which then routes to a single shard; everything the
   detector can learn about an address stays inside its super-granule
   (the detector's own [share_granule] gate guarantees no sharing
   decision crosses a granule line). *)
let find parent g =
  let rec root g =
    match Hashtbl.find_opt parent g with None -> g | Some p -> root p
  in
  let r = root g in
  (* path compression *)
  let rec compress g =
    match Hashtbl.find_opt parent g with
    | None -> ()
    | Some p ->
      if p <> r then Hashtbl.replace parent g r;
      compress p
  in
  compress g;
  r

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then Hashtbl.replace parent (max ra rb) (min ra rb)

type planner = { p_gshift : int; p_parent : (int, int) Hashtbl.t }

let planner ~granule () =
  if not (is_pow2 granule) then
    invalid_arg "Trace_shard.planner: granule must be a power of two";
  { p_gshift = log2 granule; p_parent = Hashtbl.create 256 }

let plan_batch p (b : Batch.t) =
  for i = 0 to Batch.length b - 1 do
    if b.Batch.kind.(i) <= Batch.code_write then begin
      let addr = b.Batch.b.(i) in
      let size = b.Batch.c.(i) in
      let g0 = addr lsr p.p_gshift in
      let g1 = (addr + max size 1 - 1) lsr p.p_gshift in
      for g = g0 to g1 - 1 do
        union p.p_parent g (g + 1)
      done
    end
  done

let plan_shard p ~shards:k addr =
  if k = 1 then 0
  else Hashtbl.hash (find p.p_parent (addr lsr p.p_gshift)) mod k
