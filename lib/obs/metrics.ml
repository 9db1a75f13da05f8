type counter = { c_name : string; mutable c_value : int }
type gauge = { g_name : string; mutable g_value : int }

type histogram = {
  h_name : string;
  buckets : int array;  (* index = floor(log2 v), 0 for v <= 1 *)
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

type t = {
  mutable counters_rev : counter list;
  mutable gauges_rev : gauge list;
  mutable histograms_rev : histogram list;
}

let n_buckets = 62

let create () = { counters_rev = []; gauges_rev = []; histograms_rev = [] }

let counter t name =
  match List.find_opt (fun c -> c.c_name = name) t.counters_rev with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    t.counters_rev <- c :: t.counters_rev;
    c

let gauge t name =
  match List.find_opt (fun g -> g.g_name = name) t.gauges_rev with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0 } in
    t.gauges_rev <- g :: t.gauges_rev;
    g

let histogram t name =
  match List.find_opt (fun h -> h.h_name = name) t.histograms_rev with
  | Some h -> h
  | None ->
    let h =
      { h_name = name; buckets = Array.make n_buckets 0; h_count = 0;
        h_sum = 0; h_max = 0 }
    in
    t.histograms_rev <- h :: t.histograms_rev;
    h

let[@inline] incr c = c.c_value <- c.c_value + 1

let[@inline] add c d =
  if d < 0 then invalid_arg "Metrics.add: negative counter increment";
  c.c_value <- c.c_value + d

let[@inline] set g v = g.g_value <- v

(* floor(log2 v) in six halving steps, with no loop and no
   allocation; v >= 1 *)
let log2_floor v =
  let v = ref v and b = ref 0 in
  if !v lsr 32 <> 0 then (v := !v lsr 32; b := 32);
  if !v lsr 16 <> 0 then (v := !v lsr 16; b := !b + 16);
  if !v lsr 8 <> 0 then (v := !v lsr 8; b := !b + 8);
  if !v lsr 4 <> 0 then (v := !v lsr 4; b := !b + 4);
  if !v lsr 2 <> 0 then (v := !v lsr 2; b := !b + 2);
  if !v lsr 1 <> 0 then b := !b + 1;
  !b

let[@inline] observe h v =
  let b = if v <= 1 then 0 else log2_floor v in
  let b = if b >= n_buckets then n_buckets - 1 else b in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + (if v > 0 then v else 0);
  if v > h.h_max then h.h_max <- v

let value c = c.c_value
let gauge_value g = g.g_value

let find_counter t name =
  Option.map value (List.find_opt (fun c -> c.c_name = name) t.counters_rev)

let counters t =
  List.rev_map (fun c -> (c.c_name, c.c_value)) t.counters_rev
  |> List.sort compare

let gauges t =
  List.rev_map (fun g -> (g.g_name, g.g_value)) t.gauges_rev
  |> List.sort compare

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum
let histogram_max h = h.h_max

let histogram_buckets h =
  let out = ref [] in
  for b = n_buckets - 1 downto 0 do
    if h.buckets.(b) > 0 then begin
      let lo = if b = 0 then 0 else 1 lsl b in
      let hi = (1 lsl (b + 1)) - 1 in
      out := (lo, hi, h.buckets.(b)) :: !out
    end
  done;
  !out

let to_json t =
  let counters = List.map (fun (n, v) -> (n, Json.Int v)) (counters t) in
  let gauges = List.map (fun (n, v) -> (n, Json.Int v)) (gauges t) in
  let histograms =
    List.rev_map
      (fun h ->
        ( h.h_name,
          Json.Obj
            [
              ("count", Json.Int h.h_count);
              ("sum", Json.Int h.h_sum);
              ("max", Json.Int h.h_max);
              ( "buckets",
                Json.List
                  (List.map
                     (fun (lo, hi, c) ->
                       Json.Obj
                         [ ("lo", Json.Int lo); ("hi", Json.Int hi);
                           ("count", Json.Int c) ])
                     (histogram_buckets h)) );
            ] ))
      t.histograms_rev
    |> List.sort compare
  in
  Json.Obj
    [ ("counters", Json.Obj counters); ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms) ]
