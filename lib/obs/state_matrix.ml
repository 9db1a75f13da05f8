type t = { states : string array; counts : int array }

let create ~states =
  let n = Array.length states in
  { states; counts = Array.make (n * n) 0 }

let n_states t = Array.length t.states
let state_name t i = t.states.(i)

let[@inline] record t ~from_ ~to_ =
  let i = (from_ * Array.length t.states) + to_ in
  t.counts.(i) <- t.counts.(i) + 1

let get t ~from_ ~to_ = t.counts.((from_ * Array.length t.states) + to_)
let total t = Array.fold_left ( + ) 0 t.counts

let row_total t from_ =
  let n = Array.length t.states in
  let acc = ref 0 in
  for to_ = 0 to n - 1 do
    acc := !acc + t.counts.((from_ * n) + to_)
  done;
  !acc

let col_total t to_ =
  let n = Array.length t.states in
  let acc = ref 0 in
  for from_ = 0 to n - 1 do
    acc := !acc + t.counts.((from_ * n) + to_)
  done;
  !acc

let iter f t =
  let n = Array.length t.states in
  for from_ = 0 to n - 1 do
    for to_ = 0 to n - 1 do
      let count = t.counts.((from_ * n) + to_) in
      if count > 0 then f ~from_ ~to_ ~count
    done
  done

let to_json t =
  let edges = ref [] in
  iter
    (fun ~from_ ~to_ ~count ->
      edges :=
        Json.Obj
          [ ("from", Json.String t.states.(from_));
            ("to", Json.String t.states.(to_)); ("count", Json.Int count) ]
        :: !edges)
    t;
  Json.Obj
    [
      ("states", Json.List (Array.to_list (Array.map (fun s -> Json.String s) t.states)));
      ("total", Json.Int (total t));
      ("edges", Json.List (List.rev !edges));
    ]

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  let first = ref true in
  iter
    (fun ~from_ ~to_ ~count ->
      if not !first then Format.pp_print_cut ppf ();
      first := false;
      Format.fprintf ppf "%-18s -> %-18s %d" t.states.(from_) t.states.(to_)
        count)
    t;
  Format.pp_close_box ppf ()
