type policy =
  | Round_robin
  | Random_each of int
  | Chunked of { seed : int; chunk : int }

let default = Chunked { seed = 1; chunk = 64 }

let pp ppf = function
  | Round_robin -> Format.pp_print_string ppf "round-robin"
  | Random_each seed -> Format.fprintf ppf "random(seed=%d)" seed
  | Chunked { seed; chunk } -> Format.fprintf ppf "chunked(seed=%d,chunk=%d)" seed chunk

let to_string p = Format.asprintf "%a" pp p

type t = {
  policy : policy;
  rng : Random.State.t;
  mutable budget : int;  (* remaining ops in the current chunk *)
}

let create policy =
  let seed =
    match policy with
    | Round_robin -> 0
    | Random_each s -> s
    | Chunked { seed; _ } -> seed
  in
  { policy; rng = Random.State.make [| seed; 0x9e3779b9 |]; budget = 0 }

let pick t ~current ~ready_tids ~n =
  if n <= 0 then invalid_arg "Scheduler.pick: empty ready set";
  match t.policy with
  | Round_robin -> 0
  | Random_each _ -> Random.State.int t.rng n
  | Chunked { chunk; _ } ->
    let same =
      if t.budget > 0 && current >= 0 then
        let rec find i = if i >= n then None else if ready_tids i = current then Some i else find (i + 1) in
        find 0
      else None
    in
    (match same with
     | Some i ->
       t.budget <- t.budget - 1;
       i
     | None ->
       t.budget <- chunk;
       Random.State.int t.rng n)

(* A yielding thread re-enters the ready queue at the back.  With
   budget left, [pick] finds it there; alone, it is index 0 under
   every policy, after the budget reset and draw a one-element [pick]
   makes.  Any other answer depends on a draw the loop must make.
   The budget test is inlined into every operation's preemption
   point; the rest is out of line. *)
let[@inline never] stay_slow t ~others =
  others = 0
  && (ignore (pick t ~current:(-1) ~ready_tids:(fun _ -> -1) ~n:1);
      true)

let[@inline] stay t ~others =
  match t.policy with
  | Chunked _ when t.budget > 0 ->
    t.budget <- t.budget - 1;
    true
  | _ -> stay_slow t ~others
