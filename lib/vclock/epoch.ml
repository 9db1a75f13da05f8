(* Hot-path convention: integer-only [min]/[max]. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

type t = int

let tid_bits = 10
let max_tid = (1 lsl tid_bits) - 1
let none = 0

let[@inline] make ~tid ~clock =
  if tid < 0 || tid > max_tid then
    invalid_arg (Printf.sprintf "Epoch.make: tid %d out of range" tid);
  if clock < 0 then invalid_arg "Epoch.make: negative clock";
  (clock lsl tid_bits) lor tid

let[@inline] tid e = e land max_tid
let[@inline] clock e = e lsr tid_bits
let is_none e = e = none
let[@inline] equal (a : t) (b : t) = a = b

let pp ppf e =
  if is_none e then Format.pp_print_string ppf "-"
  else Format.fprintf ppf "%d@@%d" (clock e) (tid e)

let to_string e = Format.asprintf "%a" pp e
