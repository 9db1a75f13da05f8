type t = Init_private | Init_shared | Shared | Private | Race

type stimulus =
  | First_access of { matching_init_neighbor : bool }
  | Init_neighbor_matched
  | Second_epoch_access of { matching_settled_neighbor : bool }
  | Adopted_by_neighbor
  | Race_on_l
  | Sharing_dissolved

let initial ~matching_init_neighbor =
  if matching_init_neighbor then Init_shared else Init_private

let step s x =
  match (s, x) with
  (* the First_access stimulus is only meaningful for a fresh location *)
  | _, First_access { matching_init_neighbor } ->
    Some (initial ~matching_init_neighbor)
  | (Init_private | Init_shared), Init_neighbor_matched -> Some Init_shared
  | (Init_private | Init_shared), Second_epoch_access { matching_settled_neighbor }
    ->
    (* two constant [Some]s: the detector's second-epoch decision
       allocates nothing *)
    if matching_settled_neighbor then Some Shared else Some Private
  | Private, Adopted_by_neighbor -> Some Shared
  | Shared, Adopted_by_neighbor -> Some Shared
  | _, Race_on_l -> Some Race
  | (Shared | Init_shared), Sharing_dissolved -> Some Race
  | Race, (Init_neighbor_matched | Second_epoch_access _ | Adopted_by_neighbor) ->
    Some Race
  | (Shared | Private), (Init_neighbor_matched | Second_epoch_access _) -> None
  | (Init_private | Init_shared), Adopted_by_neighbor -> None
  | (Private | Init_private), Sharing_dissolved -> None
  | Race, Sharing_dissolved -> Some Race

let[@inline] is_init = function Init_private | Init_shared -> true | _ -> false
let[@inline] is_settled = function Shared | Private -> true | _ -> false
let equal (a : t) b = a = b

let pp ppf s =
  Format.pp_print_string ppf
    (match s with
     | Init_private -> "1st-epoch-private"
     | Init_shared -> "1st-epoch-shared"
     | Shared -> "shared"
     | Private -> "private"
     | Race -> "race")

let to_string s = Format.asprintf "%a" pp s

let index = function
  | Init_private -> 0
  | Init_shared -> 1
  | Private -> 2
  | Shared -> 3
  | Race -> 4

let n_states = 5

let names =
  [| "1st-epoch-private"; "1st-epoch-shared"; "private"; "shared"; "race" |]
