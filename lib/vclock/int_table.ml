(* Hot-path convention: integer-only [min]/[max]. *)
let[@warning "-32"] min = Int.min
let[@warning "-32"] max = Int.max

(* Multiplicative hashing: multiply by an odd constant (xorshift64*'s,
   which fits OCaml's 63-bit int) and fold the well-mixed high bits
   down, so sequential keys — lock ids, payload lengths — and FNV
   content hashes alike spread over the low bits the table indexes
   with. *)
include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land max_int
end)
