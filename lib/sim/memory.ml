module Int_table = Dgrace_vclock.Int_table

type t = {
  mutable heap_next : int;
  mutable static_next : int;
  live : int Int_table.t;  (* addr -> size (> 0) *)
  free_lists : int list ref Int_table.t;  (* size class -> addrs *)
  mutable live_bytes : int;
  mutable total_allocated : int;
  mutable alloc_count : int;
}

let create ?(heap_base = 0x1000_0000) ?(static_base = 0x1000) () =
  {
    heap_next = heap_base;
    static_next = static_base;
    live = Int_table.create 64;  (* grows; a run starts with few blocks *)
    free_lists = Int_table.create 32;
    live_bytes = 0;
    total_allocated = 0;
    alloc_count = 0;
  }

(* The answer of a free-list lookup that finds no list; never bound,
   never written. *)
let no_free : int list ref = ref []

let is_pow2 n = n > 0 && n land (n - 1) = 0

let round_up n align = (n + align - 1) land lnot (align - 1)

let size_class n =
  let rec loop c = if c >= n then c else loop (2 * c) in
  loop 8

let check_alloc_args n align =
  if n <= 0 then invalid_arg "Memory.alloc: non-positive size";
  if not (is_pow2 align) then invalid_arg "Memory.alloc: bad alignment"

let alloc t ?(align = 8) n =
  check_alloc_args n align;
  let cls = size_class n in
  let addr =
    match Int_table.find_or t.free_lists cls ~default:no_free with
    | { contents = a :: rest } as cell when a land (align - 1) = 0 ->
      cell := rest;
      a
    | _ ->
      let a = round_up t.heap_next align in
      (* reserve the whole size class so recycling keeps blocks disjoint *)
      t.heap_next <- a + cls;
      a
  in
  Int_table.replace t.live addr n;
  t.live_bytes <- t.live_bytes + n;
  t.total_allocated <- t.total_allocated + n;
  t.alloc_count <- t.alloc_count + 1;
  addr

let alloc_static t ?(align = 8) n =
  check_alloc_args n align;
  let a = round_up t.static_next align in
  t.static_next <- a + n;
  a

let free t addr =
  match Int_table.find_or t.live addr ~default:0 with
  | 0 -> invalid_arg (Printf.sprintf "Memory.free: unknown address 0x%x" addr)
  | n ->
    Int_table.remove t.live addr;
    t.live_bytes <- t.live_bytes - n;
    let cls = size_class n in
    let cell = Int_table.find_or t.free_lists cls ~default:no_free in
    if cell == no_free then Int_table.replace t.free_lists cls (ref [ addr ])
    else cell := addr :: !cell;
    n

let size_of t addr = Int_table.find_opt t.live addr
let live_bytes t = t.live_bytes
let total_allocated t = t.total_allocated
let alloc_count t = t.alloc_count
