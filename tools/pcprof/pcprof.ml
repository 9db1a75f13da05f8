(* pcprof: a PC-sampling profiler for one process.

     pcprof [--interval-us N] [--top N] [--runs N] -- PROGRAM ARGS...

   runs PROGRAM under ptrace, reads its main thread's program counter
   every N microseconds (default 1000), and prints, on stderr, the
   share of samples ("self %") that fell in each function once it
   exits.  With [--runs N] it runs PROGRAM N times, one after the
   other, and sums the samples of all runs, so a command that lasts a
   few tens of milliseconds still gives a usable profile.  Symbols
   come from [nm -n] of the executable; the load base of a
   position-independent executable comes from /proc/<pid>/maps, read
   at the exec of each run.  Samples outside the executable are
   charged to the mapping they fall in ([libc.so.6], [vdso], ...).
   The exit code is PROGRAM's (its last run's).

   Linux on x86-64 only (pcprof_stubs.c), and the kernel must allow
   ptrace of a child. *)

external run : string array -> int -> int * int array * string * string
  = "pcprof_run"

(* A mapping of /proc/<pid>/maps: start, end, file offset, path.
   Mappings above [max_int] (vsyscall) are dropped. *)
type mapping = { lo : int; hi : int; offset : int; path : string }

let hex s = int_of_string_opt ("0x" ^ s)

let parse_maps text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | range :: _perms :: offset :: _dev :: _inode :: rest -> (
           match List.map hex (String.split_on_char '-' range), hex offset with
           | [ Some lo; Some hi ], Some offset ->
             Some { lo; hi; offset; path = String.concat " " rest }
           | _ -> None)
         | _ -> None)

(* OCaml's per-module [code_begin]/[code_end] labels share an address
   with a real function; charging samples to them would hide it. *)
let marker name =
  List.exists
    (fun suffix -> String.ends_with ~suffix name)
    [ ".code_begin"; ".code_end"; "__code_begin"; "__code_end" ]

(* The executable's code symbols from [nm -n], sorted by address. *)
let symbols exe =
  let ic = Unix.open_process_args_in "nm" [| "nm"; "-n"; "--defined-only"; exe |] in
  let syms = ref [] in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ addr; kind; name ] when String.length kind = 1
                                   && String.contains "tTwW" kind.[0]
                                   && not (marker name) ->
         Option.iter (fun a -> syms := (a, name) :: !syms) (hex addr)
       | _ -> ()
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  Array.of_list (List.rev !syms)

(* The last symbol at or below [addr]. *)
let symbol_at syms addr =
  let rec go lo hi =
    (* invariant: syms.(lo) <= addr < syms.(hi) *)
    if hi - lo <= 1 then snd syms.(lo)
    else
      let mid = (lo + hi) / 2 in
      if fst syms.(mid) <= addr then go mid hi else go lo mid
  in
  if Array.length syms = 0 || addr < fst syms.(0) then None
  else Some (go 0 (Array.length syms))

(* Charge one run's samples to [counts], through that run's mappings
   (each exec may load the executable at another base). *)
let attribute counts syms (pcs, maps, exe) =
  let maps = parse_maps maps in
  (* a PIE's symbols are relative to the mapping of file offset 0; a
     fixed-address executable's are absolute *)
  let base =
    match List.find_opt (fun m -> m.path = exe && m.offset = 0) maps with
    | Some m when Array.length syms > 0 && fst syms.(0) < m.lo -> m.lo
    | _ -> 0
  in
  Array.iter
    (fun pc ->
      let name =
        match List.find_opt (fun m -> pc >= m.lo && pc < m.hi) maps with
        | Some m when m.path = exe -> (
          match symbol_at syms (pc - base) with
          | Some s -> s
          | None -> Printf.sprintf "[%s]" (Filename.basename exe))
        | Some m when m.path <> "" ->
          Printf.sprintf "[%s]" (Filename.basename m.path)
        | _ -> "[unknown]"
      in
      Hashtbl.replace counts name
        (1 + Option.value (Hashtbl.find_opt counts name) ~default:0))
    pcs

let () =
  let interval = ref 1000 and top = ref 30 and runs = ref 1 and cmd = ref [] in
  let spec =
    [
      ("--interval-us", Arg.Set_int interval, "N  sampling interval (default 1000)");
      ("--top", Arg.Set_int top, "N  rows to print (default 30)");
      ("--runs", Arg.Set_int runs, "N  run the command N times and sum the samples (default 1)");
      ("--", Arg.Rest (fun a -> cmd := a :: !cmd), "PROGRAM ARGS...  the command to profile");
    ]
  in
  let usage = "pcprof [--interval-us N] [--top N] [--runs N] -- PROGRAM ARGS..." in
  Arg.parse spec (fun a -> cmd := a :: !cmd) usage;
  let cmd = Array.of_list (List.rev !cmd) in
  if Array.length cmd = 0 || !interval < 1 || !runs < 1 then begin
    Arg.usage spec usage;
    exit 2
  end;
  let counts = Hashtbl.create 256 in
  let syms = ref None and total = ref 0 and code = ref 0 in
  for _ = 1 to !runs do
    let c, pcs, maps, exe = run cmd !interval in
    let s =
      match !syms with
      | Some s -> s
      | None ->
        let s = if exe = "" then [||] else symbols exe in
        syms := Some s;
        s
    in
    attribute counts s (pcs, maps, exe);
    total := !total + Array.length pcs;
    code := c
  done;
  let total = !total and code = !code in
  let rows =
    Hashtbl.fold (fun name n acc -> (n, name) :: acc) counts []
    |> List.sort (fun (a, x) (b, y) -> if a <> b then compare b a else compare x y)
  in
  Printf.eprintf "pcprof: %d samples every %d us of %s over %d run%s (exit %d)\n"
    total !interval cmd.(0) !runs
    (if !runs = 1 then "" else "s")
    code;
  Printf.eprintf "%7s %8s  %s\n" "self%" "samples" "symbol";
  List.iteri
    (fun i (n, name) ->
      if i < !top then
        Printf.eprintf "%6.2f%% %8d  %s\n"
          (100. *. float_of_int n /. float_of_int (max 1 total))
          n name)
    rows;
  exit (if code < 0 then 128 - code else code)
