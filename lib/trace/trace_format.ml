let magic = "DGRT"
let version = 1
let header_len = String.length magic + 1
let tag_read = 0
let tag_write = 1
let tag_acquire = 2
let tag_release = 3
let tag_fork = 4
let tag_join = 5
let tag_alloc = 6
let tag_free = 7
let tag_exit = 8
let max_tag = tag_exit

(* Field bounds a well-formed trace obeys; the reader rejects records
   outside them so a corrupt varint cannot ask a detector to allocate
   a clock for thread 2^40 or intern a petabyte location string. *)
let max_tid = 1023 (* Epoch.max_tid: the detectors' own thread ceiling *)
let max_access_size = 1 lsl 30
let max_loc_len = 1 lsl 16

(* A location the reader would reject as too long is refused when it
   is written, not discovered at replay. *)
let check_loc loc =
  let len = String.length loc in
  if len > max_loc_len then
    raise
      (Dgrace_resilience.Error.E
         (Dgrace_resilience.Error.Invalid_input
            {
              what = "trace location";
              reason =
                Printf.sprintf "%d bytes long; a trace holds at most %d" len
                  max_loc_len;
            }))

exception Corrupt of string

(* A top-level loop, so a write allocates no closure. *)
let rec write_varint_loop buf n =
  if n < 0x80 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    write_varint_loop buf (n lsr 7)
  end

let write_varint buf n =
  if n < 0 then invalid_arg "Trace_format.write_varint: negative";
  write_varint_loop buf n

let read_varint ic =
  let rec loop acc shift =
    if shift > 62 then raise (Corrupt "varint too long");
    let b = input_byte ic in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else loop acc (shift + 7)
  in
  let n = loop 0 0 in
  if n < 0 then raise (Corrupt "varint overflow") else n
