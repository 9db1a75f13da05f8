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

(* Addresses stay below 2^61, so an address plus a size, or a page or
   chunk base plus its span, never overflows an int.  Past that, an
   access in the top bytes of the int range sends the shadow table's
   page loop round every negative address. *)
let addr_bits = 61
let max_addr = (1 lsl addr_bits) - 1

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

let refuse_event reason =
  raise
    (Dgrace_resilience.Error.E
       (Dgrace_resilience.Error.Invalid_input { what = "trace event"; reason }))

let check_tid t =
  if t < 0 || t > max_tid then
    refuse_event (Printf.sprintf "tid %d outside 0..%d" t max_tid)

let check_addr a =
  if a lsr addr_bits <> 0 then
    refuse_event (Printf.sprintf "address %d outside 0..%d" a max_addr)

let check_size s =
  if s < 0 || s > max_access_size then
    refuse_event (Printf.sprintf "size %d outside 0..%d" s max_access_size)

(* The bounds the readers enforce, checked before an event is written:
   an event outside them would otherwise be written and then fail its
   own replay as a corrupt trace.  Lock ids are the one field the two
   formats differ on: v2's b column stores any int, v1 stores a lock
   id as an unsigned varint. *)
let check_event ~negative_locks (ev : Dgrace_events.Event.t) =
  match ev with
  | Access { tid; addr; size; loc; _ } ->
    check_tid tid;
    check_addr addr;
    check_size size;
    check_loc loc
  | Acquire { tid; lock; _ } | Release { tid; lock; _ } ->
    check_tid tid;
    if lock < 0 && not negative_locks then
      refuse_event
        (Printf.sprintf
           "negative lock id %d: a v1 trace stores lock ids unsigned (write \
            v2)"
           lock)
  | Fork { parent; child } | Join { parent; child } ->
    check_tid parent;
    check_tid child
  | Alloc { tid; addr; size } | Free { tid; addr; size } ->
    check_tid tid;
    check_addr addr;
    check_size size
  | Thread_exit { tid } -> check_tid tid

exception Corrupt of string

(* A top-level loop, so a write allocates no closure.  It reads [n] as
   unsigned: a value with bit 62 set takes all nine bytes. *)
let rec write_uvarint buf n =
  if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.unsafe_chr n)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    write_uvarint buf (n lsr 7)
  end

let write_varint buf n =
  if n < 0 then invalid_arg "Trace_format.write_varint: negative";
  write_uvarint buf n

let read_varint ic =
  let rec loop acc shift =
    if shift > 62 then raise (Corrupt "varint too long");
    let b = input_byte ic in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else loop acc (shift + 7)
  in
  let n = loop 0 0 in
  if n < 0 then raise (Corrupt "varint overflow") else n
