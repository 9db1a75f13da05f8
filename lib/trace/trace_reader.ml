open Dgrace_events
open Trace_format
module Error = Dgrace_resilience.Error

type reader_state = {
  ic : in_channel;
  path : string option;
  locs : (int, string) Hashtbl.t;
  mutable events_read : int;
}

let corrupt st ~offset reason =
  raise
    (Error.E
       (Error.Corrupt_trace
          { path = st.path; offset; events_read = st.events_read; reason }))

let check_header ?path ic =
  let fail ~offset reason =
    raise
      (Error.E (Error.Corrupt_trace { path; offset; events_read = 0; reason }))
  in
  (match really_input_string ic (String.length magic) with
   | exception End_of_file -> fail ~offset:0 "bad magic (shorter than header)"
   | m -> if m <> magic then fail ~offset:0 "bad magic");
  match input_byte ic with
  | exception End_of_file ->
    fail ~offset:(String.length magic) "missing version byte"
  | v ->
    if v <> version then
      fail ~offset:(String.length magic)
        (Printf.sprintf "unsupported version %d" v)

(* Read just the header and report the container version — how the
   CLI auto-detects v1 vs v2 files before choosing a decode path. *)
let probe_version path =
  let ic = open_in_bin path in
  let fail ~offset reason =
    close_in ic;
    raise
      (Error.E
         (Error.Corrupt_trace { path = Some path; offset; events_read = 0; reason }))
  in
  (match really_input_string ic (String.length magic) with
   | exception End_of_file -> fail ~offset:0 "bad magic (shorter than header)"
   | m -> if m <> magic then fail ~offset:0 "bad magic");
  match input_byte ic with
  | exception End_of_file ->
    fail ~offset:(String.length magic) "missing version byte"
  | v ->
    close_in ic;
    v

let sync_of_code = function
  | 0 -> Event.Lock
  | 1 -> Event.Barrier
  | 2 -> Event.Flag
  | 3 -> Event.Atomic
  | n -> raise (Corrupt (Printf.sprintf "bad sync kind %d" n))

let read_tid st =
  let tid = read_varint st.ic in
  if tid > max_tid then
    raise (Corrupt (Printf.sprintf "tid %d out of range" tid));
  tid

let read_addr st =
  let addr = read_varint st.ic in
  if addr > max_addr then
    raise (Corrupt (Printf.sprintf "address %d out of range" addr));
  addr

let read_size st =
  let size = read_varint st.ic in
  if size > max_access_size then
    raise (Corrupt (Printf.sprintf "size %d out of range" size));
  size

let read_loc st =
  let id = read_varint st.ic in
  match Hashtbl.find_opt st.locs id with
  | Some loc -> loc
  | None ->
    let len = read_varint st.ic in
    if len > max_loc_len then
      raise (Corrupt (Printf.sprintf "location length %d out of range" len));
    let loc = really_input_string st.ic len in
    Hashtbl.replace st.locs id loc;
    loc

let decode_event st =
  match input_byte st.ic with
  | exception End_of_file -> None
  | tag ->
    let ev =
      if tag = tag_read || tag = tag_write then begin
        let tid = read_tid st in
        let addr = read_addr st in
        let size = read_size st in
        let loc = read_loc st in
        let kind = if tag = tag_read then Event.Read else Event.Write in
        Event.Access { tid; kind; addr; size; loc }
      end
      else if tag = tag_acquire then begin
        let tid = read_tid st in
        let lock = read_varint st.ic in
        Event.Acquire { tid; lock; sync = sync_of_code (read_varint st.ic) }
      end
      else if tag = tag_release then begin
        let tid = read_tid st in
        let lock = read_varint st.ic in
        Event.Release { tid; lock; sync = sync_of_code (read_varint st.ic) }
      end
      else if tag = tag_fork then begin
        let parent = read_tid st in
        Event.Fork { parent; child = read_tid st }
      end
      else if tag = tag_join then begin
        let parent = read_tid st in
        Event.Join { parent; child = read_tid st }
      end
      else if tag = tag_alloc then begin
        let tid = read_tid st in
        let addr = read_addr st in
        Event.Alloc { tid; addr; size = read_size st }
      end
      else if tag = tag_free then begin
        let tid = read_tid st in
        let addr = read_addr st in
        Event.Free { tid; addr; size = read_size st }
      end
      else if tag = tag_exit then Event.Thread_exit { tid = read_tid st }
      else raise (Corrupt (Printf.sprintf "unknown tag %d" tag))
    in
    Some ev

(* Decode one record, mapping the low-level exceptions — EOF inside a
   record, bad varints, out-of-range fields — to the structured error
   with the record's start offset. *)
let read_event st =
  let offset = pos_in st.ic in
  match decode_event st with
  | None -> None
  | Some ev ->
    st.events_read <- st.events_read + 1;
    Some ev
  | exception End_of_file -> corrupt st ~offset "truncated event"
  | exception Corrupt reason -> corrupt st ~offset reason

let make_state ?path ic =
  check_header ?path ic;
  { ic; path; locs = Hashtbl.create 64; events_read = 0 }

let read ?path ic =
  let st = make_state ?path ic in
  let rec next () =
    match read_event st with
    | None -> Seq.Nil
    | Some ev -> Seq.Cons (ev, next)
  in
  next

let fold_file path f init =
  let ic = open_in_bin path in
  match Seq.fold_left f init (read ~path ic) with
  | acc ->
    close_in ic;
    acc
  | exception e ->
    close_in ic;
    raise e

let read_file path = List.rev (fold_file path (fun acc ev -> ev :: acc) [])

(* ------------------------------------------------------------------ *)
(* resync: skip to the next decodable record after a corrupt one *)

type recovery = {
  events : int;
  dropped_bytes : int;
  gaps : int;
  errors : Error.t list;
}

let clean = { events = 0; dropped_bytes = 0; gaps = 0; errors = [] }

let fold_file_resync path f init =
  let ic = open_in_bin path in
  let total = in_channel_length ic in
  let finish acc r = (acc, { r with errors = List.rev r.errors }) in
  let result =
    match make_state ~path ic with
    | exception Error.E e ->
      (* nothing before the header to salvage *)
      finish init { clean with dropped_bytes = total; gaps = 1; errors = [ e ] }
    | st ->
      let rec loop acc r =
        match read_event st with
        | None -> finish acc { r with events = st.events_read }
        | Some ev -> loop (f acc ev) r
        | exception Error.E e ->
          let bad_start =
            match e with Error.Corrupt_trace { offset; _ } -> offset | _ -> pos_in ic
          in
          (* scan forward one byte at a time for the next offset where a
             whole record decodes; everything skipped is reported *)
          let rec scan off =
            if off >= total then
              finish acc
                {
                  events = st.events_read;
                  dropped_bytes = r.dropped_bytes + (total - bad_start);
                  gaps = r.gaps + 1;
                  errors = e :: r.errors;
                }
            else begin
              seek_in ic off;
              match read_event st with
              | Some ev ->
                loop (f acc ev)
                  {
                    r with
                    dropped_bytes = r.dropped_bytes + (off - bad_start);
                    gaps = r.gaps + 1;
                    errors = e :: r.errors;
                  }
              | None ->
                finish acc
                  {
                    events = st.events_read;
                    dropped_bytes = r.dropped_bytes + (off - bad_start);
                    gaps = r.gaps + 1;
                    errors = e :: r.errors;
                  }
              | exception Error.E _ -> scan (off + 1)
            end
          in
          scan (bad_start + 1)
      in
      loop init clean
  in
  close_in ic;
  result

let read_file_resync path =
  let rev, recovery =
    fold_file_resync path (fun acc ev -> ev :: acc) []
  in
  (List.rev rev, recovery)
