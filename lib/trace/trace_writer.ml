open Dgrace_events
open Trace_format

let sync_code = function
  | Event.Lock -> 0
  | Event.Barrier -> 1
  | Event.Flag -> 2
  | Event.Atomic -> 3

type t = {
  oc : out_channel;
  buf : Buffer.t;
  locs : (string, int) Hashtbl.t;
  mutable next_loc : int;
  mutable count : int;
}

let create oc =
  output_string oc magic;
  output_byte oc version;
  { oc; buf = Buffer.create 1024; locs = Hashtbl.create 64; next_loc = 0; count = 0 }

let loc_id t loc =
  match Hashtbl.find_opt t.locs loc with
  | Some id -> (id, false)
  | None ->
    let id = t.next_loc in
    t.next_loc <- id + 1;
    Hashtbl.replace t.locs loc id;
    (id, true)

let flush_buf t =
  Buffer.output_buffer t.oc t.buf;
  Buffer.clear t.buf

let write t ev =
  let buf = t.buf in
  (* before any byte of the record is buffered, so a refused event
     leaves the trace readable up to the event before *)
  check_event ~negative_locks:false ev;
  (match ev with
   | Event.Access { tid; kind; addr; size; loc } ->
     let tag = if kind = Event.Read then tag_read else tag_write in
     Buffer.add_char buf (Char.chr tag);
     write_varint buf tid;
     write_varint buf addr;
     write_varint buf size;
     let id, fresh = loc_id t loc in
     write_varint buf id;
     if fresh then begin
       write_varint buf (String.length loc);
       Buffer.add_string buf loc
     end
   | Event.Acquire { tid; lock; sync } ->
     Buffer.add_char buf (Char.chr tag_acquire);
     write_varint buf tid;
     write_varint buf lock;
     write_varint buf (sync_code sync)
   | Event.Release { tid; lock; sync } ->
     Buffer.add_char buf (Char.chr tag_release);
     write_varint buf tid;
     write_varint buf lock;
     write_varint buf (sync_code sync)
   | Event.Fork { parent; child } ->
     Buffer.add_char buf (Char.chr tag_fork);
     write_varint buf parent;
     write_varint buf child
   | Event.Join { parent; child } ->
     Buffer.add_char buf (Char.chr tag_join);
     write_varint buf parent;
     write_varint buf child
   | Event.Alloc { tid; addr; size } ->
     Buffer.add_char buf (Char.chr tag_alloc);
     write_varint buf tid;
     write_varint buf addr;
     write_varint buf size
   | Event.Free { tid; addr; size } ->
     Buffer.add_char buf (Char.chr tag_free);
     write_varint buf tid;
     write_varint buf addr;
     write_varint buf size
   | Event.Thread_exit { tid } ->
     Buffer.add_char buf (Char.chr tag_exit);
     write_varint buf tid);
  t.count <- t.count + 1;
  if Buffer.length buf >= 1 lsl 16 then flush_buf t

let sink t ev = write t ev
let events_written t = t.count

let close t =
  flush_buf t;
  close_out t.oc

let to_file path f =
  let oc = open_out_bin path in
  let t = create oc in
  match
    let v = f (sink t) in
    close t;
    v
  with
  | v -> (v, t.count)
  | exception e ->
    (* a failed producer, or a failed final flush, leaves no file: a
       flushed prefix would replay as a complete, valid-looking trace *)
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr t.oc;
    (try Sys.remove path with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt
