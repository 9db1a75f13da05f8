(* One process-wide emitter for diagnostic lines.

   Everything racedet says on stderr — progress heartbeats, structured
   errors, resync reports, "written to" notices, serve's supervision
   log — goes through [line]: the whole line (tag, newline included)
   is rendered first, then written and flushed as one critical section
   under one mutex.  `racedet serve` runs detectors on several
   domains; without this, a heartbeat fired from one domain
   could interleave mid-line with an error printed from another.
   [Printf.eprintf] buffers per call site and flushes independently,
   which is exactly the interleaving hazard.

   The emitter never raises: a dead stderr (closed pipe under a
   supervisor) silently drops the line rather than crashing the worker
   that tried to log — logging is never allowed to take down an
   otherwise healthy session. *)

let mu = Mutex.create ()

(* Per-domain line tag: `racedet serve` workers set it to the session
   id they are processing, so every line emitted from inside that
   session's detector (heartbeats, degrade notices) is attributable
   without threading a logger through the whole stack.  Domain-local
   on purpose: each worker domain owns one session at a time. *)
let tag_key : string option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let set_tag t = Domain.DLS.set tag_key t

let with_tag t f =
  let old = Domain.DLS.get tag_key in
  Domain.DLS.set tag_key (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set tag_key old) f

let emit s =
  let s =
    match Domain.DLS.get tag_key with
    | Some t -> Printf.sprintf "[%s] %s" t s
    | None -> s
  in
  let s =
    if String.length s > 0 && s.[String.length s - 1] = '\n' then s
    else s ^ "\n"
  in
  Mutex.lock mu;
  (try
     output_string stderr s;
     flush stderr
   with Sys_error _ -> ());
  Mutex.unlock mu

let line fmt = Printf.ksprintf emit fmt

(* For callers holding a [Format] pretty-printer (structured errors):
   render to a string first, then emit atomically. *)
let linef fmt = Format.kasprintf emit fmt
