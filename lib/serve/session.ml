open Dgrace_events
open Dgrace_detectors
module Engine = Dgrace_core.Engine
module Spec = Dgrace_core.Spec
module Budget = Dgrace_resilience.Budget
module Error = Dgrace_resilience.Error
module Accounting = Dgrace_shadow.Accounting
module Trace_format_v2 = Dgrace_trace.Trace_format_v2
module Batch_ring = Dgrace_trace.Batch_ring
module Clock = Dgrace_obs.Clock

(* One trace session as a reusable incremental handle: a detector fed
   batch by batch, owning its own budget state, batch-frame decoder
   and clock.  The design is crash-only: every failure — corrupt frame,
   budget exhaustion, an exception escaping the detector — becomes a
   terminal state stored on the session, and every later call answers
   from that state.  Nothing raises across the session boundary, so a
   poisoned session can never take the server (or a sibling session)
   down with it.

   Terminal states release the detector reference: the session keeps
   only the finished summary (or the error), and the detector's shadow
   pages and vc-intern arena become garbage immediately — the status
   endpoint's live-byte gauge drops to zero for the session the moment
   it dies, which is how the chaos tests verify nothing leaks. *)

type phase =
  | Streaming
  | Stopped of Budget.stop * Engine.summary
      (* budget stop: the partial summary is already sealed; further
         feeds answer the budget error, finalize returns the summary *)
  | Finalized of Engine.summary
  | Poisoned of Error.t

type t = {
  id : int;
  guard : Budget_guard.t;  (* event count, degraded flag, budget checks *)
  now_s : unit -> float;
  t0 : float;
  locs : Loc_table.t;  (* the session's one location id space *)
  v2 : Trace_format_v2.stream_decoder;  (* B-frame (batch) decoder *)
  mutable v2_base : int;  (* bytes of v2 bodies consumed so far *)
  dmu : Mutex.t;  (* serialises reader-side B-frame decodes *)
  dpool : Batch_ring.t;  (* bounded pool of reader-side decode targets *)
  mutable dec_failed : Error.t option;  (* sticky decode failure *)
  mu : Mutex.t;
  mutable detector : Detector.t option;  (* None once terminal *)
  mutable phase : phase;
  mutable reported : int;  (* races already handed out via acks *)
}

type ack = { ack_events : int; new_races : Report.t list }

(* How far a reader-side decode may run ahead of the worker applying
   the batches: the pool is the session's pipeline depth, and blocking
   on an exhausted pool is the natural backpressure (the connection
   thread simply stops reading the socket). *)
let decode_pool_slots = 4

(* Build a session around a detector.  [open_] passes a fresh one
   from its spec; the test suite passes one that raises, to prove the
   crash-only contract contains it. *)
let of_detector ?(budget = Budget.unlimited) ?(clock = Clock.ns) ?revision ~id
    d =
  let locs = Loc_table.create () in
  let v2 = Trace_format_v2.stream_decoder ?revision ~locs () in
  let now_s () = float_of_int (clock ()) *. 1e-9 in
  let t0 = now_s () in
  {
    id;
    guard = Budget_guard.create ~now_s ~t0 budget;
    now_s;
    t0;
    locs;
    v2;
    v2_base = 0;
    dmu = Mutex.create ();
    dpool = Batch_ring.create ~slots:decode_pool_slots ();
    dec_failed = None;
    mu = Mutex.create ();
    detector = Some d;
    phase = Streaming;
    reported = 0;
  }

let open_ ?budget ?clock ?suppression ?revision ~id ~spec () =
  of_detector ?budget ?clock ?revision ~id (Spec.to_detector ?suppression spec)

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let id t = t.id
let locs t = t.locs
let events t = Budget_guard.events t.guard
let degraded t = locked t (fun () -> Budget_guard.degraded t.guard)
let elapsed_s t = t.now_s () -. t.t0

(* Terminal transitions.  [seal] finishes the detector and packages
   the summary exactly as a one-shot run would; [poison] abandons the
   detector without finishing it (its state is suspect).  Both drop
   the detector reference so its shadow memory is reclaimed. *)

let seal t (d : Detector.t) ~partial =
  d.Detector.finish ();
  let s =
    Engine.summarize_detector d
      ~elapsed:(t.now_s () -. t.t0)
      ~partial ~degraded:(Budget_guard.degraded t.guard)
  in
  t.detector <- None;
  s

let poison_locked t e =
  t.detector <- None;
  t.phase <- Poisoned e;
  (* a reader thread blocked acquiring a decode batch must not wait on
     a worker that will never recycle one *)
  Batch_ring.abort t.dpool

(* The state every answer derives from once the session left
   [Streaming]. *)
let terminal_error = function
  | Streaming -> assert false
  | Stopped (stop, _) -> Budget.stop_to_error stop
  | Finalized _ ->
    Error.Invalid_input { what = "session"; reason = "already finalized" }
  | Poisoned e -> e

let take_new_races t (races : Report.t list) =
  let n = List.length races in
  let fresh =
    if n <= t.reported then []
    else List.filteri (fun i _ -> i >= t.reported) races
  in
  t.reported <- n;
  fresh

(* Deliver one batch under the session's crash-only contract: success
   acks, a budget stop seals the partial summary, a detector exception
   poisons.  Batches go through the detector's [process_batch] under
   any budget: the guard truncates a batch at the event limit and
   checks shadow bytes and the deadline after it, as the engine's
   batch replay does.  A detector without [process_batch] is fed event
   by event.  Called with [t.mu] held. *)
let deliver_locked t (d : Detector.t) (b : Batch.t) =
  match
    match d.Detector.process_batch with
    | Some pb -> Budget_guard.batch t.guard d pb b
    | None ->
      Batch.iter_events (Budget_guard.event t.guard d d.Detector.on_event) b
  with
  | () ->
    Ok { ack_events = events t; new_races = take_new_races t (Detector.races d) }
  | exception Budget_guard.Stop stop ->
    (* seal the partial summary now; the feed itself answers the
       budget error so the client knows to stop sending *)
    (match seal t d ~partial:(Some stop) with
     | s -> t.phase <- Stopped (stop, s)
     | exception exn ->
       poison_locked t
         (Error.Internal
            { where = "session.finish"; reason = Printexc.to_string exn }));
    Error (terminal_error t.phase)
  | exception Error.E e ->
    poison_locked t e;
    Error e
  | exception exn ->
    poison_locked t
      (Error.Internal
         { where = "session.detector"; reason = Printexc.to_string exn });
    Error (terminal_error t.phase)

let feed_batch t b =
  locked t @@ fun () ->
  match t.phase with
  | Streaming -> deliver_locked t (Option.get t.detector) b
  | ph -> Error (terminal_error ph)

(* Reader-side decode of one BATCH frame — the serve half of the
   replay pipeline (doc/trace.md): the connection systhread decodes
   the v2 body into a batch from the bounded pool while a worker
   domain applies previously decoded batches, so decode and detect
   overlap for streamed sessions exactly as they do for file replays.
   Decodes serialise in frame order under [t.dmu] (the interning v2
   decoder is sequential state); the pool bounds how far decode runs
   ahead, and {!apply_decoded} recycles.

   A decode error is {e not} applied here: ordering demands the
   session poison only after every earlier decoded batch was applied,
   so the caller enqueues the error and the worker answers it through
   {!poison_decoded} when it reaches that point in the stream.  The
   sticky [dec_failed] makes every later decode on the ruined decoder
   answer the same error. *)
let decode_batch_frame t payload =
  Mutex.lock t.dmu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.dmu) @@ fun () ->
  match t.dec_failed with
  | Some e -> Error e
  | None -> (
    match locked t (fun () -> t.phase) with
    | (Stopped _ | Finalized _ | Poisoned _) as ph -> Error (terminal_error ph)
    | Streaming -> (
      match Batch_ring.acquire t.dpool with
      | None ->
        (* poisoned while we blocked for a batch *)
        Error
          (Error.Internal
             { where = "session.decode"; reason = "session aborted" })
      | Some b -> (
        match Trace_format_v2.decode_body t.v2 ~base:t.v2_base payload b with
        | Ok () ->
          t.v2_base <- t.v2_base + String.length payload;
          Ok b
        | Error e ->
          Batch_ring.restore t.dpool b;
          t.dec_failed <- Some e;
          Error e)))

(* Worker side of the split: apply one reader-decoded batch and return
   its buffer to the pool (also on failure — a terminal session must
   not strand the reader). *)
let apply_decoded t b =
  Fun.protect
    ~finally:(fun () -> Batch_ring.recycle t.dpool b)
    (fun () -> feed_batch t b)

(* Worker side of a reader decode failure, applied at its position in
   the stream: every batch decoded before it has been applied by now,
   so poisoning here matches where the inline path would have. *)
let poison_decoded t e =
  locked t @@ fun () ->
  match t.phase with
  | Streaming ->
    poison_locked t e;
    Error e
  | ph -> Error (terminal_error ph)

(* One BATCH frame, decoded and applied in one call; the socket path
   splits it across reader and worker. *)
let feed_batch_frame t payload =
  match decode_batch_frame t payload with
  | Ok b -> apply_decoded t b
  | Error e -> poison_decoded t e

let races_so_far t =
  locked t @@ fun () ->
  match t.phase with
  | Streaming -> Detector.races (Option.get t.detector)
  | Stopped (_, s) | Finalized s -> s.Engine.races
  | Poisoned _ -> []

let finalize t =
  locked t @@ fun () ->
  match t.phase with
  | Streaming -> (
    let d = Option.get t.detector in
    match seal t d ~partial:None with
    | s ->
      t.phase <- Finalized s;
      Ok s
    | exception exn ->
      poison_locked t
        (Error.Internal
           { where = "session.finish"; reason = Printexc.to_string exn });
      Error (terminal_error t.phase))
  | Stopped (_, s) | Finalized s -> Ok s
  | Poisoned e -> Error e

(* Drain: seal whatever the session has as a partial summary, flagged
   with the given stop reason — PR 2's partial contract, applied to a
   session whose client never said Finish. *)
let finalize_partial t ~stop =
  locked t @@ fun () ->
  match t.phase with
  | Streaming -> (
    let d = Option.get t.detector in
    match seal t d ~partial:(Some stop) with
    | s ->
      t.phase <- Stopped (stop, s);
      Ok s
    | exception exn ->
      poison_locked t
        (Error.Internal
           { where = "session.finish"; reason = Printexc.to_string exn });
      Error (terminal_error t.phase))
  | Stopped (_, s) | Finalized s -> Ok s
  | Poisoned e -> Error e

let abort t e =
  locked t @@ fun () ->
  match t.phase with Streaming -> poison_locked t e | _ -> ()

(* Watchdog hook: expire the session if its deadline passed, reading
   the session clock.  Returns the partial summary when it fired. *)
let expire_if_over t ~deadline_s =
  let over =
    locked t @@ fun () ->
    t.phase = Streaming && t.now_s () -. t.t0 > deadline_s
  in
  if not over then None
  else
    let stop =
      Budget.Deadline { limit_s = deadline_s; elapsed_s = elapsed_s t }
    in
    match finalize_partial t ~stop with Ok s -> Some s | Error _ -> None

type state = [ `Streaming | `Stopped | `Finalized | `Poisoned of Error.t ]

let state t : state =
  locked t @@ fun () ->
  match t.phase with
  | Streaming -> `Streaming
  | Stopped _ -> `Stopped
  | Finalized _ -> `Finalized
  | Poisoned e -> `Poisoned e

let shadow_bytes t =
  locked t @@ fun () ->
  match t.detector with
  | Some d -> Accounting.current_bytes d.Detector.account
  | None -> 0

let summary t =
  locked t @@ fun () ->
  match t.phase with
  | Stopped (_, s) | Finalized s -> Some s
  | Streaming | Poisoned _ -> None
