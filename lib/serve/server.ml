module Json = Dgrace_obs.Json
module Clock = Dgrace_obs.Clock
module Engine = Dgrace_core.Engine
module Spec = Dgrace_core.Spec
module Budget = Dgrace_resilience.Budget
module Error = Dgrace_resilience.Error
module Report = Dgrace_events.Report
module Batch = Dgrace_events.Batch

(* The supervised serve loop.  Two kinds of threads of control:

   - {e systhreads} handle connection I/O — one accept loop, one
     reader per connection.  They block in [read]/[write] (releasing
     the runtime lock) and never run detector code.
   - {e worker domains} (a {!Pool.t}) run the detectors.  Each session
     has a bounded inbox of work items; the connection thread enqueues
     and marks the session scheduled, a worker drains the inbox
     serially (a detector is not thread-safe), so one session never
     occupies more than one domain while distinct sessions run in
     parallel.

   Backpressure is explicit at two points: admission (too many live
   sessions → [Overloaded] with a retry hint, nothing is created) and
   the per-session inbox (full → the BATCH is shed with [Overloaded];
   the client retries the same frame, ordering is preserved because
   nothing later was accepted either).

   Failure is per-session by construction: the session layer converts
   every fault into a terminal state, and a worker that nonetheless
   crashes poisons only the session it was serving before the pool
   restarts the domain. *)

type config = {
  domains : int;
  max_sessions : int;  (* admission cap on concurrently streaming sessions *)
  inbox_frames : int;  (* bounded per-session inbox *)
  session_deadline_s : float option;  (* watchdog expiry *)
  drain_deadline_s : float;  (* grace given to in-flight sessions on drain *)
  retry_after_s : float;  (* hint sent with Overloaded *)
  max_frame_bytes : int;
  clock : Clock.source;  (* drives session budgets and the watchdog *)
  log : string -> unit;  (* supervision log line (bin wires Stderr_line) *)
  spool_spec : Spec.t;  (* detector for spool-mode sessions *)
  spool_budget : Budget.t;
}

let default_config =
  {
    domains = 2;
    max_sessions = 64;
    inbox_frames = 64;
    session_deadline_s = None;
    drain_deadline_s = 5.0;
    retry_after_s = 0.25;
    max_frame_bytes = Wire.default_max_frame_bytes;
    clock = Clock.ns;
    log = prerr_endline;
    spool_spec = Spec.dynamic;
    spool_budget = Budget.unlimited;
  }

type item =
  | Decoded_batch of Batch.t
      (* one 'B' frame, decoded on the connection thread
         (Session.decode_batch_frame) so decode overlaps detection *)
  | Decode_failed of Error.t
      (* a 'B' frame that failed reader-side decode; poisons the
         session when it reaches this position in the stream *)
  | Finish_req

type entry = {
  session : Session.t;
  inbox : item Queue.t;
  emu : Mutex.t;
  mutable scheduled : bool;  (* a worker owns (or is queued for) the inbox *)
  respond : Wire.frame -> unit;
}

type t = {
  cfg : config;
  pool : Pool.t;
  mu : Mutex.t;
  stopped_cond : Condition.t;
  sessions : (int, entry) Hashtbl.t;
  mutable next_id : int;
  mutable draining : bool;
  mutable stopped : bool;
  mutable shed : int;  (* Overloaded responses sent *)
  mutable opened_total : int;
  mutable accept_thread : Thread.t option;
  mutable watchdog_thread : Thread.t option;
  socket_path : string option;
  t0_s : float;
}

let now_s t = float_of_int (t.cfg.clock ()) *. 1e-9

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* ------------------------------------------------------------------ *)
(* response frames *)

let err_frame e =
  Wire.Err
    (Json.Obj [ ("code", Json.Int (Error.exit_code e)); ("error", Error.to_json e) ])

let overloaded_frame t =
  Wire.Overloaded (Json.Obj [ ("retry_after_s", Json.Float t.cfg.retry_after_s) ])

(* One writer closure per connection; its mutex keeps a frame from
   interleaving with another thread's (acks from a worker domain,
   drain summaries from the drain thread).  A vanished peer is not an
   error worth anything — the session outcome is already recorded. *)
let responder fd =
  let wmu = Mutex.create () in
  fun frame ->
    Mutex.lock wmu;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wmu)
      (fun () ->
        try Wire.write fd frame with Unix.Unix_error _ | Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* worker side: drain one session's inbox serially *)

(* Answer one fed batch: its new race lines, then the ack — or the
   session's error. *)
let respond_fed entry = function
  | Ok ack ->
    List.iter
      (fun r -> entry.respond (Wire.Race (Report.to_string r)))
      ack.Session.new_races;
    entry.respond
      (Wire.Ack
         (Json.Obj
            [
              ("events", Json.Int ack.Session.ack_events);
              ("races", Json.Int (List.length ack.Session.new_races));
            ]))
  | Error e -> entry.respond (err_frame e)

let rec drain_inbox entry =
  Mutex.lock entry.emu;
  let item =
    if Queue.is_empty entry.inbox then begin
      entry.scheduled <- false;
      None
    end
    else Some (Queue.pop entry.inbox)
  in
  Mutex.unlock entry.emu;
  match item with
  | None -> ()
  | Some (Decoded_batch b) ->
    respond_fed entry (Session.apply_decoded entry.session b);
    drain_inbox entry
  | Some (Decode_failed e) ->
    respond_fed entry (Session.poison_decoded entry.session e);
    drain_inbox entry
  | Some Finish_req ->
    (match Session.finalize entry.session with
     | Ok s -> entry.respond (Wire.Summary (Engine.summary_to_json s))
     | Error e -> entry.respond (err_frame e));
    drain_inbox entry

(* The job handed to the pool.  The session layer already converts
   detector faults into terminal states, so an exception here means a
   bug below the session boundary; contain it on this one session,
   then re-raise so the supervisor counts a worker crash and restarts
   the domain. *)
let session_job entry () =
  try drain_inbox entry
  with exn ->
    let e =
      Error.Internal { where = "serve.worker"; reason = Printexc.to_string exn }
    in
    Session.abort entry.session e;
    Mutex.lock entry.emu;
    Queue.clear entry.inbox;
    entry.scheduled <- false;
    Mutex.unlock entry.emu;
    entry.respond (err_frame e);
    raise exn

(* Under [entry.emu].  Returns [`Inline] when the pool is shutting
   down: the session is terminal by then (drain sealed it), so the
   caller answers from the stored state on the connection thread
   instead of leaving the request unanswered forever. *)
let schedule t entry =
  if entry.scheduled then `Queued
  else begin
    entry.scheduled <- true;
    if Pool.submit t.pool (session_job entry) then `Queued else `Inline
  end

(* ------------------------------------------------------------------ *)
(* session bookkeeping *)

let streaming_count t =
  Hashtbl.fold
    (fun _ e acc ->
      match Session.state e.session with `Streaming -> acc + 1 | _ -> acc)
    t.sessions 0

let budget_of_open j =
  let int_field k =
    match Json.member k j with Some (Json.Int n) -> Some n | _ -> None
  in
  let float_field k =
    match Json.member k j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int n) -> Some (float_of_int n)
    | _ -> None
  in
  Budget.make
    ?max_shadow_bytes:(int_field "max_shadow_bytes")
    ?max_events:(int_field "max_events")
    ?deadline_s:(float_field "deadline_s")
    ()

let open_session t ~(respond : Wire.frame -> unit) j =
  let spec_name =
    match Json.member "spec" j with
    | Some (Json.String s) -> s
    | _ -> "dynamic"
  in
  (* the block revision of the session's B bodies; a client that
     names none predates the field and writes revision 2 *)
  let revision =
    match Json.member "revision" j with
    | Some (Json.Int r) when Dgrace_trace.Trace_format_v2.readable r -> Ok r
    | None -> Ok 2
    | Some r ->
      Error
        (Error.Invalid_input
           {
             what = "open.revision";
             reason =
               Printf.sprintf
                 "unsupported block revision %s (this server reads 2 and 3)"
                 (Json.to_string ~minify:true r);
           })
  in
  match (Spec.of_string spec_name, revision) with
  | Error reason, _ -> Error (Error.Invalid_input { what = "open.spec"; reason })
  | _, Error e -> Error e
  | Ok spec, Ok revision -> (
    match budget_of_open j with
    | exception Invalid_argument reason ->
      Error (Error.Invalid_input { what = "open.budget"; reason })
    | budget ->
      locked t @@ fun () ->
      if t.draining then Error (Error.Invalid_input { what = "open"; reason = "server draining" })
      else begin
        let id = t.next_id in
        t.next_id <- id + 1;
        t.opened_total <- t.opened_total + 1;
        let session =
          Session.open_ ~budget ~clock:t.cfg.clock ~revision ~id ~spec ()
        in
        let entry =
          {
            session;
            inbox = Queue.create ();
            emu = Mutex.create ();
            scheduled = false;
            respond;
          }
        in
        Hashtbl.replace t.sessions id entry;
        Ok (id, entry)
      end)

(* ------------------------------------------------------------------ *)
(* status document *)

let status_json t =
  locked t @@ fun () ->
  let streaming = ref 0
  and stopped = ref 0
  and finalized = ref 0
  and poisoned = ref 0
  and degraded = ref 0
  and shadow = ref 0 in
  Hashtbl.iter
    (fun _ e ->
      (match Session.state e.session with
       | `Streaming -> incr streaming
       | `Stopped -> incr stopped
       | `Finalized -> incr finalized
       | `Poisoned _ -> incr poisoned);
      if Session.degraded e.session then incr degraded;
      shadow := !shadow + Session.shadow_bytes e.session)
    t.sessions;
  Json.Obj
    [
      ("uptime_s", Json.Float (now_s t -. t.t0_s));
      ("draining", Json.Bool t.draining);
      ( "sessions",
        Json.Obj
          [
            ("open", Json.Int !streaming);
            ("stopped", Json.Int !stopped);
            ("finalized", Json.Int !finalized);
            ("poisoned", Json.Int !poisoned);
            ("degraded", Json.Int !degraded);
            ("opened_total", Json.Int t.opened_total);
          ] );
      ("shadow_bytes", Json.Int !shadow);
      ("shed", Json.Int t.shed);
      ( "pool",
        Json.Obj
          [
            ("domains", Json.Int (Pool.size t.pool));
            ("alive", Json.Int (Pool.alive t.pool));
            ("restarts", Json.Int (Pool.restarts t.pool));
            ("lost", Json.Int (Pool.lost t.pool));
            ("queue_depth", Json.Int (Pool.queue_depth t.pool));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* connection handling (systhreads) *)

let handle_conn t fd =
  let respond = responder fd in
  let current : entry option ref = ref None in
  let declare_abort e reason_frame =
    Session.abort e.session reason_frame
  in
  let rec loop () =
    match Wire.read ~max_frame_bytes:t.cfg.max_frame_bytes fd with
    | Ok None ->
      (* clean EOF: a session still streaming was abandoned mid-stream *)
      Option.iter
        (fun e ->
          declare_abort e
            (Error.Invalid_input
               { what = "connection"; reason = "disconnected mid-session" }))
        !current
    | Error reason ->
      let err = Error.Invalid_input { what = "frame"; reason } in
      Option.iter (fun e -> declare_abort e err) !current;
      respond (err_frame err)
    | Ok (Some frame) -> (
      match frame with
      | Wire.Status ->
        respond (Wire.Status_doc (status_json t));
        loop ()
      | Wire.Open j -> (
        match !current with
        | Some _ ->
          respond
            (err_frame
               (Error.Invalid_input
                  { what = "open"; reason = "session already open on this connection" }));
          loop ()
        | None ->
          let admitted =
            locked t (fun () ->
                if t.draining || streaming_count t >= t.cfg.max_sessions then begin
                  if not t.draining then t.shed <- t.shed + 1;
                  false
                end
                else true)
          in
          if not admitted then begin
            respond (overloaded_frame t);
            loop ()
          end
          else (
            match open_session t ~respond j with
            | Ok (id, entry) ->
              current := Some entry;
              respond (Wire.Opened (Json.Obj [ ("session", Json.Int id) ]));
              loop ()
            | Error e ->
              respond (err_frame e);
              loop ()))
      | Wire.Feed_batch payload -> (
        match !current with
        | None ->
          respond
            (err_frame
               (Error.Invalid_input { what = "feed"; reason = "no open session" }));
          loop ()
        | Some entry ->
          (* shed check before any decode: a shed frame is retried
             verbatim by the client, so the session's v2 decoder must
             not have advanced over it.  Only this connection thread
             pushes to this inbox, so the length can only shrink
             between the check and the push below. *)
          let full =
            Mutex.lock entry.emu;
            let f = Queue.length entry.inbox >= t.cfg.inbox_frames in
            Mutex.unlock entry.emu;
            f
          in
          if full then begin
            locked t (fun () -> t.shed <- t.shed + 1);
            respond (overloaded_frame t);
            loop ()
          end
          else begin
            let item =
              (* decode on this connection thread — outside [emu],
                 since an exhausted pool blocks until the worker
                 recycles — so decode overlaps the worker's detection
                 of earlier batches *)
              match Session.decode_batch_frame entry.session payload with
              | Ok b -> Decoded_batch b
              | Error e -> Decode_failed e
            in
            let disposition =
              Mutex.lock entry.emu;
              Queue.push item entry.inbox;
              let d = schedule t entry in
              Mutex.unlock entry.emu;
              d
            in
            (match disposition with
             | `Queued -> ()
             | `Inline -> drain_inbox entry);
            loop ()
          end)
      | Wire.Finish -> (
        match !current with
        | None ->
          respond
            (err_frame
               (Error.Invalid_input { what = "finish"; reason = "no open session" }));
          loop ()
        | Some entry ->
          let disposition =
            Mutex.lock entry.emu;
            Queue.push Finish_req entry.inbox;
            let d = schedule t entry in
            Mutex.unlock entry.emu;
            d
          in
          (match disposition with
           | `Queued -> ()
           | `Inline -> drain_inbox entry);
          loop ())
      | _ ->
        respond
          (err_frame
             (Error.Invalid_input
                { what = "frame"; reason = "response frame sent by client" }));
        loop ())
  in
  loop ();
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* watchdog *)

let watchdog_sweep t =
  match t.cfg.session_deadline_s with
  | None -> 0
  | Some deadline_s ->
    let entries = locked t (fun () -> Hashtbl.fold (fun _ e l -> e :: l) t.sessions []) in
    List.fold_left
      (fun n e ->
        match Session.expire_if_over e.session ~deadline_s with
        | Some s ->
          e.respond (Wire.Summary (Engine.summary_to_json s));
          n + 1
        | None -> n)
      0 entries

let rec watchdog_loop t =
  Thread.delay 0.2;
  let stop = locked t (fun () -> t.stopped || t.draining) in
  if not stop then begin
    ignore (watchdog_sweep t);
    watchdog_loop t
  end

(* ------------------------------------------------------------------ *)
(* listener *)

let accept_loop t lfd =
  let stop () = locked t (fun () -> t.draining || t.stopped) in
  let rec loop () =
    if not (stop ()) then begin
      (match Unix.select [ lfd ] [] [] 0.2 with
       | [], _, _ -> ()
       | _ -> (
         match Unix.accept ~cloexec:true lfd with
         | fd, _ -> ignore (Thread.create (fun () -> handle_conn t fd) ())
         | exception
             Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
           -> ())
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  (try Unix.close lfd with Unix.Unix_error _ -> ())

let start ?(cfg = default_config) ~socket () =
  Wire.ignore_sigpipe ();
  if Sys.file_exists socket then Unix.unlink socket;
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind lfd (Unix.ADDR_UNIX socket);
     Unix.listen lfd 64
   with e ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     raise e);
  let t =
    {
      cfg;
      pool =
        Pool.create ~domains:cfg.domains
          ~on_crash:(fun wid exn ->
            cfg.log
              (Printf.sprintf "serve: worker %d crashed: %s (restarting)" wid
                 (Printexc.to_string exn)))
          ();
      mu = Mutex.create ();
      stopped_cond = Condition.create ();
      sessions = Hashtbl.create 64;
      next_id = 0;
      draining = false;
      stopped = false;
      shed = 0;
      opened_total = 0;
      accept_thread = None;
      watchdog_thread = None;
      socket_path = Some socket;
      t0_s = float_of_int (cfg.clock ()) *. 1e-9;
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t lfd) ());
  if cfg.session_deadline_s <> None then
    t.watchdog_thread <- Some (Thread.create (fun () -> watchdog_loop t) ());
  t

(* ------------------------------------------------------------------ *)
(* drain / stop *)

(* Graceful drain: stop admitting, give in-flight sessions
   [drain_deadline_s] to finish on their own, then seal the stragglers
   as partial summaries (PR 2's partial contract) and push those to
   their clients before the pool shuts down. *)
let drain t =
  let already = locked t (fun () ->
      let d = t.draining in
      t.draining <- true;
      d)
  in
  if not already then begin
    let t0 = now_s t in
    let rec wait_inflight () =
      let live = locked t (fun () -> streaming_count t) in
      if live > 0 && now_s t -. t0 < t.cfg.drain_deadline_s then begin
        Thread.delay 0.05;
        wait_inflight ()
      end
    in
    wait_inflight ();
    let entries =
      locked t (fun () -> Hashtbl.fold (fun _ e l -> e :: l) t.sessions [])
    in
    List.iter
      (fun e ->
        match Session.state e.session with
        | `Streaming -> (
          let stop =
            Budget.Deadline
              {
                limit_s = t.cfg.drain_deadline_s;
                elapsed_s = Session.elapsed_s e.session;
              }
          in
          match Session.finalize_partial e.session ~stop with
          | Ok s -> e.respond (Wire.Summary (Engine.summary_to_json s))
          | Error err -> e.respond (err_frame err))
        | _ -> ())
      entries;
    Pool.shutdown t.pool;
    Option.iter Thread.join t.accept_thread;
    Option.iter Thread.join t.watchdog_thread;
    Option.iter
      (fun p -> try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
      t.socket_path;
    locked t (fun () ->
        t.stopped <- true;
        Condition.broadcast t.stopped_cond)
  end

let stop = drain

let wait t =
  Mutex.lock t.mu;
  while not t.stopped do
    Condition.wait t.stopped_cond t.mu
  done;
  Mutex.unlock t.mu

let stopped t = locked t (fun () -> t.stopped)
let draining t = locked t (fun () -> t.draining)
let shed_total t = locked t (fun () -> t.shed)

(* ------------------------------------------------------------------ *)
(* spool mode: every trace file in a directory becomes one session,
   fed batch by batch through the same session layer (so spool runs
   exercise the identical budget/poison semantics), processed in
   parallel on a pool, results in file-name order. *)

let process_one_spool ~cfg ~id path =
  let session =
    Session.open_ ~budget:cfg.spool_budget ~clock:cfg.clock ~id
      ~spec:cfg.spool_spec ()
  in
  let feed () b =
    match Session.feed_batch session b with
    | Ok _ -> ()
    | Error e -> raise (Error.E e)
  in
  match
    (* spool directories may mix v1 and v2 traces *)
    if Dgrace_trace.Trace_reader.probe_version path >= 2 then
      Dgrace_trace.Trace_format_v2.fold_batches ~locs:(Session.locs session)
        path feed ()
    else begin
      let b = Batch.create ~locs:(Session.locs session) () in
      List.iter
        (fun ev ->
          Batch.push b ev;
          if Batch.is_full b then begin
            feed () b;
            Batch.clear b
          end)
        (Dgrace_trace.Trace_reader.read_file path);
      if Batch.length b > 0 then feed () b
    end
  with
  | () -> Session.finalize session
  | exception Error.E (Error.Budget_exhausted _) ->
    (* budget stop mid-stream: the sealed partial summary is the
       documented outcome, same as a one-shot budgeted run *)
    Session.finalize session
  | exception Error.E e ->
    Session.abort session e;
    Error e
  | exception exn ->
    let e =
      Error.Internal { where = "spool.read"; reason = Printexc.to_string exn }
    in
    Session.abort session e;
    Error e

let process_spool ?(cfg = default_config) ~dir () =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trc")
    |> List.sort compare
  in
  let n = List.length files in
  let results = Array.make n None in
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let finished = ref 0 in
  let pool = Pool.create ~domains:cfg.domains () in
  List.iteri
    (fun i f ->
      let ok =
        Pool.submit pool (fun () ->
            let r =
              try process_one_spool ~cfg ~id:i (Filename.concat dir f)
              with exn ->
                Error
                  (Error.Internal
                     { where = "spool"; reason = Printexc.to_string exn })
            in
            Mutex.lock mu;
            results.(i) <- Some r;
            incr finished;
            Condition.broadcast cond;
            Mutex.unlock mu)
      in
      if not ok then begin
        Mutex.lock mu;
        results.(i) <-
          Some
            (Error
               (Error.Internal { where = "spool"; reason = "pool rejected job" }));
        incr finished;
        Mutex.unlock mu
      end)
    files;
  Mutex.lock mu;
  while !finished < n do
    Condition.wait cond mu
  done;
  Mutex.unlock mu;
  Pool.shutdown pool;
  List.mapi
    (fun i f ->
      ( f,
        match results.(i) with
        | Some r -> r
        | None ->
          Error (Error.Internal { where = "spool"; reason = "lost result" }) ))
    files
