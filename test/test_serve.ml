(* The serve stack: wire framing, the batch-frame codec, crash-only
   sessions, the supervised domain pool, the socket server (concurrent
   differential vs the one-shot engine, backpressure, drain, watchdog),
   spool mode, and the wire-level fault harness. *)

open Dgrace_events
open Dgrace_core
module Budget = Dgrace_resilience.Budget
module Error = Dgrace_resilience.Error
module Json = Dgrace_obs.Json
module Clock = Dgrace_obs.Clock
module Wire = Dgrace_serve.Wire
module Trace_format_v2 = Dgrace_trace.Trace_format_v2
module Session = Dgrace_serve.Session
module Pool = Dgrace_serve.Pool
module Server = Dgrace_serve.Server
module Client = Dgrace_serve.Client
module Chaos = Dgrace_serve.Chaos

(* ------------------------------------------------------------------ *)
(* shared fixtures *)

(* Two unsynchronised writers over a small set of addresses plus a
   clean locked region: a deterministic multi-race stream. *)
let racy_events () =
  let open Tutil in
  [ fork 0 1; fork 0 2 ]
  @ List.concat_map
      (fun i ->
        let addr = 0x1000 + i mod 8 * 4 in
        [
          wr ~loc:"racy.c:w1" 1 addr;
          wr ~loc:"racy.c:w2" 2 addr;
          acq 1; wr ~loc:"racy.c:locked" 1 0x9000; rel 1;
          acq 2; rd ~loc:"racy.c:locked" 2 0x9000; rel 2;
        ])
      (List.init 100 Fun.id)
  @ [ Event.Thread_exit { tid = 1 }; Event.Thread_exit { tid = 2 } ]

let race_lines (s : Engine.summary) = List.map Report.to_string s.races

let baseline_lines events =
  race_lines Tutil.(analyze (config Spec.dynamic) (event_list events))

(* One BATCH payload: the events (at most one block's worth) as a v2
   block body from [enc], the connection's encoder. *)
let body ?(enc = Trace_format_v2.block_encoder ()) events =
  Trace_format_v2.encode_body enc (Batch.of_events events)

let temp_socket () =
  let p = Filename.temp_file "dgrace-serve" ".sock" in
  Sys.remove p;
  p

(* substring check for error-message assertions *)
let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let temp_dir () =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dgrace-spool-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir d 0o700;
  d

(* ------------------------------------------------------------------ *)
(* wire framing *)

let frames_equal a b =
  match (a, b) with
  | Wire.Feed_batch x, Wire.Feed_batch y
  | Wire.Race x, Wire.Race y ->
    x = y
  | Wire.Finish, Wire.Finish | Wire.Status, Wire.Status -> true
  | Wire.Open x, Wire.Open y
  | Wire.Opened x, Wire.Opened y
  | Wire.Ack x, Wire.Ack y
  | Wire.Summary x, Wire.Summary y
  | Wire.Err x, Wire.Err y
  | Wire.Overloaded x, Wire.Overloaded y
  | Wire.Status_doc x, Wire.Status_doc y ->
    Json.equal x y
  | _ -> false

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_wire_roundtrip () =
  let sample = Json.Obj [ ("spec", Json.String "dynamic"); ("n", Json.Int 3) ] in
  let all =
    [
      Wire.Open sample; Wire.Feed_batch "\x00\x01block\xff"; Wire.Finish;
      Wire.Status; Wire.Opened sample; Wire.Ack sample; Wire.Race "race on 0x1";
      Wire.Summary sample; Wire.Err sample; Wire.Overloaded sample;
      Wire.Status_doc sample;
    ]
  in
  List.iter
    (fun f ->
      with_socketpair (fun a b ->
          Wire.write a f;
          match Wire.read b with
          | Ok (Some g) ->
            Alcotest.(check bool)
              (Printf.sprintf "roundtrip '%c'" (Wire.type_byte f))
              true (frames_equal f g)
          | Ok None -> Alcotest.fail "unexpected EOF"
          | Error e -> Alcotest.fail e))
    all

let test_wire_eof_and_garbage () =
  (* clean EOF on a frame boundary *)
  with_socketpair (fun a b ->
      Unix.close a;
      match Wire.read b with
      | Ok None -> ()
      | _ -> Alcotest.fail "expected clean EOF");
  (* unknown type byte — 'F' too: an old client's event-record feed
     frame is no longer part of the protocol *)
  List.iter
    (fun typ ->
      with_socketpair (fun a b ->
          ignore (Unix.write_substring a ("\x00\x00\x00\x00" ^ typ) 0 5);
          match Wire.read b with
          | Error e ->
            Alcotest.(check bool) ("names the byte " ^ typ) true
              (contains ~affix:"unknown frame type" e)
          | _ -> Alcotest.failf "garbage type %s accepted" typ))
    [ "Z"; "F" ];
  (* over-limit length *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "\xff\xff\xff\xff\xff" 0 5);
      match Wire.read b with
      | Error e ->
        Alcotest.(check bool) "names the limit" true
          (contains ~affix:"exceeds limit" e)
      | _ -> Alcotest.fail "oversize length accepted");
  (* peer vanishing mid-frame *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring a "\x00\x00\x00\x10B12" 0 7);
      Unix.close a;
      match Wire.read b with
      | Error e ->
        Alcotest.(check bool) "truncated payload" true
          (contains ~affix:"truncated frame" e)
      | _ -> Alcotest.fail "truncated frame accepted")

(* ------------------------------------------------------------------ *)
(* batch-frame codec: v2 block bodies over one connection *)

let test_codec_roundtrip_across_frames () =
  let events = racy_events () in
  let enc = Trace_format_v2.block_encoder () in
  let rec split3 = function
    | a :: b :: c :: rest ->
      let xs, ys, zs = split3 rest in
      (a :: xs, b :: ys, c :: zs)
    | rest -> (rest, [], [])
  in
  let c1, c2, c3 = split3 events in
  let dec = Trace_format_v2.stream_decoder () in
  let base = ref 0 in
  let decode payload =
    let b = Batch.create () in
    match Trace_format_v2.decode_body dec ~base:!base payload b with
    | Ok () ->
      base := !base + String.length payload;
      List.init (Batch.length b) (Batch.event b)
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  (* locations sent in frame 1 must resolve by id in frames 2 and 3 *)
  let round =
    decode (body ~enc c1) @ decode (body ~enc c2) @ decode (body ~enc c3)
  in
  Alcotest.(check int) "count" (List.length events) (List.length round);
  Alcotest.(check bool) "payload equal" true (List.sort compare events = List.sort compare round)

let test_codec_corruption_absolute_offset () =
  let dec = Trace_format_v2.stream_decoder () in
  let first = body (racy_events ()) in
  let b = Batch.create () in
  (match Trace_format_v2.decode_body dec ~base:0 first b with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Error.to_string e));
  (* one row whose kind tag is no kind *)
  match
    Trace_format_v2.decode_body dec ~base:(String.length first) "\x01\xee\x01" b
  with
  | Ok () -> Alcotest.fail "garbage decoded"
  | Error (Error.Corrupt_trace { offset; reason; _ }) ->
    Alcotest.(check bool) "offset is absolute in the stream" true
      (offset >= String.length first);
    Alcotest.(check bool) "names the tag" true
      (contains ~affix:"unknown tag" reason)
  | Error e -> Alcotest.fail (Error.to_string e)

(* ------------------------------------------------------------------ *)
(* sessions *)

let test_session_matches_oneshot () =
  let events = racy_events () in
  let s = Session.open_ ~id:0 ~spec:Spec.dynamic () in
  (match Session.feed_batch_frame s (body events) with
   | Ok ack ->
     Alcotest.(check int) "events acked" (List.length events)
       ack.Session.ack_events
   | Error e -> Alcotest.fail (Error.to_string e));
  match Session.finalize s with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok summary ->
    Alcotest.(check (list string))
      "same races as Engine.replay" (baseline_lines events)
      (race_lines summary);
    Alcotest.(check int) "shadow released" 0 (Session.shadow_bytes s);
    (* finalize is idempotent *)
    (match Session.finalize s with
     | Ok again ->
       Alcotest.(check (list string))
         "idempotent" (race_lines summary) (race_lines again)
     | Error e -> Alcotest.fail (Error.to_string e))

let test_session_poisoned_by_corrupt_frame () =
  let s = Session.open_ ~id:1 ~spec:Spec.dynamic () in
  let first = body (racy_events ()) in
  (match Session.feed_batch_frame s first with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Error.to_string e));
  let stored =
    match Session.feed_batch_frame s "\xee\xee" with
    | Ok _ -> Alcotest.fail "corrupt frame accepted"
    | Error e -> e
  in
  (match stored with
   | Error.Corrupt_trace { offset; _ } ->
     Alcotest.(check bool) "offset is absolute in the session's stream" true
       (offset >= String.length first)
   | e -> Alcotest.fail ("wrong error: " ^ Error.to_string e));
  (match Session.state s with
   | `Poisoned _ -> ()
   | _ -> Alcotest.fail "not poisoned");
  Alcotest.(check int) "shadow released on poison" 0 (Session.shadow_bytes s);
  Alcotest.(check (list string)) "no races from a poisoned session" []
    (List.map Report.to_string (Session.races_so_far s));
  (* every later call answers the stored error *)
  (match Session.feed_batch s (Batch.of_events [ Tutil.wr 1 0x1000 ]) with
   | Error e ->
     Alcotest.(check string) "feed answers stored error"
       (Error.to_string stored) (Error.to_string e)
   | Ok _ -> Alcotest.fail "poisoned session accepted events");
  match Session.finalize s with
  | Error e ->
    Alcotest.(check string) "finalize answers stored error"
      (Error.to_string stored) (Error.to_string e)
  | Ok _ -> Alcotest.fail "poisoned session finalized"

let test_session_contains_crashing_detector () =
  let d =
    { (Dgrace_detectors.Detector.null ()) with
      on_event = (fun _ -> failwith "detector bug");
      process_batch = None;
    }
  in
  let s = Session.of_detector ~id:2 d in
  (match Session.feed_batch s (Batch.of_events [ Tutil.wr 1 0x1000 ]) with
   | Error (Error.Internal { where; reason }) ->
     Alcotest.(check string) "where" "session.detector" where;
     Alcotest.(check bool) "reason" true
       (contains ~affix:"detector bug" reason)
   | Error e -> Alcotest.fail ("wrong error: " ^ Error.to_string e)
   | Ok _ -> Alcotest.fail "crash not contained");
  match Session.state s with
  | `Poisoned (Error.Internal _) -> ()
  | _ -> Alcotest.fail "not poisoned by crash"

let test_session_budget_stop_is_answerable () =
  let events = racy_events () in
  let s =
    Session.open_ ~budget:(Budget.make ~max_events:50 ()) ~id:3
      ~spec:Spec.dynamic ()
  in
  (match Session.feed_batch s (Batch.of_events events) with
   | Error (Error.Budget_exhausted { budget; _ }) ->
     Alcotest.(check string) "events budget" "events" budget
   | Error e -> Alcotest.fail (Error.to_string e)
   | Ok _ -> Alcotest.fail "budget not enforced");
  Alcotest.(check bool) "stopped" true (Session.state s = `Stopped);
  (* further feeds keep answering the budget error... *)
  (match Session.feed_batch s (Batch.of_events [ Tutil.wr 1 0x1000 ]) with
   | Error (Error.Budget_exhausted _) -> ()
   | _ -> Alcotest.fail "stopped session did not answer budget error");
  (* ...while finalize returns the sealed partial summary *)
  match Session.finalize s with
  | Ok summary -> (
    match summary.Engine.partial with
    | Some (Budget.Max_events { limit }) ->
      Alcotest.(check int) "limit" 50 limit
    | _ -> Alcotest.fail "summary not flagged partial")
  | Error e -> Alcotest.fail (Error.to_string e)

(* The event budget is exact through both feeds: a session fed exactly
   [limit] events completes; one more event, also mid-batch, stops it
   with the first [limit] events analysed, as a one-shot run does. *)
let test_session_event_budget_exact () =
  let events = racy_events () in
  let n = List.length events in
  let one_shot limit =
    Tutil.(
      analyze
        (config ~budget:(Budget.make ~max_events:limit ()) Spec.dynamic)
        (event_list events))
  in
  let feeds =
    [
      ("batch", fun s -> Session.feed_batch s (Batch.of_events events));
      ("batch frame", fun s -> Session.feed_batch_frame s (body events));
    ]
  in
  List.iter
    (fun limit ->
      let want = one_shot limit in
      Alcotest.(check bool)
        (Printf.sprintf "one-shot partial at max_events=%d" limit)
        (limit < n) (want.partial <> None);
      List.iter
        (fun (what, feed) ->
          let ctx = Printf.sprintf "%s, max_events=%d" what limit in
          let s =
            Session.open_ ~budget:(Budget.make ~max_events:limit ()) ~id:7
              ~spec:Spec.dynamic ()
          in
          (match (feed s, want.Engine.partial) with
           | Ok _, None -> ()
           | Error (Error.Budget_exhausted { budget = "events"; _ }), Some _ -> ()
           | Ok _, Some _ -> Alcotest.failf "%s: budget not enforced" ctx
           | Error e, _ -> Alcotest.failf "%s: %s" ctx (Error.to_string e));
          match Session.finalize s with
          | Ok got ->
            Alcotest.(check (list string)) (ctx ^ ": races") (race_lines want)
              (race_lines got);
            Alcotest.(check int) (ctx ^ ": accesses")
              want.stats.Dgrace_detectors.Run_stats.accesses
              got.stats.Dgrace_detectors.Run_stats.accesses;
            Alcotest.(check bool) (ctx ^ ": partial") (want.partial <> None)
              (got.partial <> None)
          | Error e -> Alcotest.failf "%s: %s" ctx (Error.to_string e))
        feeds)
    [ 1; n / 2; n - 1; n; n + 1 ]

let test_session_deadline_on_mock_clock () =
  (* one second per clock reading; the deadline check after each
     batch crosses 3 s deterministically, with zero real waiting *)
  let clock = Clock.ticker ~step:1_000_000_000 () in
  let s =
    Session.open_ ~budget:(Budget.make ~deadline_s:3.0 ()) ~clock ~id:4
      ~spec:Spec.dynamic ()
  in
  let batch =
    Batch.of_events
      (List.init 256 (fun i -> Tutil.wr 1 (0x1000 + (i mod 32 * 4))))
  in
  let rec feed n =
    if n = 0 then Alcotest.fail "mock deadline not enforced"
    else
      match Session.feed_batch s batch with
      | Ok _ -> feed (n - 1)
      | Error (Error.Budget_exhausted { budget; _ }) ->
        Alcotest.(check string) "deadline budget" "deadline_s" budget
      | Error e -> Alcotest.fail (Error.to_string e)
  in
  feed 8;
  match Session.finalize s with
  | Ok summary -> (
    match summary.Engine.partial with
    | Some (Budget.Deadline _) -> ()
    | _ -> Alcotest.fail "not a deadline stop")
  | Error e -> Alcotest.fail (Error.to_string e)

let test_session_expiry_watchdog_hook () =
  let clock = Clock.ticker ~step:1_000_000_000 () in
  let s = Session.open_ ~clock ~id:5 ~spec:Spec.dynamic () in
  (match Session.feed_batch s (Batch.of_events [ Tutil.wr 1 0x1000 ]) with
   | Ok _ -> ()
   | Error e -> Alcotest.fail (Error.to_string e));
  (match Session.expire_if_over s ~deadline_s:0.5 with
   | Some summary ->
     Alcotest.(check bool) "partial" true (summary.Engine.partial <> None)
   | None -> Alcotest.fail "expiry did not fire");
  Alcotest.(check bool) "stopped" true (Session.state s = `Stopped);
  (* expiry is one-shot *)
  match Session.expire_if_over s ~deadline_s:0.5 with
  | None -> ()
  | Some _ -> Alcotest.fail "expired twice"

(* ------------------------------------------------------------------ *)
(* pool supervision *)

let wait_for ?(timeout_s = 5.0) pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () -. t0 > timeout_s then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let test_pool_runs_jobs () =
  let pool = Pool.create ~domains:3 () in
  let n = Atomic.make 0 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "submitted" true
      (Pool.submit pool (fun () -> Atomic.incr n))
  done;
  Alcotest.(check bool) "all ran" true (wait_for (fun () -> Atomic.get n = 50));
  Pool.shutdown pool;
  Alcotest.(check int) "no restarts" 0 (Pool.restarts pool);
  Alcotest.(check int) "all workers exited" 0 (Pool.alive pool);
  Alcotest.(check bool) "rejects after shutdown" false
    (Pool.submit pool (fun () -> ()))

let test_pool_restart_and_backoff () =
  let backoffs = ref [] in
  let mu = Mutex.create () in
  let pool =
    Pool.create ~domains:1 ~max_restarts:4 ~backoff0_s:0.01
      ~sleep:(fun s ->
        Mutex.lock mu;
        backoffs := s :: !backoffs;
        Mutex.unlock mu)
      ()
  in
  let n = Atomic.make 0 in
  Alcotest.(check bool) "crashing job accepted" true
    (Pool.submit pool (fun () -> failwith "worker bug"));
  Alcotest.(check bool) "worker restarted" true
    (wait_for (fun () -> Pool.restarts pool = 1));
  (* the replacement domain keeps serving the queue *)
  for _ = 1 to 5 do
    ignore (Pool.submit pool (fun () -> Atomic.incr n))
  done;
  Alcotest.(check bool) "replacement ran the queue" true
    (wait_for (fun () -> Atomic.get n = 5));
  ignore (Pool.submit pool (fun () -> failwith "again"));
  Alcotest.(check bool) "second restart" true
    (wait_for (fun () -> Pool.restarts pool = 2));
  Pool.shutdown pool;
  (* capped exponential: 0.01, then 0.02 *)
  let sorted = List.sort compare !backoffs in
  Alcotest.(check (list (float 1e-9))) "backoff doubles" [ 0.01; 0.02 ] sorted;
  Alcotest.(check int) "nothing permanently lost" 0 (Pool.lost pool)

let test_pool_restart_budget_spent () =
  let pool =
    Pool.create ~domains:1 ~max_restarts:0 ~sleep:(fun _ -> ()) ()
  in
  ignore (Pool.submit pool (fun () -> failwith "fatal"));
  Alcotest.(check bool) "worker stays down" true
    (wait_for (fun () -> Pool.lost pool = 1));
  Alcotest.(check int) "no restarts granted" 0 (Pool.restarts pool);
  Alcotest.(check int) "capacity degraded" 0 (Pool.alive pool);
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* socket server *)

let with_server ?(cfg = { Server.default_config with domains = 3 }) f =
  let socket = temp_socket () in
  let server = Server.start ~cfg ~socket () in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server socket)

let test_server_concurrent_differential () =
  let events = racy_events () in
  let oracle = baseline_lines events in
  with_server (fun _server socket ->
      (* N concurrent sessions, each cutting the stream into BATCH
         frames of a different size: every one must report the
         oracle's races, byte for byte *)
      let results =
        List.map
          (fun chunk_events ->
            let slot = ref (Error (Client.Protocol "not run")) in
            let th =
              Thread.create
                (fun () -> slot := Client.replay ~chunk_events ~socket events)
                ()
            in
            (th, slot))
          [ 7; 64; 131; 512; 2048; 4096 ]
      in
      List.iter (fun (th, _) -> Thread.join th) results;
      List.iteri
        (fun i (_, slot) ->
          match !slot with
          | Ok { Client.races; summary } ->
            Alcotest.(check (list string))
              (Printf.sprintf "client %d matches one-shot" i)
              oracle races;
            (match Json.member "races" summary with
             | Some (Json.Int n) ->
               Alcotest.(check int)
                 (Printf.sprintf "client %d summary count" i)
                 (List.length oracle) n
             | _ -> Alcotest.fail "summary missing race count")
          | Error f -> Alcotest.fail (Client.failure_to_string f))
        results)

(* Frames stay under the server's 16 MiB frame limit when locations
   are long and distinct: 600 accesses with distinct 40 KiB locations
   would make a 512-row frame of about 20 MiB, so the client cuts its
   frames where the v2 writer cuts its blocks. *)
let test_server_long_locations () =
  let loc i = Printf.sprintf "%04d%s" i (String.make (40 * 1024) 'l') in
  let events =
    Tutil.fork 0 1
    :: List.concat_map
         (fun i ->
           let addr = 0x1000 + (i * 8) in
           [
             Tutil.wr ~loc:(loc (2 * i)) 0 addr;
             Tutil.wr ~loc:(loc ((2 * i) + 1)) 1 addr;
           ])
         (List.init 300 Fun.id)
  in
  let oracle = baseline_lines events in
  Alcotest.(check bool) "the stream races" true (oracle <> []);
  with_server (fun _server socket ->
      match Client.replay ~socket events with
      | Ok { Client.races; _ } ->
        Alcotest.(check (list string)) "matches one-shot" oracle races
      | Error f -> Alcotest.fail (Client.failure_to_string f))

(* A caller-built batch gets the same cut: 512 rows with distinct
   40 KiB locations (about 20 MiB as one body) fed through
   [Client.feed_batch] go out as several frames.  A row no frame can
   hold fails alone, before anything is sent, and leaves the
   connection's location table as it was: the next batch reuses the
   failed batch's first location and must still decode. *)
let test_server_feed_batch_cuts () =
  let loc i = Printf.sprintf "%04d%s" i (String.make (40 * 1024) 'b') in
  let events =
    Tutil.fork 0 1
    :: List.init 511 (fun i ->
           Tutil.wr ~loc:(loc i) (i land 1) (0x1000 + (i / 2 * 8)))
  in
  let oracle = baseline_lines events in
  Alcotest.(check bool) "the stream races" true (oracle <> []);
  let unfit =
    let too_long = String.make (Dgrace_trace.Trace_format.max_loc_len + 1) 'x' in
    [ Tutil.wr ~loc:(loc 0) 0 0x1000; Tutil.wr ~loc:too_long 0 0x1004 ]
  in
  let ok what = function
    | Ok v -> v
    | Error f -> Alcotest.failf "%s: %s" what (Client.failure_to_string f)
  in
  with_server (fun _server socket ->
      let c = ok "connect" (Client.connect ~socket) in
      ignore (ok "open" (Client.open_session c) : int);
      (match Client.feed_batch c (Batch.of_events unfit) with
       | Error (Client.Protocol _) -> ()
       | Ok _ -> Alcotest.fail "an over-long location was sent"
       | Error f -> Alcotest.fail (Client.failure_to_string f));
      let batch = Batch.of_events events in
      Alcotest.(check int) "one caller-built batch" 512 (Batch.length batch);
      ignore (ok "feed" (Client.feed_batch c batch) : Json.t);
      ignore (ok "finish" (Client.finish c) : Json.t);
      Alcotest.(check (list string)) "matches one-shot" oracle (Client.races c);
      Client.close c)

let test_server_admission_overload () =
  let cfg = { Server.default_config with domains = 2; max_sessions = 1 } in
  with_server ~cfg (fun server socket ->
      match Client.connect ~socket with
      | Error f -> Alcotest.fail (Client.failure_to_string f)
      | Ok first ->
        (match Client.open_session first with
         | Ok _ -> ()
         | Error f -> Alcotest.fail (Client.failure_to_string f));
        (* a second session must be shed with a retry hint, raw on the
           wire so the client's auto-retry doesn't mask it *)
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX socket);
        Wire.write fd (Wire.Open (Json.Obj []));
        (match Wire.read fd with
         | Ok (Some (Wire.Overloaded j)) ->
           Alcotest.(check bool) "retry hint" true
             (Json.member "retry_after_s" j <> None)
         | _ -> Alcotest.fail "expected Overloaded");
        Unix.close fd;
        Alcotest.(check bool) "shed counted" true (Server.shed_total server >= 1);
        (* finishing the first session frees the slot *)
        (match Client.finish first with
         | Ok _ -> ()
         | Error f -> Alcotest.fail (Client.failure_to_string f));
        Client.close first;
        match Client.replay ~socket (racy_events ()) with
        | Ok _ -> ()
        | Error f -> Alcotest.fail (Client.failure_to_string f))

let test_server_inbox_backpressure () =
  let cfg =
    { Server.default_config with domains = 1; inbox_frames = 2 }
  in
  with_server ~cfg (fun server socket ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          Wire.write fd (Wire.Open (Json.Obj []));
          (match Wire.read fd with
           | Ok (Some (Wire.Opened _)) -> ()
           | _ -> Alcotest.fail "open failed");
          (* full blocks of fresh addresses keep the only worker busy;
             frames behind them overflow the 2-deep inbox.  One encoder
             for the whole connection, and one location, interned by
             the first frame (which is never shed): a shed frame must
             not leave later frames naming a location the server never
             saw. *)
          let enc = Trace_format_v2.block_encoder () in
          let rows = Trace_format_v2.block_events in
          let big k =
            body ~enc
              (List.init rows (fun i ->
                   Tutil.wr 0 (0x100000 + (((k * rows) + i) * 64))))
          in
          let bigs = 8 in
          for k = 0 to bigs - 1 do
            Wire.write fd (Wire.Feed_batch (big k))
          done;
          let tiny = body ~enc [ Tutil.wr 0 0x10 ] in
          let sent = bigs + 24 in
          for _ = bigs + 1 to sent do
            Wire.write fd (Wire.Feed_batch tiny)
          done;
          let acks = ref 0 and overloaded = ref 0 in
          for _ = 1 to sent do
            match Wire.read fd with
            | Ok (Some (Wire.Ack _)) -> incr acks
            | Ok (Some (Wire.Overloaded _)) -> incr overloaded
            | Ok (Some (Wire.Race _)) -> ()
            | Ok (Some (Wire.Err j)) ->
              Alcotest.fail
                (Printf.sprintf "server error under backpressure: %s"
                   (Json.to_string ~minify:true j))
            | Ok (Some f) ->
              Alcotest.fail
                (Printf.sprintf "unexpected frame '%c' under backpressure"
                   (Wire.type_byte f))
            | Ok None -> Alcotest.fail "unexpected EOF under backpressure"
            | Error e -> Alcotest.fail e
          done;
          Alcotest.(check bool)
            (Printf.sprintf "some feeds shed (acks=%d overloaded=%d)" !acks
               !overloaded)
            true (!overloaded >= 1);
          Alcotest.(check bool) "shed counter" true
            (Server.shed_total server >= !overloaded)))

let test_server_drain_seals_partial () =
  let cfg =
    { Server.default_config with domains = 2; drain_deadline_s = 0.2 }
  in
  let socket = temp_socket () in
  let server = Server.start ~cfg ~socket () in
  match Client.connect ~socket with
  | Error f -> Alcotest.fail (Client.failure_to_string f)
  | Ok c ->
    (match Client.open_session c with
     | Ok _ -> ()
     | Error f -> Alcotest.fail (Client.failure_to_string f));
    (match Client.feed_batch c (Batch.of_events (racy_events ())) with
     | Ok _ -> ()
     | Error f -> Alcotest.fail (Client.failure_to_string f));
    (* SIGTERM path: the session never sends Finish; drain must seal
       it as a partial summary *)
    Server.drain server;
    Alcotest.(check bool) "stopped" true (Server.stopped server);
    (match Client.finish c with
     | Ok summary ->
       (match Json.member "partial" summary with
        | Some (Json.Bool true) -> ()
        | _ -> Alcotest.fail "drained session not flagged partial");
       (match Json.member "races" summary with
        | Some (Json.Int n) ->
          Alcotest.(check int)
            "partial summary still reports the races"
            (List.length (baseline_lines (racy_events ())))
            n
        | _ -> Alcotest.fail "summary missing races")
     | Error f -> Alcotest.fail (Client.failure_to_string f));
    Client.close c;
    (* idempotent *)
    Server.drain server

let test_server_watchdog_expires_on_mock_clock () =
  let cfg =
    {
      Server.default_config with
      domains = 2;
      session_deadline_s = Some 1.0;
      clock = Clock.ticker ~step:100_000_000 ();  (* 0.1 s per reading *)
    }
  in
  with_server ~cfg (fun server socket ->
      match Client.connect ~socket with
      | Error f -> Alcotest.fail (Client.failure_to_string f)
      | Ok c ->
        (match Client.open_session c with
         | Ok _ -> ()
         | Error f -> Alcotest.fail (Client.failure_to_string f));
        (* every sweep reads the mock clock forward; the session must
           expire within a bounded number of sweeps, no real waiting *)
        let expired = ref 0 in
        let sweeps = ref 0 in
        while !expired = 0 && !sweeps < 100 do
          expired := Server.watchdog_sweep server;
          incr sweeps
        done;
        Alcotest.(check int) "one session expired" 1 !expired;
        (match Client.finish c with
         | Ok summary -> (
           match Json.member "partial" summary with
           | Some (Json.Bool true) -> ()
           | _ -> Alcotest.fail "expired session not partial")
         | Error f -> Alcotest.fail (Client.failure_to_string f));
        Client.close c)

let test_server_status_leak_free () =
  with_server (fun server socket ->
      let events = racy_events () in
      (match Client.replay ~socket events with
       | Ok _ -> ()
       | Error f -> Alcotest.fail (Client.failure_to_string f));
      (match
         Client.replay ~fault:Client.Garbage ~fault_after_frames:1 ~socket
           events
       with
       | Ok _ -> Alcotest.fail "faulted session completed"
       | Error _ -> ());
      let rec settle n =
        let j = Server.status_json server in
        let opened =
          match
            Option.bind (Json.member "sessions" j) (Json.member "open")
          with
          | Some (Json.Int k) -> k
          | _ -> -1
        in
        if opened = 0 || n = 0 then j
        else begin
          Thread.delay 0.02;
          settle (n - 1)
        end
      in
      let j = settle 200 in
      let get path =
        match
          List.fold_left
            (fun acc k -> Option.bind acc (Json.member k))
            (Some j) path
        with
        | Some (Json.Int n) -> n
        | _ -> -1
      in
      Alcotest.(check int) "finalized" 1 (get [ "sessions"; "finalized" ]);
      Alcotest.(check int) "poisoned" 1 (get [ "sessions"; "poisoned" ]);
      Alcotest.(check int) "no leaked shadow bytes" 0 (get [ "shadow_bytes" ]);
      Alcotest.(check int) "pool intact" (get [ "pool"; "domains" ])
        (get [ "pool"; "alive" ]))

(* ------------------------------------------------------------------ *)
(* wire-level fault isolation (the chaos gate, in process) *)

let test_chaos_matrix () =
  let events = racy_events () in
  List.iter
    (fun fault ->
      let outcome = Chaos.run ~events fault in
      Alcotest.(check bool) (Chaos.describe outcome) true
        (Chaos.acceptable outcome))
    [ Client.Garbage; Client.Truncate; Client.Disconnect ]

(* ------------------------------------------------------------------ *)
(* spool mode *)

let write_trace path events =
  ignore
    (Dgrace_trace.Trace_writer.to_file path (fun sink ->
         List.iter sink events))

let test_spool_matches_oneshot_and_isolates () =
  let dir = temp_dir () in
  let events = racy_events () in
  write_trace (Filename.concat dir "a.trc") events;
  write_trace (Filename.concat dir "b.trc") [ Tutil.wr 0 0x10 ];
  ignore
    (Trace_format_v2.to_file (Filename.concat dir "c.trc") (fun sink ->
         List.iter sink events));
  let oc = open_out_bin (Filename.concat dir "corrupt.trc") in
  output_string oc "DGRT\x01\xee\xee\xee\xee";
  close_out oc;
  let results =
    Server.process_spool
      ~cfg:{ Server.default_config with domains = 2 }
      ~dir ()
  in
  (match results with
   | [
       ("a.trc", Ok a); ("b.trc", Ok b); ("c.trc", Ok c);
       ("corrupt.trc", Error e);
     ] ->
     Alcotest.(check (list string))
       "a.trc matches one-shot" (baseline_lines events) (race_lines a);
     Alcotest.(check (list string))
       "v2 c.trc matches one-shot" (baseline_lines events) (race_lines c);
     Alcotest.(check int) "b.trc clean" 0 b.Engine.race_count;
     (match e with
      | Error.Corrupt_trace _ -> ()
      | e -> Alcotest.fail ("wrong spool error: " ^ Error.to_string e))
   | _ -> Alcotest.fail "unexpected spool result shape");
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)

let suites : unit Alcotest.test list =
  [
    ( "serve.wire",
      [
        Alcotest.test_case "frame roundtrip" `Quick test_wire_roundtrip;
        Alcotest.test_case "EOF and garbage" `Quick test_wire_eof_and_garbage;
      ] );
    ( "serve.codec",
      [
        Alcotest.test_case "roundtrip across frames" `Quick
          test_codec_roundtrip_across_frames;
        Alcotest.test_case "corruption at absolute offset" `Quick
          test_codec_corruption_absolute_offset;
      ] );
    ( "serve.session",
      [
        Alcotest.test_case "matches one-shot replay" `Quick
          test_session_matches_oneshot;
        Alcotest.test_case "corrupt frame poisons" `Quick
          test_session_poisoned_by_corrupt_frame;
        Alcotest.test_case "contains a crashing detector" `Quick
          test_session_contains_crashing_detector;
        Alcotest.test_case "budget stop stays answerable" `Quick
          test_session_budget_stop_is_answerable;
        Alcotest.test_case "deadline on a mock clock" `Quick
          test_session_deadline_on_mock_clock;
        Alcotest.test_case "watchdog expiry hook" `Quick
          test_session_expiry_watchdog_hook;
        Alcotest.test_case "event budget is exact" `Quick
          test_session_event_budget_exact;
      ] );
    ( "serve.pool",
      [
        Alcotest.test_case "runs jobs on domains" `Quick test_pool_runs_jobs;
        Alcotest.test_case "restart with capped backoff" `Quick
          test_pool_restart_and_backoff;
        Alcotest.test_case "restart budget spent" `Quick
          test_pool_restart_budget_spent;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "concurrent differential" `Slow
          test_server_concurrent_differential;
        Alcotest.test_case "long locations stay under the frame limit" `Quick
          test_server_long_locations;
        Alcotest.test_case "feed_batch cuts a caller-built batch" `Quick
          test_server_feed_batch_cuts;
        Alcotest.test_case "admission overload" `Quick
          test_server_admission_overload;
        Alcotest.test_case "inbox backpressure" `Slow
          test_server_inbox_backpressure;
        Alcotest.test_case "drain seals partial" `Quick
          test_server_drain_seals_partial;
        Alcotest.test_case "watchdog on a mock clock" `Quick
          test_server_watchdog_expires_on_mock_clock;
        Alcotest.test_case "status shows no leaks" `Quick
          test_server_status_leak_free;
      ] );
    ( "serve.chaos",
      [ Alcotest.test_case "fault matrix isolated" `Slow test_chaos_matrix ] );
    ( "serve.spool",
      [
        Alcotest.test_case "matches one-shot, isolates corruption" `Quick
          test_spool_matches_oneshot_and_isolates;
      ] );
  ]
