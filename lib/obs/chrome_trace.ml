(* Chrome trace_event export (the JSON object format Perfetto and
   chrome://tracing load): the tracer's ring as one timeline lane, and
   counter tracks from Recorder series.

   The exporter guarantees a valid trace whatever happened at record
   time: timestamps are clamped monotone by Span, orphan end events
   (their begin was overwritten by the ring) are dropped, and spans
   still open at export — budget early stop, an exception — get a
   synthesised closing event at the lane's last timestamp.  The
   [validate]/[phases] checker below is the other half of the
   contract; `racedet timings`, the test suite and the CI smoke job
   all run it. *)

type report = {
  phases : phase list;  (* sorted by (lane, phase) *)
  events : int;  (* trace events checked *)
  lanes : int;  (* distinct (pid, tid) timeline lanes *)
  wall_us : int;  (* last span timestamp - first *)
}

and phase = {
  phase_lane : string;
  phase_name : string;
  count : int;
  total_us : int;
}

(* ------------------------------------------------------------------ *)
(* export *)

let us_of ~t0 ns = (ns - t0) / 1000

(* The document is printed straight into one buffer, never held as a
   [Json.t] tree: a trace is written at the end of the run it traced,
   so its export should cost little next to that run.  Every event
   carries name, ph, ts, pid 1 and tid 0 (the one lane). *)
let write buf (t : Span.t) =
  let t0 = Span.epoch_ns t in
  let add = Buffer.add_string buf in
  let first = ref true in
  let event ~ph ~name ~ts =
    if !first then first := false else Buffer.add_char buf ',';
    add {|{"name":|};
    Json.add_string buf name;
    add {|,"ph":"|};
    add ph;
    add {|","ts":|};
    Json.add_int buf ts;
    add {|,"pid":1,"tid":0|}
  in
  add {|{"traceEvents":[|};
  event ~ph:"M" ~name:"thread_name" ~ts:0;
  add {|,"args":{"name":"main"}}|};
  let stack = ref [] in
  let last = ref 0 in
  Span.iter_events t (fun (e : Span.event) ->
      let ts = us_of ~t0 e.ns in
      last := max !last ts;
      match e.kind with
      | Span.Begin ->
        stack := e.name :: !stack;
        event ~ph:"B" ~name:e.name ~ts;
        add "}"
      | Span.End -> (
        match !stack with
        | top :: rest ->
          stack := rest;
          event ~ph:"E" ~name:top ~ts;
          add "}"
        | [] -> () (* begin lost to the ring: drop the orphan end *))
      | Span.Instant ->
        event ~ph:"i" ~name:e.name ~ts;
        add {|,"s":"t"}|});
  (* close anything still open so begin/end pairs always balance *)
  List.iter
    (fun name ->
      event ~ph:"E" ~name ~ts:!last;
      add "}")
    !stack;
  (* one counter event per sample, one arg per series: a single
     multi-line track per recorder *)
  List.iter
    (fun (c : Span.counters) ->
      List.iter
        (fun (ns, values) ->
          event ~ph:"C" ~name:c.track ~ts:(us_of ~t0 ns);
          add {|,"args":{|};
          List.iteri
            (fun i s ->
              if i > 0 then add ",";
              Json.add_string buf s;
              add ":";
              Json.add_int buf values.(i))
            c.series;
          add "}}")
        c.samples)
    (Span.counter_tracks t);
  add {|],"displayTimeUnit":"ms","otherData":{"generator":"dgrace","dropped_events":|};
  Json.add_int buf (Span.dropped t);
  add "}}"

let to_string t =
  let buf = Buffer.create 65536 in
  write buf t;
  Buffer.contents buf

let to_file path t =
  let buf = Buffer.create 65536 in
  write buf t;
  Buffer.add_char buf '\n';
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf)

(* ------------------------------------------------------------------ *)
(* validation + per-phase aggregation over a parsed trace document *)

type lane_state = {
  mutable last_ts : int;
  mutable stack : (string * int) list;  (* open spans: (name, begin ts) *)
  mutable lane_label : string option;
}

exception Invalid of string

let phases (doc : Json.t) =
  let fail i msg = raise (Invalid (Printf.sprintf "event %d: %s" i msg)) in
  let str i k ev =
    match Json.member k ev with
    | Some (Json.String s) -> s
    | _ -> fail i (Printf.sprintf "missing string %S" k)
  in
  let int_ i k ev =
    match Json.member k ev with
    | Some (Json.Int n) -> n
    | _ -> fail i (Printf.sprintf "missing integer %S" k)
  in
  let lanes : (int * int, lane_state) Hashtbl.t = Hashtbl.create 16 in
  let lane_of i ev =
    let key = (int_ i "pid" ev, int_ i "tid" ev) in
    match Hashtbl.find_opt lanes key with
    | Some st -> (key, st)
    | None ->
      let st = { last_ts = min_int; stack = []; lane_label = None } in
      Hashtbl.replace lanes key st;
      (key, st)
  in
  let agg : (string * string, int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
  let bump st ~name ~dur =
    let lane = Option.value st.lane_label ~default:"?" in
    let count, total =
      match Hashtbl.find_opt agg (lane, name) with
      | Some cell -> cell
      | None ->
        let cell = (ref 0, ref 0) in
        Hashtbl.replace agg (lane, name) cell;
        cell
    in
    incr count;
    total := !total + dur
  in
  let lo = ref max_int and hi = ref min_int in
  let n_events = ref 0 in
  match
    let events =
      match Json.member "traceEvents" doc with
      | Some (Json.List evs) -> evs
      | Some _ -> raise (Invalid "\"traceEvents\" is not a list")
      | None -> raise (Invalid "missing \"traceEvents\"")
    in
    List.iteri
      (fun i ev ->
        incr n_events;
        let ph = str i "ph" ev in
        let name = str i "name" ev in
        let _, st = lane_of i ev in
        let span_ts () =
          let ts = int_ i "ts" ev in
          if ts < 0 then fail i "negative timestamp";
          if ts < st.last_ts then
            fail i
              (Printf.sprintf "timestamp %d before %d on the same lane" ts
                 st.last_ts);
          st.last_ts <- ts;
          lo := min !lo ts;
          hi := max !hi ts;
          ts
        in
        match ph with
        | "M" ->
          if name = "thread_name" then
            st.lane_label <-
              Option.bind (Json.member "args" ev) (Json.member "name")
              |> Option.map (function Json.String s -> s | _ -> "?")
        | "B" -> st.stack <- (name, span_ts ()) :: st.stack
        | "E" -> (
          let ts = span_ts () in
          match st.stack with
          | (top, t0) :: rest when top = name ->
            st.stack <- rest;
            bump st ~name ~dur:(ts - t0)
          | (top, _) :: _ ->
            fail i (Printf.sprintf "end %S does not match open span %S" name top)
          | [] -> fail i (Printf.sprintf "end %S with no open span" name))
        | "i" | "I" ->
          let _ = span_ts () in
          bump st ~name ~dur:0
        | "C" -> (
          match Json.member "args" ev with
          | Some (Json.Obj (_ :: _ as series))
            when List.for_all (function _, Json.Int _ -> true | _ -> false) series
            -> ()
          | _ -> fail i "counter without integer args")
        | ph -> fail i (Printf.sprintf "unknown phase %S" ph))
      events;
    Hashtbl.iter
      (fun (pid, tid) st ->
        match st.stack with
        | (name, _) :: _ ->
          raise
            (Invalid
               (Printf.sprintf "lane (%d,%d): span %S never closed" pid tid name))
        | [] -> ())
      lanes;
    let phases =
      Hashtbl.fold
        (fun (lane, name) (count, total) acc ->
          { phase_lane = lane; phase_name = name; count = !count; total_us = !total }
          :: acc)
        agg []
      |> List.sort (fun a b ->
             compare (a.phase_lane, a.phase_name) (b.phase_lane, b.phase_name))
    in
    {
      phases;
      events = !n_events;
      lanes = Hashtbl.length lanes;
      wall_us = (if !hi >= !lo then !hi - !lo else 0);
    }
  with
  | r -> Ok r
  | exception Invalid msg -> Error msg

let validate doc = Result.map (fun (_ : report) -> ()) (phases doc)
