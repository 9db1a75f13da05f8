module Json = Dgrace_obs.Json
module Engine = Dgrace_core.Engine
module Spec = Dgrace_core.Spec
module Report = Dgrace_events.Report

(* The socket-path counterpart of Dgrace_core.Fault_harness: drive a
   wire-level fault into one live serve session while a healthy
   session streams the same trace next to it, and check the whole
   resilience contract at once —

   - the faulted session ends {e declared}: the server holds it as a
     poisoned session with a structured error, never a crash;
   - the healthy session is untouched: its race lines match a direct
     one-shot [Engine.analyze] of the same events, byte for byte;
   - nothing leaks: once every session is terminal the status document
     reports zero live shadow bytes.

   [racedet inject --via socket] and the serve test suite drive this
   for every wire fault. *)

type outcome =
  | Isolated of {
      poisoned : int;  (* sessions the server declared poisoned *)
      healthy_match : bool;  (* healthy races == one-shot baseline *)
      leaked_shadow_bytes : int;  (* live shadow bytes after the dust settles *)
    }
  | Unexpected of string

let acceptable = function
  | Isolated { poisoned; healthy_match; leaked_shadow_bytes } ->
    poisoned >= 1 && healthy_match && leaked_shadow_bytes = 0
  | Unexpected _ -> false

let describe = function
  | Isolated { poisoned; healthy_match; leaked_shadow_bytes } ->
    Printf.sprintf "isolated: poisoned=%d healthy-match=%b leaked-bytes=%d%s"
      poisoned healthy_match leaked_shadow_bytes
      (if poisoned >= 1 && healthy_match && leaked_shadow_bytes = 0 then ""
       else " [CONTRACT VIOLATION]")
  | Unexpected reason -> Printf.sprintf "UNEXPECTED: %s" reason

let int_at path j =
  let rec go j = function
    | [] -> ( match j with Json.Int n -> Some n | _ -> None)
    | k :: rest -> ( match Json.member k j with Some j -> go j rest | None -> None)
  in
  go j path

let run ?(spec = Spec.dynamic) ?socket ~events fault =
  let socket =
    match socket with
    | Some p -> p
    | None ->
      let p = Filename.temp_file "racedet-chaos" ".sock" in
      Sys.remove p;
      p
  in
  try
    (* the oracle: the same events through the plain engine *)
    let baseline =
      match
        Engine.analyze (Engine.Config.make spec)
          (Engine.Source.Events (List.to_seq events))
      with
      | Ok s -> List.map Report.to_string s.Engine.races
      | Error e -> raise (Dgrace_resilience.Error.E e)
    in
    let cfg = { Server.default_config with domains = 2; max_sessions = 8 } in
    let server = Server.start ~cfg ~socket () in
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () ->
        let spec_name = Spec.name spec in
        (* victim and healthy stream concurrently so the fault lands
           while the healthy session is genuinely in flight *)
        let healthy = ref (Error (Client.Protocol "not run")) in
        let healthy_t =
          Thread.create
            (fun () ->
              healthy := Client.replay ~spec:spec_name ~socket events)
            ()
        in
        let victim =
          Client.replay ~spec:spec_name ~fault ~fault_after_frames:1 ~socket
            events
        in
        Thread.join healthy_t;
        (* the victim must NOT have completed normally *)
        match victim with
        | Ok _ -> Unexpected "faulted session completed with a summary"
        | Error _ -> (
          (* let the server notice half-closed peers, then inspect *)
          let rec settle tries =
            match Client.connect ~socket with
            | Error f -> Error f
            | Ok c ->
              let s = Client.status c in
              Client.close c;
              (match s with
               | Ok j when tries > 0 && int_at [ "sessions"; "open" ] j <> Some 0
                 ->
                 Thread.delay 0.05;
                 settle (tries - 1)
               | r -> r)
          in
          match settle 100 with
          | Error f ->
            Unexpected
              (Printf.sprintf "status probe failed: %s"
                 (Client.failure_to_string f))
          | Ok status ->
            let poisoned =
              Option.value ~default:(-1)
                (int_at [ "sessions"; "poisoned" ] status)
            in
            let leaked =
              Option.value ~default:(-1) (int_at [ "shadow_bytes" ] status)
            in
            let healthy_match =
              match !healthy with
              | Ok { Client.races; _ } -> races = baseline
              | Error _ -> false
            in
            Isolated { poisoned; healthy_match; leaked_shadow_bytes = leaked }))
  with exn -> Unexpected (Printexc.to_string exn)
