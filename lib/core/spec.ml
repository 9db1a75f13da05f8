open Dgrace_detectors

type t =
  | No_detection
  | Fasttrack of { granularity : int }
  | Djit of { granularity : int }
  | Dynamic of { init_state : bool; init_sharing : bool }
  | Dynamic_ext
  | Drd
  | Inspector
  | Eraser
  | Multirace
  | Racetrack of { region : int }
  | Literace
  | Sampling of { rate : float; granule : bool }

let byte = Fasttrack { granularity = 1 }
let word = Fasttrack { granularity = 4 }
let dynamic = Dynamic { init_state = true; init_sharing = true }

let name = function
  | No_detection -> "none"
  | Fasttrack { granularity = 1 } -> "ft-byte"
  | Fasttrack { granularity = 4 } -> "ft-word"
  | Fasttrack { granularity } -> Printf.sprintf "ft-%dB" granularity
  | Djit { granularity = 1 } -> "djit"
  | Djit { granularity } -> Printf.sprintf "djit-%dB" granularity
  | Dynamic { init_state = true; init_sharing = true } -> "ft-dynamic"
  | Dynamic { init_state = true; init_sharing = false } ->
    "ft-dynamic-no-init-sharing"
  | Dynamic { init_state = false; _ } -> "ft-dynamic-no-init-state"
  | Dynamic_ext -> "ft-dynamic-ext"
  | Multirace -> "multirace"
  | Racetrack { region } -> Printf.sprintf "racetrack-%dB" region
  | Literace -> "literace"
  | Sampling { rate; granule = true } -> Printf.sprintf "sample-granule:%g" rate
  | Sampling { rate; granule = false } -> Printf.sprintf "sample:%g" rate
  | Drd -> "drd"
  | Inspector -> "inspector"
  | Eraser -> "eraser"

let parse_gran prefix s =
  let plen = String.length prefix in
  if String.length s > plen && String.sub s 0 plen = prefix then
    int_of_string_opt (String.sub s plen (String.length s - plen))
  else None

(* [sample:<rate>] / [sample-granule:<rate>] — the rate is a float in
   (0, 1]; anything else is a parse error, not a clamp. *)
let parse_rate prefix s =
  let plen = String.length prefix in
  if String.length s > plen && String.sub s 0 plen = prefix then
    match float_of_string_opt (String.sub s plen (String.length s - plen)) with
    | Some r when r > 0. && r <= 1. -> Some (Ok r)
    | Some _ ->
      Some (Error (Printf.sprintf "%s rate must be in (0, 1], got %S" prefix s))
    | None -> Some (Error (Printf.sprintf "bad rate in %S" s))
  else None

let of_string s =
  match s with
  | "none" -> Ok No_detection
  | "byte" | "ft-byte" -> Ok byte
  | "word" | "ft-word" -> Ok word
  | "dynamic" | "ft-dynamic" -> Ok dynamic
  | "dynamic-no-init-sharing" ->
    Ok (Dynamic { init_state = true; init_sharing = false })
  | "dynamic-no-init-state" ->
    Ok (Dynamic { init_state = false; init_sharing = false })
  | "dynamic-ext" -> Ok Dynamic_ext
  | "djit" -> Ok (Djit { granularity = 1 })
  | "drd" -> Ok Drd
  | "inspector" -> Ok Inspector
  | "eraser" -> Ok Eraser
  | "multirace" -> Ok Multirace
  | "racetrack" -> Ok (Racetrack { region = 64 })
  | "literace" -> Ok Literace
  | "sample" -> Ok (Sampling { rate = 0.1; granule = false })
  | "sample-granule" -> Ok (Sampling { rate = 0.1; granule = true })
  | _ -> (
    match parse_gran "ft:" s with
    | Some g -> Ok (Fasttrack { granularity = g })
    | None -> (
      match parse_gran "djit:" s with
      | Some g -> Ok (Djit { granularity = g })
      | None -> (
        match parse_gran "racetrack:" s with
        | Some region -> Ok (Racetrack { region })
        | None -> (
          (* sample-granule: first — "sample:" is its prefix *)
          match parse_rate "sample-granule:" s with
          | Some (Ok rate) -> Ok (Sampling { rate; granule = true })
          | Some (Error e) -> Error e
          | None -> (
            match parse_rate "sample:" s with
            | Some (Ok rate) -> Ok (Sampling { rate; granule = false })
            | Some (Error e) -> Error e
            | None -> Error (Printf.sprintf "unknown detector %S" s))))))

let all_names =
  [
    "none"; "byte"; "word"; "dynamic"; "dynamic-no-init-sharing";
    "dynamic-no-init-state"; "dynamic-ext"; "djit"; "djit:<n>"; "ft:<n>"; "drd"; "inspector";
    "eraser"; "multirace"; "racetrack"; "racetrack:<n>"; "literace";
    "sample:<rate>"; "sample-granule:<rate>";
  ]

let rec to_detector ?suppression spec =
  match spec with
  | No_detection -> Detector.null ()
  | Fasttrack { granularity = 1 } ->
    (* the paper's byte detector: access-footprint locations with
       byte-resolution indexing (see Dynamic_granularity) *)
    Dynamic_granularity.create ~sharing:false ~name:"ft-byte" ?suppression ()
  | Fasttrack { granularity = 4 } ->
    (* the paper's word detector: the same machinery, addresses masked
       to word granules *)
    Dynamic_granularity.create ~sharing:false
      ~index:(Dgrace_shadow.Shadow_table.Fixed_bytes 4) ~name:"ft-word"
      ?suppression ()
  | Fasttrack { granularity } ->
    Fasttrack.create ~granularity ?suppression ()
  | Djit { granularity } -> Djit.create ~granularity ?suppression ()
  | Dynamic { init_state; init_sharing } ->
    Dynamic_granularity.create ~init_state ~init_sharing ?suppression ()
  | Dynamic_ext ->
    Dynamic_granularity.create ~reshare_after:4 ~write_guided_reads:true
      ?suppression ()
  | Drd -> Drd_segment.create ?suppression ()
  | Inspector -> Hybrid_inspector.create ?suppression ()
  | Eraser -> Lockset.create ?suppression ()
  | Multirace -> Multirace.create ?suppression ()
  | Racetrack { region } -> Racetrack_adaptive.create ~region ?suppression ()
  | Literace -> Literace_sampling.create ?suppression ()
  | Sampling { rate; granule } ->
    (* the sampler wraps the full dynamic detector: granule-level
       sampling and dynamic granularity compose (doc/sampling.md) *)
    let inner = to_detector ?suppression dynamic in
    Race_sampler.create
      ~mode:(if granule then Race_sampler.Granule else Race_sampler.Access)
      ~rate ~name:(name spec) ~inner ()
