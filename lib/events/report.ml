type endpoint = {
  tid : int;
  kind : Event.access_kind;
  clock : int;
  loc : string;
}

type t = {
  addr : int;
  size : int;
  current : endpoint;
  previous : endpoint;
  granule_lo : int;
  granule_hi : int;
}

let make ~addr ~size ~current ~previous ?granule () =
  let granule_lo, granule_hi =
    match granule with Some (lo, hi) -> (lo, hi) | None -> (addr, addr + size)
  in
  { addr; size; current; previous; granule_lo; granule_hi }

let is_write_write r =
  r.current.kind = Event.Write && r.previous.kind = Event.Write

let pp_endpoint ppf e =
  Format.fprintf ppf "%a by t%d%s%s" Event.pp_access_kind e.kind e.tid
    (if e.clock > 0 then Printf.sprintf "@%d" e.clock else "")
    (if e.loc = "" then "" else Printf.sprintf " at %s" e.loc)

let pp ppf r =
  Format.fprintf ppf "race on 0x%x (size %d, granule 0x%x-0x%x): %a conflicts with %a"
    r.addr r.size r.granule_lo r.granule_hi pp_endpoint r.current pp_endpoint
    r.previous

let to_string r = Format.asprintf "%a" pp r

module Collector = struct
  type report = t

  type t = {
    suppression : Suppression.t;
    seen : (int, unit) Hashtbl.t;  (* racy byte addresses already reported *)
    mutable races : (int * report) list;  (* (tag, report), reverse detection order *)
    mutable count : int;
    mutable suppressed : int;
    mutable tag : int;  (* stamped onto each recorded race; see set_tag *)
  }

  let create ?(suppression = Suppression.empty) () =
    {
      suppression;
      seen = Hashtbl.create 64;
      races = [];
      count = 0;
      suppressed = 0;
      tag = -1;
    }

  let add c r =
    if Hashtbl.mem c.seen r.addr then false
    else begin
      Hashtbl.replace c.seen r.addr ();
      if
        Suppression.matches c.suppression ~addr:r.addr
          ~locs:[ r.current.loc; r.previous.loc ]
      then begin
        c.suppressed <- c.suppressed + 1;
        false
      end
      else begin
        c.races <- (c.tag, r) :: c.races;
        c.count <- c.count + 1;
        true
      end
    end

  let count c = c.count
  let suppressed c = c.suppressed
  let races c = List.rev_map snd c.races
  let set_tag c tag = c.tag <- tag
  let tagged_races c = List.rev c.races
  let racy_addrs c = List.sort_uniq compare (List.map (fun r -> r.addr) (races c))
end
