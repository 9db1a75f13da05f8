open Dgrace_vclock
open Dgrace_events

let current ~tid ~kind ~clock ~loc : Report.endpoint = { tid; kind; clock; loc }

let of_write ~w ~loc : Report.endpoint =
  { tid = Epoch.tid w; kind = Event.Write; clock = Epoch.clock w; loc }

let conflicting_tid v ~against =
  Vector_clock.fold
    (fun tid clock found ->
      if found >= 0 then found
      else if clock > Vector_clock.get against tid then tid
      else found)
    v (-1)

let snap_conflicting_tid s ~against =
  Vc_intern.fold
    (fun tid clock found ->
      if found >= 0 then found
      else if clock > Vector_clock.get against tid then tid
      else found)
    s (-1)

let of_read_state r ~against ~loc : Report.endpoint =
  if Read_state.is_vc r then begin
    let s = Read_state.snap r in
    let tid = snap_conflicting_tid s ~against in
    let tid = if tid >= 0 then tid else Vc_intern.max_tid_set s in
    { tid; kind = Event.Read; clock = Vc_intern.get s (max tid 0); loc }
  end
  else if Read_state.is_empty r then
    { tid = -1; kind = Event.Read; clock = 0; loc }
  else
    let e = Read_state.epoch r in
    { tid = Epoch.tid e; kind = Event.Read; clock = Epoch.clock e; loc }
