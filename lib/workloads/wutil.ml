open Dgrace_sim

let rng seed = Random.State.make [| seed; 0x6b43a9b5 |]

let spawn_workers n body =
  let tids = List.init n (fun i -> Sim.spawn (fun () -> body i)) in
  List.iter Sim.join tids

(* Two loops rather than one over a chosen operation: each calls its
   operation directly and hands [loc] on as the option it came in, so a
   word costs no closure application and no [Some] box. *)
let touch_words ?loc ~write addr bytes =
  let hi = addr + bytes in
  let a = ref addr in
  if write then
    while !a < hi do
      Sim.write ?loc !a (Int.min 4 (hi - !a));
      a := !a + 4
    done
  else
    while !a < hi do
      Sim.read ?loc !a (Int.min 4 (hi - !a));
      a := !a + 4
    done

module Handoff = struct
  type t = {
    slots : int;
    flags : Sim.event_flag array;
    values : int array;
    filled : Bytes.t;  (* '\001' once item [i] was put *)
  }

  let create n =
    {
      slots = Sim.static_alloc (4 * n);
      flags = Array.init n (fun _ -> Sim.event ());
      values = Array.make n 0;
      filled = Bytes.make n '\000';
    }

  (* The value channel is host-level; the simulated slot write/read
     models the shared-memory traffic and the event flag carries the
     happens-before edge. *)
  let put t i ~value =
    t.values.(i) <- value;
    Bytes.set t.filled i '\001';
    Sim.write ~loc:"queue:put" (t.slots + (4 * i)) 4;
    Sim.event_set t.flags.(i)

  let take t i =
    Sim.event_wait t.flags.(i);
    Sim.read ~loc:"queue:take" (t.slots + (4 * i)) 4;
    if Bytes.get t.filled i = '\000' then invalid_arg "Handoff.take before put";
    t.values.(i)
end

module Counter = struct
  type t = { caddr : int; loc : string }

  let create ?(loc = "counter") () = { caddr = Sim.static_alloc 4; loc }

  let incr_racy t =
    Sim.read ~loc:t.loc t.caddr 4;
    Sim.write ~loc:t.loc t.caddr 4
end
