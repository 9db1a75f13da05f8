(* The two-stage replay pipeline: a dedicated decoder domain pulls v2
   blocks off a file into a {!Batch_ring} while the calling domain
   drains the ring — decode and detect overlap instead of strictly
   alternating as [Trace_format_v2.fold_batches] does.  Only
   bench/perf runs it now (see the interface).

   Semantics are anchored to the sequential path:

   - batches arrive in file order, with the same row numbering
     ([off.(i)] = global stream position) — the decoder state is the
     same [stream_decoder];
   - a [Corrupt_trace] raised by the decoder is re-raised to the
     consumer only after every batch decoded before it was consumed,
     so the error carries the same absolute offset and the detector
     saw the same prefix as a sequential replay (the truncation law in
     test/test_pipeline.ml pins this at every cut offset);
   - a consumer exception (e.g. a budget stop unrolling out of the
     engine's per-event fallback) aborts the ring, joins the decoder
     and re-raises — the decoder never outlives the call.

   [clock] feeds the ring's stall accounting. *)

type stats = {
  blocks : int;  (* batches published by the decoder *)
  decode_stall_ns : int;  (* decoder blocked on a full ring *)
  detect_stall_ns : int;  (* consumer blocked on an empty ring *)
  decode_ns : int;  (* decoder domain wall time, stalls included *)
}

let default_slots = 4

let feed ?(slots = default_slots) ?(clock = fun () -> 0) path consume =
  let ring = Batch_ring.create ~slots ~clock () in
  let decode_ns = ref 0 in
  let producer () =
    let t0 = clock () in
    (try
       In_channel.with_open_bin path (fun ic ->
           let revision = Trace_format_v2.check_header ~path ic in
           let dec = Trace_format_v2.stream_decoder ~path ~revision () in
           let rec loop () =
             (* the acquire is where ring backpressure blocks the
                decoder (the ring times it as decode stall) *)
             match Batch_ring.acquire ring with
             | None -> ()  (* consumer aborted; stop quietly *)
             | Some b ->
               if Trace_format_v2.read_block dec ic b then begin
                 Batch_ring.publish ring b;
                 loop ()
               end
               else Batch_ring.restore ring b
           in
           loop ());
       Batch_ring.close ring
     with exn -> Batch_ring.close ~error:exn ring);
    decode_ns := clock () - t0
  in
  let dom = Domain.spawn producer in
  let finish_ok = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !finish_ok then begin
        (* consumer is unwinding: release the decoder and reap it *)
        Batch_ring.abort ring;
        try Domain.join dom with _ -> ()
      end)
    (fun () ->
      let rec drain () =
        match Batch_ring.take ring with
        | None -> ()
        | Some b ->
          consume b;
          Batch_ring.recycle ring b;
          drain ()
      in
      drain ();
      Domain.join dom;
      finish_ok := true;
      {
        blocks = Batch_ring.blocks ring;
        decode_stall_ns = Batch_ring.decode_stall_ns ring;
        detect_stall_ns = Batch_ring.detect_stall_ns ring;
        decode_ns = !decode_ns;
      })
