(* Single test binary: every module contributes its suites. *)

let () =
  Alcotest.run "dgrace"
    (List.concat
       [
         Test_vclock.suites;
         Test_vc_intern.suites;
         Test_units.suites;
         Test_util.suites;
         Test_shadow.suites;
         Test_obs.suites;
         Test_events.suites;
         Test_sim.suites;
         Test_trace.suites;
         Test_trace_v2.suites;
         Test_state_machine.suites;
         Test_fasttrack.suites;
         Test_djit.suites;
         Test_dynamic.suites;
         Test_detector_golden.suites;
         Test_baselines.suites;
         Test_properties.suites;
         Test_related.suites;
         Test_sampler.suites;
         Test_workloads.suites;
         Test_engine.suites;
         Test_resilience.suites;
         Test_par.suites;
         Test_pipeline.suites;
         Test_serve.suites;
       ])
