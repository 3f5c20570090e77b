let () =
  Alcotest.run "cpla"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("numeric", Test_numeric.suite);
      ("numeric-props", Test_numeric_props.suite);
      ("ilp", Test_ilp.suite);
      ("sdp", Test_sdp.suite);
      ("grid", Test_grid.suite);
      ("route", Test_route.suite);
      ("assignment", Test_assignment.suite);
      ("timing", Test_timing.suite);
      ("timing-incremental", Test_timing_incremental.suite);
      ("pool", Test_pool.suite);
      ("serve", Test_serve.suite);
      ("net", Test_net.suite);
      ("daemon", Test_daemon.suite);
      ("tila", Test_tila.suite);
      ("batch", Test_batch.suite);
      ("cpla", Test_cpla.suite);
      ("driver-incremental", Test_driver_incremental.suite);
      ("integration", Test_integration.suite);
      ("extensions", Test_extensions.suite);
      ("verify", Test_verify.suite);
      ("expt", Test_expt.suite);
      ("route-edge", Test_route_edge.suite);
      ("misc", Test_misc.suite);
      ("steiner", Test_steiner.suite);
      ("lint", Test_lint.suite);
      ("lint-semantic", Test_lint_semantic.suite);
    ]
