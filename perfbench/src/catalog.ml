(* Every metric the benchmark reports, with its unit.  An untraced run
   reports exactly [end_to_end], a traced run exactly [per_layer];
   BENCHMARK.json lists the same names.  A per-layer metric of a layer the
   workload does not exercise reads 0 (no ILP solve on sdp-solve, no daemon
   on the pipeline workloads). *)

let end_to_end =
  [
    ("setup_s", "s");
    ("pipeline_wall_s", "s");
    ("jobs_per_s", "1/s");
    ("job_latency_p50_ms", "ms");
    ("avg_tcp_ratio", "ratio");
    ("max_tcp_ratio", "ratio");
    ("peak_rss_mb", "MiB");
    ("success_ratio", "ratio");
  ]

let per_layer =
  [
    ("route.route_all_s", "s");
    ("route.route_all_minor_words", "words");
    ("route.overflow_2d", "count");
    ("route.init_assign_s", "s");
    ("route.edge_overflow_initial", "count");
    ("timing.select_s", "s");
    ("timing.select_minor_words", "words");
    ("timing.measure_s", "s");
    ("timing.refresh_s", "s");
    ("timing.dirty_nets", "count");
    ("driver.optimize_s", "s");
    ("driver.optimize_minor_words", "words");
    ("driver.iterations", "count");
    ("driver.partitions_solved", "count");
    ("driver.cells", "count");
    ("driver.self_s", "s");
    ("sdp.solve_s", "s");
    ("sdp.solves", "count");
    ("sdp.warm_retries", "count");
    ("sdp.warm_retry_ratio", "ratio");
    ("post_map.run_s", "s");
    ("ilp.solve_s", "s");
    ("ilp.solves", "count");
    ("verify.check_s", "s");
    ("verify.via_overflow", "count");
    ("verify.edge_overflow", "count");
    ("serve.job_wall_s_p50", "s");
    ("serve.job_latency_p90_ms", "ms");
    ("serve.queue_wait_ms_p50", "ms");
    ("serve.queue_wait_ms_p90", "ms");
    ("serve.shed", "count");
    ("net.submit_ack_ms_p50", "ms");
    ("solve_cache.hits", "count");
    ("solve_cache.misses", "count");
    ("solve_cache.hit_ratio", "ratio");
    ("obs.trace_overhead_ratio", "ratio");
    ("obs.unattributed_ratio", "ratio");
    ("fail_ratio", "ratio");
  ]
