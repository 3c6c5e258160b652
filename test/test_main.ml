let () =
  Alcotest.run "pipelined_multicast"
    [
      ("rat", Test_rat.suite);
      ("graph", Test_graph.suite);
      ("maxflow", Test_maxflow.suite);
      ("lp", Test_lp.suite);
      ("platform", Test_platform.suite);
      ("platform_io", Test_platform_io.suite);
      ("steiner", Test_steiner.suite);
      ("core", Test_core.suite);
      ("complexity", Test_complexity.suite);
      ("exact_lp", Test_exact_lp.suite);
      ("packing", Test_packing.suite);
      ("scatter", Test_scatter.suite);
      ("heuristic_schedules", Test_heuristic_schedules.suite);
      ("schedule", Test_schedule.suite);
      ("resilience", Test_resilience.suite);
      ("soak", Test_soak.suite);
      ("sessions", Test_sessions.suite);
      ("robust", Test_robust.suite);
      ("warm", Test_warm.suite);
      ("exec", Test_exec.suite);
      ("obs", Test_obs.suite);
      ("slo", Test_slo.suite);
      ("fuzz", Test_fuzz.suite);
      ("profile", Test_profile.suite);
      ("prefix", Test_prefix.suite);
    ]
