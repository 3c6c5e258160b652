(* Tests for the parallel scenario engine: the domain pool (Pool), the
   LP-solve cache (Lp_cache), the per-solve LP counters (Lp_counters), and
   the determinism contract they give Robust_plan. Multi-domain paths are
   exercised with ~oversubscribe:true so they run even on a 1-core machine
   (where the pool otherwise caps its worker count). *)

let q = Rat.of_ints

(* --- Pool: ordering, exceptions, stats -------------------------------- *)

let test_pool_preserves_order () =
  let xs = List.init 100 Fun.id in
  let f x = x * x in
  let seq = List.map f xs in
  Alcotest.(check (list int)) "jobs 1" seq (Pool.map ~jobs:1 f xs);
  Alcotest.(check (list int))
    "jobs 4 (forced domains)" seq
    (Pool.map ~oversubscribe:true ~jobs:4 f xs);
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~jobs:4 f []);
  (* uneven task costs still return in input order *)
  let slow x =
    let r = ref 0 in
    for _ = 1 to (100 - x) * 200 do incr r done;
    x + (!r * 0)
  in
  Alcotest.(check (list int))
    "uneven costs" xs
    (Pool.map ~oversubscribe:true ~jobs:4 slow xs)

exception Boom of int

let test_pool_exception_capture () =
  let xs = [ 1; 2; 3; 4; 5; 6 ] in
  let f x = if x mod 2 = 0 then raise (Boom x) else x * 10 in
  (* map_result captures every outcome at its index *)
  let rs = Pool.map_result ~oversubscribe:true ~jobs:4 f xs in
  Alcotest.(check int) "six outcomes" 6 (List.length rs);
  List.iteri
    (fun i r ->
      let x = i + 1 in
      match r with
      | Ok v -> Alcotest.(check int) "ok value" (x * 10) v
      | Error (Boom b) -> Alcotest.(check int) "error index" x b
      | Error e -> raise e)
    rs;
  (* map re-raises the lowest-indexed failure, regardless of scheduling,
     and only after every task has settled *)
  (match Pool.map ~oversubscribe:true ~jobs:4 f xs with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom b -> Alcotest.(check int) "lowest-indexed failure" 2 b);
  (* a failing task does not kill the pool: later tasks still ran *)
  let ran = Array.make 6 false in
  (match
     Pool.map ~oversubscribe:true ~jobs:2
       (fun x ->
         ran.(x - 1) <- true;
         if x = 1 then failwith "first")
       xs
   with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  Alcotest.(check bool) "all tasks ran" true (Array.for_all Fun.id ran)

let test_pool_stats () =
  let xs = List.init 37 Fun.id in
  let totals_before = Pool.worker_tasks () in
  let _, st = Pool.map_stats ~oversubscribe:true ~jobs:4 (fun x -> x) xs in
  let totals = Pool.worker_tasks () in
  Alcotest.(check (list int)) "worker totals grow by per_worker"
    (Array.to_list st.Pool.per_worker)
    (List.init st.Pool.jobs (fun w ->
         totals.(w) - if w < Array.length totals_before then totals_before.(w) else 0));
  Alcotest.(check int) "tasks counted" 37 st.Pool.tasks;
  Alcotest.(check int) "per_worker length" st.Pool.jobs (Array.length st.Pool.per_worker);
  Alcotest.(check int) "per_worker sums to tasks" 37
    (Array.fold_left ( + ) 0 st.Pool.per_worker);
  (* jobs never exceeds the task count *)
  let _, st1 = Pool.map_stats ~oversubscribe:true ~jobs:8 (fun x -> x) [ 1; 2 ] in
  Alcotest.(check bool) "jobs capped by tasks" true (st1.Pool.jobs <= 2)

let test_pool_default_jobs_env () =
  (* default_jobs reads MCAST_JOBS; unset or garbage means 1 *)
  let d = Pool.default_jobs () in
  (match Sys.getenv_opt "MCAST_JOBS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> Alcotest.(check int) "env value" n d
    | _ -> Alcotest.(check int) "garbage env" 1 d)
  | None -> Alcotest.(check int) "unset env" 1 d);
  Alcotest.(check bool) "positive" true (d >= 1)

(* --- Lp_cache: cached results equal fresh solves ----------------------- *)

(* 100 random survivor platforms: the cached Multicast-LB must equal a
   fresh uncached solve bit-for-bit, and the second lookup must hit. *)
let test_cache_matches_fresh_lb () =
  let rng = Random.State.make [| 42; 1009 |] in
  let checked = ref 0 in
  let throughput = Option.map (fun (s : Formulations.solution) -> s.Formulations.throughput) in
  while !checked < 100 do
    let p =
      Generators.random_connected rng ~nodes:8 ~extra_edges:5 ~min_cost:1 ~max_cost:9
        ~n_targets:3
    in
    let fs = Robust_plan.single_failures p in
    let f = List.nth fs (Random.State.int rng (List.length fs)) in
    match Repair.apply_damage p (Robust_plan.damage_of_failure p f) with
    | Error _ -> ()
    | Ok survivor ->
      incr checked;
      Lp_cache.reset ();
      Lp_cache.set_enabled true;
      let cached = Lp_cache.multicast_lb survivor in
      let fresh = Formulations.multicast_lb survivor in
      Alcotest.(check (option (float 0.0)))
        "cached = fresh" (throughput fresh) (throughput cached);
      let again = Lp_cache.multicast_lb survivor in
      Alcotest.(check (option (float 0.0)))
        "hit = miss" (throughput cached) (throughput again);
      let st = Lp_cache.stats () in
      Alcotest.(check int) "one miss" 1 st.Lp_cache.misses;
      Alcotest.(check int) "one hit" 1 st.Lp_cache.hits
  done;
  Alcotest.(check int) "100 survivors checked" 100 !checked

let test_cache_fingerprint_distinguishes () =
  (* same topology, different cost -> different fingerprint; the cache must
     never alias them *)
  let p1 = Generators.chain ~length:3 ~cost:Rat.one in
  let p2 = Generators.chain ~length:3 ~cost:(q 1 2) in
  Alcotest.(check bool) "distinct fingerprints" true
    (Lp_cache.fingerprint p1 <> Lp_cache.fingerprint p2);
  Alcotest.(check string) "fingerprint is stable" (Lp_cache.fingerprint p1)
    (Lp_cache.fingerprint p1)

let test_cache_disabled_passthrough () =
  let p = Generators.chain ~length:3 ~cost:Rat.one in
  Lp_cache.reset ();
  Lp_cache.set_enabled false;
  let a = Lp_cache.multicast_lb p in
  let b = Lp_cache.multicast_lb p in
  let st = Lp_cache.stats () in
  Lp_cache.set_enabled true;
  Alcotest.(check int) "no hits when disabled" 0 st.Lp_cache.hits;
  Alcotest.(check int) "no misses when disabled" 0 st.Lp_cache.misses;
  Alcotest.(check (option (float 0.0)))
    "still solves"
    (Option.map (fun (s : Formulations.solution) -> s.Formulations.throughput) a)
    (Option.map (fun (s : Formulations.solution) -> s.Formulations.throughput) b)

(* --- Lp_counters / Revised_simplex: pivot counts are per-solve ---------- *)

let test_pivots_not_accumulated () =
  let solve_once () =
    let m = Lp_model.create () in
    let x = Lp_model.add_var m and y = Lp_model.add_var m in
    Lp_model.add_constraint m [ (1.0, x) ] Lp_model.Le 4.0;
    Lp_model.add_constraint m [ (2.0, y) ] Lp_model.Le 12.0;
    Lp_model.add_constraint m [ (3.0, x); (2.0, y) ] Lp_model.Le 18.0;
    Lp_model.set_objective m ~maximize:true [ (3.0, x); (5.0, y) ];
    match Revised_simplex.solve m with
    | Revised_simplex.Optimal s -> s
    | _ -> Alcotest.fail "revised engine failed the classic model"
  in
  let s1 = solve_once () in
  let s2 = solve_once () in
  Alcotest.(check bool) "solve pivots" true (s1.Revised_simplex.pivots > 0);
  (* the second solve reports its own count, not a running total *)
  Alcotest.(check int) "per-solve pivots" s1.Revised_simplex.pivots s2.Revised_simplex.pivots;
  (* and the global counters advance by exactly the per-solve amounts *)
  let before = Lp_counters.snapshot () in
  let s3 = solve_once () in
  let d = Lp_counters.since before in
  Alcotest.(check int) "one float solve" 1 d.Lp_counters.float_solves;
  Alcotest.(check int) "pivot delta matches" s3.Revised_simplex.pivots d.Lp_counters.pivots

(* --- Robust_plan: jobs 1 and jobs 4 are bit-identical ------------------- *)

let report_digest (r : Robust_plan.report) =
  let score_digest (s : Robust_plan.score) =
    ( s.Robust_plan.nominal,
      s.Robust_plan.worst_case,
      s.Robust_plan.mean,
      List.map
        (fun (sc : Robust_plan.scenario_score) ->
          (sc.Robust_plan.sc_retention, sc.Robust_plan.sc_survivor_lb))
        s.Robust_plan.scenario_scores )
  in
  let cand (c : Robust_plan.candidate) =
    (c.Robust_plan.label, score_digest c.Robust_plan.cand_score)
  in
  ( cand r.Robust_plan.nominal_plan,
    cand r.Robust_plan.chosen,
    List.map cand r.Robust_plan.pareto,
    r.Robust_plan.critical_edges,
    r.Robust_plan.total_failures )

let test_robust_plan_jobs_identical () =
  let rng = Random.State.make [| 7; 5501 |] in
  let p =
    Generators.random_connected rng ~nodes:12 ~extra_edges:8 ~min_cost:1 ~max_cost:9
      ~n_targets:4
  in
  let run jobs =
    Lp_cache.reset ();
    match Robust_plan.plan ~max_scenarios:24 ~seed:3 ~with_lb:true ~jobs p with
    | Ok r -> report_digest r
    | Error e -> Alcotest.fail e
  in
  let d1 = run 1 in
  let d4 = run 4 in
  Alcotest.(check bool) "jobs 1 = jobs 4" true (d1 = d4);
  (* and with the cache cold vs warm: a second jobs-1 run (now all hits)
     still reproduces the same report *)
  (match Robust_plan.plan ~max_scenarios:24 ~seed:3 ~with_lb:true ~jobs:1 p with
  | Ok r -> Alcotest.(check bool) "warm cache identical" true (report_digest r = d1)
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "cache was exercised" true ((Lp_cache.stats ()).Lp_cache.hits > 0)

let test_score_prepared_equals_score () =
  let p = Paper_platforms.two_relay () in
  let r = Option.get (Mcph.run p) in
  let sched =
    Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])
  in
  let failures = Robust_plan.single_failures p in
  let a = Robust_plan.score ~with_lb:true p sched ~failures in
  let prepared = Robust_plan.prepare p failures in
  let b = Robust_plan.score_prepared ~with_lb:true p sched ~prepared in
  (* shared prepared survivors change nothing observable *)
  let dig (s : Robust_plan.score) =
    ( s.Robust_plan.nominal,
      s.Robust_plan.worst_case,
      s.Robust_plan.mean,
      List.map
        (fun (sc : Robust_plan.scenario_score) ->
          (sc.Robust_plan.sc_retention, sc.Robust_plan.sc_survivor_lb))
        s.Robust_plan.scenario_scores )
  in
  Alcotest.(check bool) "score = score_prepared" true (dig a = dig b)

let suite =
  [
    ("pool: preserves input order", `Quick, test_pool_preserves_order);
    ("pool: exception capture and re-raise", `Quick, test_pool_exception_capture);
    ("pool: scheduling stats", `Quick, test_pool_stats);
    ("pool: MCAST_JOBS default", `Quick, test_pool_default_jobs_env);
    ("cache: cached LB = fresh LB on 100 random survivors", `Slow, test_cache_matches_fresh_lb);
    ("cache: fingerprint distinguishes costs", `Quick, test_cache_fingerprint_distinguishes);
    ("cache: disabled is a passthrough", `Quick, test_cache_disabled_passthrough);
    ("counters: pivots are per-solve", `Quick, test_pivots_not_accumulated);
    ("robust plan: jobs 1 = jobs 4, cold or warm cache", `Slow, test_robust_plan_jobs_identical);
    ("robust score: prepared = unprepared", `Quick, test_score_prepared_equals_score);
  ]
