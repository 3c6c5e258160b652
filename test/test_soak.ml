(* Tests for the chaos soak driver: fake-clock determinism, the
   damped-vs-naive controller ablation, patch-only operation with an empty
   token bucket, a seeded property sweep asserting the soak loop never
   crashes and never adopts an unchecked schedule, the one-replay-per-
   episode budget on fallbacks, the replay memo that serves stale
   retries, and the scenario order of the flaps logged at one instant. *)

(* A deterministic wall clock: strictly increasing, no Unix dependence, so
   two runs with fresh instances behave identically. *)
let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 0.001;
    !t

let mcph_sched p =
  match Mcph.run p with
  | None -> Alcotest.fail "MCPH failed on a connected platform"
  | Some r -> Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])

let tiers seed ~n_targets =
  Tiers.generate (Random.State.make [| seed; 6121 |]) Tiers.small_params ~n_targets

let flapping_scenario seed p =
  Fault.flapping_links
    (Random.State.make [| seed; 6131 |])
    p ~links:3 ~flaps:6 ~mean_up:40.0 ~mean_down:5.0 ~at:Rat.zero

let test_fake_clock_determinism () =
  (* Two soaks of the same scenario under fresh fake clocks must agree on
     every observable: the clock is injected end-to-end, so nothing about
     the run depends on real time. *)
  let p = tiers 1 ~n_targets:8 in
  let sched = mcph_sched p in
  let scenario = flapping_scenario 1 p in
  let horizon = Rat.of_int 400 in
  let soak () =
    match Soak.run ~now:(fake_clock ()) p sched scenario ~horizon with
    | Error e -> Alcotest.fail e
    | Ok r -> r
  in
  let a = soak () and b = soak () in
  Alcotest.(check int) "epochs agree" a.Soak.sk_epochs b.Soak.sk_epochs;
  Alcotest.(check int) "full re-plans agree" a.Soak.sk_full_replans b.Soak.sk_full_replans;
  Alcotest.(check int) "patches agree" a.Soak.sk_patches b.Soak.sk_patches;
  Alcotest.(check int) "suppressions agree" a.Soak.sk_suppressions b.Soak.sk_suppressions;
  Alcotest.(check int) "cache hits agree" a.Soak.sk_cache_hits b.Soak.sk_cache_hits;
  Alcotest.(check (float 0.0)) "availability agrees" a.Soak.sk_availability b.Soak.sk_availability;
  Alcotest.(check (float 0.0)) "delivered integral agrees" a.Soak.sk_delivered_integral
    b.Soak.sk_delivered_integral;
  Alcotest.(check int) "log lengths agree" (List.length a.Soak.sk_log) (List.length b.Soak.sk_log);
  Alcotest.(check int) "schedule counts agree"
    (List.length a.Soak.sk_schedules)
    (List.length b.Soak.sk_schedules)

let test_damped_vs_naive_ablation () =
  (* On a flapping workload the damped controller must spend strictly fewer
     full re-plans than the naive re-plan-on-every-change baseline while
     delivering comparable service — the claim the R4 bench quantifies. *)
  let p = tiers 1 ~n_targets:8 in
  let sched = mcph_sched p in
  let scenario = flapping_scenario 1 p in
  let horizon = Rat.of_int 400 in
  let run config =
    match Soak.run ~now:(fake_clock ()) ~config p sched scenario ~horizon with
    | Error e -> Alcotest.fail e
    | Ok r -> r
  in
  let naive = run (Soak.naive_config p) in
  let damped = run (Soak.default_config p) in
  Alcotest.(check bool) "naive re-plans on every change" true (naive.Soak.sk_full_replans > 0);
  Alcotest.(check bool)
    (Printf.sprintf "damped spends at most half the re-plans (naive %d, damped %d)"
       naive.Soak.sk_full_replans damped.Soak.sk_full_replans)
    true
    (2 * damped.Soak.sk_full_replans <= naive.Soak.sk_full_replans);
  let served r = r.Soak.sk_delivered_integral in
  Alcotest.(check bool)
    (Printf.sprintf "damped delivers within 20%% of naive (%.3f vs %.3f)" (served damped)
       (served naive))
    true
    (served damped >= 0.8 *. served naive);
  Alcotest.(check bool) "damping engaged" true
    (damped.Soak.sk_suppressions + damped.Soak.sk_cache_hits > 0)

let test_patch_only_mode () =
  (* token_capacity = 0 starves the bucket forever: the controller may only
     patch incrementally or ride the stale schedule — never a full re-plan. *)
  let p = tiers 2 ~n_targets:8 in
  let sched = mcph_sched p in
  let scenario = flapping_scenario 2 p in
  let base = Soak.default_config p in
  let config = { base with Soak.token_capacity = 0 } in
  match Soak.run ~now:(fake_clock ()) ~config p sched scenario ~horizon:(Rat.of_int 300) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check int) "no full re-plans without tokens" 0 r.Soak.sk_full_replans;
    Alcotest.(check bool) "the run still completes and reports" true
      (r.Soak.sk_epochs > 0 && r.Soak.sk_availability >= 0.0 && r.Soak.sk_availability <= 1.0)

let test_full_coverage_is_exactly_one () =
  (* Flapping timelines that never break the schedule's coverage. Summed
     in floats over their 51 and 35 decision instants, the covered spans
     read 1.0000000000000002 and 0.99999999999999989 of the horizon;
     summed exactly on the fault-time grid they are the whole horizon. *)
  List.iter
    (fun seed ->
      let p = tiers seed ~n_targets:8 in
      let sched = mcph_sched p in
      match
        Soak.run ~now:(fake_clock ()) p sched (flapping_scenario seed p) ~horizon:(Rat.of_int 400)
      with
      | Error e -> Alcotest.fail e
      | Ok r ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "seed %d: availability is exactly 1" seed)
          1.0 r.Soak.sk_availability)
    [ 14; 19 ]

let test_soak_property_sweep () =
  (* Seeded 200-case sweep across platform shapes, scenario families and
     both controllers: the soak loop must never crash, every schedule it
     ever put in force must pass Schedule.check, and each report count must
     equal its event's count in the log (and the matching counter's
     increase, where there is one). *)
  let counter name = Some (Metrics.counter name) in
  let tallies =
    [
      ( "patches", counter "soak.incremental_patches", (fun r -> r.Soak.sk_patches),
        function Soak.Episode { patched; _ } -> patched | _ -> false );
      ( "suppressions", counter "soak.suppressions", (fun r -> r.Soak.sk_suppressions),
        function Soak.Suppressed _ -> true | _ -> false );
      ( "releases", None, (fun r -> r.Soak.sk_releases),
        function Soak.Released _ -> true | _ -> false );
      ( "reintegrations", counter "soak.reintegrations", (fun r -> r.Soak.sk_reintegrations),
        function Soak.Reintegrated _ -> true | _ -> false );
      ( "cache hits", None, (fun r -> r.Soak.sk_cache_hits),
        function Soak.Episode { outcome = Soak.Cached; _ } -> true | _ -> false );
      ( "token exhaustions", counter "soak.token_exhaustions",
        (fun r -> r.Soak.sk_token_exhaustions),
        function Soak.Tokens_exhausted _ -> true | _ -> false );
    ]
  in
  for i = 1 to 200 do
    let rng = Random.State.make [| i; 7717 |] in
    let p =
      if i mod 3 = 0 then
        Generators.random_connected rng ~nodes:(8 + (i mod 6)) ~extra_edges:(4 + (i mod 4))
          ~min_cost:1 ~max_cost:10 ~n_targets:(2 + (i mod 4))
      else tiers i ~n_targets:(4 + (i mod 5))
    in
    let sched = mcph_sched p in
    let horizon = Rat.of_int 150 in
    let scenario =
      match i mod 5 with
      | 0 -> Fault.renewal_link_faults rng p ~mtbf:60.0 ~mttr:10.0 ~horizon
      | 1 -> Fault.renewal_node_faults rng p ~mtbf:80.0 ~mttr:10.0 ~horizon
      | 2 -> Fault.flapping_links rng p ~links:2 ~flaps:4 ~mean_up:20.0 ~mean_down:4.0 ~at:Rat.zero
      | 3 ->
        Fault.diurnal_degradation rng p ~waves:3 ~period:(Rat.of_int 50) ~factor:(Rat.of_int 3)
          ~rate:0.3
      | _ ->
        Fault.renewal_link_faults rng p ~mtbf:80.0 ~mttr:8.0 ~horizon
        @ Fault.renewal_node_faults rng p ~mtbf:120.0 ~mttr:8.0 ~horizon
    in
    let base = if i mod 2 = 0 then Soak.default_config p else Soak.naive_config p in
    (* a tiny bucket exercises the exhaustion and stale paths *)
    let config = { base with Soak.token_capacity = 2; token_refill = 40.0 } in
    let before = List.map (fun (_, c, _, _) -> Option.map Metrics.counter_value c) tallies in
    match Soak.run ~now:(fake_clock ()) ~config p sched scenario ~horizon with
    | Error e -> Alcotest.failf "case %d: soak failed: %s" i e
    | Ok r ->
      List.iter2
        (fun (what, c, field, is_event) v0 ->
          let n = field r and in_log = List.length (List.filter is_event r.Soak.sk_log) in
          if n <> in_log then Alcotest.failf "case %d: %s: report %d, log %d" i what n in_log;
          match (c, v0) with
          | Some c, Some v0 when Metrics.counter_value c - v0 <> n ->
            Alcotest.failf "case %d: %s: report %d, counter +%d" i what n
              (Metrics.counter_value c - v0)
          | _ -> ())
        tallies before;
      if r.Soak.sk_availability < 0.0 || r.Soak.sk_availability > 1.0 then
        Alcotest.failf "case %d: availability %.4f outside [0,1]" i r.Soak.sk_availability;
      List.iteri
        (fun j s ->
          match Schedule.check s with
          | Ok () -> ()
          | Error e -> Alcotest.failf "case %d: adopted schedule %d fails check: %s" i j e)
        r.Soak.sk_schedules
  done

(* A damped soak with a 2-token bucket, under link renewal fast enough to
   drain it: episodes fall back and stale schedules are retried. Returns
   the report and how far each replay counter moved during the run. *)
let stale_heavy_soak seed =
  let counters = [ "sim.faulty_replays"; "sim.replay_memo_hits"; "recovery.runs" ] in
  let read () = List.map (fun c -> Metrics.counter_value (Metrics.counter c)) counters in
  let p = tiers seed ~n_targets:8 in
  let horizon = Rat.of_int 400 in
  let scenario =
    Fault.renewal_link_faults
      (Random.State.make [| seed; 6151 |])
      p ~mtbf:60.0 ~mttr:10.0 ~horizon
  in
  let config =
    { (Soak.default_config p) with Soak.token_capacity = 2; token_refill = 40.0 }
  in
  let before = read () in
  match Soak.run ~now:(fake_clock ()) ~config p (mcph_sched p) scenario ~horizon with
  | Error e -> Alcotest.failf "seed %d: soak failed: %s" seed e
  | Ok r ->
    let moved = List.combine counters (List.map2 ( - ) (read ()) before) in
    (r, fun c -> List.assoc c moved)

let test_fallback_reuses_detection_replay () =
  (* When every re-plan attempt fails, the controller keeps the running
     schedule and reads its surviving rate from the recovery loop's own
     detection replay, so each recovery episode costs one faulty replay,
     or none when the replay memo already holds it. *)
  let fallbacks = ref 0 in
  List.iter
    (fun seed ->
      let r, moved = stale_heavy_soak seed in
      List.iter
        (function
          | Soak.Episode { outcome = Soak.Fallback; _ } -> incr fallbacks
          | _ -> ())
        r.Soak.sk_log;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: one faulty replay or memo hit per recovery run" seed)
        (moved "recovery.runs")
        (moved "sim.faulty_replays" + moved "sim.replay_memo_hits"))
    [ 1; 2 ];
  Alcotest.(check bool) "some episode fell back" true (!fallbacks > 0)

let test_stale_retries_hit_the_memo () =
  (* A stale schedule retried against unchanged damage reads the replay
     memo instead of replaying again. *)
  let hits =
    List.map (fun seed -> (snd (stale_heavy_soak seed)) "sim.replay_memo_hits") [ 1; 2 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "memo hits (%s) > 0" (String.concat ", " (List.map string_of_int hits)))
    true
    (List.fold_left ( + ) 0 hits > 0)

let test_delivered_within_lb_bound () =
  (* The paper's bound on what any schedule delivers is the Multicast-LB
     throughput. Re-plans may adopt trees better than the initial MCPH
     schedule, so the delivered integral can exceed the nominal one
     (initial throughput x horizon), but never horizon x LB. Platforms and
     timelines are the ones [mcast soak] builds for these seeds. *)
  let case ~seed ~scenario ~horizon =
    let p = Tiers.generate (Random.State.make [| seed |]) Tiers.small_params ~n_targets:8 in
    let rng = Random.State.make [| seed; 7001 |] in
    let horizon = Rat.of_int horizon in
    let faults =
      match scenario with
      | `Renewal -> Fault.renewal_link_faults rng p ~mtbf:1500. ~mttr:30. ~horizon
      | `Renewal_mixed ->
        Fault.renewal_link_faults rng p ~mtbf:1500. ~mttr:30. ~horizon
        @ Fault.renewal_node_faults rng p ~mtbf:3000. ~mttr:30. ~horizon
    in
    let lb =
      match Formulations.multicast_lb p with
      | Some s -> s.Formulations.throughput
      | None -> Alcotest.fail "Multicast-LB infeasible on a connected platform"
    in
    let bound = Rat.to_float horizon *. lb in
    List.iter
      (fun config ->
        match Soak.run ~now:(fake_clock ()) ~config p (mcph_sched p) faults ~horizon with
        | Error e -> Alcotest.fail e
        | Ok r ->
          let delivered = r.Soak.sk_delivered_integral in
          if delivered > bound *. (1.0 +. 1e-9) then
            Alcotest.failf "seed %d: delivered %.4f above horizon x LB %.4f" seed delivered
              bound)
      [ Soak.default_config p; Soak.naive_config p ]
  in
  case ~seed:2 ~scenario:`Renewal_mixed ~horizon:3000;
  case ~seed:42 ~scenario:`Renewal ~horizon:600

let test_recovery_solves_no_lp () =
  (* Recovery plans with MCPH and patches; only a caller that prints the
     survivor's Multicast-LB solves it. Both soak controllers, the recovery
     loop and both repair entry points run a seeded renewal timeline, and
     none may start an LP solve. The cache is emptied first so that a
     bound stored by an earlier test cannot hide a solve. *)
  Lp_cache.reset ();
  let p = Tiers.generate (Random.State.make [| 42 |]) Tiers.small_params ~n_targets:8 in
  let sched = mcph_sched p in
  let horizon = Rat.of_int 600 in
  let faults =
    Fault.renewal_link_faults (Random.State.make [| 42; 7001 |]) p ~mtbf:300. ~mttr:30. ~horizon
  in
  let start = Lp_counters.snapshot () in
  let no_lp what =
    let d = Lp_counters.since start in
    Alcotest.(check (pair int int))
      (what ^ ": float and exact solves unchanged")
      (0, 0)
      (d.Lp_counters.float_solves, d.Lp_counters.exact_solves)
  in
  List.iter
    (fun (what, config) ->
      (match Soak.run ~now:(fake_clock ()) ~config p sched faults ~horizon with
      | Error e -> Alcotest.fail e
      | Ok r ->
        Alcotest.(check bool) (what ^ " re-plans in full") true (r.Soak.sk_full_replans > 0));
      no_lp what)
    [ ("damped soak", Soak.default_config p); ("naive soak", Soak.naive_config p) ];
  (match Recovery_loop.run ~now:(fake_clock ()) p sched faults with
  | Error e -> Alcotest.fail e
  | Ok _ -> no_lp "recovery loop");
  let planned =
    List.filter
      (fun (step : Fault.step) ->
        ignore (Repair.plan_incremental ~before:sched p step.Fault.damage);
        Result.is_ok (Repair.plan ~before:sched p step.Fault.damage))
      (Fault.steps (Fault.timeline faults))
  in
  Alcotest.(check bool) "some step re-plans" true (planned <> []);
  no_lp "repair"

let test_incidents_of_soak () =
  (* [Incident.of_soak] must join the controller log exactly as the
     reference below does: every episode except cached re-adoptions, and
     every re-integration, as repairs. The run is [mcast soak --seed 3
     --horizon 600 --mtbf 900 --mttr 40 --slo 'soak.availability>=0.995'
     --incidents FILE], whose incident JSON CI pins. *)
  let p = Tiers.generate (Random.State.make [| 3 |]) Tiers.small_params ~n_targets:8 in
  let horizon = Rat.of_int 600 in
  let faults =
    Fault.renewal_link_faults (Random.State.make [| 3; 7001 |]) p ~mtbf:900. ~mttr:40. ~horizon
  in
  let objectives =
    match Slo.parse "soak.availability>=0.995" with Ok o -> [ o ] | Error e -> Alcotest.fail e
  in
  let sink = Timeseries.create ~slo:objectives () in
  match Soak.run ~now:(fake_clock ()) ~telemetry:sink p (mcph_sched p) faults ~horizon with
  | Error e -> Alcotest.fail e
  | Ok rep ->
    let events = Timeseries.slo_events sink in
    let repairs =
      List.filter_map
        (function
          | Soak.Episode { at; outcome; patched } when outcome <> Soak.Cached ->
            Some
              ( Rat.to_float at,
                Printf.sprintf "recovery episode: %s%s" (Soak.outcome_name outcome)
                  (if patched then " (incremental patch)" else "") )
          | Soak.Reintegrated { at; before; after } ->
            Some
              ( Rat.to_float at,
                Printf.sprintf "reintegrated healed capacity %.3f -> %.3f" before after )
          | _ -> None)
        rep.Soak.sk_log
    in
    let reference = Incident.build ~faults ~repairs events in
    let incidents = Incident.of_soak ~faults rep events in
    Alcotest.(check bool) "of_soak equals the reference join" true (incidents = reference);
    Alcotest.(check int) "four incidents" 4 (List.length incidents);
    Alcotest.(check int) "three resolved" 3
      (List.length (List.filter (fun i -> i.Incident.i_end <> None) incidents));
    let kinds inc =
      List.map
        (function
          | Incident.E_fault _ -> 'f'
          | Incident.E_breach _ -> 'b'
          | Incident.E_repair _ -> 'r'
          | Incident.E_recovery _ -> 'v')
        inc.Incident.i_entries
    in
    let rec chain want = function
      | [] -> want = []
      | k :: rest -> (
        match want with
        | w :: want' when w = k -> chain want' rest
        | _ -> chain want rest)
    in
    Alcotest.(check bool) "some incident runs fault -> breach -> repair -> recovery" true
      (List.exists (fun inc -> chain [ 'f'; 'b'; 'r'; 'v' ] (kinds inc)) incidents)

let test_batch_keeps_scenario_order () =
  (* Two links flap at one instant: that epoch logs their Flap events in
     scenario order, and reversing the scenario reverses them. *)
  let p = Paper_platforms.two_relay () in
  let sched = mcph_sched p in
  let kill src dst at = Fault.Kill_edge { src; dst; at = Rat.of_int at } in
  let revive src dst at = Fault.Revive_edge { src; dst; at = Rat.of_int at } in
  let scenario = [ kill 1 3 5; kill 2 4 5; revive 1 3 10; revive 2 4 10 ] in
  let flaps s =
    match Soak.run ~now:(fake_clock ()) p sched s ~horizon:(Rat.of_int 20) with
    | Error e -> Alcotest.fail e
    | Ok r ->
      List.filter_map
        (function
          | Soak.Flap { at; what; up; _ } ->
            Some (Printf.sprintf "%s %s %s" (Rat.to_string at) what (if up then "up" else "down"))
          | _ -> None)
        r.Soak.sk_log
  in
  Alcotest.(check (list string)) "scenario order"
    [ "5 link 1-3 down"; "5 link 2-4 down"; "10 link 1-3 up"; "10 link 2-4 up" ]
    (flaps scenario);
  Alcotest.(check (list string)) "reversed scenario, reversed order"
    [ "5 link 2-4 down"; "5 link 1-3 down"; "10 link 2-4 up"; "10 link 1-3 up" ]
    (flaps (List.rev scenario))

let suite =
  [
    ("fake clock makes soaks deterministic", `Quick, test_fake_clock_determinism);
    ("damped vs naive controller ablation", `Quick, test_damped_vs_naive_ablation);
    ("empty token bucket means patch-only", `Quick, test_patch_only_mode);
    ("soak property sweep: 200 seeded cases", `Slow, test_soak_property_sweep);
    ("never-broken coverage has availability exactly 1", `Quick, test_full_coverage_is_exactly_one);
    ("fallback reuses the detection replay", `Quick, test_fallback_reuses_detection_replay);
    ("stale retries read the replay memo", `Quick, test_stale_retries_hit_the_memo);
    ("delivered integral within horizon x Multicast-LB", `Quick, test_delivered_within_lb_bound);
    ("recovery stack solves no LP", `Quick, test_recovery_solves_no_lp);
    ("incident timelines of a soak", `Quick, test_incidents_of_soak);
    ("flaps at one instant keep scenario order", `Quick, test_batch_keeps_scenario_order);
  ]
