(* Tests for the proactive-robustness layer (Robust_plan), the online
   recovery controller (Recovery_loop), the mixed failure generators, and
   the Repair baseline tag. *)

let q = Rat.of_ints

(* --- single-failure enumeration and scoring ---------------------------- *)

let test_single_failures_two_relay () =
  let p = Paper_platforms.two_relay () in
  let fs = Robust_plan.single_failures p in
  let links =
    List.filter_map (function Robust_plan.Link (u, v) -> Some (u, v) | _ -> None) fs
  in
  let nodes =
    List.filter_map (function Robust_plan.Node v -> Some v | _ -> None) fs
  in
  (* two_relay has 6 directed edges forming 6 distinct directed-only links
     and nodes 1..4 as failure candidates (node 0 is the source). *)
  Alcotest.(check (list (pair int int)))
    "one scenario per link"
    [ (0, 1); (0, 2); (1, 3); (1, 4); (2, 3); (2, 4) ]
    (List.sort compare links);
  Alcotest.(check (list int)) "non-source nodes" [ 1; 2; 3; 4 ] (List.sort compare nodes)

let test_single_tree_worst_case_is_zero () =
  (* A single-tree schedule dies whole under any of its own link kills. *)
  let p = Paper_platforms.two_relay () in
  let r = Option.get (Mcph.run p) in
  let sched =
    Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])
  in
  let failures = Robust_plan.single_failures p in
  let s = Robust_plan.score p sched ~failures in
  Alcotest.(check (float 1e-9)) "worst case 0" 0.0 s.Robust_plan.worst_case;
  Alcotest.(check bool) "mean strictly below 1" true (s.Robust_plan.mean < 1.0);
  (* an empty scenario set scores as fully retained *)
  let s0 = Robust_plan.score p sched ~failures:[] in
  Alcotest.(check (float 1e-9)) "empty set worst case 1" 1.0 s0.Robust_plan.worst_case

let test_score_partial_survival () =
  (* Two disjoint relay trees at weight 1/2 each: killing link 0<->1 kills
     exactly one tree, so retention is 1/2; killing target node 3 leaves
     both trees serving the surviving target 4, so retention is 1. *)
  let p = Paper_platforms.two_relay () in
  let via r = Multicast_tree.of_edges_exn p [ (0, r); (r, 3); (r, 4) ] in
  let sched = Schedule.of_tree_set (Tree_set.make [ (via 1, q 1 2); (via 2, q 1 2) ]) in
  let retention f =
    let s = Robust_plan.score p sched ~failures:[ f ] in
    (List.hd s.Robust_plan.scenario_scores).Robust_plan.sc_retention
  in
  Alcotest.(check (float 1e-9)) "link kill keeps half" 0.5 (retention (Robust_plan.Link (0, 1)));
  Alcotest.(check (float 1e-9)) "relay kill keeps half" 0.5 (retention (Robust_plan.Node 1));
  Alcotest.(check (float 1e-9)) "dead target does not count against the trees" 1.0
    (retention (Robust_plan.Node 3))

let test_score_survivor_lb_reference () =
  let p = Paper_platforms.two_relay () in
  let r = Option.get (Mcph.run p) in
  let sched =
    Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])
  in
  let s =
    Robust_plan.score ~with_lb:true p sched ~failures:[ Robust_plan.Node 1 ]
  in
  match (List.hd s.Robust_plan.scenario_scores).Robust_plan.sc_survivor_lb with
  | None -> Alcotest.fail "survivor LB missing"
  | Some lb -> Alcotest.(check bool) "survivor LB positive" true (lb > 0.0)

(* --- the acceptance criterion: robust beats nominal -------------------- *)

let test_robust_beats_nominal_on_two_relay () =
  let p = Paper_platforms.two_relay () in
  match Robust_plan.plan ~loss_bound:0.1 ~seed:1 p with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let nom = r.Robust_plan.nominal_plan.Robust_plan.cand_score in
    let rob = r.Robust_plan.chosen.Robust_plan.cand_score in
    (* the nominal single MCPH tree has worst-case retention 0 *)
    Alcotest.(check (float 1e-9)) "nominal worst case 0" 0.0 nom.Robust_plan.worst_case;
    (* the robust plan must keep at least the 0.3 margin of the acceptance
       criterion under its worst single failure *)
    Alcotest.(check bool) "robust worst case exceeds nominal by > 0.3" true
      (rob.Robust_plan.worst_case > nom.Robust_plan.worst_case +. 0.3);
    (* ... without giving up nominal throughput beyond the loss bound *)
    Alcotest.(check bool) "nominal throughput within the loss bound" true
      (rob.Robust_plan.nominal >= (1.0 -. r.Robust_plan.loss_bound) *. nom.Robust_plan.nominal);
    (* on two_relay the two-tree combination even beats MCPH's nominal rate *)
    Alcotest.(check bool) "robust nominal at least MCPH's" true
      (rob.Robust_plan.nominal >= nom.Robust_plan.nominal -. 1e-9);
    (match Schedule.check r.Robust_plan.chosen.Robust_plan.schedule with
    | Ok () -> ()
    | Error e -> Alcotest.failf "chosen schedule fails check: %s" e);
    (* the critical links of the nominal plan are exactly its tree edges *)
    Alcotest.(check bool) "critical links reported" true
      (r.Robust_plan.critical_edges <> []);
    (* the chosen plan sits on the Pareto front *)
    Alcotest.(check bool) "chosen is Pareto-optimal" true
      (List.exists
         (fun c -> c.Robust_plan.label = r.Robust_plan.chosen.Robust_plan.label)
         r.Robust_plan.pareto)

let test_robust_plan_tiers () =
  (* A generated platform: the robust plan must never be worse in the
     worst case and must respect the loss bound. *)
  let rng = Random.State.make [| 5; 1789 |] in
  let p = Tiers.generate rng Tiers.small_params ~n_targets:6 in
  match Robust_plan.plan ~loss_bound:0.15 ~max_scenarios:40 ~seed:2 p with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let nom = r.Robust_plan.nominal_plan.Robust_plan.cand_score in
    let rob = r.Robust_plan.chosen.Robust_plan.cand_score in
    Alcotest.(check bool) "worst case no worse" true
      (rob.Robust_plan.worst_case >= nom.Robust_plan.worst_case -. 1e-9);
    Alcotest.(check bool) "mean no worse" true
      (rob.Robust_plan.mean >= nom.Robust_plan.mean -. 1e-9);
    Alcotest.(check bool) "loss bound respected" true
      (rob.Robust_plan.nominal
      >= ((1.0 -. r.Robust_plan.loss_bound) *. nom.Robust_plan.nominal) -. 1e-9);
    (match Schedule.check r.Robust_plan.chosen.Robust_plan.schedule with
    | Ok () -> ()
    | Error e -> Alcotest.failf "chosen schedule fails check: %s" e)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_loss_bound_rejected () =
  (* Below zero (or NaN) no candidate, not even the best nominal one, is
     eligible: the planner reports the bound instead of raising. *)
  let p = Paper_platforms.two_relay () in
  List.iter
    (fun loss_bound ->
      match Robust_plan.plan ~loss_bound p with
      | Ok _ -> Alcotest.failf "loss bound %g accepted" loss_bound
      | Error e ->
        Alcotest.(check bool) (Printf.sprintf "%S names the loss bound" e) true
          (contains e "loss bound"))
    [ -1.0; -1e-9; Float.nan ]

let test_scenario_sampling_cap () =
  let rng = Random.State.make [| 3; 1789 |] in
  let p = Tiers.generate rng Tiers.small_params ~n_targets:6 in
  let total = List.length (Robust_plan.single_failures p) in
  Alcotest.(check bool) "enough scenarios to need the cap" true (total > 10);
  match Robust_plan.plan ~max_scenarios:10 ~seed:4 p with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "sampling logged" true r.Robust_plan.sampled;
    Alcotest.(check int) "cap respected" 10 (List.length r.Robust_plan.failures);
    Alcotest.(check int) "total recorded" total r.Robust_plan.total_failures

(* --- recovery loop ------------------------------------------------------ *)

let two_relay_sched () =
  let p = Paper_platforms.two_relay () in
  let via r = Multicast_tree.of_edges_exn p [ (0, r); (r, 3); (r, 4) ] in
  Schedule.of_tree_set (Tree_set.make [ (via 1, q 1 2); (via 2, q 1 2) ])

(* The loop validates its policy and returns a result; the happy-path tests
   unwrap it. *)
let run_ok ?now ?policy ?planner p sched scenario =
  match Recovery_loop.run ?now ?policy ?planner p sched scenario with
  | Ok o -> o
  | Error e -> Alcotest.failf "recovery loop rejected a valid policy: %s" e

(* [o.detection] must be the replay [run] promises: [sched] against the
   scenario over [max horizon_periods (init_periods + 3)] periods. *)
let check_detection policy o sched scenario =
  let periods =
    max policy.Recovery_loop.horizon_periods (Schedule.init_periods sched + 3)
  in
  Alcotest.(check bool) "detection is the entry replay" true
    (o.Recovery_loop.detection = Event_sim.run_with_faults sched ~faults:scenario ~periods)

let test_recovery_no_failure () =
  let p = Paper_platforms.two_relay () in
  let sched = two_relay_sched () in
  let o = run_ok p sched [] in
  check_detection (Recovery_loop.default_policy p) o sched [];
  (match o.Recovery_loop.final with
  | `No_failure -> ()
  | _ -> Alcotest.fail "expected `No_failure");
  Alcotest.(check (list string)) "no events" []
    (List.map Recovery_loop.event_name o.Recovery_loop.events)

let test_recovery_simple () =
  (* One dead relay: the first attempt (the incremental rung, under the
     default policy) succeeds; no backoff, no degradation. *)
  let p = Paper_platforms.two_relay () in
  let scenario = [ Fault.Kill_node { node = 1; at = Rat.zero } ] in
  let o = run_ok p (two_relay_sched ()) scenario in
  Alcotest.(check (list string)) "event sequence"
    [ "failure-observed"; "replan-attempt"; "recovered" ]
    (List.map Recovery_loop.event_name o.Recovery_loop.events);
  (match
     List.find_opt
       (function Recovery_loop.Replan_attempt _ -> true | _ -> false)
       o.Recovery_loop.events
   with
  | Some (Recovery_loop.Replan_attempt a) ->
    Alcotest.(check bool) "first attempt is the incremental rung" true a.incremental
  | _ -> Alcotest.fail "expected a replan attempt");
  match o.Recovery_loop.final with
  | `Recovered rep ->
    Alcotest.(check (float 1e-9)) "halved throughput" 0.5 rep.Repair.throughput_after;
    (match rep.Repair.repair_method with
    | `Patched -> ()
    | _ -> Alcotest.fail "expected a patched repair from the incremental rung")
  | _ -> Alcotest.fail "expected full recovery"

let test_recovery_full_sequence () =
  (* The acceptance sequence: failure -> backoff retries -> degraded mode ->
     recovery. Links 1->4 and 2->4 die, so target 4 is alive but
     unreachable: full-set planning cannot succeed. A flaky planner fails
     the first two attempts outright (exercising the backoff), the third
     reaches the real planner's "unreachable target" verdict, and degraded
     mode then drops target 4 and recovers serving target 3 only. *)
  let p = Paper_platforms.two_relay () in
  let sched = two_relay_sched () in
  let scenario =
    [
      Fault.Kill_edge { src = 1; dst = 4; at = Rat.zero };
      Fault.Kill_edge { src = 2; dst = 4; at = Rat.zero };
    ]
  in
  let calls = ref 0 in
  let flaky ?before plat damage =
    incr calls;
    if !calls <= 2 then Error "transient planner outage (injected)"
    else Repair.plan ?before plat damage
  in
  let policy =
    {
      (Recovery_loop.default_policy p) with
      Recovery_loop.max_attempts = 3;
      base_backoff = q 1 2;
      backoff_factor = 2;
      prefer_incremental = false;
    }
  in
  let o = run_ok ~policy ~planner:flaky p sched scenario in
  Alcotest.(check (list string)) "full event sequence"
    [
      "failure-observed";
      "replan-attempt"; "replan-failed"; "backoff";
      "replan-attempt"; "replan-failed"; "backoff";
      "replan-attempt"; "replan-failed";
      "degraded"; "replan-attempt"; "recovered";
    ]
    (List.map Recovery_loop.event_name o.Recovery_loop.events);
  (* backoff is exponential in simulated time: 1/2 then 1 *)
  let delays =
    List.filter_map
      (function Recovery_loop.Backoff { delay; _ } -> Some delay | _ -> None)
      o.Recovery_loop.events
  in
  Alcotest.(check (list string)) "exponential backoff delays" [ "1/2"; "1" ]
    (List.map Rat.to_string delays);
  match o.Recovery_loop.final with
  | `Degraded (rep, dropped) ->
    Alcotest.(check (list int)) "target 4 sacrificed" [ 4 ] dropped;
    Alcotest.(check (list int)) "survivor serves target 3" [ 3 ]
      rep.Repair.survivor.Platform.targets;
    (match Schedule.check rep.Repair.schedule with
    | Ok () -> ()
    | Error e -> Alcotest.failf "degraded schedule fails check: %s" e);
    Alcotest.(check bool) "degraded throughput positive" true
      (rep.Repair.throughput_after > 0.0)
  | _ -> Alcotest.fail "expected degraded recovery"

let test_recovery_deadline_fallback () =
  (* A planner that overruns the per-attempt deadline: the controller logs
     the overrun, falls back to the checkpoint, and (with max_attempts = 1
     and no droppable recovery possible for a slow planner) gives up,
     leaving the checkpointed schedule in force. The overrun is driven by a
     fake clock advancing 0.05s per reading — no sleeping, no sensitivity
     to machine load. *)
  let p = Paper_platforms.two_relay () in
  let sched = two_relay_sched () in
  let scenario = [ Fault.Kill_node { node = 1; at = Rat.zero } ] in
  let fake_time = ref 0.0 in
  let now () =
    let t = !fake_time in
    fake_time := t +. 0.05;
    t
  in
  let slow ?before:_ _ _ = Error "slow planner never answers in time" in
  let policy =
    {
      (Recovery_loop.default_policy p) with
      Recovery_loop.max_attempts = 1;
      replan_deadline = 0.01;
      drop_order = [];
      prefer_incremental = false;
    }
  in
  let o = run_ok ~now ~policy ~planner:slow p sched scenario in
  check_detection policy o sched scenario;
  Alcotest.(check bool) "the dead relay cost deliveries" true
    (o.Recovery_loop.detection.Event_sim.f_losses <> []);
  Alcotest.(check (list string)) "deadline sequence"
    [
      "failure-observed"; "replan-attempt"; "deadline-exceeded";
      "fallback-to-checkpoint"; "replan-failed"; "gave-up";
    ]
    (List.map Recovery_loop.event_name o.Recovery_loop.events);
  match o.Recovery_loop.final with
  | `Fallback s -> Alcotest.(check bool) "checkpoint is the original schedule" true (s == sched)
  | _ -> Alcotest.fail "expected fallback to the checkpoint"

let test_recovery_drop_order_respected () =
  (* Same severed target 4, but the caller's priority protects 4 and
     sacrifices 3 first; since 4 is the unreachable one, the controller must
     drop 3, fail, then drop 4 too -- and give up only when nothing is left.
     With drop_order = [3; 4] it ends serving nobody, hence fallback; with
     drop_order = [4] it recovers serving 3. *)
  let p = Paper_platforms.two_relay () in
  let sched = two_relay_sched () in
  let scenario =
    [
      Fault.Kill_edge { src = 1; dst = 4; at = Rat.zero };
      Fault.Kill_edge { src = 2; dst = 4; at = Rat.zero };
    ]
  in
  let policy =
    { (Recovery_loop.default_policy p) with Recovery_loop.max_attempts = 1; drop_order = [ 4 ] }
  in
  let o = run_ok ~policy p sched scenario in
  (match o.Recovery_loop.final with
  | `Degraded (_, dropped) -> Alcotest.(check (list int)) "dropped 4 only" [ 4 ] dropped
  | _ -> Alcotest.fail "expected degraded recovery");
  let policy_keep4 =
    { policy with Recovery_loop.drop_order = [ 3 ] }
  in
  let o2 = run_ok ~policy:policy_keep4 p sched scenario in
  match o2.Recovery_loop.final with
  | `Fallback _ -> ()
  | _ -> Alcotest.fail "protecting the unreachable target must end in fallback"

(* --- mixed failure generators ------------------------------------------ *)

let test_random_node_kills () =
  let p = Paper_platforms.two_relay () in
  let rng = Random.State.make [| 11 |] in
  Alcotest.(check int) "rate 0 kills nothing" 0
    (List.length (Fault.random_node_kills rng p ~rate:0.0 ~at:Rat.zero));
  (* rate 1: every non-source node would die; the generator must spare a
     target so the damage stays recoverable in principle *)
  for seed = 1 to 20 do
    let rng = Random.State.make [| seed |] in
    let s = Fault.random_node_kills rng p ~rate:1.0 ~at:Rat.zero in
    let killed =
      List.filter_map (function Fault.Kill_node { node; _ } -> Some node | _ -> None) s
    in
    Alcotest.(check bool) "source never killed" false (List.mem 0 killed);
    Alcotest.(check bool) "at least one target survives" true
      (List.exists (fun t -> not (List.mem t killed)) p.Platform.targets);
    match Fault.validate p s with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done

let test_random_mixed_kills () =
  let p = Paper_platforms.two_relay () in
  let rng = Random.State.make [| 3 |] in
  let s = Fault.random_mixed_kills rng p ~link_rate:1.0 ~node_rate:1.0 ~at:Rat.zero in
  let has_link = List.exists (function Fault.Kill_edge _ -> true | _ -> false) s in
  let has_node = List.exists (function Fault.Kill_node _ -> true | _ -> false) s in
  Alcotest.(check bool) "links killed" true has_link;
  Alcotest.(check bool) "nodes killed" true has_node;
  match Fault.validate p s with Ok () -> () | Error e -> Alcotest.fail e

(* --- Repair baseline tag ------------------------------------------------ *)

let test_repair_baseline_tag () =
  let p = Paper_platforms.two_relay () in
  let damage = Fault.damage [ Fault.Kill_node { node = 1; at = Rat.zero } ] in
  (match Repair.plan ~before:(two_relay_sched ()) p damage with
  | Error e -> Alcotest.fail e
  | Ok rep ->
    Alcotest.(check bool) "explicit baseline: Given" true (rep.Repair.baseline = `Given));
  match Repair.plan p damage with
  | Error e -> Alcotest.fail e
  | Ok rep ->
    Alcotest.(check bool) "explicit baseline: Fresh_mcph" true
      (rep.Repair.baseline = `Fresh_mcph)

(* --- property test: apply_damage + plan never raise --------------------- *)

let test_repair_plan_total () =
  (* >= 200 seeded random (platform, damage) cases: Repair.plan either
     returns a schedule passing Schedule.check or a descriptive error --
     never an exception. *)
  let cases = 220 in
  for i = 1 to cases do
    let rng = Random.State.make [| 9000 + i |] in
    let nodes = 6 + Random.State.int rng 10 in
    let n_targets = 1 + Random.State.int rng 4 in
    let p =
      Generators.random_connected rng ~nodes
        ~extra_edges:(Random.State.int rng 8)
        ~min_cost:1 ~max_cost:30 ~n_targets
    in
    let edges =
      Digraph.fold_edges (fun acc e -> (e.Digraph.src, e.Digraph.dst) :: acc) []
        p.Platform.graph
    in
    let dead_edges = List.filter (fun _ -> Random.State.float rng 1.0 < 0.15) edges in
    let dead_nodes =
      List.filter
        (fun v -> v <> p.Platform.source && Random.State.float rng 1.0 < 0.1)
        (List.init nodes Fun.id)
    in
    let degraded =
      List.filter_map
        (fun e ->
          if Random.State.float rng 1.0 < 0.1 then
            Some (e, Rat.of_ints (10 + Random.State.int rng 40) 10)
          else None)
        edges
    in
    let damage = Repair.damage ~dead_edges ~dead_nodes ~degraded () in
    match Repair.plan p damage with
    | Ok r -> (
      match Schedule.check r.Repair.schedule with
      | Ok () -> ()
      | Error e -> Alcotest.failf "case %d: repaired schedule fails check: %s" i e)
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "case %d: error is descriptive" i)
        true (String.length e > 0)
    | exception e ->
      Alcotest.failf "case %d: Repair.plan raised %s" i (Printexc.to_string e)
  done

let test_policy_validation () =
  let p = Paper_platforms.two_relay () in
  let ok = Recovery_loop.default_policy p in
  (match Recovery_loop.validate_policy p ok with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default policy rejected: %s" e);
  let expect_reject what pol needle =
    match Recovery_loop.validate_policy p pol with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error e ->
      Alcotest.(check bool) (Printf.sprintf "%s: %S names %S" what e needle) true
        (contains e needle)
  in
  expect_reject "max_attempts 0" { ok with Recovery_loop.max_attempts = 0 } "max_attempts";
  expect_reject "backoff_factor 0" { ok with Recovery_loop.backoff_factor = 0 } "backoff_factor";
  expect_reject "negative base_backoff"
    { ok with Recovery_loop.base_backoff = Rat.of_int (-1) }
    "base_backoff";
  expect_reject "zero replan_deadline" { ok with Recovery_loop.replan_deadline = 0.0 }
    "replan_deadline";
  expect_reject "nan replan_deadline" { ok with Recovery_loop.replan_deadline = Float.nan }
    "replan_deadline";
  expect_reject "horizon_periods 0" { ok with Recovery_loop.horizon_periods = 0 }
    "horizon_periods";
  expect_reject "drop_order id out of range" { ok with Recovery_loop.drop_order = [ 99 ] }
    "drop_order";
  (* run performs the same validation on entry *)
  match
    Recovery_loop.run ~policy:{ ok with Recovery_loop.max_attempts = 0 } p
      (two_relay_sched ()) []
  with
  | Error e -> Alcotest.(check bool) "run rejects invalid policy" true (contains e "max_attempts")
  | Ok _ -> Alcotest.fail "run accepted an invalid policy"

let suite =
  [
    ("single failures enumerated", `Quick, test_single_failures_two_relay);
    ("single-tree worst case is 0", `Quick, test_single_tree_worst_case_is_zero);
    ("scoring: partial survival", `Quick, test_score_partial_survival);
    ("scoring: survivor LB reference", `Quick, test_score_survivor_lb_reference);
    ("robust beats nominal on two-relay", `Quick, test_robust_beats_nominal_on_two_relay);
    ("robust plan on tiers platform", `Quick, test_robust_plan_tiers);
    ("scenario sampling cap logged", `Quick, test_scenario_sampling_cap);
    ("negative or NaN loss bound is an error", `Quick, test_loss_bound_rejected);
    ("recovery: no failure, no events", `Quick, test_recovery_no_failure);
    ("recovery: simple one-shot repair", `Quick, test_recovery_simple);
    ("recovery: failure -> retries -> degraded -> recovered", `Quick, test_recovery_full_sequence);
    ("recovery: deadline -> checkpoint fallback", `Quick, test_recovery_deadline_fallback);
    ("recovery: drop order respected", `Quick, test_recovery_drop_order_respected);
    ("random node kills spare source and a target", `Quick, test_random_node_kills);
    ("mixed kills cover links and nodes", `Quick, test_random_mixed_kills);
    ("repair baseline tag explicit", `Quick, test_repair_baseline_tag);
    ("property: repair plan is total (220 cases)", `Quick, test_repair_plan_total);
    ("recovery: policy validation", `Quick, test_policy_validation);
  ]
