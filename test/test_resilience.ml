(* Tests for the fault-tolerance subsystem: failure injection into the
   discrete-event replay, hand-corrupted schedules tripping the simulator's
   violation detectors, and the recovery planner. *)

let q = Rat.of_ints

let two_relay_set () =
  let p = Paper_platforms.two_relay () in
  let via r = Multicast_tree.of_edges_exn p [ (0, r); (r, 3); (r, 4) ] in
  Tree_set.make [ (via 1, q 1 2); (via 2, q 1 2) ]

let two_relay_sched () = Schedule.of_tree_set (two_relay_set ())

let tiers_platform seed =
  Tiers.generate (Random.State.make [| seed; 6121 |]) Tiers.small_params ~n_targets:6

(* --- faulty replay ----------------------------------------------------- *)

(* Without faults the faulty replay must agree with the validated one: no
   losses and exactly the same steady-state rate. Checked on the two-relay
   schedule and, for 40 seeded Tiers platforms, on the MCPH schedule and
   the packed Reduced-BC schedule. *)
let test_no_faults_is_lossless () =
  let check name sched ~periods =
    let clean =
      match Event_sim.run sched ~periods with
      | Ok s -> s
      | Error e -> Alcotest.failf "%s: validated replay failed: %s" name e
    in
    let fs = Event_sim.run_with_faults sched ~faults:[] ~periods in
    Alcotest.(check (list (triple int int int)))
      (name ^ ": no losses") []
      (List.map
         (fun l -> (l.Event_sim.l_tree, l.Event_sim.l_target, l.Event_sim.l_message))
         fs.Event_sim.f_losses);
    Alcotest.(check bool) (name ^ ": deliveries happened") true (fs.Event_sim.f_delivered > 0);
    Alcotest.(check (float 0.0))
      (name ^ ": same steady-state rate as the validated replay")
      clean.Event_sim.measured_throughput fs.Event_sim.f_measured_throughput
  in
  check "two-relay" (two_relay_sched ()) ~periods:12;
  for seed = 1 to 40 do
    let p = tiers_platform seed in
    let check_sched what sched =
      check (Printf.sprintf "seed %d %s" seed what) sched
        ~periods:(Schedule.init_periods sched + 6)
    in
    (match Mcph.run p with
    | None -> Alcotest.failf "seed %d: MCPH found no tree" seed
    | Some r ->
      check_sched "MCPH"
        (Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])));
    match Reduced_broadcast.run ~max_tries_per_round:1 p with
    | None -> Alcotest.failf "seed %d: Reduced-BC failed" seed
    | Some r -> (
      match Augmented_multicast.to_schedule p r with
      | Error e -> Alcotest.failf "seed %d: Reduced-BC packing failed: %s" seed e
      | Ok (sched, _) -> check_sched "Reduced-BC" sched)
  done

let test_kill_edge_loses_subtree () =
  (* Killing 0->1 at time 0 starves relay 1: every delivery of tree 0 (the
     one routed via relay 1) is lost — both at 3 and, by cascade, at 4 —
     while tree 1 via relay 2 is untouched. *)
  let sched = two_relay_sched () in
  let faults = [ Fault.Kill_edge { src = 0; dst = 1; at = Rat.zero } ] in
  let fs = Event_sim.run_with_faults sched ~faults ~periods:12 in
  let clean = Event_sim.run_with_faults sched ~faults:[] ~periods:12 in
  Alcotest.(check bool) "losses reported" true (fs.Event_sim.f_losses <> []);
  (* exactly one of the two trees dies: half the owed deliveries *)
  Alcotest.(check int) "half the deliveries survive"
    (clean.Event_sim.f_delivered / 2)
    fs.Event_sim.f_delivered;
  let hit_trees =
    List.sort_uniq compare (List.map (fun l -> l.Event_sim.l_tree) fs.Event_sim.f_losses)
  in
  Alcotest.(check bool) "losses confined to one tree" true (List.length hit_trees = 1);
  (* completion is tracked per tree instance: the surviving tree's
     instances still complete, the dead tree's never do *)
  Alcotest.(check int) "half the instances still complete"
    (clean.Event_sim.f_completed / 2)
    fs.Event_sim.f_completed

let test_late_kill_spares_early_batches () =
  let sched = two_relay_sched () in
  let late = Rat.mul (Rat.of_int 6) sched.Schedule.period in
  let fs_late =
    Event_sim.run_with_faults sched
      ~faults:[ Fault.Kill_edge { src = 0; dst = 1; at = late } ]
      ~periods:12
  in
  let fs_early =
    Event_sim.run_with_faults sched
      ~faults:[ Fault.Kill_edge { src = 0; dst = 1; at = Rat.zero } ]
      ~periods:12
  in
  Alcotest.(check bool) "later failure loses strictly less" true
    (List.length fs_late.Event_sim.f_losses < List.length fs_early.Event_sim.f_losses);
  Alcotest.(check bool) "early batches complete before the failure" true
    (fs_late.Event_sim.f_completed > 0)

let test_kill_node_kills_both_ports () =
  let sched = two_relay_sched () in
  let fs =
    Event_sim.run_with_faults sched
      ~faults:[ Fault.Kill_node { node = 1; at = Rat.zero } ]
      ~periods:12
  in
  (* Node 1 is only a relay of tree 0: tree 1 is untouched, so the loss set
     is nonempty but not total. *)
  Alcotest.(check bool) "losses reported" true (fs.Event_sim.f_losses <> []);
  Alcotest.(check bool) "other tree still delivers" true (fs.Event_sim.f_delivered > 0)

let test_degrade_slows_but_delivers_late () =
  (* A factor-3 slowdown of a relay edge: nothing owed is dropped outright
     only if slack allows; here the port is saturated (weight-1/2 trees on
     unit edges), so late completions push deliveries out of the horizon
     and losses appear — but strictly fewer than an outright kill. *)
  let sched = two_relay_sched () in
  let kill =
    Event_sim.run_with_faults sched
      ~faults:[ Fault.Kill_edge { src = 1; dst = 3; at = Rat.zero } ]
      ~periods:12
  in
  let slow =
    Event_sim.run_with_faults sched
      ~faults:[ Fault.Degrade_edge { src = 1; dst = 3; at = Rat.zero; factor = Rat.of_int 3 } ]
      ~periods:12
  in
  Alcotest.(check bool) "degradation strictly milder than kill" true
    (List.length slow.Event_sim.f_losses < List.length kill.Event_sim.f_losses);
  Alcotest.(check bool) "degradation still hurts a saturated port" true
    (slow.Event_sim.f_losses <> [])

let test_fault_validation () =
  let p = Paper_platforms.two_relay () in
  let bad s =
    match Fault.validate p s with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "scenario should have been rejected"
  in
  bad [ Fault.Kill_edge { src = 3; dst = 0; at = Rat.zero } ];
  bad [ Fault.Kill_node { node = 99; at = Rat.zero } ];
  bad [ Fault.Degrade_edge { src = 0; dst = 1; at = Rat.zero; factor = q 1 2 } ];
  bad [ Fault.Kill_node { node = 1; at = Rat.of_int (-1) } ];
  match Fault.validate p [ Fault.Kill_edge { src = 0; dst = 1; at = Rat.zero } ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_fault_overlap_semantics () =
  let p = Paper_platforms.two_relay () in
  let ok s =
    match Fault.validate p s with Ok () -> () | Error e -> Alcotest.fail e
  in
  let bad s =
    match Fault.validate p s with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "scenario should have been rejected"
  in
  (* duplicate kills at the same time are the same event stated twice *)
  ok
    [
      Fault.Kill_edge { src = 0; dst = 1; at = Rat.one };
      Fault.Kill_edge { src = 0; dst = 1; at = Rat.one };
    ];
  ok
    [
      Fault.Kill_node { node = 1; at = Rat.one };
      Fault.Kill_node { node = 1; at = Rat.one };
    ];
  (* ... but killing the same entity at two different times is contradictory *)
  bad
    [
      Fault.Kill_edge { src = 0; dst = 1; at = Rat.one };
      Fault.Kill_edge { src = 0; dst = 1; at = Rat.of_int 2 };
    ];
  bad
    [
      Fault.Kill_node { node = 1; at = Rat.zero };
      Fault.Kill_node { node = 1; at = Rat.one };
    ];
  (* degrading a dead edge is a no-op, not an error *)
  ok
    [
      Fault.Kill_edge { src = 0; dst = 1; at = Rat.one };
      Fault.Degrade_edge { src = 0; dst = 1; at = Rat.of_int 2; factor = Rat.of_int 3 };
    ];
  (* duplicate kills collapse to one damage entry *)
  let d =
    Fault.damage
      [
        Fault.Kill_edge { src = 0; dst = 1; at = Rat.one };
        Fault.Kill_edge { src = 0; dst = 1; at = Rat.one };
        Fault.Kill_node { node = 1; at = Rat.one };
        Fault.Kill_node { node = 1; at = Rat.one };
      ]
  in
  Alcotest.(check (list (pair int int))) "dead edges deduped" [ (0, 1) ] d.Repair.dead_edges;
  Alcotest.(check (list int)) "dead nodes deduped" [ 1 ] d.Repair.dead_nodes

let test_revival_ordering () =
  (* The kill/revive timeline of one entity must alternate: kill, revive,
     kill, ... at strictly increasing times. *)
  let p = Paper_platforms.two_relay () in
  let ok s = match Fault.validate p s with Ok () -> () | Error e -> Alcotest.fail e in
  let bad s =
    match Fault.validate p s with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "scenario should have been rejected"
  in
  let ke at = Fault.Kill_edge { src = 0; dst = 1; at = Rat.of_int at } in
  let re at = Fault.Revive_edge { src = 0; dst = 1; at = Rat.of_int at } in
  let kn at = Fault.Kill_node { node = 1; at = Rat.of_int at } in
  let rn at = Fault.Revive_node { node = 1; at = Rat.of_int at } in
  (* a revive before any kill is meaningless *)
  bad [ re 1 ];
  bad [ rn 1 ];
  bad [ re 1; ke 2 ];
  (* kill-revive-kill is the canonical flap; order in the list is irrelevant *)
  ok [ ke 1; re 2; ke 3 ];
  ok [ ke 3; re 2; ke 1 ];
  ok [ kn 1; rn 2; kn 3; rn 4 ];
  (* double kill without an intervening revive, and double revive *)
  bad [ ke 1; ke 2 ];
  bad [ ke 1; re 2; re 3 ];
  bad [ kn 1; rn 2; rn 3 ];
  (* a kill and revive at the same instant is ambiguous *)
  bad [ ke 1; re 1 ];
  bad [ kn 2; rn 2 ];
  (* duplicate same-time events are idempotent, also for revivals *)
  ok [ ke 1; ke 1; re 2; re 2 ];
  (* Clear_degrade needs no preceding degrade: clearing a pristine edge is
     a validating no-op *)
  ok [ Fault.Clear_degrade { src = 0; dst = 1; at = Rat.one } ]

let test_time_varying_predicates () =
  (* The timeline's damage follows the latest-event-wins rule. *)
  let s =
    [
      Fault.Kill_edge { src = 0; dst = 1; at = Rat.one };
      Fault.Revive_edge { src = 0; dst = 1; at = Rat.of_int 3 };
      Fault.Kill_node { node = 2; at = Rat.of_int 2 };
      Fault.Revive_node { node = 2; at = Rat.of_int 4 };
      Fault.Degrade_edge { src = 1; dst = 3; at = Rat.one; factor = Rat.of_int 2 };
      Fault.Degrade_edge { src = 1; dst = 3; at = Rat.of_int 2; factor = Rat.of_int 3 };
      Fault.Clear_degrade { src = 1; dst = 3; at = Rat.of_int 5 };
    ]
  in
  let tl = Fault.timeline s in
  let edge at src dst = Fault.edge_factor (Fault.damage_at tl ~at:(Rat.of_int at)) ~src ~dst in
  let dead at = Option.is_none (edge at 0 1) in
  Alcotest.(check bool) "alive before the kill" false (dead 0);
  Alcotest.(check bool) "dead at the kill instant" true (dead 1);
  Alcotest.(check bool) "still dead mid-window" true (dead 2);
  Alcotest.(check bool) "alive again at the revival" false (dead 3);
  (* a dead endpoint node kills the edge too, until the node revives *)
  let via_node at = Option.is_none (edge at 0 2) in
  Alcotest.(check bool) "edge up while the endpoint lives" false (via_node 1);
  Alcotest.(check bool) "endpoint death takes the edge down" true (via_node 2);
  Alcotest.(check bool) "endpoint revival restores the edge" false (via_node 4);
  (* degradation composes multiplicatively and resets at Clear_degrade *)
  let slow at = Option.get (edge at 1 3) in
  Alcotest.(check bool) "pristine before" (Rat.equal Rat.one (slow 0)) true;
  Alcotest.(check bool) "first factor" (Rat.equal (Rat.of_int 2) (slow 1)) true;
  Alcotest.(check bool) "factors compose" (Rat.equal (Rat.of_int 6) (slow 2)) true;
  Alcotest.(check bool) "clear resets" (Rat.equal Rat.one (slow 5)) true;
  (* the damage in the planner's vocabulary *)
  let d2 = Fault.damage_at tl ~at:(Rat.of_int 2) in
  Alcotest.(check (list (pair int int))) "edge dead mid-window" [ (0, 1) ] d2.Repair.dead_edges;
  Alcotest.(check (list int)) "node dead mid-window" [ 2 ] d2.Repair.dead_nodes;
  Alcotest.(check bool) "degradation visible mid-window" true (d2.Repair.degraded <> []);
  Alcotest.(check (list string)) "one step per instant, events in scenario order"
    [ "1:2"; "2:2"; "3:1"; "4:1"; "5:1" ]
    (List.map
       (fun st ->
         Printf.sprintf "%s:%d" (Rat.to_string st.Fault.at) (List.length st.Fault.fired))
       (Fault.steps tl));
  (* the end state has everything healed: kill-then-revive is not damage *)
  let d_end = Fault.damage s in
  Alcotest.(check bool) "end state pristine" true (Repair.damage_equal d_end Repair.no_damage)

let test_revival_replay () =
  (* Kill the leaf edge 1->3 for the middle third of the horizon. Under the
     progress model a revived edge resumes with its oldest unsent message:
     on a leaf the retransmitted backlog still reaches the target (the
     relay has held every copy for ages), so only the messages that never
     fit before the horizon are lost — strictly fewer than a permanent
     kill, strictly more than none. (An interior edge would not show this:
     its late retransmissions miss their downstream forwarding slots and
     the cascade loses the same tail either way.) *)
  let sched = two_relay_sched () in
  let per k = Rat.mul (Rat.of_int k) sched.Schedule.period in
  let windowed =
    Event_sim.run_with_faults sched
      ~faults:
        [
          Fault.Kill_edge { src = 1; dst = 3; at = per 4 };
          Fault.Revive_edge { src = 1; dst = 3; at = per 8 };
        ]
      ~periods:12
  in
  let permanent =
    Event_sim.run_with_faults sched
      ~faults:[ Fault.Kill_edge { src = 1; dst = 3; at = per 4 } ]
      ~periods:12
  in
  Alcotest.(check bool) "the dead window loses something" true
    (windowed.Event_sim.f_losses <> []);
  Alcotest.(check bool) "revival loses strictly less than a permanent kill" true
    (List.length windowed.Event_sim.f_losses < List.length permanent.Event_sim.f_losses);
  Alcotest.(check bool) "deliveries resume after the revival" true
    (windowed.Event_sim.f_delivered > permanent.Event_sim.f_delivered)

let test_renewal_generators_validate () =
  (* Every renewal-process generator must produce scenarios that validate by
     construction, with fire times inside the horizon, and with the
     documented end state. *)
  let horizon = Rat.of_int 300 in
  for seed = 1 to 10 do
    let rng = Random.State.make [| seed; 9181 |] in
    let p = tiers_platform seed in
    let check name s =
      (match Fault.validate p s with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d, %s: %s" seed name e);
      List.iter
        (fun ev ->
          let t = Fault.event_time ev in
          if Rat.compare t Rat.zero < 0 || Rat.compare t horizon > 0 then
            Alcotest.failf "seed %d, %s: event outside [0, horizon]" seed name)
        s;
      s
    in
    ignore (check "renewal links" (Fault.renewal_link_faults rng p ~mtbf:40.0 ~mttr:8.0 ~horizon));
    ignore (check "renewal nodes" (Fault.renewal_node_faults rng p ~mtbf:60.0 ~mttr:10.0 ~horizon));
    let flap =
      check "flapping"
        (Fault.flapping_links rng p ~links:3 ~flaps:5 ~mean_up:20.0 ~mean_down:4.0 ~at:Rat.zero)
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: every flapped link ends alive" seed)
      true
      (Repair.damage_equal (Fault.damage flap) Repair.no_damage);
    let diurnal =
      check "diurnal"
        (Fault.diurnal_degradation rng p ~waves:3 ~period:(Rat.of_int 80)
           ~factor:(Rat.of_int 2) ~rate:0.5)
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: diurnal waves ebb completely" seed)
      true
      (Repair.damage_equal (Fault.damage diurnal) Repair.no_damage)
  done

(* --- hand-corrupted schedules trip the replay detectors --------------- *)

let test_detects_port_overlap () =
  let sched = two_relay_sched () in
  (* Shift one transfer so its source-port busy interval overlaps another
     send from the same node. The two_relay schedule serializes node 0's
     sends back to back: moving the second one half a slot earlier collides. *)
  let shifted = ref false in
  let transfers =
    List.map
      (fun (tr : Schedule.transfer) ->
        if (not !shifted) && tr.Schedule.src = 0 && Rat.(tr.Schedule.start > zero) then begin
          shifted := true;
          let d = q 1 2 in
          { tr with Schedule.start = Rat.sub tr.Schedule.start d;
                    finish = Rat.sub tr.Schedule.finish d }
        end
        else tr)
      sched.Schedule.transfers
  in
  Alcotest.(check bool) "corruption applied" true !shifted;
  match Event_sim.run (Schedule.with_transfers sched transfers) ~periods:8 with
  | Error e ->
    Alcotest.(check bool) ("one-port error: " ^ e) true
      (String.length e >= 8 && String.sub e 0 8 = "one-port")
  | Ok _ -> Alcotest.fail "overlapping sends on one port went undetected"

let test_detects_causality_violation () =
  (* Chain 0 -> 1 -> 2 with unit costs, weight 1: node 1 receives message p
     at time p+1 and forwards during [p+1, p+2). Shifting the upstream edge
     (0,1) half a unit later delays reception to p+3/2 while node 1 still
     forwards at p+1 — forwarding before reception, with every port still
     conflict-free. *)
  let p = Generators.chain ~length:2 ~cost:Rat.one in
  let t = Multicast_tree.of_edges_exn p [ (0, 1); (1, 2) ] in
  let sched = Schedule.of_tree_set (Tree_set.make [ (t, Rat.one) ]) in
  let transfers =
    List.map
      (fun (tr : Schedule.transfer) ->
        if tr.Schedule.src = 0 then
          { tr with Schedule.start = Rat.add tr.Schedule.start (q 1 2);
                    finish = Rat.add tr.Schedule.finish (q 1 2) }
        else tr)
      sched.Schedule.transfers
  in
  match Event_sim.run (Schedule.with_transfers sched transfers) ~periods:8 with
  | Error e ->
    Alcotest.(check bool) ("causality error: " ^ e) true
      (String.length e > 0
      && (String.sub e 0 4 = "node" || String.sub e 0 7 = "dropped"))
  | Ok _ -> Alcotest.fail "forwarding before reception went undetected"

let test_detects_dropped_delivery () =
  (* Removing a leaf transfer leaves every remaining transfer legal — only
     the delivery-completeness check can notice the hole. *)
  let sched = two_relay_sched () in
  let victim =
    List.find (fun (tr : Schedule.transfer) -> tr.Schedule.dst = 4) sched.Schedule.transfers
  in
  let transfers = List.filter (fun tr -> tr <> victim) sched.Schedule.transfers in
  match Event_sim.run (Schedule.with_transfers sched transfers) ~periods:8 with
  | Error e ->
    Alcotest.(check bool) ("dropped-delivery error: " ^ e) true
      (String.length e >= 7 && String.sub e 0 7 = "dropped")
  | Ok _ -> Alcotest.fail "a missing delivery went undetected"

let test_intact_schedules_still_pass () =
  (* The new detector must not reject the honest schedules. *)
  List.iter
    (fun (name, sched, periods) ->
      match Event_sim.run sched ~periods with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s rejected: %s" name e)
    [
      ("two_relay", two_relay_sched (), 12);
      ( "chain",
        Schedule.of_tree_set
          (Tree_set.make
             [
               ( Multicast_tree.of_edges_exn
                   (Generators.chain ~length:4 ~cost:Rat.one)
                   [ (0, 1); (1, 2); (2, 3); (3, 4) ],
                 Rat.one );
             ]),
        10 );
    ]

(* --- recovery planning ------------------------------------------------- *)

let test_repair_reroutes_two_relay () =
  (* Kill relay 1: the planner must route everything through relay 2. The
     single surviving tree halves the throughput (relay 2 must send twice
     per message), which the fresh LP bound confirms is intrinsic. *)
  let p = Paper_platforms.two_relay () in
  let before = two_relay_sched () in
  let damage = Fault.damage [ Fault.Kill_node { node = 1; at = Rat.zero } ] in
  match Repair.plan ~before p damage with
  | Error e -> Alcotest.fail e
  | Ok rep ->
    (match Schedule.check rep.Repair.schedule with
    | Ok () -> ()
    | Error e -> Alcotest.failf "repaired schedule fails check: %s" e);
    (match
       Event_sim.run rep.Repair.schedule
         ~periods:(Schedule.init_periods rep.Repair.schedule + 6)
     with
    | Error e -> Alcotest.failf "repaired schedule fails replay: %s" e
    | Ok stats ->
      Alcotest.(check (float 0.05))
        "replay confirms the planner's claim" rep.Repair.throughput_after
        stats.Event_sim.measured_throughput);
    Alcotest.(check (float 1e-9)) "baseline throughput" 1.0 rep.Repair.throughput_before;
    Alcotest.(check (float 1e-9)) "halved throughput" 0.5 rep.Repair.throughput_after;
    Alcotest.(check (float 1e-9)) "retention 50%" 0.5 rep.Repair.retention;
    Alcotest.(check bool) "relay 1 inactive in the survivor" false
      (Platform.is_active rep.Repair.survivor 1);
    Alcotest.(check (list int)) "no target died" [] rep.Repair.lost_targets

let test_repair_drops_dead_target () =
  let p = Paper_platforms.two_relay () in
  let damage = Fault.damage [ Fault.Kill_node { node = 4; at = Rat.zero } ] in
  match Repair.plan p damage with
  | Error e -> Alcotest.fail e
  | Ok rep ->
    Alcotest.(check (list int)) "target 4 reported lost" [ 4 ] rep.Repair.lost_targets;
    Alcotest.(check (list int)) "survivor serves the rest" [ 3 ]
      rep.Repair.survivor.Platform.targets

let test_repair_degradation_costs_throughput () =
  (* Degrading every link by 2 must cost steady-state rate even though the
     topology is intact. (Degrading only the source ports would not: the
     relay's send load sets the MCPH period.) *)
  let p = Paper_platforms.two_relay () in
  let damage =
    Repair.damage
      ~degraded:
        (Digraph.fold_edges
           (fun acc e -> ((e.Digraph.src, e.Digraph.dst), Rat.of_int 2) :: acc)
           [] p.Platform.graph)
      ()
  in
  match Repair.plan p damage with
  | Error e -> Alcotest.fail e
  | Ok rep ->
    Alcotest.(check bool) "throughput dropped" true
      (rep.Repair.throughput_after < rep.Repair.throughput_before -. 1e-9)

let test_repair_unrecoverable () =
  let p = Paper_platforms.two_relay () in
  let expect_error damage =
    match Repair.plan p damage with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected an unrecoverable verdict"
  in
  (* the source died *)
  expect_error (Fault.damage [ Fault.Kill_node { node = 0; at = Rat.zero } ]);
  (* every target died *)
  expect_error
    (Fault.damage
       [
         Fault.Kill_node { node = 3; at = Rat.zero };
         Fault.Kill_node { node = 4; at = Rat.zero };
       ]);
  (* a target is cut off: 0->1, 0->2 dead severs both routes *)
  expect_error
    (Fault.damage
       [
         Fault.Kill_edge { src = 0; dst = 1; at = Rat.zero };
         Fault.Kill_edge { src = 0; dst = 2; at = Rat.zero };
       ]);
  (* damage referencing a missing edge is rejected outright *)
  expect_error (Repair.damage ~dead_edges:[ (3, 0) ] ());
  (* a speedup disguised as degradation is rejected *)
  expect_error (Repair.damage ~degraded:[ ((0, 1), q 1 2) ] ())

let test_random_kills_respect_rate () =
  let p = Paper_platforms.two_relay () in
  let rng = Random.State.make [| 7 |] in
  Alcotest.(check (list (pair int int)))
    "rate 0 kills nothing" []
    (List.filter_map
       (function Fault.Kill_edge e -> Some (e.src, e.dst) | _ -> None)
       (Fault.random_link_kills rng p ~rate:0.0 ~at:Rat.zero));
  let all = Fault.random_link_kills rng p ~rate:1.0 ~at:Rat.zero in
  Alcotest.(check int) "rate 1 kills every directed edge"
    (Digraph.n_edges p.Platform.graph)
    (List.length all);
  match Fault.validate p all with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* --- incremental repair ------------------------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_incremental_fallback_on_floor () =
  (* Killing relay 1 halves the two-relay throughput, so a 90% retention
     floor is unreachable: the planner must escalate to a full re-plan and
     say why — and with [fallback:false] surface the same reason as an
     [Error] for the recovery loop's own escalation ladder. *)
  let p = Paper_platforms.two_relay () in
  let before = two_relay_sched () in
  let damage = Fault.damage [ Fault.Kill_node { node = 1; at = Rat.zero } ] in
  (match Repair.plan_incremental ~retention_floor:0.9 ~before p damage with
  | Error e -> Alcotest.fail e
  | Ok rep ->
    (match rep.Repair.repair_method with
    | `Fell_back reason ->
      Alcotest.(check bool) "reason mentions the floor" true (contains reason "floor")
    | `Patched | `Full_replan -> Alcotest.fail "expected a fallback report");
    Alcotest.(check (float 1e-9)) "fallback retention matches the full re-plan" 0.5
      rep.Repair.retention);
  match Repair.plan_incremental ~fallback:false ~retention_floor:0.9 ~before p damage with
  | Error e ->
    Alcotest.(check bool) "error names the floor" true (contains e "floor")
  | Ok _ -> Alcotest.fail "fallback:false must surface the floor violation as Error"

let test_incremental_matches_full_plan () =
  (* Seeded property sweep: on random platforms with one random kill, the
     incremental patch run with a floor eps under the full re-plan's
     retention must (a) agree with the full planner on recoverability,
     (b) produce a schedule that passes Schedule.check, and (c) retain at
     least the full re-plan's throughput minus eps — by patching, or by
     detecting its own shortfall and escalating. *)
  let eps = 0.02 in
  let patched = ref 0 and fell_back = ref 0 and unrecoverable = ref 0 in
  for i = 1 to 200 do
    let rng = Random.State.make [| i; 4243 |] in
    let p =
      if i mod 2 = 0 then
        Generators.random_connected rng ~nodes:(8 + (i mod 7)) ~extra_edges:(4 + (i mod 5))
          ~min_cost:1 ~max_cost:20 ~n_targets:(2 + (i mod 4))
      else Tiers.generate rng Tiers.small_params ~n_targets:(2 + (i mod 6))
    in
    match Mcph.run p with
    | None -> Alcotest.failf "case %d: MCPH failed on a connected platform" i
    | Some r -> (
      let sched =
        Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])
      in
      let damage =
        if Random.State.bool rng then begin
          let edges =
            Digraph.fold_edges
              (fun acc e -> (e.Digraph.src, e.Digraph.dst) :: acc)
              [] p.Platform.graph
          in
          let u, v = List.nth edges (Random.State.int rng (List.length edges)) in
          Repair.damage ~dead_edges:[ (u, v) ] ()
        end
        else begin
          let nodes =
            List.filter
              (fun v -> v <> p.Platform.source && Platform.is_active p v)
              (List.init (Platform.n_nodes p) Fun.id)
          in
          let v = List.nth nodes (Random.State.int rng (List.length nodes)) in
          Repair.damage ~dead_nodes:[ v ] ()
        end
      in
      match Repair.plan ~before:sched p damage with
      | Error _ -> (
        incr unrecoverable;
        match Repair.plan_incremental ~before:sched p damage with
        | Error _ -> ()
        | Ok _ ->
          Alcotest.failf
            "case %d: incremental repaired damage the full planner calls unrecoverable" i)
      | Ok full -> (
        let floor = Float.max 0.0 (full.Repair.retention -. eps) in
        match Repair.plan_incremental ~retention_floor:floor ~before:sched p damage with
        | Error e -> Alcotest.failf "case %d: incremental failed where full succeeded: %s" i e
        | Ok inc ->
          (match Schedule.check inc.Repair.schedule with
          | Ok () -> ()
          | Error e -> Alcotest.failf "case %d: patched schedule fails check: %s" i e);
          if inc.Repair.retention < full.Repair.retention -. eps -. 1e-9 then
            Alcotest.failf "case %d: retention %.4f more than %.2f below the full re-plan's %.4f"
              i inc.Repair.retention eps full.Repair.retention;
          (match inc.Repair.repair_method with
          | `Patched -> incr patched
          | `Fell_back _ -> incr fell_back
          | `Full_replan -> Alcotest.failf "case %d: unexpected full-replan tag" i)))
  done;
  (* the sweep must actually exercise both paths, not vacuously pass *)
  Alcotest.(check bool)
    (Printf.sprintf "patches dominate (%d patched, %d fell back, %d unrecoverable)" !patched
       !fell_back !unrecoverable)
    true
    (!patched > 50)

(* --- correlated storm generators --------------------------------------- *)

let dead_nodes_of s =
  List.filter_map (function Fault.Kill_node { node; _ } -> Some node | _ -> None) s

let killed_links_of s =
  List.sort_uniq compare
    (List.filter_map
       (function
         | Fault.Kill_edge { src; dst; _ } -> Some (min src dst, max src dst)
         | _ -> None)
       s)

let test_random_burst_shape () =
  let p = tiers_platform 3 in
  let rng = Random.State.make [| 11 |] in
  let window = Rat.one and at = Rat.of_int 2 in
  for k = 1 to 6 do
    let s = Fault.random_burst rng p ~k ~window ~at in
    (match Fault.validate p s with
    | Ok () -> ()
    | Error e -> Alcotest.failf "k=%d: %s" k e);
    let nodes = dead_nodes_of s and links = killed_links_of s in
    let entities = List.length nodes + List.length links in
    Alcotest.(check bool) "at most k distinct entities, at least one" true
      (entities >= 1 && entities <= k);
    Alcotest.(check bool) "source never killed" false (List.mem p.Platform.source nodes);
    Alcotest.(check bool) "a target survives" true
      (List.exists (fun t -> not (List.mem t nodes)) p.Platform.targets);
    List.iter
      (fun ev ->
        let t = Fault.event_time ev in
        Alcotest.(check bool) "fires inside [at, at+window]" true
          (Rat.compare t at >= 0 && Rat.compare t (Rat.add at window) <= 0))
      s
  done

let test_shared_endpoint_kills_shape () =
  (* A NIC failure: the node survives (no Kill_node), and for one endpoint
     every killed link shares that endpoint. *)
  let p = tiers_platform 4 in
  let rng = Random.State.make [| 12 |] in
  let s = Fault.shared_endpoint_kills rng p ~endpoints:1 ~at:Rat.zero in
  (match Fault.validate p s with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check (list int)) "no node dies" [] (dead_nodes_of s);
  let links = killed_links_of s in
  Alcotest.(check bool) "some links die" true (links <> []);
  let shared v = List.for_all (fun (a, b) -> a = v || b = v) links in
  Alcotest.(check bool) "every killed link shares one endpoint" true
    (List.exists shared (List.init (Platform.n_nodes p) Fun.id))

let test_subtree_outage_shape () =
  let p = tiers_platform 5 in
  let rng = Random.State.make [| 13 |] in
  let s = Fault.subtree_outage rng p ~at:Rat.zero in
  (match Fault.validate p s with Ok () -> () | Error e -> Alcotest.fail e);
  let dead = dead_nodes_of s in
  (match List.filter (fun v -> p.Platform.kinds.(v) = Platform.Man) dead with
  | [ m ] ->
    List.iter
      (fun v ->
        if v <> m then begin
          Alcotest.(check bool) (Printf.sprintf "dead node %d is a LAN host" v) true
            (p.Platform.kinds.(v) = Platform.Lan);
          Alcotest.(check bool) (Printf.sprintf "host %d hangs off the dead router" v) true
            (List.mem v (Digraph.succs p.Platform.graph m))
        end)
      dead
  | l -> Alcotest.failf "expected exactly one dead MAN router, got %d" (List.length l));
  (* no MAN layer: degenerates to a single endpoint outage, nodes stay alive *)
  let flat = Paper_platforms.two_relay () in
  let s2 = Fault.subtree_outage (Random.State.make [| 14 |]) flat ~at:Rat.zero in
  (match Fault.validate flat s2 with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check (list int)) "degenerate case kills links only" [] (dead_nodes_of s2);
  Alcotest.(check bool) "degenerate case still kills something" true
    (killed_links_of s2 <> [])

(* --- canonical damage ----------------------------------------------------- *)

(* The order-insensitive equality Repair used before damage became
   canonical, kept as the reference over raw (edges, nodes, degraded)
   lists: sorted dead sets and the net factor per edge. *)
let reference_damage_equal (ea, na, da) (eb, nb, db) =
  let edges d = List.sort_uniq compare d in
  let nodes d = List.sort_uniq compare d in
  let net d =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (e, f) ->
        let cur = match Hashtbl.find_opt tbl e with Some x -> x | None -> Rat.one in
        Hashtbl.replace tbl e (Rat.mul cur f))
      d;
    List.sort compare
      (Hashtbl.fold
         (fun e f acc -> if Rat.equal f Rat.one then acc else (e, f) :: acc)
         tbl [])
  in
  try
    edges ea = edges eb && nodes na = nodes nb
    && List.for_all2 (fun (e, f) (e', f') -> e = e' && Rat.equal f f') (net da) (net db)
  with Invalid_argument _ -> false

let of_raw (dead_edges, dead_nodes, degraded) = Repair.damage ~dead_edges ~dead_nodes ~degraded ()

let is_canonical (d : Repair.damage) =
  let rec strictly cmp = function
    | a :: (b :: _ as rest) -> cmp a b < 0 && strictly cmp rest
    | _ -> true
  in
  strictly compare d.Repair.dead_edges
  && strictly compare d.Repair.dead_nodes
  && strictly (fun ((a : int * int), _) (b, _) -> compare a b) d.Repair.degraded
  && List.for_all (fun (_, f) -> not (Rat.equal f Rat.one)) d.Repair.degraded

let shuffle rng l =
  List.map snd
    (List.sort
       (fun (a, _) (b, _) -> compare a b)
       (List.map (fun x -> (Random.State.bits rng, x)) l))

(* A random raw damage on [p], drawn with replacement so entries repeat;
   factors are on a 1/2 grid from 1 to 2, so some are exactly one. *)
let random_raw_damage rng (p : Platform.t) =
  let edges =
    Digraph.fold_edges (fun acc e -> (e.Digraph.src, e.Digraph.dst) :: acc) [] p.Platform.graph
  in
  let nodes =
    List.filter (fun v -> v <> p.Platform.source) (List.init (Platform.n_nodes p) Fun.id)
  in
  let pick l k = List.init k (fun _ -> List.nth l (Random.State.int rng (List.length l))) in
  ( pick edges (Random.State.int rng 5),
    pick nodes (Random.State.int rng 3),
    List.map
      (fun e -> (e, q (2 + Random.State.int rng 3) 2))
      (pick edges (Random.State.int rng 6)) )

(* The same damage stated differently: shuffled, dead entries repeated,
   and some factors split in two whose product is the original. *)
let restate rng (e, n, d) =
  let dup l = l @ List.filter (fun _ -> Random.State.bool rng) l in
  let split =
    List.concat_map
      (fun (edge, f) ->
        if Random.State.bool rng then
          let g = q (1 + Random.State.int rng 4) 2 in
          [ (edge, g); (edge, Rat.div f g) ]
        else [ (edge, f) ])
      d
  in
  (shuffle rng (dup e), shuffle rng (dup n), shuffle rng split)

let survivor_shape = function
  | Error e -> Error e
  | Ok (s : Platform.t) ->
    Ok
      ( s.Platform.targets,
        List.sort compare
          (List.map
             (fun e -> (e.Digraph.src, e.Digraph.dst, Rat.to_string e.Digraph.cost))
             (Digraph.edges s.Platform.graph)) )

let test_canonical_damage_sweep () =
  for i = 1 to 300 do
    let rng = Random.State.make [| 4242; i |] in
    let nodes = 5 + Random.State.int rng 6 in
    let p =
      Generators.random_connected rng ~nodes ~extra_edges:(Random.State.int rng 6) ~min_cost:1
        ~max_cost:9 ~n_targets:(1 + Random.State.int rng 3)
    in
    let raw = random_raw_damage rng p in
    let raw' = restate rng raw in
    let other = random_raw_damage rng p in
    let d = of_raw raw and d' = of_raw raw' in
    let case what = Printf.sprintf "case %d: %s" i what in
    Alcotest.(check bool) (case "canonical") true (is_canonical d);
    (* idempotent: rebuilding from a canonical value changes nothing *)
    let again =
      Repair.damage ~dead_edges:d.Repair.dead_edges ~dead_nodes:d.Repair.dead_nodes
        ~degraded:d.Repair.degraded ()
    in
    Alcotest.(check bool) (case "idempotent") true
      (again.Repair.dead_edges = d.Repair.dead_edges
      && again.Repair.dead_nodes = d.Repair.dead_nodes
      && List.equal
           (fun (e, f) (e', f') -> e = e' && Rat.equal f f')
           again.Repair.degraded d.Repair.degraded);
    (* equality agrees with the reference, on equal and unrelated pairs *)
    Alcotest.(check bool) (case "restated damage is equal") true (Repair.damage_equal d d');
    Alcotest.(check bool) (case "reference agrees on restated damage") true
      (reference_damage_equal raw raw');
    Alcotest.(check bool) (case "equality agrees with the reference")
      (reference_damage_equal raw other)
      (Repair.damage_equal d (of_raw other));
    Alcotest.(check bool) (case "compare is antisymmetric") true
      (compare (Repair.compare_damage d (of_raw other)) 0
      = - compare (Repair.compare_damage (of_raw other) d) 0);
    (* the survivor does not depend on how the damage was stated, and each
       edge's cost carries the product of every factor stated for it *)
    let shape = survivor_shape (Repair.apply_damage p d) in
    Alcotest.(check bool) (case "same survivor for restated damage") true
      (shape = survivor_shape (Repair.apply_damage p d'));
    match Repair.apply_damage p d with
    | Error _ -> ()
    | Ok s ->
      let _, _, degraded = raw in
      Digraph.iter_edges
        (fun e ->
          let key = (e.Digraph.src, e.Digraph.dst) in
          let net =
            List.fold_left
              (fun acc (e', f) -> if e' = key then Rat.mul acc f else acc)
              Rat.one degraded
          in
          let orig =
            List.find
              (fun (o : Digraph.edge) -> o.Digraph.dst = e.Digraph.dst)
              (Digraph.out_edges p.Platform.graph e.Digraph.src)
          in
          Alcotest.(check bool) (case "survivor cost is the net factor") true
            (Rat.equal e.Digraph.cost (Rat.mul orig.Digraph.cost net)))
        s.Platform.graph
  done

(* [s]'s timeline against the rules it replaced ({!Fault_reference}):
   before the first event, at every event instant and at the midpoint of
   every two consecutive instants, the damage must be canonical and equal
   to the reference [damage_at], and every edge of [p] must read as the
   reference [edge_dead] and [slowdown] say. *)
let check_against_reference ~case (p : Platform.t) s =
  let tl = Fault.timeline s in
  let instants = List.sort_uniq Rat.compare (List.map Fault.event_time s) in
  let rec midpoints = function
    | a :: (b :: _ as rest) -> Rat.div (Rat.add a b) (Rat.of_int 2) :: midpoints rest
    | _ -> []
  in
  let before = match instants with [] -> [ Rat.zero ] | t0 :: _ -> [ Rat.sub t0 Rat.one ] in
  (* The reference predicates of an edge read only the events on the edge
     and its endpoints, so each edge is asked about those events alone. *)
  let per_edge =
    Digraph.fold_edges
      (fun acc e ->
        let src = e.Digraph.src and dst = e.Digraph.dst in
        let touches = function
          | Fault.Kill_node { node; _ } | Fault.Revive_node { node; _ } ->
            node = src || node = dst
          | Fault.Kill_edge { src = u; dst = v; _ }
          | Fault.Revive_edge { src = u; dst = v; _ }
          | Fault.Degrade_edge { src = u; dst = v; _ }
          | Fault.Clear_degrade { src = u; dst = v; _ } -> u = src && v = dst
        in
        ((src, dst), List.filter touches s) :: acc)
      [] p.Platform.graph
  in
  List.iter
    (fun at ->
      let fail what = Alcotest.failf "%s, t=%s: %s" case (Rat.to_string at) what in
      let d = Fault.damage_at tl ~at in
      if not (is_canonical d) then fail "damage not canonical";
      if not (Repair.damage_equal d (Fault_reference.damage_at s ~at)) then
        fail "damage differs from the reference damage_at";
      List.iter
        (fun ((src, dst), s) ->
          let want =
            if Fault_reference.edge_dead s ~src ~dst ~at then None
            else Some (Fault_reference.slowdown s ~src ~dst ~at)
          in
          if not (Option.equal Rat.equal want (Fault.edge_factor d ~src ~dst)) then
            fail (Printf.sprintf "edge %d->%d differs from edge_dead/slowdown" src dst))
        per_edge)
    (before @ instants @ midpoints instants);
  let last = List.fold_left Rat.max Rat.zero instants in
  if not (Repair.damage_equal (Fault.damage s) (Fault_reference.damage_at s ~at:last)) then
    Alcotest.failf "%s: end state differs from the reference" case

let test_damage_at_is_canonical () =
  (* The timeline is the equality oracle's subject: on shuffled scenarios
     with repeated events it must agree with the earlier rules. Link-only
     timelines pin dead edges and factors; node-only timelines pin dead
     nodes. *)
  for seed = 1 to 30 do
    let rng = Random.State.make [| 777; seed |] in
    let p = tiers_platform seed in
    let horizon = Rat.of_int 300 in
    let restated s = shuffle rng (s @ List.filter (fun _ -> Random.State.int rng 4 = 0) s) in
    let links =
      restated
        (Fault.renewal_link_faults rng p ~mtbf:80. ~mttr:20. ~horizon
        @ Fault.diurnal_degradation rng p ~waves:3 ~period:(Rat.of_int 100)
            ~factor:(Rat.of_int 2) ~rate:0.5)
    in
    let nodes = restated (Fault.renewal_node_faults rng p ~mtbf:80. ~mttr:20. ~horizon) in
    List.iter
      (fun (name, s) ->
        (match Fault.validate p s with
        | Error e -> Alcotest.failf "seed %d: scenario rejected: %s" seed e
        | Ok () -> ());
        check_against_reference ~case:(Printf.sprintf "seed %d, %s" seed name) p s)
      [ ("links", links); ("nodes", nodes) ]
  done;
  (* Hand-built ties on the two-relay platform. *)
  let p = Paper_platforms.two_relay () in
  let degrade src dst at factor = Fault.Degrade_edge { src; dst; at = q at 1; factor } in
  let clear src dst at = Fault.Clear_degrade { src; dst; at = q at 1 } in
  let factor s at src dst =
    Fault.edge_factor (Fault.damage_at (Fault.timeline s) ~at:(q at 1)) ~src ~dst
  in
  let check_factor what want got =
    Alcotest.(check (option string)) what
      (Option.map Rat.to_string want) (Option.map Rat.to_string got)
  in
  (* a clear and a degrade at one instant, in either order: the clear
     applies first, so the fresh factor survives *)
  let cleared_then = [ degrade 1 3 1 (q 2 1); clear 1 3 2; degrade 1 3 2 (q 3 1) ] in
  let degraded_then = [ degrade 1 3 1 (q 2 1); degrade 1 3 2 (q 3 1); clear 1 3 2 ] in
  check_factor "clear then degrade at one instant" (Some (q 3 1)) (factor cleared_then 2 1 3);
  check_factor "degrade then clear at one instant" (Some (q 3 1)) (factor degraded_then 2 1 3);
  (* a degrade stated twice multiplies twice *)
  let twice = [ degrade 0 1 1 (q 2 1); degrade 0 1 1 (q 2 1); clear 0 1 3 ] in
  check_factor "degrade stated twice" (Some (q 4 1)) (factor twice 2 0 1);
  (* a degrade on an edge whose endpoint is dead: the edge reads dead, the
     factor is kept and shows once the endpoint revives *)
  let under_dead =
    [
      Fault.Kill_node { node = 1; at = q 1 1 };
      degrade 0 1 2 (q 3 2);
      Fault.Revive_node { node = 1; at = q 4 1 };
      clear 0 1 5;
    ]
  in
  check_factor "degrade under a dead endpoint" None (factor under_dead 2 0 1);
  check_factor "the factor shows after the revive" (Some (q 3 2)) (factor under_dead 4 0 1);
  List.iter
    (fun (name, s) ->
      (match Fault.validate p s with
      | Error e -> Alcotest.failf "%s: scenario rejected: %s" name e
      | Ok () -> ());
      check_against_reference ~case:name p s)
    [
      ("clear then degrade", cleared_then);
      ("degrade then clear", degraded_then);
      ("degrade twice", twice);
      ("degrade under a dead endpoint", under_dead);
    ]

let suite =
  [
    ("faulty replay: no faults, no losses", `Quick, test_no_faults_is_lossless);
    ("faulty replay: dead edge starves the subtree", `Quick, test_kill_edge_loses_subtree);
    ("faulty replay: late kill spares early batches", `Quick, test_late_kill_spares_early_batches);
    ("faulty replay: node kill closes both ports", `Quick, test_kill_node_kills_both_ports);
    ("faulty replay: degradation milder than kill", `Quick, test_degrade_slows_but_delivers_late);
    ("fault scenarios validated", `Quick, test_fault_validation);
    ("fault overlap semantics", `Quick, test_fault_overlap_semantics);
    ("revival: kill/revive ordering rules", `Quick, test_revival_ordering);
    ("revival: time-varying predicates", `Quick, test_time_varying_predicates);
    ("revival: windowed kill in the replay", `Quick, test_revival_replay);
    ("renewal generators validate by construction", `Quick, test_renewal_generators_validate);
    ("detector: one-port overlap", `Quick, test_detects_port_overlap);
    ("detector: forwarding before reception", `Quick, test_detects_causality_violation);
    ("detector: dropped delivery", `Quick, test_detects_dropped_delivery);
    ("detector: honest schedules still pass", `Quick, test_intact_schedules_still_pass);
    ("repair: reroutes around a dead relay", `Quick, test_repair_reroutes_two_relay);
    ("repair: drops a dead target", `Quick, test_repair_drops_dead_target);
    ("repair: degradation costs throughput", `Quick, test_repair_degradation_costs_throughput);
    ("repair: unrecoverable damage rejected", `Quick, test_repair_unrecoverable);
    ("random link kills respect the rate", `Quick, test_random_kills_respect_rate);
    ("incremental repair: floor violation falls back", `Quick, test_incremental_fallback_on_floor);
    ("incremental repair: 200-case sweep vs full re-plan", `Slow, test_incremental_matches_full_plan);
    ("storm: random burst shape", `Quick, test_random_burst_shape);
    ("storm: shared-endpoint kills shape", `Quick, test_shared_endpoint_kills_shape);
    ("storm: subtree outage shape", `Quick, test_subtree_outage_shape);
    ("damage: canonical form, 300-case sweep", `Quick, test_canonical_damage_sweep);
    ("damage: damage_at is canonical", `Quick, test_damage_at_is_canonical);
  ]
