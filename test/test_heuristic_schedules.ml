(* End-to-end closure: the LP heuristics' claimed periods are realizable —
   pack their final broadcast solutions into arborescences, colour them
   into periodic schedules, replay them in the simulator. *)

let check_realizes name (claimed_period : float) = function
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok (sched, thr) ->
    (match Schedule.check sched with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: schedule invalid: %s" name e);
    (* The schedule throughput must be within rounding of the claim. *)
    Alcotest.(check bool)
      (Printf.sprintf "%s: schedulable thr %.5f vs claim %.5f" name (Rat.to_float thr)
         (1.0 /. claimed_period))
      true
      (Rat.to_float thr >= 0.93 /. claimed_period);
    let periods = Schedule.init_periods sched + 4 in
    match Event_sim.run sched ~periods with
    | Error e -> Alcotest.failf "%s: simulation: %s" name e
    | Ok stats ->
      Alcotest.(check bool) (name ^ ": simulation delivers") true
        (stats.Event_sim.measured_throughput > 0.8 *. Rat.to_float thr)

let test_reduced_broadcast_realizable () =
  let rng = Random.State.make [| 41 |] in
  let p = Tiers.generate rng Tiers.small_params ~n_targets:6 in
  match Reduced_broadcast.run ~max_tries_per_round:2 p with
  | None -> Alcotest.fail "red bc"
  | Some r ->
    check_realizes "Red. BC" r.Reduced_broadcast.period (Augmented_multicast.to_schedule p r)

let test_augmented_multicast_realizable () =
  let rng = Random.State.make [| 43 |] in
  let p = Tiers.generate rng Tiers.small_params ~n_targets:6 in
  match Augmented_multicast.run ~max_tries_per_round:2 p with
  | None -> Alcotest.fail "augm mc"
  | Some r ->
    check_realizes "Augm. MC" r.Augmented_multicast.period
      (Augmented_multicast.to_schedule p r)

let test_fig4_packing_simulates () =
  (* The exact tree-packing optimum of Fig. 4 (throughput 1/2) must
     schedule and simulate at that rate. *)
  let p = Paper_platforms.fig4 () in
  let s = Option.get (Complexity.optimal_tree_packing p) in
  let sched = Schedule.of_tree_set s in
  (match Schedule.check sched with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Event_sim.run sched ~periods:(Schedule.init_periods sched + 8) with
  | Error e -> Alcotest.fail e
  | Ok stats ->
    Alcotest.(check (float 0.03)) "simulated 1/2" 0.5 stats.Event_sim.measured_throughput

let suite =
  [
    ("Red. BC period is realizable", `Quick, test_reduced_broadcast_realizable);
    ("Augm. MC period is realizable", `Quick, test_augmented_multicast_realizable);
    ("fig4 optimal packing simulates at 1/2", `Quick, test_fig4_packing_simulates);
  ]

(* Property: on random platforms, the full pipeline — exact tree packing ->
   schedule -> simulator — agrees with itself within rounding. *)
let prop_packing_simulates =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"optimal tree packings schedule and simulate" ~count:10
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 5_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 91 |] in
         let p =
           Generators.random_connected rng ~nodes:6 ~extra_edges:2 ~min_cost:1 ~max_cost:6
             ~n_targets:2
         in
         match Complexity.optimal_tree_packing ~max_trees:20_000 p with
         | None -> false
         | Some s -> (
           let sched = Schedule.of_tree_set s in
           match (Schedule.check sched, Event_sim.run sched ~periods:(Schedule.init_periods sched + 5)) with
           | Ok (), Ok stats ->
             let want = Rat.to_float (Tree_set.throughput s) in
             abs_float (stats.Event_sim.measured_throughput -. want) <= 0.05 *. want
           | _ -> false)
         | exception Failure _ -> true))

let prop_scatter_schedules_valid =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"scatter schedules are always legal" ~count:10
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 5_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 92 |] in
         let p =
           Generators.random_connected rng ~nodes:8 ~extra_edges:4 ~min_cost:1 ~max_cost:10
             ~n_targets:3
         in
         match Formulations.multicast_ub p with
         | None -> false
         | Some sol -> (
           match Scatter_schedule.of_solution p sol with
           | Error _ -> false
           | Ok sched -> (
             match
               (Schedule.check sched, Event_sim.run sched ~periods:(Schedule.init_periods sched + 4))
             with
             | Ok (), Ok _ -> true
             | _ -> false))))

let suite = suite @ [ prop_packing_simulates; prop_scatter_schedules_valid ]
