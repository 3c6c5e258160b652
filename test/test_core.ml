(* Tests for the core contribution: trees, tree sets, LP formulations,
   bounds, and the four heuristics, against the paper's worked examples. *)

let rat = Alcotest.testable Rat.pp Rat.equal
let q = Rat.of_ints
let feps = 1e-5

let period_of name = function
  | None -> Alcotest.failf "%s: unexpectedly infeasible" name
  | Some (s : Formulations.solution) -> s.Formulations.period

(* --- multicast trees --- *)

let test_tree_validation () =
  let p = Paper_platforms.two_relay () in
  (match Multicast_tree.of_edges p [ (0, 1); (1, 3); (1, 4) ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid tree rejected: %s" e);
  let expect_err edges =
    match Multicast_tree.of_edges p edges with
    | Ok _ -> Alcotest.fail "invalid tree accepted"
    | Error _ -> ()
  in
  expect_err [ (0, 1); (1, 3) ];
  (* misses T2 *)
  expect_err [ (0, 1); (1, 3); (2, 4) ];
  (* 2 disconnected *)
  expect_err [ (0, 1); (0, 2); (1, 3); (2, 3); (1, 4) ];
  (* 3 has two parents *)
  expect_err [ (1, 0); (0, 3); (0, 4) ] (* nonexistent edges *)

let test_tree_period () =
  let p = Paper_platforms.two_relay () in
  let t = Multicast_tree.of_edges_exn p [ (0, 1); (1, 3); (1, 4) ] in
  (* A sends to two children at cost 1 each: period 2. *)
  Alcotest.check rat "send occupation" (Rat.of_int 2) (Multicast_tree.send_occupation t 1);
  Alcotest.check rat "recv occupation" Rat.one (Multicast_tree.recv_occupation t 3);
  Alcotest.check rat "period" (Rat.of_int 2) (Multicast_tree.period t);
  Alcotest.check rat "throughput" (q 1 2) (Multicast_tree.throughput t);
  Alcotest.check rat "steiner cost" (Rat.of_int 3) (Multicast_tree.steiner_cost t)

let test_tree_prune () =
  let p = Paper_platforms.two_relay () in
  (* Include the useless relay B as a dead branch. *)
  let t = Multicast_tree.of_edges_exn p [ (0, 1); (1, 3); (1, 4); (0, 2) ] in
  Alcotest.check rat "period with dead branch" (Rat.of_int 2) (Multicast_tree.period t);
  let pruned = Multicast_tree.prune t in
  Alcotest.(check int) "edges after prune" 3 (List.length (Multicast_tree.edges pruned));
  Alcotest.check rat "pruned period" (Rat.of_int 2) (Multicast_tree.period pruned)

(* --- tree sets (Section 3 example) --- *)

let test_fig1_two_trees () =
  let p = Paper_platforms.fig1 () in
  let t1e, t2e = Paper_platforms.fig1_trees () in
  let t1 = Multicast_tree.of_edges_exn p t1e in
  let t2 = Multicast_tree.of_edges_exn p t2e in
  let s = Tree_set.make [ (t1, q 1 2); (t2, q 1 2) ] in
  Alcotest.(check bool) "feasible at 1/2 each" true (Tree_set.is_feasible s);
  Alcotest.check rat "combined throughput 1" Rat.one (Tree_set.throughput s);
  (* Scaling past feasibility must break it. *)
  let s2 = Tree_set.scale s (q 3 2) in
  Alcotest.(check bool) "infeasible at 3/4 each" false (Tree_set.is_feasible s2)

let test_fig1_single_tree_insufficient () =
  let p = Paper_platforms.fig1 () in
  match Complexity.best_single_tree p with
  | None -> Alcotest.fail "fig1 must have a tree"
  | Some t ->
    (* Section 3: no single multicast tree achieves throughput 1. *)
    Alcotest.(check bool) "best single tree is slower than 1" true
      Rat.(Multicast_tree.period t > one);
    (* The optimum over tree sets is exactly 1 (upper-bounded by P7's
       receive capacity, reached by the two reconstructed trees). *)
    let lb = Formulations.multicast_lb p in
    Alcotest.(check (float feps)) "LB period 1" 1.0 (period_of "fig1 lb" lb)

let test_best_weights () =
  let p = Paper_platforms.two_relay () in
  let via r = Multicast_tree.of_edges_exn p [ (0, r); (r, 3); (r, 4) ] in
  let s = Tree_set.best_weights [ via 1; via 2 ] in
  Alcotest.check rat "mixing both relays doubles throughput" Rat.one (Tree_set.throughput s);
  Alcotest.(check bool) "feasible" true (Tree_set.is_feasible s)

(* --- LP formulations on the worked examples --- *)

let test_two_relay_bounds () =
  let p = Paper_platforms.two_relay () in
  Alcotest.(check (float feps)) "UB period 2" 2.0 (period_of "ub" (Formulations.multicast_ub p));
  Alcotest.(check (float feps)) "LB period 1" 1.0 (period_of "lb" (Formulations.multicast_lb p));
  Alcotest.(check (float feps)) "EB period 2" 2.0 (period_of "eb" (Formulations.broadcast_eb p))

let test_fig4_strict_gaps () =
  (* Fig. 4: none of the bounds are tight. LB throughput 2/3, best
     multicast 1/2, UB 1/3 — the caption values. *)
  let p = Paper_platforms.fig4 () in
  let lb = period_of "lb" (Formulations.multicast_lb p) in
  let ub = period_of "ub" (Formulations.multicast_ub p) in
  Alcotest.(check (float feps)) "LB period 3/2" 1.5 lb;
  Alcotest.(check (float feps)) "UB period 3" 3.0 ub;
  match Complexity.optimal_tree_packing p with
  | None -> Alcotest.fail "fig4 packing"
  | Some s ->
    Alcotest.check rat "optimal throughput 1/2" (q 1 2) (Tree_set.throughput s);
    Alcotest.(check bool) "LB strictly below OPT" true (lb < 2.0 -. feps);
    Alcotest.(check bool) "OPT strictly below UB" true (2.0 < ub -. feps)

let test_fig5_gap_factor () =
  (* Fig. 5: the UB/LB period ratio approaches |P_target|. *)
  List.iter
    (fun n ->
      let p = Paper_platforms.fig5 ~n_targets:n in
      let lb = period_of "lb" (Formulations.multicast_lb p) in
      let ub = period_of "ub" (Formulations.multicast_ub p) in
      let ratio = ub /. lb in
      Alcotest.(check bool)
        (Printf.sprintf "ratio for %d targets is ~%d (got %.3f)" n n ratio)
        true
        (abs_float (ratio -. float_of_int n) < 0.1))
    [ 2; 3; 5 ]

let test_bound_chain_random () =
  let rng = Random.State.make [| 31 |] in
  for _ = 1 to 5 do
    let p =
      Generators.random_connected rng ~nodes:10 ~extra_edges:5 ~min_cost:1 ~max_cost:20
        ~n_targets:3
    in
    let b = Bounds.compute p in
    match Bounds.check b ~n_targets:3 with
    | Ok () -> ()
    | Error e -> Alcotest.fail e
  done

let test_lb_solution_contents () =
  let p = Paper_platforms.two_relay () in
  match Formulations.multicast_lb p with
  | None -> Alcotest.fail "lb"
  | Some s ->
    (* Flow conservation towards both targets: inflow of each target ~ rho. *)
    List.iter
      (fun ((_, t), flows) ->
        let inflow =
          List.fold_left (fun acc ((_, dst), f) -> if dst = t then acc +. f else acc) 0.0 flows
        in
        Alcotest.(check (float 1e-4)) "per-target inflow = rho" s.Formulations.throughput inflow)
      s.Formulations.commodity_flows;
    (* Relays carry flow: node_inflow positive for relays. *)
    Alcotest.(check bool) "relay inflow > 0" true
      (s.Formulations.node_inflow.(1) +. s.Formulations.node_inflow.(2) > 0.5)

let test_multisource_two_relay () =
  let p = Paper_platforms.two_relay () in
  (* With A as a secondary source the scatter period improves from 2 to 3/2
     (A re-emits while the source feeds B and A). *)
  let base = period_of "base" (Formulations.multisource_ub p ~sources:[ 0 ]) in
  let plus = period_of "plus" (Formulations.multisource_ub p ~sources:[ 0; 1 ]) in
  Alcotest.(check (float feps)) "single source = scatter" 2.0 base;
  Alcotest.(check bool) "secondary source helps" true (plus < base -. 0.01);
  let inv f = Alcotest.(check bool) "rejects" true (try f (); false with Invalid_argument _ -> true) in
  inv (fun () -> ignore (Formulations.multisource_ub p ~sources:[ 1 ]));
  inv (fun () -> ignore (Formulations.multisource_ub p ~sources:[ 0; 1; 1 ]))

let test_infeasible_instances () =
  let g = Digraph.create 3 in
  Digraph.add_edge g ~src:0 ~dst:1 ~cost:Rat.one;
  Digraph.add_edge g ~src:2 ~dst:1 ~cost:Rat.one;
  let p = Platform.make g ~source:0 ~targets:[ 2 ] in
  Alcotest.(check bool) "ub none" true (Formulations.multicast_ub p = None);
  Alcotest.(check bool) "lb none" true (Formulations.multicast_lb p = None);
  Alcotest.(check bool) "eb none" true (Formulations.broadcast_eb p = None)

(* --- one-port MCPH --- *)

let test_mcph_two_relay () =
  let p = Paper_platforms.two_relay () in
  match Mcph.run p with
  | None -> Alcotest.fail "mcph"
  | Some r ->
    (* A single tree cannot beat period 2 here; MCPH should reach it. *)
    Alcotest.check rat "period 2" (Rat.of_int 2) r.Mcph.period

let test_mcph_prefers_spread () =
  (* Source with two direct target edges (1 each) and a relay route
     (src->R cost 1, R->T1, R->T2 cost 1). The one-port metric should
     avoid making the source send twice. *)
  let g = Digraph.create 4 in
  Digraph.add_edge g ~src:0 ~dst:2 ~cost:Rat.one;
  Digraph.add_edge g ~src:0 ~dst:3 ~cost:Rat.one;
  Digraph.add_edge g ~src:0 ~dst:1 ~cost:Rat.one;
  Digraph.add_edge g ~src:1 ~dst:2 ~cost:Rat.one;
  Digraph.add_edge g ~src:1 ~dst:3 ~cost:Rat.one;
  let p = Platform.make g ~source:0 ~targets:[ 2; 3 ] in
  match Mcph.run p with
  | None -> Alcotest.fail "mcph"
  | Some r ->
    (* Optimal single tree period here is 2 whichever shape; check validity
       and that MCPH is not worse than 2. *)
    Alcotest.(check bool) "period <= 2" true Rat.(r.Mcph.period <= Rat.of_int 2)

let test_mcph_matches_exact_on_gadget () =
  (* On a gadget with a unique minimum cover the tree heuristic should be
     near the exact best single tree. *)
  let cover = Set_cover.make ~universe:4 [ [ 0; 1; 2; 3 ]; [ 0; 1 ]; [ 2; 3 ] ] in
  let p = Complexity.gadget cover ~bound:1 in
  let exact = Option.get (Complexity.best_single_tree p) in
  match Mcph.run p with
  | None -> Alcotest.fail "mcph"
  | Some r ->
    Alcotest.(check bool) "within 2x of exact" true
      Rat.(r.Mcph.period <= Rat.mul (Rat.of_int 2) (Multicast_tree.period exact))

(* --- refined LP heuristics --- *)

let test_reduced_broadcast_two_relay () =
  let p = Paper_platforms.two_relay () in
  match Reduced_broadcast.run p with
  | None -> Alcotest.fail "reduced broadcast"
  | Some r ->
    (* Both relays are needed for period-2 broadcast; removal cannot improve
       below the broadcast bound of 2. *)
    Alcotest.(check (float feps)) "period 2" 2.0 r.Reduced_broadcast.period

let test_reduced_broadcast_prunes_dead_weight () =
  (* A pendant node hanging off the source through a slow link slows the
     broadcast; removing it must help the multicast. *)
  let g = Digraph.create 4 in
  Digraph.add_edge g ~src:0 ~dst:1 ~cost:Rat.one;
  Digraph.add_edge g ~src:1 ~dst:2 ~cost:Rat.one;
  Digraph.add_edge g ~src:0 ~dst:3 ~cost:(Rat.of_int 10);
  let p = Platform.make g ~source:0 ~targets:[ 2 ] in
  let full = period_of "full eb" (Formulations.broadcast_eb p) in
  match Reduced_broadcast.run p with
  | None -> Alcotest.fail "reduced broadcast"
  | Some r ->
    Alcotest.(check bool) "improves on full broadcast" true
      (r.Reduced_broadcast.period < full -. 0.01);
    Alcotest.(check bool) "dead node dropped" true
      (not (List.mem 3 r.Reduced_broadcast.kept))

let test_augmented_multicast () =
  let p = Paper_platforms.two_relay () in
  match Augmented_multicast.run p with
  | None -> Alcotest.fail "augmented multicast"
  | Some r ->
    (* Targets alone are unreachable; the heuristic must pull in a relay. *)
    Alcotest.(check bool) "keeps a relay" true
      (List.mem 1 r.Augmented_multicast.kept || List.mem 2 r.Augmented_multicast.kept);
    Alcotest.(check bool) "finite period" true (r.Augmented_multicast.period < infinity);
    Alcotest.(check bool) "not better than LB" true (r.Augmented_multicast.period > 0.99)

let test_multisource_heuristic () =
  let p = Paper_platforms.two_relay () in
  match Multisource.run p with
  | None -> Alcotest.fail "multisource"
  | Some r ->
    Alcotest.(check bool) "at least the scatter value" true (r.Multisource.period <= 2.0 +. feps);
    Alcotest.(check bool) "sources start with the primary" true
      (List.hd r.Multisource.sources = p.Platform.source)

let test_run_all_report () =
  let rng = Random.State.make [| 99 |] in
  let p =
    Generators.random_connected rng ~nodes:8 ~extra_edges:4 ~min_cost:1 ~max_cost:10 ~n_targets:3
  in
  let report = Heuristics.run_all ~max_tries_per_round:2 ~max_sources:3 p in
  Alcotest.(check int) "all methods present" (List.length Heuristics.method_names)
    (List.length report.Heuristics.entries);
  let lb = (Heuristics.entry report "lower bound").Heuristics.period in
  let ub = (Heuristics.entry report "scatter").Heuristics.period in
  List.iter
    (fun name ->
      let e = Heuristics.entry report name in
      Alcotest.(check bool) (name ^ " >= LB") true (e.Heuristics.period >= lb -. feps);
      Alcotest.(check bool) (name ^ " finite") true (e.Heuristics.period < infinity))
    [ "MCPH"; "Augm. MC"; "Red. BC"; "Multisource MC" ];
  (* Achievable heuristics cannot beat the LB; scatter is the worst bound. *)
  Alcotest.(check bool) "LB <= scatter" true (lb <= ub +. feps)

(* Everything observable of the three refined heuristics over seeded
   Tiers-small platforms, exhaustive and capped at two probes a round: the
   period's bits, the kept or source list and the float LP solves. The pin
   fixes the candidate order, the per-round cap and the accept rule. *)
let refined_digest () =
  let buf = Buffer.create 4096 in
  let record name run show =
    let before = Lp_counters.snapshot () in
    let r = run () in
    let solves = (Lp_counters.since before).Lp_counters.float_solves in
    match r with
    | None -> Printf.bprintf buf "%s none %d\n" name solves
    | Some r ->
      let period, nodes = show r in
      Printf.bprintf buf "%s %h %s %d\n" name period
        (String.concat "," (List.map string_of_int nodes))
        solves
  in
  List.iter
    (fun (seed, n_targets) ->
      let p = Tiers.generate (Random.State.make [| seed; 2006 |]) Tiers.small_params ~n_targets in
      List.iter
        (fun max_tries_per_round ->
          record "amc"
            (fun () -> Augmented_multicast.run ?max_tries_per_round p)
            (fun r -> (r.Augmented_multicast.period, r.Augmented_multicast.kept));
          record "rbc"
            (fun () -> Reduced_broadcast.run ?max_tries_per_round p)
            (fun r -> (r.Reduced_broadcast.period, r.Reduced_broadcast.kept));
          record "msrc"
            (fun () -> Multisource.run ?max_tries_per_round p)
            (fun r -> (r.Multisource.period, r.Multisource.sources)))
        [ None; Some 2 ])
    [ (1, 8); (2, 8); (3, 3); (4, 17); (5, 8); (6, 5) ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_refined_digest () =
  Alcotest.(check string) "refined-heuristics digest" "f2d1bc8cad7293d41ffed8c3e7bd82bc" (refined_digest ())

(* --- properties --- *)

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 100_000)

let random_platform seed =
  let rng = Random.State.make [| seed; 4242 |] in
  Generators.random_connected rng ~nodes:9 ~extra_edges:5 ~min_cost:1 ~max_cost:15 ~n_targets:3

let core_props =
  [
    prop "LB period <= UB period <= |T| * LB" 25 arb_seed (fun seed ->
        let p = random_platform seed in
        let b = Bounds.compute p in
        Result.is_ok (Bounds.check b ~n_targets:(List.length p.Platform.targets)));
    prop "MCPH tree is feasible at its own period" 40 arb_seed (fun seed ->
        let p = random_platform seed in
        match Mcph.run p with
        | None -> false
        | Some r ->
          let s = Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ] in
          Tree_set.is_feasible s);
    prop "MCPH period within the LP bound bracket" 25 arb_seed (fun seed ->
        let p = random_platform seed in
        match (Mcph.run p, Formulations.multicast_lb p) with
        | Some r, Some lb ->
          Rat.to_float r.Mcph.period >= lb.Formulations.period -. 1e-4
        | _ -> false);
    prop "heuristic periods dominate the lower bound" 10 arb_seed (fun seed ->
        let p = random_platform seed in
        let report = Heuristics.run_all ~max_tries_per_round:1 ~max_sources:2 p in
        let lb = (Heuristics.entry report "lower bound").Heuristics.period in
        List.for_all
          (fun name ->
            (Heuristics.entry report name).Heuristics.period >= lb -. 1e-4)
          [ "MCPH"; "Augm. MC"; "Red. BC"; "Multisource MC"; "scatter" ]);
  ]

let suite =
  [
    ("tree: validation", `Quick, test_tree_validation);
    ("tree: one-port period", `Quick, test_tree_period);
    ("tree: prune", `Quick, test_tree_prune);
    ("fig1: two trees reach throughput 1", `Quick, test_fig1_two_trees);
    ("fig1: single tree insufficient", `Quick, test_fig1_single_tree_insufficient);
    ("tree set: best weights", `Quick, test_best_weights);
    ("bounds: two_relay", `Quick, test_two_relay_bounds);
    ("fig4: strict gaps", `Quick, test_fig4_strict_gaps);
    ("fig5: |T| gap factor", `Quick, test_fig5_gap_factor);
    ("bounds: random chain", `Quick, test_bound_chain_random);
    ("lb: solution contents", `Quick, test_lb_solution_contents);
    ("multisource: two_relay", `Quick, test_multisource_two_relay);
    ("formulations: infeasible", `Quick, test_infeasible_instances);
    ("mcph: two_relay", `Quick, test_mcph_two_relay);
    ("mcph: spreads load", `Quick, test_mcph_prefers_spread);
    ("mcph: near exact on gadget", `Quick, test_mcph_matches_exact_on_gadget);
    ("reduced broadcast: two_relay", `Quick, test_reduced_broadcast_two_relay);
    ("reduced broadcast: prunes dead weight", `Quick, test_reduced_broadcast_prunes_dead_weight);
    ("augmented multicast", `Quick, test_augmented_multicast);
    ("multisource heuristic", `Quick, test_multisource_heuristic);
    ("run_all report", `Quick, test_run_all_report);
    ("refined heuristics: bit-for-bit digest", `Quick, test_refined_digest);
  ]
  @ core_props
