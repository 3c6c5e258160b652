(* Cross-check: the production solvers (float simplex + cut generation)
   agree with the exact-arithmetic reference formulations on the paper's
   hand-built platforms and on random small instances. *)

let rat = Alcotest.testable Rat.pp Rat.equal
let q = Rat.of_ints

let agree name exact float_sol =
  match (exact, float_sol) with
  | None, None -> ()
  | Some _, None -> Alcotest.failf "%s: exact feasible, float infeasible" name
  | None, Some _ -> Alcotest.failf "%s: float feasible, exact infeasible" name
  | Some r, Some (s : Formulations.solution) ->
    let e = Rat.to_float r in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.6f vs exact %.6f" name s.Formulations.throughput e)
      true
      (abs_float (s.Formulations.throughput -. e) < 1e-5 *. (1.0 +. e))

let test_exact_values_fig_platforms () =
  (* Exact optimal throughputs on the worked examples. *)
  let p = Paper_platforms.two_relay () in
  Alcotest.(check (option rat)) "two_relay LB = 1" (Some Rat.one)
    (Formulations_exact.multicast_lb p);
  Alcotest.(check (option rat)) "two_relay UB = 1/2" (Some (q 1 2))
    (Formulations_exact.multicast_ub p);
  let p4 = Paper_platforms.fig4 () in
  Alcotest.(check (option rat)) "fig4 LB = 2/3" (Some (q 2 3))
    (Formulations_exact.multicast_lb p4);
  Alcotest.(check (option rat)) "fig4 UB = 1/3" (Some (q 1 3))
    (Formulations_exact.multicast_ub p4);
  let p5 = Paper_platforms.fig5 ~n_targets:3 in
  Alcotest.(check (option rat)) "fig5 LB = 1" (Some Rat.one)
    (Formulations_exact.multicast_lb p5);
  Alcotest.(check (option rat)) "fig5 UB = 1/3" (Some (q 1 3))
    (Formulations_exact.multicast_ub p5)

let test_engines_agree_fig_platforms () =
  List.iter
    (fun (name, p) ->
      agree (name ^ " lb") (Formulations_exact.multicast_lb p) (Formulations.multicast_lb p);
      agree (name ^ " ub") (Formulations_exact.multicast_ub p) (Formulations.multicast_ub p);
      agree (name ^ " eb") (Formulations_exact.broadcast_eb p) (Formulations.broadcast_eb p))
    [
      ("two_relay", Paper_platforms.two_relay ());
      ("fig4", Paper_platforms.fig4 ());
      ("fig5", Paper_platforms.fig5 ~n_targets:3);
    ]

(* fig1 is deliberately not cross-checked against the exact engine: the
   rational simplex on its full 240-row formulation suffers coefficient
   bit-length blow-up (gigabytes of bignums). The float/cut-generation
   value (throughput exactly 1) is pinned by test_core instead. *)

let prop_engines_agree_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"cut-generation LB equals exact reference LB" ~count:15
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 10_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 33 |] in
         let p =
           Generators.random_connected rng ~nodes:6 ~extra_edges:3 ~min_cost:1 ~max_cost:8
             ~n_targets:2
         in
         match (Formulations_exact.multicast_lb p, Formulations.multicast_lb p) with
         | Some e, Some s ->
           let ev = Rat.to_float e in
           abs_float (s.Formulations.throughput -. ev) < 1e-5 *. (1.0 +. ev)
         | None, None -> true
         | _ -> false))

let prop_scatter_agree_random =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"float scatter LP equals exact reference UB" ~count:15
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 10_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 34 |] in
         let p =
           Generators.random_connected rng ~nodes:6 ~extra_edges:3 ~min_cost:1 ~max_cost:8
             ~n_targets:2
         in
         match (Formulations_exact.multicast_ub p, Formulations.multicast_ub p) with
         | Some e, Some s ->
           let ev = Rat.to_float e in
           abs_float (s.Formulations.throughput -. ev) < 1e-5 *. (1.0 +. ev)
         | None, None -> true
         | _ -> false))

let suite =
  [
    ("exact values on worked examples", `Quick, test_exact_values_fig_platforms);
    ("engines agree on worked examples", `Quick, test_engines_agree_fig_platforms);
    prop_engines_agree_random;
    prop_scatter_agree_random;
  ]

(* [sources] for the multi-source program: the platform source and two
   other nodes drawn by [rng]. *)
let two_more_sources rng (p : Platform.t) =
  let others =
    List.filter (fun v -> v <> p.Platform.source) (List.init (Platform.n_nodes p) Fun.id)
  in
  let a = List.nth others (Random.State.int rng (List.length others)) in
  let others = List.filter (( <> ) a) others in
  [ p.Platform.source; a; List.nth others (Random.State.int rng (List.length others)) ]

(* Every group's reassembled inflow at its destination is exactly rho. *)
let carries_rho (s : Formulations.solution) =
  List.for_all
    (fun ((_, dest), flows) ->
      let inflow =
        List.fold_left (fun acc ((_, v), w) -> if v = dest then acc +. w else acc) 0.0 flows
      in
      abs_float (inflow -. s.Formulations.throughput) <= 1e-9 *. s.Formulations.throughput)
    s.Formulations.commodity_flows

(* A seeded platform: Tiers-small for even seeds (where degenerate path
   masters over-deliver some groups), a random connected one for odd. *)
let colgen_platform rng seed =
  if seed mod 2 = 0 then Tiers.generate rng Tiers.small_params ~n_targets:5
  else
    Generators.random_connected rng ~nodes:10 ~extra_edges:6 ~min_cost:1 ~max_cost:12
      ~n_targets:4

(* The path column-generation scatter solver must agree with the dense arc
   formulation (and hence with the exact reference), on Multicast-UB and
   on MulticastMultiSource-UB with two intermediate sources besides the
   platform source, and deliver exactly rho to every group. *)
let prop_colgen_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"scatter column generation equals dense arc LP" ~count:40
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 10_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 35 |] in
         let p = colgen_platform rng seed in
         let sources = two_more_sources rng p in
         let agree dense colgen =
           match (dense, colgen) with
           | Some a, Some b ->
             abs_float (a.Formulations.throughput -. b.Formulations.throughput)
             < 1e-4 *. (1.0 +. a.Formulations.throughput)
             && carries_rho b
           | None, None -> true
           | _ -> false
         in
         agree (Formulations.multicast_ub p) (Formulations.multicast_ub_colgen p)
         && agree
              (Formulations.multisource_ub p ~sources)
              (Formulations.multicast_ub_colgen ~sources p)))

(* The live master (warm rounds over a growing pool) ends at the optimum
   of its final pool: a cold solve of that pool gives the same objective,
   on the scatter path master and on the arborescence packing. *)
let live_equals_cold (master : _ Colgen.master) =
  match Colgen.solve master with
  | None -> false
  | Some r -> (
    match Solver_chain.solve (Colgen.form ~rhs:master.Colgen.rhs r.Colgen.pool) with
    | Solver_chain.Optimal (cold, _) ->
      let live = r.Colgen.solution.Lp_model.objective in
      abs_float (live -. cold.Lp_model.objective) <= 1e-9 *. abs_float cold.Lp_model.objective
    | Solver_chain.Infeasible | Solver_chain.Unbounded -> false)

let prop_live_master_equals_cold =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"live column-generation master equals a cold solve of its pool"
       ~count:20
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 10_000))
       (fun seed ->
         let rng = Random.State.make [| seed; 36 |] in
         let p = colgen_platform rng seed in
         let sources = two_more_sources rng p in
         let path ?sources () =
           Option.fold (Formulations.path_master ?sources p) ~none:true ~some:live_equals_cold
         in
         path () && path ~sources ()
         &&
         match Formulations.broadcast_eb p with
         | None -> true
         | Some sol ->
           live_equals_cold
             (Arborescence_packing.master (Platform.broadcast_of p)
                ~capacities:sol.Formulations.edge_usage ~rho:sol.Formulations.throughput)))

let suite = suite @ [ prop_colgen_agrees; prop_live_master_equals_cold ]
