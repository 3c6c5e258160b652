(* Tests for platform instances, generators and the Tiers topology. *)

let strongly_connected g =
  let all = List.init (Digraph.n_nodes g) Fun.id in
  List.for_all (fun v -> Traversal.reaches_all g v all) all

let test_make_validation () =
  let g = Digraph.create 3 in
  Digraph.add_edge g ~src:0 ~dst:1 ~cost:Rat.one;
  Digraph.add_edge g ~src:1 ~dst:2 ~cost:Rat.one;
  let p = Platform.make g ~source:0 ~targets:[ 2; 1; 2 ] in
  Alcotest.(check (list int)) "targets dedup+sorted" [ 1; 2 ] p.Platform.targets;
  let inv f = Alcotest.(check bool) "rejects" true (try f (); false with Invalid_argument _ -> true) in
  inv (fun () -> ignore (Platform.make g ~source:0 ~targets:[]));
  inv (fun () -> ignore (Platform.make g ~source:0 ~targets:[ 0 ]));
  inv (fun () -> ignore (Platform.make g ~source:0 ~targets:[ 9 ]))

let test_roles () =
  let p = Paper_platforms.fig1 () in
  Alcotest.(check bool) "source" true (Platform.is_source p 0);
  Alcotest.(check bool) "target" true (Platform.is_target p 7);
  Alcotest.(check bool) "not target" false (Platform.is_target p 1);
  Alcotest.(check (list int)) "intermediates" [ 1; 2; 3; 4; 5; 6 ] (Platform.intermediates p);
  Alcotest.(check bool) "feasible" true (Platform.is_feasible p)

let test_broadcast_of () =
  let p = Paper_platforms.two_relay () in
  let b = Platform.broadcast_of p in
  Alcotest.(check (list int)) "all non-source nodes" [ 1; 2; 3; 4 ] b.Platform.targets

let test_restrict_remove () =
  let p = Paper_platforms.fig1 () in
  let r = Platform.remove_node p 2 in
  Alcotest.(check bool) "inactive" false (Platform.is_active r 2);
  Alcotest.(check int) "edges dropped" (Digraph.n_edges p.Platform.graph - 2)
    (Digraph.n_edges r.Platform.graph);
  Alcotest.(check bool) "still feasible" true (Platform.is_feasible r);
  (* Removing node 2 removes it from broadcast targets. *)
  let b = Platform.broadcast_of r in
  Alcotest.(check bool) "removed node not a target" false (List.mem 2 b.Platform.targets);
  let inv f = Alcotest.(check bool) "rejects" true (try f (); false with Invalid_argument _ -> true) in
  inv (fun () -> ignore (Platform.remove_node p p.Platform.source))

let test_generators_star_chain_grid () =
  let s = Generators.star ~branches:4 ~cost:(Rat.of_ints 1 2) in
  Alcotest.(check int) "star nodes" 5 (Platform.n_nodes s);
  Alcotest.(check int) "star edges" 4 (Digraph.n_edges s.Platform.graph);
  let c = Generators.chain ~length:3 ~cost:Rat.one in
  Alcotest.(check (list int)) "chain target" [ 3 ] c.Platform.targets;
  Alcotest.(check bool) "chain feasible" true (Platform.is_feasible c);
  let g = Generators.grid ~rows:3 ~cols:3 ~cost:Rat.one in
  Alcotest.(check int) "grid nodes" 9 (Platform.n_nodes g);
  (* 12 undirected mesh links, symmetric. *)
  Alcotest.(check int) "grid edges" 24 (Digraph.n_edges g.Platform.graph);
  Alcotest.(check bool) "grid feasible" true (Platform.is_feasible g)

let test_random_connected () =
  let rng = Random.State.make [| 1; 2; 3 |] in
  for _ = 1 to 10 do
    let p =
      Generators.random_connected rng ~nodes:12 ~extra_edges:5 ~min_cost:1 ~max_cost:30
        ~n_targets:4
    in
    Alcotest.(check bool) "feasible" true (Platform.is_feasible p);
    Alcotest.(check int) "target count" 4 (List.length p.Platform.targets);
    (* Symmetric construction: strongly connected. *)
    Alcotest.(check bool) "strongly connected" true (strongly_connected p.Platform.graph)
  done

let test_fork () =
  let p = Generators.fork ~n_targets:5 ~trunk_cost:Rat.one ~branch_cost:(Rat.of_ints 1 500) in
  Alcotest.(check int) "nodes" 7 (Platform.n_nodes p);
  Alcotest.(check int) "targets" 5 (List.length p.Platform.targets);
  Alcotest.(check bool) "feasible" true (Platform.is_feasible p)

let test_sampling () =
  let rng = Random.State.make [| 9 |] in
  let sample = Generators.sample_without_replacement rng 5 (List.init 20 Fun.id) in
  Alcotest.(check int) "size" 5 (List.length sample);
  Alcotest.(check int) "distinct" 5 (List.length (List.sort_uniq compare sample));
  List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 20)) sample;
  Alcotest.(check bool) "rejects oversampling" true
    (try ignore (Generators.sample_without_replacement rng 3 [ 1 ]); false
     with Invalid_argument _ -> true)

let test_tiers_shape () =
  let rng = Random.State.make [| 2024 |] in
  let p = Tiers.generate rng Tiers.small_params ~n_targets:10 in
  Alcotest.(check int) "small node count" 30 (Platform.n_nodes p);
  Alcotest.(check int) "small node count via params" 30 (Tiers.node_count Tiers.small_params);
  Alcotest.(check int) "lan hosts" 17 (List.length (Platform.lan_nodes p));
  Alcotest.(check int) "targets" 10 (List.length p.Platform.targets);
  List.iter
    (fun t -> Alcotest.(check bool) "targets are LAN hosts" true (List.mem t (Platform.lan_nodes p)))
    p.Platform.targets;
  Alcotest.(check bool) "feasible" true (Platform.is_feasible p);
  Alcotest.(check bool) "strongly connected" true (strongly_connected p.Platform.graph);
  Alcotest.(check int) "big node count" 65 (Tiers.node_count Tiers.big_params)

let test_tiers_determinism () =
  let gen () =
    let rng = Random.State.make [| 5; 6 |] in
    let p = Tiers.generate rng Tiers.small_params ~n_targets:6 in
    ( List.map (fun (e : Digraph.edge) -> (e.Digraph.src, e.Digraph.dst, Rat.to_string e.Digraph.cost))
        (Digraph.edges p.Platform.graph),
      p.Platform.source,
      p.Platform.targets )
  in
  Alcotest.(check bool) "same seed, same platform" true (gen () = gen ())

let test_paper_platforms_wellformed () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " feasible") true (Platform.is_feasible p))
    [
      ("fig1", Paper_platforms.fig1 ());
      ("fig4", Paper_platforms.fig4 ());
      ("fig5", Paper_platforms.fig5 ~n_targets:4);
      ("two_relay", Paper_platforms.two_relay ());
    ]

let suite =
  [
    ("make: validation", `Quick, test_make_validation);
    ("roles", `Quick, test_roles);
    ("broadcast_of", `Quick, test_broadcast_of);
    ("restrict/remove_node", `Quick, test_restrict_remove);
    ("generators: star/chain/grid", `Quick, test_generators_star_chain_grid);
    ("generators: random connected", `Quick, test_random_connected);
    ("generators: fork", `Quick, test_fork);
    ("generators: sampling", `Quick, test_sampling);
    ("tiers: shape", `Quick, test_tiers_shape);
    ("tiers: determinism", `Quick, test_tiers_determinism);
    ("paper platforms well-formed", `Quick, test_paper_platforms_wellformed);
  ]

let test_topology_stats () =
  let rng = Random.State.make [| 2024 |] in
  let p = Tiers.generate rng Tiers.small_params ~n_targets:10 in
  let s = Topology_stats.compute p in
  Alcotest.(check int) "nodes" 30 s.Topology_stats.nodes;
  Alcotest.(check int) "lan hosts" 17 s.Topology_stats.lan_hosts;
  Alcotest.(check bool) "eccentricity positive" true (s.Topology_stats.source_ecc > 0);
  (match s.Topology_stats.costs with
  | None -> Alcotest.fail "cost figures missing"
  | Some c ->
    Alcotest.(check bool) "heterogeneous links" true (c.Topology_stats.heterogeneity > 2.0);
    Alcotest.(check bool) "cost order" true
      Rat.(c.Topology_stats.min_cost <= c.Topology_stats.max_cost));
  (* stats follow restriction *)
  let smaller = Platform.remove_node p (List.hd (Platform.intermediates p)) in
  let s' = Topology_stats.compute smaller in
  Alcotest.(check int) "one fewer node" 29 s'.Topology_stats.nodes

(* What [mcast bounds] does with a platform that has nodes but no links:
   statistics without cost figures, and every bound infeasible. *)
let test_edgeless_platform () =
  let p = Platform.make (Digraph.create 3) ~source:0 ~targets:[ 2 ] in
  let s = Topology_stats.compute p in
  Alcotest.(check int) "edges" 0 s.Topology_stats.edges;
  Alcotest.(check bool) "no cost figures" true (s.Topology_stats.costs = None);
  Alcotest.(check string) "printed"
    "3 nodes, 0 edges, 3 LAN hosts; source eccentricity 0; no links; max degree out 0 / in 0"
    (Format.asprintf "%a" Topology_stats.pp s);
  let b = Bounds.compute p in
  Alcotest.(check bool) "every bound infeasible" true
    (b.Bounds.lb = None && b.Bounds.ub = None && b.Bounds.broadcast = None);
  Alcotest.(check (result unit string)) "bound chain" (Ok ()) (Bounds.check b ~n_targets:1)

let suite =
  suite
  @ [
      ("topology stats", `Quick, test_topology_stats);
      ("topology stats: edgeless platform", `Quick, test_edgeless_platform);
    ]
