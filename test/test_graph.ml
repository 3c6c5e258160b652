(* Tests for the digraph substrate: structure, traversal, paths, matching
   and the weighted edge-colouring decomposition. *)

let q = Rat.of_ints
let rat = Alcotest.testable Rat.pp Rat.equal

(* A small platform-like graph:
     0 -> 1 (1), 0 -> 2 (2), 1 -> 3 (1), 2 -> 3 (1), 3 -> 4 (1/2), 4 -> 1 (3) *)
let sample () =
  let g = Digraph.create 5 in
  Digraph.add_edge g ~src:0 ~dst:1 ~cost:(q 1 1);
  Digraph.add_edge g ~src:0 ~dst:2 ~cost:(q 2 1);
  Digraph.add_edge g ~src:1 ~dst:3 ~cost:(q 1 1);
  Digraph.add_edge g ~src:2 ~dst:3 ~cost:(q 1 1);
  Digraph.add_edge g ~src:3 ~dst:4 ~cost:(q 1 2);
  Digraph.add_edge g ~src:4 ~dst:1 ~cost:(q 3 1);
  g

let test_digraph_basics () =
  let g = sample () in
  Alcotest.(check int) "nodes" 5 (Digraph.n_nodes g);
  Alcotest.(check int) "edges" 6 (Digraph.n_edges g);
  Alcotest.(check bool) "mem" true (Digraph.mem_edge g ~src:0 ~dst:1);
  Alcotest.(check bool) "not mem" false (Digraph.mem_edge g ~src:1 ~dst:0);
  Alcotest.check rat "cost" (q 1 2) (Digraph.cost g ~src:3 ~dst:4);
  Alcotest.(check (list int)) "succs 0" [ 1; 2 ] (Digraph.succs g 0);
  Alcotest.(check (list int)) "preds 3" [ 1; 2 ] (Digraph.preds g 3);
  Alcotest.(check int) "out degree" 2 (Digraph.out_degree g 0);
  Alcotest.(check int) "in degree" 2 (Digraph.in_degree g 3)

let test_digraph_errors () =
  let g = sample () in
  let inv f = Alcotest.(check bool) "raises" true (try f (); false with Invalid_argument _ -> true) in
  inv (fun () -> Digraph.add_edge g ~src:0 ~dst:1 ~cost:Rat.one);
  inv (fun () -> Digraph.add_edge g ~src:0 ~dst:0 ~cost:Rat.one);
  inv (fun () -> Digraph.add_edge g ~src:0 ~dst:9 ~cost:Rat.one);
  inv (fun () -> Digraph.add_edge g ~src:1 ~dst:0 ~cost:Rat.zero)

let test_digraph_set_cost () =
  let g = sample () in
  Digraph.set_cost g ~src:0 ~dst:1 ~cost:(q 7 2);
  Alcotest.check rat "updated" (q 7 2) (Digraph.cost g ~src:0 ~dst:1);
  Alcotest.check rat "via out_edges" (q 7 2)
    (List.find (fun (e : Digraph.edge) -> e.dst = 1) (Digraph.out_edges g 0)).cost;
  Alcotest.check rat "via in_edges" (q 7 2)
    (List.find (fun (e : Digraph.edge) -> e.src = 0) (Digraph.in_edges g 1)).cost

let test_digraph_restrict_reverse () =
  let g = sample () in
  let r = Digraph.restrict g ~keep:(fun v -> v <> 2) in
  Alcotest.(check int) "restricted edges" 4 (Digraph.n_edges r);
  Alcotest.(check bool) "edge dropped" false (Digraph.mem_edge r ~src:0 ~dst:2);
  let rev = Digraph.reverse g in
  Alcotest.(check int) "reverse edges" 6 (Digraph.n_edges rev);
  Alcotest.(check bool) "flipped" true (Digraph.mem_edge rev ~src:1 ~dst:0);
  Alcotest.check rat "flipped cost" (q 1 1) (Digraph.cost rev ~src:1 ~dst:0)

let test_bfs () =
  let g = sample () in
  let depth = Traversal.bfs_depth g 0 in
  Alcotest.(check (array int)) "depths" [| 0; 1; 1; 2; 3 |] depth;
  Alcotest.(check bool) "reaches all" true (Traversal.reaches_all g 0 [ 1; 2; 3; 4 ]);
  Alcotest.(check bool) "4 does not reach 0" false (Traversal.reaches_all g 4 [ 0 ])

let test_dijkstra () =
  let g = sample () in
  let r = Paths.dijkstra g ~sources:[ 0 ] in
  let d v = Option.get r.Paths.dist.(v) in
  Alcotest.check rat "dist 0" Rat.zero (d 0);
  Alcotest.check rat "dist 3" (q 2 1) (d 3);
  Alcotest.check rat "dist 4" (q 5 2) (d 4);
  Alcotest.(check (option (list int))) "path to 4" (Some [ 0; 1; 3; 4 ])
    (Paths.extract_path r 4)

let test_dijkstra_multi_source () =
  let g = sample () in
  let r = Paths.dijkstra g ~sources:[ 2; 4 ] in
  let d v = Option.get r.Paths.dist.(v) in
  Alcotest.check rat "dist 3 from 2" (q 1 1) (d 3);
  Alcotest.check rat "dist 1 from 4" (q 3 1) (d 1);
  Alcotest.(check bool) "0 unreachable" true (r.Paths.dist.(0) = None)

let test_minimax () =
  (* Two routes to 3: 0->1->3 with bottleneck 1 vs 0->2->3 bottleneck 2. *)
  let g = sample () in
  let r = Paths.minimax g ~cost:(fun e -> e.Digraph.cost) ~sources:[ 0 ] in
  Alcotest.check rat "bottleneck to 3" (q 1 1) (Option.get r.Paths.dist.(3));
  Alcotest.(check (option (list int))) "bottleneck path" (Some [ 0; 1; 3 ])
    (Paths.extract_path r 3);
  (* Additive distance would rank them equal; bottleneck prefers 1-1 route. *)
  Alcotest.check rat "bottleneck to 4" (q 1 1) (Option.get r.Paths.dist.(4))

let test_path_edges () =
  Alcotest.(check (list (pair int int))) "pairs" [ (1, 2); (2, 5) ] (Paths.path_edges [ 1; 2; 5 ]);
  Alcotest.(check (list (pair int int))) "single" [] (Paths.path_edges [ 3 ]);
  Alcotest.(check (list (pair int int))) "empty" [] (Paths.path_edges [])

let test_matching_simple () =
  let adj = [| [ 0; 1 ]; [ 0 ]; [ 1; 2 ] |] in
  let m = Bipartite.max_matching ~n_left:3 ~n_right:3 ~adj in
  Alcotest.(check int) "size" 3 m.Bipartite.size;
  Alcotest.(check bool) "perfect" true (Bipartite.is_perfect m ~n_left:3)

let test_matching_augmenting () =
  (* Greedy would match l0-r0 and block l1; augmentation must fix it. *)
  let adj = [| [ 0 ]; [ 0; 1 ] |] in
  let m = Bipartite.max_matching ~n_left:2 ~n_right:2 ~adj in
  Alcotest.(check int) "size" 2 m.Bipartite.size;
  Alcotest.(check int) "l0 -> r0" 0 m.Bipartite.pair_of_left.(0);
  Alcotest.(check int) "l1 -> r1" 1 m.Bipartite.pair_of_left.(1)

let test_matching_deficient () =
  let adj = [| [ 0 ]; [ 0 ]; [ 0 ] |] in
  let m = Bipartite.max_matching ~n_left:3 ~n_right:1 ~adj in
  Alcotest.(check int) "size" 1 m.Bipartite.size;
  Alcotest.(check bool) "not perfect" false (Bipartite.is_perfect m ~n_left:3)

let check_coloring name ~n_left ~n_right edges =
  let d = Edge_coloring.decompose ~n_left ~n_right edges in
  (match Edge_coloring.check ~n_left ~n_right edges d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: invalid decomposition: %s" name e);
  d

let test_coloring_single () =
  let d = check_coloring "single" ~n_left:2 ~n_right:2 [ (0, 1, 5) ] in
  Alcotest.(check int) "makespan" 5 d.Edge_coloring.makespan

let test_coloring_star () =
  (* One sender to three receivers: loads serialize on the out-port. *)
  let d = check_coloring "star" ~n_left:1 ~n_right:3 [ (0, 0, 2); (0, 1, 3); (0, 2, 4) ] in
  Alcotest.(check int) "makespan = out load" 9 d.Edge_coloring.makespan

let test_coloring_parallel () =
  (* Disjoint pairs can all run in parallel: makespan is the max, not sum. *)
  let d =
    check_coloring "parallel" ~n_left:3 ~n_right:3 [ (0, 0, 4); (1, 1, 2); (2, 2, 7) ]
  in
  Alcotest.(check int) "makespan = max load" 7 d.Edge_coloring.makespan

let test_coloring_doubly_stochastic () =
  (* A 3x3 "doubly stochastic" load: every row and column sums to 6. *)
  let edges =
    [ (0, 0, 1); (0, 1, 2); (0, 2, 3); (1, 0, 2); (1, 1, 3); (1, 2, 1); (2, 0, 3); (2, 1, 1); (2, 2, 2) ]
  in
  let d = check_coloring "birkhoff" ~n_left:3 ~n_right:3 edges in
  Alcotest.(check int) "makespan" 6 d.Edge_coloring.makespan

let test_coloring_duplicate_pairs () =
  let d = check_coloring "dups" ~n_left:2 ~n_right:2 [ (0, 0, 2); (0, 0, 3); (1, 1, 1) ] in
  Alcotest.(check int) "makespan merges duplicates" 5 d.Edge_coloring.makespan

let test_coloring_empty () =
  let d = check_coloring "empty" ~n_left:4 ~n_right:4 [] in
  Alcotest.(check int) "makespan" 0 d.Edge_coloring.makespan;
  Alcotest.(check int) "slots" 0 (List.length d.Edge_coloring.slots)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_dot_export () =
  let g = sample () in
  let dot = Dot.digraph ~highlight_nodes:[ 3 ] ~diamond_nodes:[ 0 ] g in
  Alcotest.(check bool) "mentions node" true (contains dot "n0 -> n1");
  Alcotest.(check bool) "highlights" true (contains dot "fillcolor")

(* --- properties --- *)

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let arb_edges =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun (a, b, w) -> Printf.sprintf "(%d,%d,%d)" a b w) l))
    QCheck.Gen.(
      list_size (int_range 0 25)
        (map3 (fun l r w -> (l, r, 1 + w)) (int_bound 5) (int_bound 5) (int_bound 20)))

let coloring_props =
  [
    prop "edge colouring is always valid" 100 arb_edges (fun edges ->
        let d = Edge_coloring.decompose ~n_left:6 ~n_right:6 edges in
        match Edge_coloring.check ~n_left:6 ~n_right:6 edges d with
        | Ok () -> true
        | Error e -> QCheck.Test.fail_report e);
    prop "slot count bounded by edges + nodes" 100 arb_edges (fun edges ->
        let d = Edge_coloring.decompose ~n_left:6 ~n_right:6 edges in
        List.length d.Edge_coloring.slots <= List.length edges + 13);
  ]

let arb_digraph =
  (* Random digraph on 8 nodes encoded as an edge list with costs 1..5. *)
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) l))
    QCheck.Gen.(
      map
        (fun pairs ->
          List.sort_uniq compare (List.filter (fun (a, b) -> a <> b) pairs))
        (list_size (int_range 0 30) (pair (int_bound 7) (int_bound 7))))

let build_graph pairs =
  let g = Digraph.create 8 in
  List.iter (fun (a, b) -> Digraph.add_edge g ~src:a ~dst:b ~cost:(Rat.of_int ((a + b) mod 4 + 1))) pairs;
  g

let graph_props =
  [
    prop "dijkstra satisfies triangle inequality on edges" 100 arb_digraph (fun pairs ->
        let g = build_graph pairs in
        let r = Paths.dijkstra g ~sources:[ 0 ] in
        Digraph.fold_edges
          (fun ok (e : Digraph.edge) ->
            ok
            &&
            match (r.Paths.dist.(e.src), r.Paths.dist.(e.dst)) with
            | Some du, Some dv -> Rat.(dv <= Rat.add du e.cost)
            | Some _, None -> false (* reachable tail implies reachable head *)
            | None, _ -> true)
          true g);
    prop "extracted paths have the computed length" 100 arb_digraph (fun pairs ->
        let g = build_graph pairs in
        let r = Paths.dijkstra g ~sources:[ 0 ] in
        List.for_all
          (fun v ->
            match Paths.extract_path r v with
            | None -> r.Paths.dist.(v) = None
            | Some nodes ->
              let len =
                List.fold_left
                  (fun acc (a, b) -> Rat.add acc (Digraph.cost g ~src:a ~dst:b))
                  Rat.zero (Paths.path_edges nodes)
              in
              Rat.equal len (Option.get r.Paths.dist.(v)))
          (List.init 8 Fun.id));
    prop "bfs reachability agrees with dijkstra" 100 arb_digraph (fun pairs ->
        let g = build_graph pairs in
        let r = Paths.dijkstra g ~sources:[ 0 ] in
        let reach = Traversal.reachable g 0 in
        List.for_all
          (fun v -> reach.(v) = (r.Paths.dist.(v) <> None))
          (List.init 8 Fun.id));
    prop "matching is valid and maximal-ish" 100 arb_digraph (fun pairs ->
        (* Interpret pairs as bipartite adjacency. *)
        let adj = Array.make 8 [] in
        List.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) pairs;
        let m = Bipartite.max_matching ~n_left:8 ~n_right:8 ~adj in
        let ok_consistent =
          Array.for_all
            (fun r -> r = -1 || m.Bipartite.pair_of_right.(r) >= 0)
            m.Bipartite.pair_of_left
        in
        (* No augmenting edge between two unmatched nodes may remain. *)
        let ok_maximal =
          List.for_all
            (fun (a, b) ->
              not (m.Bipartite.pair_of_left.(a) = -1 && m.Bipartite.pair_of_right.(b) = -1))
            pairs
        in
        ok_consistent && ok_maximal);
  ]

let suite =
  [
    ("digraph: basics", `Quick, test_digraph_basics);
    ("digraph: invalid inputs", `Quick, test_digraph_errors);
    ("digraph: set_cost", `Quick, test_digraph_set_cost);
    ("digraph: restrict/reverse", `Quick, test_digraph_restrict_reverse);
    ("traversal: bfs", `Quick, test_bfs);
    ("paths: dijkstra", `Quick, test_dijkstra);
    ("paths: multi-source", `Quick, test_dijkstra_multi_source);
    ("paths: minimax", `Quick, test_minimax);
    ("paths: path_edges", `Quick, test_path_edges);
    ("bipartite: simple", `Quick, test_matching_simple);
    ("bipartite: augmenting", `Quick, test_matching_augmenting);
    ("bipartite: deficient", `Quick, test_matching_deficient);
    ("coloring: single edge", `Quick, test_coloring_single);
    ("coloring: star", `Quick, test_coloring_star);
    ("coloring: parallel", `Quick, test_coloring_parallel);
    ("coloring: doubly stochastic", `Quick, test_coloring_doubly_stochastic);
    ("coloring: duplicate pairs", `Quick, test_coloring_duplicate_pairs);
    ("coloring: empty", `Quick, test_coloring_empty);
    ("dot: export", `Quick, test_dot_export);
  ]
  @ coloring_props @ graph_props
