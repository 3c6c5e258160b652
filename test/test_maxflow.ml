(* Tests for the Dinic max-flow substrate (the separation oracle of the
   cut-generation LB solver). *)

let feps = 1e-9

let solve ~n edges s t = Maxflow.solve ~n ~edges:(Array.of_list edges) ~s ~t ()

let test_single_edge () =
  let r = solve ~n:2 [ (0, 1, 3.5) ] 0 1 in
  Alcotest.(check (float feps)) "value" 3.5 r.Maxflow.value;
  Alcotest.(check bool) "cut separates" true
    (r.Maxflow.source_side.(0) && not r.Maxflow.source_side.(1))

let test_series_bottleneck () =
  let r = solve ~n:3 [ (0, 1, 5.0); (1, 2, 2.0) ] 0 2 in
  Alcotest.(check (float feps)) "bottleneck" 2.0 r.Maxflow.value

let test_parallel_paths () =
  let r = solve ~n:4 [ (0, 1, 1.0); (1, 3, 1.0); (0, 2, 2.0); (2, 3, 2.0) ] 0 3 in
  Alcotest.(check (float feps)) "sum of disjoint paths" 3.0 r.Maxflow.value

let test_classic_diamond () =
  (* The classic example where a naive augmenting order needs the residual
     back-edge. *)
  let edges = [ (0, 1, 1.0); (0, 2, 1.0); (1, 2, 1.0); (1, 3, 1.0); (2, 3, 1.0) ] in
  let r = solve ~n:4 edges 0 3 in
  Alcotest.(check (float feps)) "value 2" 2.0 r.Maxflow.value

let test_disconnected () =
  let r = solve ~n:3 [ (0, 1, 1.0) ] 0 2 in
  Alcotest.(check (float feps)) "no flow" 0.0 r.Maxflow.value;
  Alcotest.(check bool) "sink not reachable" true (not r.Maxflow.source_side.(2))

let test_limit () =
  let r =
    Maxflow.solve ~n:2 ~edges:[| (0, 1, 5.0) |] ~s:0 ~t:1 ~limit:2.0 ()
  in
  Alcotest.(check (float 1e-6)) "stops at the limit" 2.0 r.Maxflow.value;
  Alcotest.(check (float 1e-6)) "edge flow capped" 2.0 r.Maxflow.edge_flow.(0)

let test_capacity_count () =
  let net = Maxflow.create ~n:3 ~edges:[| (0, 1); (1, 2) |] in
  Alcotest.check_raises "one capacity per edge"
    (Invalid_argument "Maxflow.run: one capacity per edge") (fun () ->
      ignore (Maxflow.run net ~cap:[| 1.0 |] ~s:0 ~t:2 ()))

let test_min_cut_capacity () =
  (* Both returned cuts must have capacity equal to the flow value. *)
  let edges =
    [ (0, 1, 3.0); (0, 2, 2.0); (1, 3, 1.0); (2, 3, 4.0); (1, 2, 1.5); (3, 4, 3.5) ]
  in
  let r = solve ~n:5 edges 0 4 in
  let cap side reversed =
    List.fold_left
      (fun acc (u, v, c) ->
        let crosses = if reversed then (not side.(u)) && side.(v) else side.(u) && not side.(v) in
        if crosses then acc +. c else acc)
      0.0 edges
  in
  Alcotest.(check (float 1e-9)) "source-side cut tight" r.Maxflow.value
    (cap r.Maxflow.source_side false);
  Alcotest.(check (float 1e-9)) "sink-side cut tight" r.Maxflow.value
    (cap r.Maxflow.sink_side true)

let test_conservation () =
  let edges =
    [ (0, 1, 3.0); (0, 2, 2.0); (1, 3, 1.0); (2, 3, 4.0); (1, 2, 1.5) ]
  in
  let r = solve ~n:4 edges 0 3 in
  (* At node 1 and 2: inflow = outflow. *)
  let net v =
    List.fold_left
      (fun acc (i, (u, w, _)) ->
        let f = r.Maxflow.edge_flow.(i) in
        if w = v then acc +. f else if u = v then acc -. f else acc)
      0.0
      (List.mapi (fun i e -> (i, e)) edges)
  in
  Alcotest.(check (float 1e-9)) "conservation at 1" 0.0 (net 1);
  Alcotest.(check (float 1e-9)) "conservation at 2" 0.0 (net 2)

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let arb_net =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun (u, v, c) -> Printf.sprintf "(%d,%d,%.1f)" u v c) l))
    QCheck.Gen.(
      list_size (int_range 1 20)
        (map3
           (fun u v c -> (u, v, float_of_int (1 + c)))
           (int_bound 5) (int_bound 5) (int_bound 9)))

let maxflow_props =
  [
    prop "flow value equals min cut" 150 arb_net (fun edges ->
        let edges = List.filter (fun (u, v, _) -> u <> v) edges in
        QCheck.assume (edges <> []);
        let r = Maxflow.solve ~n:6 ~edges:(Array.of_list edges) ~s:0 ~t:5 () in
        let cut =
          List.fold_left
            (fun acc (u, v, c) ->
              if r.Maxflow.source_side.(u) && not r.Maxflow.source_side.(v) then acc +. c
              else acc)
            0.0 edges
        in
        abs_float (r.Maxflow.value -. cut) < 1e-6);
    (* One network run over several capacity sets, sinks and limits
       answers as a fresh one-shot solve each time: no run sees state a
       previous run left in the shared buffers. *)
    prop "reused network equals fresh solves" 100 arb_net (fun edges ->
        let edges = List.filter (fun (u, v, _) -> u <> v) edges in
        QCheck.assume (edges <> []);
        let arr = Array.of_list edges in
        let net = Maxflow.create ~n:6 ~edges:(Array.map (fun (u, v, _) -> (u, v)) arr) in
        List.for_all
          (fun (scale, t, limit) ->
            let cap = Array.mapi (fun i (_, _, c) -> c *. float_of_int (1 + ((i * scale) mod 3))) arr in
            let fresh =
              Maxflow.solve ~n:6 ~edges:(Array.mapi (fun i (u, v, _) -> (u, v, cap.(i))) arr)
                ~s:0 ~t ?limit ()
            in
            let value = Maxflow.run net ~cap ~s:0 ~t ?limit () in
            let src, snk = Maxflow.cut_sides net ~s:0 ~t in
            value = fresh.Maxflow.value
            && Array.for_all Fun.id
                 (Array.mapi (fun i f -> Maxflow.flow net i = f) fresh.Maxflow.edge_flow)
            && src = fresh.Maxflow.source_side
            && snk = fresh.Maxflow.sink_side)
          [ (1, 5, None); (2, 4, Some 2.0); (1, 5, None); (3, 3, None); (2, 5, Some 1.5) ]);
    prop "edge flows within capacity" 150 arb_net (fun edges ->
        let edges = List.filter (fun (u, v, _) -> u <> v) edges in
        QCheck.assume (edges <> []);
        let arr = Array.of_list edges in
        let r = Maxflow.solve ~n:6 ~edges:arr ~s:0 ~t:5 () in
        Array.for_all
          (fun i ->
            let _, _, c = arr.(i) in
            let f = r.Maxflow.edge_flow.(i) in
            f >= -1e-9 && f <= c +. 1e-9)
          (Array.init (Array.length arr) Fun.id));
  ]

let suite =
  [
    ("single edge", `Quick, test_single_edge);
    ("series bottleneck", `Quick, test_series_bottleneck);
    ("parallel paths", `Quick, test_parallel_paths);
    ("classic diamond", `Quick, test_classic_diamond);
    ("disconnected", `Quick, test_disconnected);
    ("flow limit", `Quick, test_limit);
    ("run: one capacity per edge", `Quick, test_capacity_count);
    ("min cut capacities", `Quick, test_min_cut_capacity);
    ("flow conservation", `Quick, test_conservation);
  ]
  @ maxflow_props
