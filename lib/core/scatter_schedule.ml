let of_solution (p : Platform.t) (sol : Formulations.solution) =
  (* One single-destination platform view per (origin, dest) commodity;
     chains become trees rooted at the commodity's origin. *)
  let chains = ref [] in
  let lost = ref 0.0 in
  List.iter
    (fun ((_, dest), flows) ->
      (* Sources are inferred from the flow divergence: the aggregated
         multi-source commodities carry injections at several nodes. *)
      let paths = Flow_decompose.decompose_to ~dest flows in
      List.iter
        (fun (path : Flow_decompose.path) ->
          (* Common 1/720 grid: see Arborescence_packing on why a shared
             denominator matters for the schedule period. *)
          let w =
            Rat.of_ints
              (int_of_float (Float.round (path.Flow_decompose.weight *. 720.0)))
              720
          in
          let origin = List.hd path.Flow_decompose.nodes in
          if Rat.(w > zero) then begin
            let view =
              Platform.make ~kinds:p.Platform.kinds p.Platform.graph ~source:origin
                ~targets:[ dest ]
            in
            match Multicast_tree.of_edges view (Paths.path_edges path.Flow_decompose.nodes) with
            | Ok tree -> chains := (tree, w) :: !chains
            | Error e -> failwith ("Scatter_schedule: invalid chain: " ^ e)
          end
          else lost := !lost +. path.Flow_decompose.weight)
        paths)
    sol.Formulations.commodity_flows;
  if !chains = [] then Error "scatter schedule: no chain survived rounding"
  else begin
    try
      let set = Tree_set.make !chains in
      (* Rounding can push a port above one time unit; rescale. *)
      let worst = Tree_set.worst_occupation set in
      let set = if Rat.(worst > one) then Tree_set.scale set (Rat.inv worst) else set in
      Ok (Schedule.of_tree_set set)
    with Invalid_argument e -> Error e
  end

let message_rate (sched : Schedule.t) = sched.Schedule.throughput
