type result = {
  period : float;
  throughput : float;
  sources : int list;
  solution : Formulations.solution;
}

let run ?(max_sources = 4) ?max_tries_per_round (p : Platform.t) =
  (* Outside nodes, largest contribution to the incumbent's target inflow
     first; none once [max_sources] sources are in. *)
  let candidates sources = function
    | Some (best : Formulations.solution) when List.length sources < max_sources ->
      List.sort
        (fun a b -> compare best.node_inflow.(b) best.node_inflow.(a))
        (List.filter (fun v -> not (List.mem v sources)) (Platform.active_nodes p))
    | Some _ | None -> []
  in
  Refine.greedy ?max_tries_per_round ~candidates
    ~step:(fun sources m -> sources @ [ m ])
    ~solve:(fun sources -> Formulations.multisource_ub p ~sources)
    [ p.Platform.source ]
  |> Option.map (fun (sources, (solution : Formulations.solution)) ->
         { period = solution.period; throughput = solution.throughput; sources; solution })
