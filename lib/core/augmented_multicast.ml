type result = {
  period : float;
  throughput : float;
  kept : int list;
  solution : Formulations.solution;
}

let restrict (p : Platform.t) kept = Platform.restrict p ~keep:(fun v -> List.mem v kept)

let run ?max_tries_per_round (p : Platform.t) =
  match Formulations.multicast_lb p with
  | None -> None
  | Some lb ->
    let inflow = lb.Formulations.node_inflow in
    (* Outside nodes, largest contribution to target flow in the
       full-platform Multicast-LB first (Fig. 7 line 4). *)
    let candidates kept _ =
      List.sort
        (fun a b -> compare inflow.(b) inflow.(a))
        (List.filter (fun v -> not (List.mem v kept)) (Platform.active_nodes p))
    in
    Refine.greedy ?max_tries_per_round ~candidates
      ~step:(fun kept m -> m :: kept)
      ~solve:(fun kept -> Formulations.broadcast_eb (restrict p kept))
      (p.Platform.source :: p.Platform.targets)
    |> Option.map (fun (kept, (solution : Formulations.solution)) ->
           {
             period = solution.period;
             throughput = solution.throughput;
             kept = List.sort compare kept;
             solution;
           })

let to_schedule (p : Platform.t) r =
  Arborescence_packing.schedule_of_broadcast (restrict p r.kept) r.solution
