type result = Augmented_multicast.result = {
  period : float;
  throughput : float;
  kept : int list;
  solution : Formulations.solution;
}

let run ?max_tries_per_round (p : Platform.t) =
  (* Removable nodes (neither source nor target), least contribution to
     the incumbent's target inflow first. *)
  let candidates cur = function
    | None -> []
    | Some (best : Formulations.solution) ->
      List.sort
        (fun a b -> compare best.node_inflow.(a) best.node_inflow.(b))
        (Platform.intermediates cur)
  in
  (* The state is the platform built by successive [remove_node]s, not a
     one-shot restrict to the same nodes: that would order the LP's
     columns differently. *)
  Refine.greedy ?max_tries_per_round ~candidates ~step:Platform.remove_node
    ~solve:Formulations.broadcast_eb p
  |> Option.map (fun ((final : Platform.t), (solution : Formulations.solution)) ->
         let g = final.graph in
         let kept =
           List.filter
             (fun v ->
               v = final.source || Digraph.out_degree g v > 0 || Digraph.in_degree g v > 0)
             (List.init (Platform.n_nodes final) Fun.id)
         in
         { period = solution.period; throughput = solution.throughput; kept; solution })
