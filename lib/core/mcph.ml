type result = {
  tree : Multicast_tree.t;
  period : Rat.t;
  throughput : Rat.t;
}

let runs = Metrics.counter "mcph.runs"

type residual = {
  graph : Digraph.t;
  costs : (int * int, Rat.t) Hashtbl.t;
}

let residual g =
  let costs = Hashtbl.create 64 in
  Digraph.iter_edges (fun e -> Hashtbl.replace costs (e.Digraph.src, e.Digraph.dst) e.Digraph.cost) g;
  { graph = g; costs }

let residual_cost r (e : Digraph.edge) = Hashtbl.find r.costs (e.Digraph.src, e.Digraph.dst)

(* Fig. 9 lines 11-13: out-edges of the sender inherit the cost of the
   committed edge, which then becomes free. *)
let commit r (u, v) =
  let committed = Hashtbl.find r.costs (u, v) in
  if not (Rat.is_zero committed) then begin
    List.iter
      (fun (e : Digraph.edge) ->
        if e.Digraph.dst <> v then
          Hashtbl.replace r.costs
            (u, e.Digraph.dst)
            (Rat.add (Hashtbl.find r.costs (u, e.Digraph.dst)) committed))
      (Digraph.out_edges r.graph u);
    Hashtbl.replace r.costs (u, v) Rat.zero
  end

(* Direct transcription of Fig. 9; the tree is a growing set of (parent,
   child) edges rooted at the source. *)
let run_impl (p : Platform.t) =
  let g = p.Platform.graph in
  let residual = residual g in
  let in_tree = Array.make (Platform.n_nodes p) false in
  in_tree.(p.Platform.source) <- true;
  let tree_edges = ref [] in
  let commit_path path_nodes =
    let edges = Paths.path_edges path_nodes in
    List.iter
      (fun (u, v) ->
        if not in_tree.(v) then begin
          tree_edges := (u, v) :: !tree_edges;
          in_tree.(v) <- true
        end)
      edges;
    List.iter (commit residual) edges
  in
  let rec grow remaining =
    match remaining with
    | [] ->
      let tree = Multicast_tree.of_edges_exn p !tree_edges in
      let period = Multicast_tree.period tree in
      Some { tree; period; throughput = Rat.inv period }
    | _ ->
      let tree_nodes =
        List.filter (fun v -> in_tree.(v)) (List.init (Platform.n_nodes p) Fun.id)
      in
      (* Bottleneck path from the current tree under residual costs. *)
      let r = Paths.minimax g ~cost:(residual_cost residual) ~sources:tree_nodes in
      let best =
        List.fold_left
          (fun acc t ->
            match r.Paths.dist.(t) with
            | None -> acc
            | Some d -> (
              match acc with
              | Some (_, bd) when Rat.(bd <= d) -> acc
              | _ -> Some (t, d)))
          None remaining
      in
      (match best with
      | None -> None
      | Some (t, _) ->
        commit_path (Option.get (Paths.extract_path r t));
        grow (List.filter (fun x -> x <> t) remaining))
  in
  grow (List.filter (fun t -> not in_tree.(t)) p.Platform.targets)

let run (p : Platform.t) =
  Metrics.incr runs;
  Trace.with_span ~cat:"heuristic" "mcph.run"
    ~result:(fun r ->
      ("nodes", Trace.Int (Platform.n_nodes p))
      :: ("targets", Trace.Int (List.length p.Platform.targets))
      ::
      (match r with
      | None -> [ ("outcome", Trace.Str "unreachable") ]
      | Some r ->
        [
          ("period", Trace.Float (Rat.to_float r.period));
          ("tree_edges", Trace.Int (List.length (Multicast_tree.edges r.tree)));
        ]))
    (fun () -> run_impl p)
