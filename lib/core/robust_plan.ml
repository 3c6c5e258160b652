type failure =
  | Link of int * int
  | Node of int
  | Correlated of string * Repair.damage

let canonical_link u v = if u <= v then (u, v) else (v, u)

let single_failures (p : Platform.t) =
  let g = p.Platform.graph in
  let seen = Hashtbl.create 64 in
  let links =
    Digraph.fold_edges
      (fun acc e ->
        let key = canonical_link e.Digraph.src e.Digraph.dst in
        if Hashtbl.mem seen key then acc
        else begin
          Hashtbl.replace seen key ();
          Link (fst key, snd key) :: acc
        end)
      [] g
  in
  let nodes =
    List.filter_map
      (fun v ->
        if v = p.Platform.source then None
        else if p.Platform.targets = [ v ] then None
        else Some (Node v))
      (Platform.active_nodes p)
  in
  List.rev links @ nodes

let damage_of_failure (p : Platform.t) = function
  | Link (u, v) ->
    let g = p.Platform.graph in
    let dirs =
      List.filter (fun (a, b) -> Digraph.mem_edge g ~src:a ~dst:b) [ (u, v); (v, u) ]
    in
    Repair.damage ~dead_edges:dirs ()
  | Node v -> Repair.damage ~dead_nodes:[ v ] ()
  | Correlated (_, damage) -> damage

type scenario_score = {
  sc_failure : failure;
  sc_retention : float;
  sc_survivor_lb : float option;
}

type score = {
  nominal : float;
  worst_case : float;
  mean : float;
  scenario_scores : scenario_score list;
}

(* Does the tree still reach every surviving target once the dead edges and
   nodes are removed? BFS over the tree's own (surviving) edges. *)
let tree_survives tree ~source ~dead_edges ~dead_nodes ~targets =
  let node_dead v = List.mem v dead_nodes in
  let alive =
    List.filter
      (fun (u, v) ->
        (not (List.mem (u, v) dead_edges)) && (not (node_dead u)) && not (node_dead v))
      (Multicast_tree.edges tree)
  in
  let children = Hashtbl.create 16 in
  List.iter
    (fun (u, v) ->
      Hashtbl.replace children u (v :: Option.value ~default:[] (Hashtbl.find_opt children u)))
    alive;
  let reached = Hashtbl.create 16 in
  let rec visit v =
    if not (Hashtbl.mem reached v) then begin
      Hashtbl.replace reached v ();
      List.iter visit (Option.value ~default:[] (Hashtbl.find_opt children v))
    end
  in
  if not (node_dead source) then visit source;
  List.for_all (fun t -> Hashtbl.mem reached t) targets

let describe_failure (p : Platform.t) = function
  | Link (u, v) ->
    Printf.sprintf "link %s<->%s"
      (Digraph.label p.Platform.graph u)
      (Digraph.label p.Platform.graph v)
  | Node v -> Printf.sprintf "node %s" (Digraph.label p.Platform.graph v)
  | Correlated (label, _) -> Printf.sprintf "correlated %s" label

(* The survivor of a failure depends only on the platform and the failure —
   not on the candidate schedule being scored. The planner scores many
   candidates against the same failure list, so survivors are prepared once
   ({!prepare}) and shared across all of them; [apply_damage] copies the
   whole graph, which made it the dominant cost of candidate scoring. *)
type prepared_failure = {
  pf_failure : failure;
  pf_damage : Repair.damage;
  pf_survivor : (Platform.t, string) result;
}

let prepare ?jobs (p : Platform.t) failures =
  Pool.map ?jobs
    (fun f ->
      let damage = damage_of_failure p f in
      { pf_failure = f; pf_damage = damage; pf_survivor = Repair.apply_damage p damage })
    failures

let score_prepared ?(with_lb = false) ?jobs (p : Platform.t) (sched : Schedule.t)
    ~prepared =
  let nominal = Rat.to_float sched.Schedule.throughput in
  let weights =
    Array.map
      (fun m -> Rat.div (Rat.of_int m) sched.Schedule.period)
      sched.Schedule.per_tree_messages
  in
  (* Nominal LB basis for warm-starting the survivor solves below.
     Fetched once, sequentially, before the Pool.map: it is a
     deterministic function of [p] (so cached and uncached runs see the
     same seed — the bit-identity the bench asserts), and sharing one
     array across domains is safe because solvers only read it. *)
  let warm = if with_lb then Lp_cache.multicast_lb_basis ~caller:"robust_plan" p else None in
  let one { pf_failure = f; pf_damage = damage; pf_survivor } =
    Trace.with_span ~cat:"robust" "robust.scenario"
      ~args:[ ("failure", Trace.Str (describe_failure p f)) ]
      ~result:(fun s -> [ ("retention", Trace.Float s.sc_retention) ])
    @@ fun () ->
    match pf_survivor with
    | Error _ -> { sc_failure = f; sc_retention = 0.0; sc_survivor_lb = None }
    | Ok survivor ->
      let retained = ref Rat.zero in
      Array.iteri
        (fun k tree ->
          if
            tree_survives tree ~source:p.Platform.source
              ~dead_edges:damage.Repair.dead_edges ~dead_nodes:damage.Repair.dead_nodes
              ~targets:survivor.Platform.targets
          then retained := Rat.add !retained weights.(k))
        sched.Schedule.trees;
      let sc_retention =
        if nominal <= 0.0 then 0.0 else Rat.to_float !retained /. nominal
      in
      let sc_survivor_lb =
        if with_lb then
          Option.map
            (fun (s : Formulations.solution) -> s.Formulations.throughput)
            (Lp_cache.multicast_lb ~caller:"robust_plan" ?warm survivor)
        else None
      in
      { sc_failure = f; sc_retention; sc_survivor_lb }
  in
  (* Scenarios are independent; Pool.map keeps them in input order so the
     result is identical for every job count. *)
  let scenario_scores = Pool.map ?jobs one prepared in
  let worst_case =
    List.fold_left (fun acc s -> min acc s.sc_retention) 1.0 scenario_scores
  in
  let mean =
    match scenario_scores with
    | [] -> 1.0
    | ss ->
      List.fold_left (fun acc s -> acc +. s.sc_retention) 0.0 ss
      /. float_of_int (List.length ss)
  in
  { nominal; worst_case; mean; scenario_scores }

let score ?with_lb (p : Platform.t) (sched : Schedule.t) ~failures =
  score_prepared ?with_lb p sched ~prepared:(prepare p failures)

type candidate = {
  label : string;
  set : Tree_set.t;
  schedule : Schedule.t;
  cand_score : score;
}

type report = {
  nominal_plan : candidate;
  chosen : candidate;
  pareto : candidate list;
  critical_edges : (int * int) list;
  failures : failure list;
  total_failures : int;
  sampled : bool;
  loss_bound : float;
}

(* --- candidate tree construction ------------------------------------- *)

let sorted_edges t = List.sort compare (Multicast_tree.edges t)

(* Re-run MCPH with the given links' costs (both directions) inflated by
   [factor]; rebuild the resulting tree on the original platform so its
   period and occupations use the true costs. *)
let penalized_mcph (p : Platform.t) links factor =
  let g = Digraph.copy p.Platform.graph in
  List.iter
    (fun (u, v) ->
      List.iter
        (fun (a, b) ->
          match Digraph.find_edge_opt g ~src:a ~dst:b with
          | Some e ->
            Digraph.set_cost g ~src:a ~dst:b ~cost:(Rat.mul e.Digraph.cost factor)
          | None -> ())
        [ (u, v); (v, u) ])
    links;
  let fresh =
    Platform.make ~kinds:p.Platform.kinds g ~source:p.Platform.source
      ~targets:p.Platform.targets
  in
  let fresh = Platform.restrict fresh ~keep:(Platform.is_active p) in
  match Mcph.run fresh with
  | None -> None
  | Some r -> (
    match Multicast_tree.of_edges p (Multicast_tree.edges r.Mcph.tree) with
    | Ok t -> Some t
    | Error _ -> None)

(* Redundant-sibling variants: re-attach the child of a tree edge to an
   alternative in-tree parent outside its own subtree. Each variant differs
   from the baseline in exactly one edge, so a pairing with the baseline
   survives the original edge's failure. *)
let graft_variants (p : Platform.t) tree ~edges_to_vary ~max_parents_per_edge =
  let edges = Multicast_tree.edges tree in
  let members = p.Platform.source :: List.map snd edges in
  let children = Hashtbl.create 16 in
  List.iter
    (fun (u, v) ->
      Hashtbl.replace children u (v :: Option.value ~default:[] (Hashtbl.find_opt children u)))
    edges;
  let subtree v =
    let acc = Hashtbl.create 8 in
    let rec go v =
      if not (Hashtbl.mem acc v) then begin
        Hashtbl.replace acc v ();
        List.iter go (Option.value ~default:[] (Hashtbl.find_opt children v))
      end
    in
    go v;
    acc
  in
  List.concat_map
    (fun (u, v) ->
      let sub = subtree v in
      let alternatives =
        List.filter
          (fun u' ->
            u' <> u && List.mem u' members && not (Hashtbl.mem sub u')
            && Digraph.mem_edge p.Platform.graph ~src:u' ~dst:v)
          (Digraph.preds p.Platform.graph v)
      in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      List.filter_map
        (fun u' ->
          let edges' = (u', v) :: List.filter (fun e -> e <> (u, v)) edges in
          match Multicast_tree.of_edges p edges' with Ok t -> Some t | Error _ -> None)
        (take max_parents_per_edge alternatives))
    edges_to_vary

(* Largest uniform weight making the set feasible: scale [1,...,1] by the
   inverse of the worst port occupation. *)
let balanced_set trees =
  let base = Tree_set.make (List.map (fun t -> (t, Rat.one)) trees) in
  let max_occ = Tree_set.worst_occupation base in
  if Rat.is_zero max_occ then None else Some (Tree_set.scale base (Rat.inv max_occ))

let plans = Metrics.counter "robust.plans"

let plan ?(loss_bound = 0.1) ?(max_scenarios = 64) ?(seed = 0)
    ?(with_lb = false) ?(extra_failures = []) ?jobs (p : Platform.t) =
  Metrics.incr plans;
  Trace.with_span ~cat:"robust" "robust.plan"
    ~args:[ ("nodes", Trace.Int (Platform.n_nodes p)) ]
    ~result:(function
      | Error e -> [ ("error", Trace.Str e) ]
      | Ok r ->
        [
          ("chosen", Trace.Str r.chosen.label);
          ("scenarios", Trace.Int (List.length r.failures));
          ("worst_case", Trace.Float r.chosen.cand_score.worst_case);
        ])
  @@ fun () ->
  (* A negative (or NaN) bound leaves no candidate eligible. *)
  if not (loss_bound >= 0.0) then
    Error (Printf.sprintf "robust plan: loss bound %g must be >= 0" loss_bound)
  else
  match Mcph.run p with
  | None -> Error "robust plan: some target is unreachable"
  | Some r ->
    let t0 = r.Mcph.tree in
    let all_failures = single_failures p in
    let total_singles = List.length all_failures in
    let total_failures = total_singles + List.length extra_failures in
    let sampled = total_singles > max_scenarios in
    (* The sampling cap applies to the enumerated single failures only: the
       caller's correlated storms are few and explicitly chosen, so they are
       always scored. *)
    let failures =
      (if sampled then
         Generators.sample_without_replacement
           (Random.State.make [| seed; 7919 |])
           max_scenarios all_failures
       else all_failures)
      @ extra_failures
    in
    (* One prepared survivor list shared by every candidate scoring pass
       below (including the with_lb rescore). *)
    let prepared = prepare ?jobs p failures in
    let mk_candidate label set =
      Trace.with_span ~cat:"robust" "robust.candidate"
        ~args:[ ("label", Trace.Str label) ]
        ~result:(function
          | None -> [ ("outcome", Trace.Str "unschedulable") ]
          | Some c ->
            [
              ("nominal", Trace.Float c.cand_score.nominal);
              ("worst_case", Trace.Float c.cand_score.worst_case);
            ])
      @@ fun () ->
      match Schedule.of_tree_set set with
      | exception Invalid_argument _ -> None
      | schedule -> (
        match Schedule.check schedule with
        | Error _ -> None
        | Ok () ->
          Some { label; set; schedule; cand_score = score_prepared ?jobs p schedule ~prepared })
    in
    let nominal_set = Tree_set.make [ (t0, Multicast_tree.throughput t0) ] in
    (match mk_candidate "mcph" nominal_set with
    | None -> Error "robust plan: the MCPH tree does not schedule"
    | Some nominal_plan ->
      (* Links whose failure realizes the baseline's worst case: these are
         what the perturbations steer away from. *)
      let critical_edges =
        List.filter_map
          (fun s ->
            match s.sc_failure with
            | Link (u, v)
              when s.sc_retention <= nominal_plan.cand_score.worst_case +. 1e-9 ->
              Some (u, v)
            | _ -> None)
          nominal_plan.cand_score.scenario_scores
      in
      let tree_edges = Multicast_tree.edges t0 in
      let critical_tree_edges =
        match
          List.filter
            (fun (u, v) -> List.mem (canonical_link u v) (List.map (fun (a, b) -> canonical_link a b) critical_edges))
            tree_edges
        with
        | [] -> tree_edges
        | es -> es
      in
      (* Alternative trees: penalty-reweighted MCPH runs + sibling grafts.
         The (factor, links) runs are independent deterministic searches;
         mapping them through the pool keeps their order, so the candidate
         list (and hence labels and the report) is the same for any job
         count. *)
      let penalty_trees =
        List.filter_map Fun.id
          (Pool.map ?jobs
             (fun (f, links) -> penalized_mcph p links (Rat.of_int f))
             (List.concat_map
                (fun f -> [ (f, critical_tree_edges); (f, tree_edges) ])
                [ 4; 16 ]))
      in
      let grafts =
        graft_variants p t0 ~edges_to_vary:critical_tree_edges ~max_parents_per_edge:2
      in
      let base_key = sorted_edges t0 in
      let alts =
        let seen = Hashtbl.create 8 in
        Hashtbl.replace seen base_key ();
        List.filter
          (fun t ->
            let key = sorted_edges t in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.replace seen key ();
              true
            end)
          (penalty_trees @ grafts)
      in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      let alts = take 6 alts in
      let pair_candidates =
        List.concat
          (List.mapi
             (fun i ti ->
               let opt =
                 match Tree_set.best_weights [ t0; ti ] with
                 | set -> mk_candidate (Printf.sprintf "pair-opt-%d" i) set
                 | exception Invalid_argument _ -> None
               in
               let bal =
                 match balanced_set [ t0; ti ] with
                 | Some set -> mk_candidate (Printf.sprintf "pair-bal-%d" i) set
                 | None -> None
               in
               List.filter_map Fun.id [ opt; bal ])
             alts)
      in
      let portfolio_candidates =
        if alts = [] then []
        else
          let all = t0 :: take 4 alts in
          let opt =
            match Tree_set.best_weights all with
            | set -> mk_candidate "portfolio-opt" set
            | exception Invalid_argument _ -> None
          in
          let bal =
            match balanced_set all with
            | Some set -> mk_candidate "portfolio-bal" set
            | None -> None
          in
          List.filter_map Fun.id [ opt; bal ]
      in
      let candidates = nominal_plan :: (pair_candidates @ portfolio_candidates) in
      let best_nominal =
        List.fold_left (fun acc c -> max acc c.cand_score.nominal) 0.0 candidates
      in
      let eligible =
        List.filter
          (fun c -> c.cand_score.nominal >= ((1.0 -. loss_bound) *. best_nominal) -. 1e-12)
          candidates
      in
      let better a b =
        (* lexicographic: worst-case retention, mean retention, nominal *)
        let ka = (a.cand_score.worst_case, a.cand_score.mean, a.cand_score.nominal) in
        let kb = (b.cand_score.worst_case, b.cand_score.mean, b.cand_score.nominal) in
        compare ka kb > 0
      in
      let chosen =
        List.fold_left
          (fun acc c -> if better c acc then c else acc)
          (List.hd eligible) (List.tl eligible)
      in
      let dominated c =
        List.exists
          (fun c' ->
            c' != c
            && c'.cand_score.nominal >= c.cand_score.nominal -. 1e-12
            && c'.cand_score.worst_case >= c.cand_score.worst_case -. 1e-12
            && (c'.cand_score.nominal > c.cand_score.nominal +. 1e-12
               || c'.cand_score.worst_case > c.cand_score.worst_case +. 1e-12))
          candidates
      in
      let pareto =
        List.sort
          (fun a b -> compare b.cand_score.nominal a.cand_score.nominal)
          (List.filter (fun c -> not (dominated c)) candidates)
      in
      let rescore c =
        if with_lb then
          { c with cand_score = score_prepared ~with_lb:true ?jobs p c.schedule ~prepared }
        else c
      in
      Ok
        {
          nominal_plan = rescore nominal_plan;
          chosen = rescore chosen;
          pareto;
          critical_edges;
          failures;
          total_failures;
          sampled;
          loss_bound;
        })

let pp_report fmt r =
  let pr c =
    Format.fprintf fmt "  %-14s nominal %8.4f  worst-case %6.1f%%  mean %6.1f%%@,"
      c.label c.cand_score.nominal
      (100. *. c.cand_score.worst_case)
      (100. *. c.cand_score.mean)
  in
  Format.fprintf fmt "@[<v>robust plan over %d/%d single-failure scenarios%s:@,"
    (List.length r.failures) r.total_failures
    (if r.sampled then " (sampled; cap hit)" else "");
  Format.fprintf fmt "  loss bound: %.0f%% of best nominal@," (100. *. r.loss_bound);
  pr r.nominal_plan;
  pr r.chosen;
  Format.fprintf fmt "  critical links of the nominal plan: %d@,"
    (List.length r.critical_edges);
  Format.fprintf fmt "  pareto front (%d):@," (List.length r.pareto);
  List.iter pr r.pareto;
  Format.fprintf fmt "@]"
