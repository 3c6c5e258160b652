type damage = {
  dead_edges : (int * int) list;
  dead_nodes : int list;
  degraded : ((int * int) * Rat.t) list;
}

(* Every damage value is built here, in canonical form: the dead sets
   sorted without duplicates, and one degradation entry per edge, sorted by
   edge, carrying the net factor (the product of the edge's factors, as
   apply_damage composes them), with net factors of exactly one dropped.
   The soak controller and the session engine compare damage across epochs
   to decide whether anything changed, and their damage is assembled from
   unordered scans, so equal states must have one representation. *)
let damage ?(dead_edges = []) ?(dead_nodes = []) ?(degraded = []) () =
  let by_edge = List.stable_sort (fun (a, _) (b, _) -> compare a b) degraded in
  let net =
    List.fold_left
      (fun acc (e, f) ->
        match acc with
        | (e', f') :: rest when e' = e -> (e, Rat.mul f' f) :: rest
        | _ -> (e, f) :: acc)
      [] by_edge
  in
  {
    dead_edges = List.sort_uniq compare dead_edges;
    dead_nodes = List.sort_uniq compare dead_nodes;
    degraded = List.rev (List.filter (fun (_, f) -> not (Rat.equal f Rat.one)) net);
  }

let no_damage = damage ()

let compare_damage a b =
  let factor ((e : int * int), f) (e', f') =
    match compare e e' with 0 -> Rat.compare f f' | c -> c
  in
  match compare a.dead_edges b.dead_edges with
  | 0 -> (
    match compare a.dead_nodes b.dead_nodes with
    | 0 -> List.compare factor a.degraded b.degraded
    | c -> c)
  | c -> c

let damage_equal a b = compare_damage a b = 0

type repair_method = [ `Full_replan | `Patched | `Fell_back of string ]

type report = {
  survivor : Platform.t;
  schedule : Schedule.t;
  baseline : [ `Given | `Fresh_mcph ];
  repair_method : repair_method;
  throughput_before : float;
  throughput_after : float;
  retention : float;
  replan_seconds : float;
  refill_periods : int;
  lost_targets : int list;
}

let apply_damage (p : Platform.t) damage =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let g = p.Platform.graph in
  let n = Digraph.n_nodes g in
  let missing =
    List.find_opt (fun (u, v) -> not (Digraph.mem_edge g ~src:u ~dst:v)) damage.dead_edges
  in
  let missing_deg =
    List.find_opt
      (fun ((u, v), _) -> not (Digraph.mem_edge g ~src:u ~dst:v))
      damage.degraded
  in
  match (missing, missing_deg) with
  | Some (u, v), _ -> err "cannot kill edge %d->%d: platform has no such edge" u v
  | _, Some ((u, v), _) -> err "cannot degrade edge %d->%d: platform has no such edge" u v
  | None, None ->
    if List.exists (fun ((_, _), f) -> Rat.(f < one)) damage.degraded then
      Error "degradation factors must be >= 1 (slowdowns, not speedups)"
    else if List.mem p.Platform.source damage.dead_nodes then
      Error "unrecoverable: the source node failed"
    else if List.exists (fun v -> v < 0 || v >= n) damage.dead_nodes then
      Error "dead node out of range"
    else begin
      let dead_edge = Hashtbl.create 16 in
      List.iter (fun e -> Hashtbl.replace dead_edge e ()) damage.dead_edges;
      let factor = Hashtbl.create 16 in
      List.iter (fun (e, f) -> Hashtbl.replace factor e f) damage.degraded;
      let g' = Digraph.create n in
      for v = 0 to n - 1 do
        Digraph.set_label g' v (Digraph.label g v)
      done;
      Digraph.iter_edges
        (fun e ->
          let key = (e.Digraph.src, e.Digraph.dst) in
          if not (Hashtbl.mem dead_edge key) then begin
            let f = Option.value ~default:Rat.one (Hashtbl.find_opt factor key) in
            Digraph.add_edge g' ~src:e.Digraph.src ~dst:e.Digraph.dst
              ~cost:(Rat.mul e.Digraph.cost f)
          end)
        g;
      let surviving_targets =
        List.filter (fun t -> not (List.mem t damage.dead_nodes)) p.Platform.targets
      in
      if surviving_targets = [] then Error "unrecoverable: every target failed"
      else begin
        try
          let fresh =
            Platform.make ~kinds:p.Platform.kinds g' ~source:p.Platform.source
              ~targets:surviving_targets
          in
          Ok
            (Platform.restrict fresh ~keep:(fun v ->
                 Platform.is_active p v && not (List.mem v damage.dead_nodes)))
        with Invalid_argument m -> Error m
      end
    end

let survivor p damage =
  match apply_damage p damage with
  | Ok survivor when not (Platform.is_feasible survivor) ->
    Error "unrecoverable: a surviving target is unreachable from the source"
  | r -> r

let lost_targets (p : Platform.t) damage =
  List.filter (fun t -> List.mem t damage.dead_nodes) p.Platform.targets

let plans = Metrics.counter "repair.plans"

let plan ?(now = Unix.gettimeofday) ?before (p : Platform.t) damage =
  Metrics.incr plans;
  Trace.with_span ~cat:"repair" "repair.plan"
    ~result:(function
      | Ok r ->
        [ ("retention", Trace.Float r.retention); ("refill_periods", Trace.Int r.refill_periods) ]
      | Error e -> [ ("error", Trace.Str e) ])
  @@ fun () ->
  match survivor p damage with
  | Error e -> Error e
  | Ok survivor ->
    let baseline, throughput_before =
      match before with
      | Some s -> (`Given, Rat.to_float s.Schedule.throughput)
      | None -> (
        `Fresh_mcph,
        match Mcph.run p with
        | None -> nan
        | Some r -> Rat.to_float (Rat.inv r.Mcph.period))
    in
    let t0 = now () in
    match Mcph.run survivor with
    | None -> Error "unrecoverable: no multicast tree on the surviving platform"
    | Some r ->
      let set = Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ] in
      let schedule = Schedule.of_tree_set set in
      let replan_seconds = now () -. t0 in
      let throughput_after = Rat.to_float schedule.Schedule.throughput in
      Ok
        {
          survivor;
          schedule;
          baseline;
          repair_method = `Full_replan;
          throughput_before;
          throughput_after;
          retention = throughput_after /. throughput_before;
          replan_seconds;
          refill_periods = Schedule.init_periods schedule;
          lost_targets = lost_targets p damage;
        }

(* --- incremental repair ------------------------------------------------- *)

let patched_plans = Metrics.counter "repair.patched"
let fallback_plans = Metrics.counter "repair.fallback"

exception Patch_failed of string

let patch_failed fmt = Printf.ksprintf (fun m -> raise (Patch_failed m)) fmt

(* Patch one tree of the running set onto the survivor platform. The
   surviving fraction of the tree is kept verbatim; every orphaned fragment
   (a maximal subtree cut off by the damage) is re-attached through the
   cheapest bottleneck path under MCPH's re-metric: committed tree edges are
   free and the remaining out-edges of a sending node carry its committed
   load, so attachments prefer lightly-loaded relays (Fig. 9 lines 11-13,
   replayed over the surviving edges instead of grown from scratch). Cost is
   one bottleneck search per fragment — O(damage), not O(targets). *)
let patch_tree ~(survivor : Platform.t) (tree : Multicast_tree.t) =
  let g = survivor.Platform.graph in
  let n = Platform.n_nodes survivor in
  let source = survivor.Platform.source in
  let alive v = Platform.is_active survivor v in
  let edge_alive (u, v) = alive u && alive v && Digraph.mem_edge g ~src:u ~dst:v in
  let orig_edges = Multicast_tree.edges tree in
  let was_tree_node = Array.make n false in
  if source < n then was_tree_node.(source) <- true;
  List.iter (fun (_, v) -> if v < n then was_tree_node.(v) <- true) orig_edges;
  let surviving = List.filter edge_alive orig_edges in
  let children = Array.make n [] in
  List.iter (fun (u, v) -> children.(u) <- v :: children.(u)) surviving;
  Array.iteri (fun u cs -> children.(u) <- List.sort compare cs) children;
  let residual = Mcph.residual g in
  let in_tree = Array.make n false in
  let tree_edges = ref [] in
  (* Absorb the surviving subtree hanging below [root]: keep its edges,
     commit them into the re-metric. *)
  let absorb root =
    in_tree.(root) <- true;
    let q = Queue.create () in
    Queue.add root q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if not in_tree.(v) then begin
            in_tree.(v) <- true;
            tree_edges := (u, v) :: !tree_edges;
            Mcph.commit residual (u, v);
            Queue.add v q
          end)
        children.(u)
    done
  in
  absorb source;
  (* Fragment roots: former tree nodes that lost their parent link and are
     not reachable from the source along surviving edges. Nodes whose parent
     link survived belong to their parent's fragment. *)
  let parent = Hashtbl.create 16 in
  List.iter (fun (u, v) -> Hashtbl.replace parent v u) orig_edges;
  let fragment_roots =
    List.sort_uniq compare
      (List.filter_map
         (fun (_, v) ->
           if (not (alive v)) || in_tree.(v) then None
           else
             match Hashtbl.find_opt parent v with
             | Some u when edge_alive (u, v) -> None
             | _ -> Some v)
         orig_edges)
  in
  (* Members of the fragment below [r] (surviving edges only). *)
  let fragment_members r =
    let seen = Hashtbl.create 8 in
    let rec go v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v ();
        List.iter go children.(v)
      end
    in
    go r;
    seen
  in
  let is_target v = List.mem v survivor.Platform.targets in
  let needed =
    List.filter
      (fun r -> Hashtbl.fold (fun v () acc -> acc || is_target v) (fragment_members r) false)
      fragment_roots
  in
  let attach r =
    if not in_tree.(r) then begin
      (* The search may relay through alive non-tree nodes but never through
         another orphaned fragment (that would give its nodes two parents);
         [r] itself is the only orphan admitted. *)
      let keep v = in_tree.(v) || v = r || (alive v && not was_tree_node.(v)) in
      let search_g = Digraph.restrict g ~keep in
      let sources = List.filter (fun v -> in_tree.(v)) (List.init n Fun.id) in
      let res = Paths.minimax search_g ~cost:(Mcph.residual_cost residual) ~sources in
      match Paths.extract_path res r with
      | None -> patch_failed "orphaned subtree at node %d cannot be re-attached" r
      | Some path ->
        let pe = Paths.path_edges path in
        List.iter
          (fun (u, v) ->
            if not in_tree.(v) then begin
              in_tree.(v) <- true;
              tree_edges := (u, v) :: !tree_edges
            end)
          pe;
        List.iter (Mcph.commit residual) pe;
        absorb r
    end
  in
  List.iter attach needed;
  match Multicast_tree.of_edges survivor (List.rev !tree_edges) with
  | Error e -> patch_failed "patched tree is invalid: %s" e
  | Ok t -> Multicast_tree.prune t

(* Patch every tree of the running schedule, keeping the schedule's relative
   weights, then rescale the whole set so the worst port occupation is
   exactly one (as in the balanced sets of the robust planner) — no LP. *)
let patch_tree_set ~survivor (before : Schedule.t) =
  let period = before.Schedule.period in
  let pairs =
    Array.to_list
      (Array.mapi
         (fun k tree ->
           let w = Rat.div (Rat.of_int before.Schedule.per_tree_messages.(k)) period in
           if Rat.(w <= zero) then
             patch_failed "tree %d of the running schedule carries no messages" k
           else (patch_tree ~survivor tree, w))
         before.Schedule.trees)
  in
  let base = Tree_set.make pairs in
  let max_occ = Tree_set.worst_occupation base in
  if Rat.is_zero max_occ then patch_failed "patched tree set has no load"
  else Tree_set.scale base (Rat.inv max_occ)

let plan_incremental ?(now = Unix.gettimeofday) ?(retention_floor = 0.0)
    ?(fallback = true) ~before (p : Platform.t) damage =
  Trace.with_span ~cat:"repair" "repair.plan_incremental"
    ~result:(function
      | Ok r ->
        [
          ( "method",
            Trace.Str
              (match r.repair_method with
              | `Patched -> "patched"
              | `Fell_back _ -> "fell-back"
              | `Full_replan -> "full-replan") );
          ("retention", Trace.Float r.retention);
        ]
      | Error e -> [ ("error", Trace.Str e) ])
  @@ fun () ->
  let fall reason =
    if not fallback then Error reason
    else
      match plan ~now ~before p damage with
      | Error e -> Error e
      | Ok r ->
        Metrics.incr fallback_plans;
        Ok { r with repair_method = `Fell_back reason }
  in
  match survivor p damage with
  | Error e -> Error e
  | Ok survivor ->
    let throughput_before = Rat.to_float before.Schedule.throughput in
    let t0 = now () in
    match
      let set = patch_tree_set ~survivor before in
      let schedule = Schedule.of_tree_set set in
      (schedule, Schedule.check schedule)
    with
    | exception Patch_failed m -> fall m
    | exception Invalid_argument m -> fall ("patched tree set does not schedule: " ^ m)
    | _, Error e -> fall ("patched schedule fails check: " ^ e)
    | schedule, Ok () ->
      let replan_seconds = now () -. t0 in
      let throughput_after = Rat.to_float schedule.Schedule.throughput in
      let retention = throughput_after /. throughput_before in
      if retention < retention_floor -. 1e-12 then
        fall
          (Printf.sprintf "patched retention %.1f%% below the %.1f%% floor"
             (100. *. retention) (100. *. retention_floor))
      else begin
        Metrics.incr patched_plans;
        Ok
          {
            survivor;
            schedule;
            baseline = `Given;
            repair_method = `Patched;
            throughput_before;
            throughput_after;
            retention;
            replan_seconds;
            refill_periods = Schedule.init_periods schedule;
            lost_targets = lost_targets p damage;
          }
      end

let pp_report fmt r =
  Format.fprintf fmt
    "repair (%s): throughput %.6f -> %.6f (retention %.1f%% vs %s baseline), re-plan %.3fs, \
     re-fill %d periods%s"
    (match r.repair_method with
    | `Full_replan -> "full re-plan"
    | `Patched -> "patched"
    | `Fell_back m -> "fell back: " ^ m)
    r.throughput_before r.throughput_after (100. *. r.retention)
    (match r.baseline with `Given -> "given" | `Fresh_mcph -> "fresh-MCPH")
    r.replan_seconds r.refill_periods
    (match r.lost_targets with
    | [] -> ""
    | ts -> Printf.sprintf ", lost targets: %s" (String.concat "," (List.map string_of_int ts)))
