type transfer = {
  src : int;
  dst : int;
  tree : int;
  start : Rat.t;
  finish : Rat.t;
}

type t = {
  period : Rat.t;
  messages_per_period : int;
  per_tree_messages : int array;
  trees : Multicast_tree.t array;
  transfers : transfer list;
  throughput : Rat.t;
}

let of_tree_set s =
  if not (Tree_set.is_feasible s) then
    invalid_arg "Schedule.of_tree_set: infeasible tree set";
  let pairs = Tree_set.trees s in
  let trees = Array.of_list (List.map fst pairs) in
  let weights = List.map snd pairs in
  let k = Array.length trees in
  let platform = trees.(0).Multicast_tree.platform in
  let n = Platform.n_nodes platform in
  (* Period length: the common denominator of the weights, so that each
     tree pushes a whole number of messages per period. *)
  let tden = Rat.common_denominator weights in
  let period = Rat.make tden Zint.one in
  let per_tree_messages =
    Array.of_list (List.map (fun y -> Rat.scale_to_int y tden) weights)
  in
  let total_messages = Array.fold_left ( + ) 0 per_tree_messages in
  if total_messages > 1_000_000 then
    invalid_arg
      "Schedule.of_tree_set: weights have wildly incompatible denominators \
       (quantize them onto a common grid first)";
  (* Per (tree, edge) communication load within one period. *)
  let loads = ref [] in
  for i = 0 to k - 1 do
    List.iter
      (fun (u, v) ->
        let c = Digraph.cost platform.Platform.graph ~src:u ~dst:v in
        let load = Rat.mul (Rat.of_int per_tree_messages.(i)) c in
        loads := ((u, v), i, load) :: !loads)
      (Multicast_tree.edges trees.(i))
  done;
  let scale = Rat.common_denominator (List.map (fun (_, _, l) -> l) !loads) in
  let int_loads =
    List.map (fun (e, i, l) -> (e, i, Rat.scale_to_int l scale)) !loads
  in
  let coloring_input =
    List.filter_map (fun ((u, v), _, w) -> if w > 0 then Some (u, v, w) else None) int_loads
  in
  let d = Edge_coloring.decompose ~n_left:n ~n_right:n coloring_input in
  (* Feasibility guarantees the makespan fits in the period. *)
  let period_ticks = Rat.scale_to_int period scale in
  assert (d.Edge_coloring.makespan <= period_ticks);
  (* Split each pair's slot time back into per-tree busy intervals, in tree
     order; [remaining] tracks how many ticks each tree still owes a pair. *)
  let remaining = Hashtbl.create 64 in
  List.iter
    (fun (e, i, w) ->
      if w > 0 then
        Hashtbl.replace remaining e (Hashtbl.find_opt remaining e |> Option.value ~default:[] |> fun l -> l @ [ (i, w) ]))
    (List.sort (fun (_, i, _) (_, j, _) -> compare i j) int_loads);
  let transfers = ref [] in
  let tick = ref 0 in
  let to_time t = Rat.div (Rat.of_int t) (Rat.make scale Zint.one) in
  List.iter
    (fun (slot : Edge_coloring.slot) ->
      let w = slot.Edge_coloring.weight in
      List.iter
        (fun (u, v) ->
          let queue = Option.value ~default:[] (Hashtbl.find_opt remaining (u, v)) in
          (* Consume up to [w] ticks from the head of the queue. *)
          let rec consume queue left offset =
            if left = 0 then queue
            else
              match queue with
              | [] -> [] (* slot time exceeding this pair's demand: idle *)
              | (i, need) :: rest ->
                let take = min need left in
                transfers :=
                  {
                    src = u;
                    dst = v;
                    tree = i;
                    start = to_time (!tick + offset);
                    finish = to_time (!tick + offset + take);
                  }
                  :: !transfers;
                if take = need then consume rest (left - take) (offset + take)
                else (i, need - take) :: rest
          in
          Hashtbl.replace remaining (u, v) (consume queue w 0))
        slot.Edge_coloring.pairs;
      tick := !tick + w)
    d.Edge_coloring.slots;
  let messages_per_period = Array.fold_left ( + ) 0 per_tree_messages in
  let transfers =
    List.sort (fun a b -> Rat.compare a.start b.start) !transfers
  in
  {
    period;
    messages_per_period;
    per_tree_messages;
    trees;
    transfers;
    throughput = Tree_set.throughput s;
  }

let with_transfers sched transfers = { sched with transfers }

let check sched =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let platform = sched.trees.(0).Multicast_tree.platform in
  let g = platform.Platform.graph in
  (* 1. transfers use edges of their tree and fit in the period. *)
  let rec check_edges = function
    | [] -> Ok ()
    | tr :: rest ->
      if not (Digraph.mem_edge g ~src:tr.src ~dst:tr.dst) then
        fail "transfer uses non-existent edge %d->%d" tr.src tr.dst
      else if not (List.mem (tr.src, tr.dst) (Multicast_tree.edges sched.trees.(tr.tree)))
      then fail "transfer edge %d->%d not in tree %d" tr.src tr.dst tr.tree
      else if Rat.(tr.start < zero) || Rat.(tr.finish > sched.period) then
        fail "transfer outside the period"
      else if Rat.(tr.finish <= tr.start) then fail "empty transfer"
      else check_edges rest
  in
  match check_edges sched.transfers with
  | Error _ as e -> e
  | Ok () ->
    (* 2. one-port exclusivity per node and direction. *)
    let overlap intervals =
      let sorted = List.sort (fun (a, _) (b, _) -> Rat.compare a b) intervals in
      let rec go = function
        | (_, f1) :: ((s2, _) :: _ as rest) -> Rat.(s2 < f1) || go rest
        | _ -> false
      in
      go sorted
    in
    let n = Platform.n_nodes platform in
    let send = Array.make n [] and recv = Array.make n [] in
    List.iter
      (fun tr ->
        send.(tr.src) <- (tr.start, tr.finish) :: send.(tr.src);
        recv.(tr.dst) <- (tr.start, tr.finish) :: recv.(tr.dst))
      sched.transfers;
    let bad = ref None in
    for v = 0 to n - 1 do
      if overlap send.(v) && !bad = None then bad := Some (v, "send");
      if overlap recv.(v) && !bad = None then bad := Some (v, "recv")
    done;
    (match !bad with
    | Some (v, dir) -> fail "one-port violation at node %d (%s)" v dir
    | None ->
      (* 3. per (tree, edge): total busy time = m_k * c_e. *)
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun tr ->
          let key = (tr.tree, tr.src, tr.dst) in
          let dur = Rat.sub tr.finish tr.start in
          Hashtbl.replace tbl key
            (Rat.add dur (Option.value ~default:Rat.zero (Hashtbl.find_opt tbl key))))
        sched.transfers;
      let rec check_trees i =
        if i >= Array.length sched.trees then Ok ()
        else begin
          let rec check_tree_edges = function
            | [] -> check_trees (i + 1)
            | (u, v) :: rest ->
              let want =
                Rat.mul
                  (Rat.of_int sched.per_tree_messages.(i))
                  (Digraph.cost g ~src:u ~dst:v)
              in
              let got = Option.value ~default:Rat.zero (Hashtbl.find_opt tbl (i, u, v)) in
              if not (Rat.equal want got) then
                fail "tree %d edge %d->%d: scheduled %s, expected %s" i u v
                  (Rat.to_string got) (Rat.to_string want)
              else check_tree_edges rest
          in
          check_tree_edges (Multicast_tree.edges sched.trees.(i))
        end
      in
      check_trees 0)

let init_periods sched =
  let deepest tree =
    let t = tree.Multicast_tree.tree in
    let n = Array.length t.Out_tree.parent in
    let d = ref 0 in
    for v = 0 to n - 1 do
      if Out_tree.mem t v then d := max !d (Out_tree.depth t v)
    done;
    !d
  in
  Array.fold_left (fun acc t -> max acc (deepest t)) 0 sched.trees
