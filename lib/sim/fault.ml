type event =
  | Kill_edge of { src : int; dst : int; at : Rat.t }
  | Kill_node of { node : int; at : Rat.t }
  | Degrade_edge of { src : int; dst : int; at : Rat.t; factor : Rat.t }
  | Revive_edge of { src : int; dst : int; at : Rat.t }
  | Revive_node of { node : int; at : Rat.t }
  | Clear_degrade of { src : int; dst : int; at : Rat.t }

type scenario = event list

(* --- validation ---------------------------------------------------------- *)

(* Per-entity kill/revive timeline check. After dropping exact duplicates
   (the same event stated twice is idempotent), the surviving events must
   alternate kill, revive, kill, ... at strictly increasing times: a kill of
   a dead entity asserts it died twice, a revive of a live one either
   precedes any kill or revives twice, and a kill and revive at the same
   instant leave the state ambiguous. *)
let check_timeline ~label evs =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rank = function `Kill -> 0 | `Revive -> 1 in
  let evs =
    List.sort_uniq
      (fun (a, ka) (b, kb) ->
        match Rat.compare a b with 0 -> compare (rank ka) (rank kb) | c -> c)
      evs
  in
  let rec walk alive prev = function
    | [] -> Ok ()
    | (at, kind) :: rest -> (
      match prev with
      | Some (pat, _) when Rat.equal pat at ->
        err "%s: kill and revive at the same time %s" label (Rat.to_string at)
      | _ -> (
        match (kind, alive) with
        | `Kill, true -> walk false (Some (at, kind)) rest
        | `Kill, false ->
          let pat = match prev with Some (t, _) -> Rat.to_string t | None -> "?" in
          err "kill-%s: killed twice, at %s and %s" label pat (Rat.to_string at)
        | `Revive, false -> walk true (Some (at, kind)) rest
        | `Revive, true -> (
          match prev with
          | None ->
            err "revive-%s: revived before any kill (at %s)" label (Rat.to_string at)
          | Some (pat, _) ->
            err "revive-%s: revived twice, at %s and %s" label (Rat.to_string pat)
              (Rat.to_string at))))
  in
  walk true None evs

let validate (p : Platform.t) s =
  let g = p.Platform.graph in
  let n = Digraph.n_nodes g in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let edge_tl : (int * int, (Rat.t * [ `Kill | `Revive ]) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let node_tl : (int, (Rat.t * [ `Kill | `Revive ]) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let push tbl key ev =
    let l =
      match Hashtbl.find_opt tbl key with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace tbl key l;
        l
    in
    l := ev :: !l
  in
  (* Pass 1: per-event range/shape checks, collecting kill/revive timelines. *)
  let rec basic = function
    | [] -> Ok ()
    | Kill_edge { src; dst; at } :: rest ->
      if not (Digraph.mem_edge g ~src ~dst) then err "kill-edge %d->%d: no such edge" src dst
      else if Rat.(at < zero) then err "kill-edge %d->%d: negative fire time" src dst
      else begin
        push edge_tl (src, dst) (at, `Kill);
        basic rest
      end
    | Kill_node { node; at } :: rest ->
      if node < 0 || node >= n then err "kill-node %d: out of range" node
      else if Rat.(at < zero) then err "kill-node %d: negative fire time" node
      else begin
        push node_tl node (at, `Kill);
        basic rest
      end
    | Degrade_edge { src; dst; at; factor } :: rest ->
      (* A degrade firing while the edge (or an endpoint) is dead is a no-op,
         not an error: the simulator consults kills first ({!edge_dead}), and
         the recovery planner drops dead edges before applying factors. *)
      if not (Digraph.mem_edge g ~src ~dst) then
        err "degrade-edge %d->%d: no such edge" src dst
      else if Rat.(factor < one) then err "degrade-edge %d->%d: factor < 1" src dst
      else if Rat.(at < zero) then err "degrade-edge %d->%d: negative fire time" src dst
      else basic rest
    | Revive_edge { src; dst; at } :: rest ->
      if not (Digraph.mem_edge g ~src ~dst) then
        err "revive-edge %d->%d: no such edge" src dst
      else if Rat.(at < zero) then err "revive-edge %d->%d: negative fire time" src dst
      else begin
        push edge_tl (src, dst) (at, `Revive);
        basic rest
      end
    | Revive_node { node; at } :: rest ->
      if node < 0 || node >= n then err "revive-node %d: out of range" node
      else if Rat.(at < zero) then err "revive-node %d: negative fire time" node
      else begin
        push node_tl node (at, `Revive);
        basic rest
      end
    | Clear_degrade { src; dst; at } :: rest ->
      (* Clearing a pristine edge is a no-op; no ordering constraint. *)
      if not (Digraph.mem_edge g ~src ~dst) then
        err "clear-degrade %d->%d: no such edge" src dst
      else if Rat.(at < zero) then err "clear-degrade %d->%d: negative fire time" src dst
      else basic rest
  in
  (* Pass 2: ordering rules per entity. *)
  match basic s with
  | Error _ as e -> e
  | Ok () ->
    let check_all fold label_of tbl =
      fold
        (fun key l acc ->
          match acc with
          | Error _ -> acc
          | Ok () -> check_timeline ~label:(label_of key) !l)
        tbl (Ok ())
    in
    let edges =
      check_all Hashtbl.fold
        (fun (src, dst) -> Printf.sprintf "edge %d->%d" src dst)
        edge_tl
    in
    (match edges with
    | Error _ as e -> e
    | Ok () ->
      check_all Hashtbl.fold (fun v -> Printf.sprintf "node %d" v) node_tl)

let event_time = function
  | Kill_edge { at; _ }
  | Kill_node { at; _ }
  | Degrade_edge { at; _ }
  | Revive_edge { at; _ }
  | Revive_node { at; _ }
  | Clear_degrade { at; _ } -> at

(* --- the fault timeline --------------------------------------------------- *)

type step = { at : Rat.t; fired : event list; damage : Repair.damage }
type timeline = step array

module Edge = struct
  type t = int * int

  let compare = compare
end

module Edges = Set.Make (Edge)
module Nodes = Set.Make (Int)
module Factors = Map.Make (Edge)

let apply (edges, nodes, factors) = function
  | Kill_edge e -> (Edges.add (e.src, e.dst) edges, nodes, factors)
  | Revive_edge e -> (Edges.remove (e.src, e.dst) edges, nodes, factors)
  | Kill_node k -> (edges, Nodes.add k.node nodes, factors)
  | Revive_node k -> (edges, Nodes.remove k.node nodes, factors)
  | Degrade_edge d ->
    let f = Option.value ~default:Rat.one (Factors.find_opt (d.src, d.dst) factors) in
    (edges, nodes, Factors.add (d.src, d.dst) (Rat.mul f d.factor) factors)
  | Clear_degrade c -> (edges, nodes, Factors.remove (c.src, c.dst) factors)

(* One stable sort by instant, then one fold over the instants. At one
   instant clears apply before degrades, so a simultaneous clear and
   degrade leave the fresh factor, and a degrade stated twice multiplies
   twice. The other events apply last-stated first: a kill and a revive of
   one entity at one instant, which [validate] rejects, leave the one
   stated first in force. *)
let timeline s =
  let sorted = List.stable_sort (fun a b -> Rat.compare (event_time a) (event_time b)) s in
  let rec span at acc = function
    | ev :: rest when Rat.equal (event_time ev) at -> span at (ev :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec fold state = function
    | [] -> []
    | ev :: _ as l ->
      let at = event_time ev in
      let fired, rest = span at [] l in
      let clears, others =
        List.partition (function Clear_degrade _ -> true | _ -> false) fired
      in
      let ((edges, nodes, factors) as state) =
        List.fold_left apply (List.fold_left apply state clears) (List.rev others)
      in
      let damage =
        Repair.damage ~dead_edges:(Edges.elements edges) ~dead_nodes:(Nodes.elements nodes)
          ~degraded:(Factors.bindings factors) ()
      in
      { at; fired; damage } :: fold state rest
  in
  Array.of_list (fold (Edges.empty, Nodes.empty, Factors.empty) sorted)

let steps = Array.to_list

(* The damage after the first [n] steps: healthy before the first. *)
let after tl n = if n = 0 then Repair.no_damage else tl.(n - 1).damage

(* Binary search: the steps before [lo] fire at or before [at], the steps
   from [hi] on after it. *)
let damage_at tl ~at =
  let rec search lo hi =
    if lo = hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Rat.(tl.(mid).at <= at) then search (mid + 1) hi else search lo mid
  in
  after tl (search 0 (Array.length tl))

let damage s =
  let tl = timeline s in
  after tl (Array.length tl)

let edge_factor { Repair.dead_edges; dead_nodes; degraded } ~src ~dst =
  if List.mem (src, dst) dead_edges || List.mem src dead_nodes || List.mem dst dead_nodes
  then None
  else Some (Option.value ~default:Rat.one (List.assoc_opt (src, dst) degraded))

let random_link_kills rng (p : Platform.t) ~rate ~at =
  let g = p.Platform.graph in
  let seen = Hashtbl.create 64 in
  Digraph.fold_edges
    (fun acc e ->
      let u = min e.Digraph.src e.Digraph.dst and v = max e.Digraph.src e.Digraph.dst in
      if Hashtbl.mem seen (u, v) then acc
      else begin
        Hashtbl.replace seen (u, v) ();
        if Random.State.float rng 1.0 < rate then begin
          let kills = [ Kill_edge { src = e.Digraph.src; dst = e.Digraph.dst; at } ] in
          if Digraph.mem_edge g ~src:e.Digraph.dst ~dst:e.Digraph.src then
            Kill_edge { src = e.Digraph.dst; dst = e.Digraph.src; at } :: kills @ acc
          else kills @ acc
        end
        else acc
      end)
    [] g

let random_node_kills rng (p : Platform.t) ~rate ~at =
  let candidates =
    List.filter (fun v -> v <> p.Platform.source) (Platform.active_nodes p)
  in
  let killed =
    List.filter (fun _ -> Random.State.float rng 1.0 < rate) candidates
  in
  (* Never kill every target: the resulting damage would be unrecoverable by
     construction, which the sweeps treat as a separate (trivial) case. Spare
     a uniformly drawn target when the draw was total. *)
  let killed =
    if List.exists (fun t -> not (List.mem t killed)) p.Platform.targets then killed
    else
      let spare =
        List.nth p.Platform.targets (Random.State.int rng (List.length p.Platform.targets))
      in
      List.filter (fun v -> v <> spare) killed
  in
  List.map (fun v -> Kill_node { node = v; at }) killed

let random_mixed_kills rng p ~link_rate ~node_rate ~at =
  random_link_kills rng p ~rate:link_rate ~at @ random_node_kills rng p ~rate:node_rate ~at

(* --- correlated storm generators ---------------------------------------- *)

(* A fire time uniformly drawn (on a 1/1000 grid, so times stay small exact
   rationals) inside [at, at + window]. *)
let storm_time rng ~at ~window =
  if Rat.is_zero window then at
  else Rat.add at (Rat.mul window (Rat.of_ints (Random.State.int rng 1001) 1000))

let undirected_links (p : Platform.t) =
  let seen = Hashtbl.create 64 in
  List.rev
    (Digraph.fold_edges
       (fun acc e ->
         let key =
           (min e.Digraph.src e.Digraph.dst, max e.Digraph.src e.Digraph.dst)
         in
         if Hashtbl.mem seen key then acc
         else begin
           Hashtbl.replace seen key ();
           key :: acc
         end)
       [] p.Platform.graph)

let directed_pair (p : Platform.t) (u, v) f =
  let g = p.Platform.graph in
  List.filter_map
    (fun (a, b) -> if Digraph.mem_edge g ~src:a ~dst:b then Some (f a b) else None)
    [ (u, v); (v, u) ]

let kill_link p l ~at = directed_pair p l (fun src dst -> Kill_edge { src; dst; at })
let revive_link p l ~at = directed_pair p l (fun src dst -> Revive_edge { src; dst; at })

let degrade_link p l ~factor ~at =
  directed_pair p l (fun src dst -> Degrade_edge { src; dst; at; factor })

let clear_link p l ~at = directed_pair p l (fun src dst -> Clear_degrade { src; dst; at })

(* Never kill every target (same rule as {!random_node_kills}): when the
   draw is total, a uniformly drawn target is spared. *)
let spare_a_target rng (p : Platform.t) killed_nodes =
  if List.exists (fun t -> not (List.mem t killed_nodes)) p.Platform.targets then
    killed_nodes
  else
    let spare =
      List.nth p.Platform.targets
        (Random.State.int rng (List.length p.Platform.targets))
    in
    List.filter (fun v -> v <> spare) killed_nodes

let random_burst rng (p : Platform.t) ~k ~window ~at =
  let links = List.map (fun l -> `Link l) (undirected_links p) in
  let nodes =
    List.filter_map
      (fun v -> if v = p.Platform.source then None else Some (`Node v))
      (Platform.active_nodes p)
  in
  let pool = links @ nodes in
  let chosen =
    Generators.sample_without_replacement rng (min k (List.length pool)) pool
  in
  let killed_nodes = List.filter_map (function `Node v -> Some v | _ -> None) chosen in
  let spared = spare_a_target rng p killed_nodes in
  let chosen =
    List.filter (function `Node v -> List.mem v spared | `Link _ -> true) chosen
  in
  List.concat_map
    (fun ent ->
      let t = storm_time rng ~at ~window in
      match ent with
      | `Node v -> [ Kill_node { node = v; at = t } ]
      | `Link l -> kill_link p l ~at:t)
    chosen

let shared_endpoint_kills rng (p : Platform.t) ~endpoints ~at =
  let candidates =
    List.filter (fun v -> v <> p.Platform.source) (Platform.active_nodes p)
  in
  let picked =
    Generators.sample_without_replacement rng
      (min endpoints (List.length candidates))
      candidates
  in
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun v ->
      List.concat_map
        (fun (u, w) ->
          let key = (min u w, max u w) in
          if Hashtbl.mem seen key then []
          else begin
            Hashtbl.replace seen key ();
            kill_link p key ~at
          end)
        (List.map (fun u -> (u, v)) (Digraph.preds p.Platform.graph v)
        @ List.map (fun w -> (v, w)) (Digraph.succs p.Platform.graph v)))
    picked

let subtree_outage rng (p : Platform.t) ~at =
  let routers =
    List.filter
      (fun v -> v <> p.Platform.source && p.Platform.kinds.(v) = Platform.Man)
      (Platform.active_nodes p)
  in
  match routers with
  | [] -> (
    (* Not a Tiers platform (or no MAN layer left): degenerate to one
       correlated endpoint outage so callers always get a scenario. *)
    match shared_endpoint_kills rng p ~endpoints:1 ~at with
    | [] -> []
    | s -> s)
  | _ ->
    let router = List.nth routers (Random.State.int rng (List.length routers)) in
    let hosts =
      List.filter
        (fun v ->
          v <> p.Platform.source
          && Platform.is_active p v
          && p.Platform.kinds.(v) = Platform.Lan)
        (Digraph.succs p.Platform.graph router)
    in
    let killed = spare_a_target rng p (router :: hosts) in
    List.map (fun v -> Kill_node { node = v; at }) killed

(* --- renewal-process generators ------------------------------------------ *)

let grid_time x = Rat.of_ints (max 1 (int_of_float (Float.round (x *. 1000.0)))) 1000

let exp_time rng ~mean =
  let u = Random.State.float rng 1.0 in
  grid_time (-.log (1.0 -. u) *. mean)

let renewal_link_faults rng (p : Platform.t) ~mtbf ~mttr ~horizon =
  if not (mtbf > 0.0) then invalid_arg "renewal_link_faults: mtbf must be positive";
  if not (mttr > 0.0) then invalid_arg "renewal_link_faults: mttr must be positive";
  List.concat_map
    (fun l ->
      let rec cycle t acc =
        let t_fail = Rat.add t (exp_time rng ~mean:mtbf) in
        if Rat.(t_fail >= horizon) then List.rev acc
        else
          let acc = List.rev_append (kill_link p l ~at:t_fail) acc in
          let t_up = Rat.add t_fail (exp_time rng ~mean:mttr) in
          if Rat.(t_up >= horizon) then List.rev acc
          else cycle t_up (List.rev_append (revive_link p l ~at:t_up) acc)
      in
      cycle Rat.zero [])
    (undirected_links p)

let renewal_node_faults rng (p : Platform.t) ~mtbf ~mttr ~horizon =
  if not (mtbf > 0.0) then invalid_arg "renewal_node_faults: mtbf must be positive";
  if not (mttr > 0.0) then invalid_arg "renewal_node_faults: mttr must be positive";
  let candidates =
    List.filter (fun v -> v <> p.Platform.source) (Platform.active_nodes p)
  in
  List.concat_map
    (fun v ->
      let rec cycle t acc =
        let t_fail = Rat.add t (exp_time rng ~mean:mtbf) in
        if Rat.(t_fail >= horizon) then List.rev acc
        else
          let acc = Kill_node { node = v; at = t_fail } :: acc in
          let t_up = Rat.add t_fail (exp_time rng ~mean:mttr) in
          if Rat.(t_up >= horizon) then List.rev acc
          else cycle t_up (Revive_node { node = v; at = t_up } :: acc)
      in
      cycle Rat.zero [])
    candidates

let flapping_links rng (p : Platform.t) ~links ~flaps ~mean_up ~mean_down ~at =
  if links < 1 then invalid_arg "flapping_links: links must be >= 1";
  if flaps < 1 then invalid_arg "flapping_links: flaps must be >= 1";
  if not (mean_up > 0.0 && mean_down > 0.0) then
    invalid_arg "flapping_links: mean_up/mean_down must be positive";
  let pool = undirected_links p in
  let chosen =
    Generators.sample_without_replacement rng (min links (List.length pool)) pool
  in
  List.concat_map
    (fun l ->
      let rec go i t acc =
        if i = flaps then List.rev acc
        else
          let t_fail = Rat.add t (exp_time rng ~mean:mean_up) in
          let t_up = Rat.add t_fail (exp_time rng ~mean:mean_down) in
          let acc = List.rev_append (kill_link p l ~at:t_fail) acc in
          let acc = List.rev_append (revive_link p l ~at:t_up) acc in
          go (i + 1) t_up acc
      in
      go 0 at [])
    chosen

let diurnal_degradation rng (p : Platform.t) ~waves ~period ~factor ~rate =
  if waves < 1 then invalid_arg "diurnal_degradation: waves must be >= 1";
  if Rat.sign period <= 0 then invalid_arg "diurnal_degradation: period must be positive";
  if Rat.(factor < one) then invalid_arg "diurnal_degradation: factor < 1";
  if not (rate >= 0.0 && rate <= 1.0) then
    invalid_arg "diurnal_degradation: rate must be in [0, 1]";
  let links = undirected_links p in
  let half = Rat.div period (Rat.of_int 2) in
  List.concat
    (List.init waves (fun w ->
         let start = Rat.mul (Rat.of_int w) period in
         let stop = Rat.add start half in
         List.concat_map
           (fun l ->
             if Random.State.float rng 1.0 < rate then
               degrade_link p l ~factor ~at:start @ clear_link p l ~at:stop
             else [])
           links))

let describe s =
  let one = function
    | Kill_edge e ->
      Printf.sprintf "kill edge %d->%d at %s" e.src e.dst (Rat.to_string e.at)
    | Kill_node k -> Printf.sprintf "kill node %d at %s" k.node (Rat.to_string k.at)
    | Degrade_edge d ->
      Printf.sprintf "degrade edge %d->%d by %s at %s" d.src d.dst (Rat.to_string d.factor)
        (Rat.to_string d.at)
    | Revive_edge e ->
      Printf.sprintf "revive edge %d->%d at %s" e.src e.dst (Rat.to_string e.at)
    | Revive_node k -> Printf.sprintf "revive node %d at %s" k.node (Rat.to_string k.at)
    | Clear_degrade c ->
      Printf.sprintf "clear degradation on edge %d->%d at %s" c.src c.dst
        (Rat.to_string c.at)
  in
  match s with [] -> "no faults" | s -> String.concat "; " (List.map one s)
