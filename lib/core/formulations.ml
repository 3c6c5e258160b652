let eps = 1e-7

type solution = {
  throughput : float;
  period : float;
  node_inflow : float array;
  edge_usage : ((int * int) * float) list;
  commodity_flows : ((int * int) * ((int * int) * float) list) list;
}

let period_of = function None -> infinity | Some s -> s.period

(* ------------------------------------------------------------------ *)
(* Scatter-style programs (Multicast-UB, MulticastMultiSource-UB):
   per-edge occupation is the sum of the commodities crossing it
   (constraint (10)), so the flows appear directly in the port rows.

   Their Dantzig-Wolfe reformulation, used when the arc formulation
   would be large, is a path master: one value row per destination
   group, rho - (its path weights) <= 0, then the out-port (row ng + 2u)
   and in-port (row ng + 2u + 1) of every node u; the rho column, then
   one column per origin->destination path. Pricing a group = cheapest
   path from any of its origins under the port duals (multi-source
   Dijkstra). Exact, like the arc formulation, up to the float LP
   tolerances.                                                          *)
(* ------------------------------------------------------------------ *)

let path_master_of (p : Platform.t) groups =
  let g = p.Platform.graph in
  let n = Digraph.n_nodes g in
  let groups = Array.of_list groups in
  let ng = Array.length groups in
  let reachable (dest, origins) = List.exists (fun o -> (Traversal.reachable g o).(dest)) origins in
  if not (Array.for_all reachable groups) then None
  else begin
    let edges = Array.of_list (Digraph.edges g) in
    let edge_id = Hashtbl.create (Array.length edges) in
    Array.iteri (fun e (d : Digraph.edge) -> Hashtbl.replace edge_id ((d.src * n) + d.dst) e) edges;
    (* Each path edge (u,v) charges c_uv to u's out-port and v's in-port. *)
    let column gid path =
      let ports =
        List.concat_map
          (fun (u, v) ->
            let c = Rat.to_float (Digraph.cost g ~src:u ~dst:v) in
            [ (ng + (2 * u), c); (ng + (2 * v) + 1, c) ])
          (Paths.path_edges path)
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      {
        Colgen.item = Some (gid, path);
        rows = Array.of_list (gid :: List.map fst ports);
        vals = Array.of_list (-1.0 :: List.map snd ports);
        obj = 0.0;
      }
    in
    let cheapest ?(cost = fun (d : Digraph.edge) -> d.cost) gid =
      let dest, origins = groups.(gid) in
      let r = Paths.dijkstra_cost g ~cost ~sources:origins in
      Option.map (column gid) (Paths.extract_path r dest)
    in
    (* Edge price c_uv * (pi_out u + pi_in v), computed once per round. *)
    let prices = Array.make (Array.length edges) Rat.zero in
    let price duals =
      Array.iteri
        (fun e ({ Digraph.src; dst; cost } : Digraph.edge) ->
          let pi = max 0.0 duals.(ng + (2 * src)) +. max 0.0 duals.(ng + (2 * dst) + 1) in
          prices.(e) <- Rat.of_float_approx ~max_den:1_000_000 ((Rat.to_float cost *. pi) +. 1e-12))
        edges;
      let cost (d : Digraph.edge) = prices.(Hashtbl.find edge_id ((d.src * n) + d.dst)) in
      List.filter_map (cheapest ~cost) (List.init ng Fun.id)
    in
    let rho =
      { Colgen.item = None; rows = Array.init ng Fun.id; vals = Array.make ng 1.0; obj = 1.0 }
    in
    Some
      {
        Colgen.rhs = Array.init (ng + (2 * n)) (fun i -> if i < ng then 0.0 else 1.0);
        (* Initial columns: one shortest path (by time) per group. *)
        initial = rho :: List.filter_map cheapest (List.init ng Fun.id);
        price;
      }
  end

let solve_sum_colgen (p : Platform.t) groups =
  match Option.bind (path_master_of p groups) Colgen.solve with
  | None -> None
  | Some { Colgen.pool; solution = sol; _ } ->
    let throughput = sol.Lp_model.values.(0) in
    if throughput < eps then None
    else begin
      let groups = Array.of_list groups in
      let y j = sol.Lp_model.values.(j) in
      (* A value row is rho - (path weights) <= 0: tight at the optimum,
         but a degenerate vertex may over-deliver a group, so each group's
         weights are scaled to carry exactly rho. *)
      let carried = Array.make (Array.length groups) 0.0 in
      Array.iteri
        (fun j c -> Option.iter (fun (gid, _) -> carried.(gid) <- carried.(gid) +. y j) c.Colgen.item)
        pool;
      let node_inflow = Array.make (Digraph.n_nodes p.Platform.graph) 0.0 in
      let usage = Hashtbl.create 64 and flows = Array.map (fun _ -> Hashtbl.create 16) groups in
      let add t e w = Hashtbl.replace t e (w +. Option.value ~default:0.0 (Hashtbl.find_opt t e)) in
      Array.iteri
        (fun j c ->
          Option.iter
            (fun (gid, path) ->
              let w = y j *. throughput /. carried.(gid) in
              if w > eps then
                List.iter
                  (fun (u, v) ->
                    node_inflow.(v) <- node_inflow.(v) +. w;
                    add usage (u, v) w;
                    add flows.(gid) (u, v) w)
                  (Paths.path_edges path))
            c.Colgen.item)
        pool;
      let to_list t = Hashtbl.fold (fun e w acc -> (e, w) :: acc) t [] in
      let commodity_flows =
        List.mapi
          (fun gid (dest, origins) -> ((List.hd origins, dest), to_list flows.(gid)))
          (Array.to_list groups)
      in
      let edge_usage = to_list usage in
      Some { throughput; period = 1.0 /. throughput; node_inflow; edge_usage; commodity_flows }
    end

(* Per-node indices into [edges] (an array of [g]'s edges): the ids of each
   node's out-edges and of its in-edges, each list in decreasing id order. *)
let edge_index g edges =
  let out_ids = Array.make (Digraph.n_nodes g) [] in
  let in_ids = Array.make (Digraph.n_nodes g) [] in
  Array.iteri
    (fun e ({ Digraph.src; dst; _ } : Digraph.edge) ->
      out_ids.(src) <- e :: out_ids.(src);
      in_ids.(dst) <- e :: in_ids.(dst))
    edges;
  (out_ids, in_ids)

(* [groups] lists (destination, allowed origins): each destination must
   receive rho per time unit in total over its origins. A group with
   several origins is modelled as ONE multi-source commodity (conservation
   skipped at every origin): any multi-source flow decomposes into
   per-origin flows and the per-edge occupation is their sum anyway
   (constraint (10)), so the aggregation is exact while shrinking the LP by
   a factor of |sources|. *)
let solve_sum_dense (p : Platform.t) groups =
  let g = p.Platform.graph in
  let edges = Array.of_list (Digraph.edges g) in
  let ne = Array.length edges in
  let commodities = Array.of_list (List.map (fun (dest, origins) -> (origins, dest)) groups) in
  let nc = Array.length commodities in
  let m = Lp_model.create () in
  let rho = Lp_model.add_var m in
  (* x.(c).(e): flow of commodity c on edge e; -1 when the edge is excluded
     for that commodity (out of its destination). *)
  let x = Array.make_matrix nc ne (-1) in
  for c = 0 to nc - 1 do
    let _, dest = commodities.(c) in
    for e = 0 to ne - 1 do
      let { Digraph.src; _ } = edges.(e) in
      if src <> dest then x.(c).(e) <- Lp_model.add_var m
    done
  done;
  let out_edge_ids, in_edge_ids = edge_index g edges in
  (* Flow value: each destination's inflow equals rho ((2)/(2b)). *)
  for c = 0 to nc - 1 do
    let _, dest = commodities.(c) in
    let expr = ref [ (-1.0, rho) ] in
    List.iter
      (fun e -> if x.(c).(e) >= 0 then expr := (1.0, x.(c).(e)) :: !expr)
      in_edge_ids.(dest);
    Lp_model.add_constraint m !expr Eq 0.0
  done;
  (* Conservation at intermediate nodes (constraints (3)/(3b)); skipped at
     the group's origins, which may inject freely. *)
  for c = 0 to nc - 1 do
    let origins, dest = commodities.(c) in
    for j = 0 to Digraph.n_nodes g - 1 do
      if (not (List.mem j origins)) && j <> dest then begin
        let outs =
          List.filter_map
            (fun e -> if x.(c).(e) >= 0 then Some (1.0, x.(c).(e)) else None)
            out_edge_ids.(j)
        in
        let ins =
          List.filter_map
            (fun e -> if x.(c).(e) >= 0 then Some (-1.0, x.(c).(e)) else None)
            in_edge_ids.(j)
        in
        if outs <> [] || ins <> [] then Lp_model.add_constraint m (outs @ ins) Eq 0.0
      end
    done
  done;
  (* One-port rows (constraints (4)-(9), with n = sum substituted). *)
  let port_expr ids =
    List.concat_map
      (fun e ->
        let ce = Rat.to_float edges.(e).Digraph.cost in
        List.filter_map
          (fun c -> if x.(c).(e) >= 0 then Some (ce, x.(c).(e)) else None)
          (List.init nc Fun.id))
      ids
  in
  for j = 0 to Digraph.n_nodes g - 1 do
    let out = port_expr out_edge_ids.(j) in
    if out <> [] then Lp_model.add_constraint m out Le 1.0;
    let inp = port_expr in_edge_ids.(j) in
    if inp <> [] then Lp_model.add_constraint m inp Le 1.0
  done;
  Lp_model.set_objective m ~maximize:true [ (1.0, rho) ];
  match Solver_chain.solve (Revised_simplex.of_model m) with
  | Solver_chain.Infeasible | Solver_chain.Unbounded -> None
  | Solver_chain.Optimal (sol, _) ->
    let v i = sol.Lp_model.values.(i) in
    let throughput = v rho in
    if throughput < eps then None
    else begin
      let node_inflow = Array.make (Digraph.n_nodes g) 0.0 in
      for c = 0 to nc - 1 do
        for e = 0 to ne - 1 do
          if x.(c).(e) >= 0 then begin
            let dst = edges.(e).Digraph.dst in
            node_inflow.(dst) <- node_inflow.(dst) +. v x.(c).(e)
          end
        done
      done;
      let edge_usage =
        List.filter_map
          (fun e ->
            let usage =
              List.fold_left
                (fun acc c -> if x.(c).(e) >= 0 then acc +. v x.(c).(e) else acc)
                0.0 (List.init nc Fun.id)
            in
            if usage > eps then
              Some ((edges.(e).Digraph.src, edges.(e).Digraph.dst), usage)
            else None)
          (List.init ne Fun.id)
      in
      let commodity_flows =
        List.init nc (fun c ->
            let origins, dest = commodities.(c) in
            let flows =
              List.filter_map
                (fun e ->
                  if x.(c).(e) >= 0 && v x.(c).(e) > eps then
                    Some ((edges.(e).Digraph.src, edges.(e).Digraph.dst), v x.(c).(e))
                  else None)
                (List.init ne Fun.id)
            in
            (* Key by the primary origin; multi-origin groups are recovered
               from the flow's divergence by the schedule builders. *)
            ((List.hd origins, dest), flows))
      in
      Some { throughput; period = 1.0 /. throughput; node_inflow; edge_usage; commodity_flows }
    end

(* Arc formulation for small instances, path column generation beyond
   that: the arc LP grows as |groups| * |E| columns and becomes the
   bottleneck on the 65-node platforms. The arc LP is not the faster one
   on small instances either (colgen solves each portfolio deck instance's
   UB in at most 1 ms, the arc LP in 9-44 ms); it stays for its optimal
   vertex. Multisource MC's greedy follows the UB solution it is given,
   and colgen's vertex, same optimum, changes that trajectory: with the
   arc LP off, every Multicast-UB period stays, but Multisource MC's
   period on Tiers-small platform 3 at target density 0.4 goes
   77.36 -> 129.04, and on platform 5 at density 0.7 80.04 -> 87.30. *)
let solve_sum (p : Platform.t) groups =
  let size = List.length groups * Digraph.n_edges p.Platform.graph in
  if size <= 2000 then solve_sum_dense p groups else solve_sum_colgen p groups

(* ------------------------------------------------------------------ *)
(* Max-sharing programs (Multicast-LB, Broadcast-EB): the per-edge
   occupation is the max over targets (constraint (10')). For fixed edge
   occupations n, target i can receive rho iff every source→i cut has
   n-capacity at least rho (max-flow min-cut), so the LP over (rho, n)
   with port rows plus all cut rows is exactly Multicast-LB. Cuts are
   separated lazily with a max-flow oracle — Benders-style — keeping
   every LP tiny (one variable per edge).                               *)
(* ------------------------------------------------------------------ *)

type lb_row = Out of int | In of int | Cut of int array
type lb_col = Rho | Occ of int * int | Slack of lb_row
type warm_basis = { basic : lb_col array; rows : lb_row array }

(* Port capacities (the session engine's capacity sharing, PR 9): the
   one-port rows default to the paper's full time unit, but a caller
   co-scheduling several sessions on one platform passes the *residual*
   capacity of every send/receive port — one time unit minus what the
   other sessions' plans already occupy. Only the right-hand sides
   change: variables, rows and coefficients are identical to the
   full-capacity model, so a warm basis ports freely between epochs
   whose residuals differ — a pure-rhs re-solve is the dual simplex's
   best case, which is what makes per-epoch incremental re-optimization
   cheap. *)
let cap_of caps j = match caps with None -> 1.0 | Some a -> Float.max 0.0 a.(j)

(* Relax-only rhs perturbation: the cut LPs are massively degenerate
   (hundreds of near-parallel cut rows); nudging each right-hand side by
   a distinct tiny slack breaks the ties that make Dantzig crawl. Every
   nudge relaxes, so feasibility is preserved and the optimum moves by
   O(1e-7). The nudge is keyed to the row's {e identity} (a stable
   function of the platform), not its insertion order: a row must keep
   its rhs bit-for-bit across cut rounds and across nominal/survivor
   models, or every warm-started re-solve would see each reordered row
   as a fresh noise-level primal violation and the dual simplex would
   pivot once per row to fix pure noise. The key is the row's text,
   "out<j>", "in<j>" or "cut:u>v,..." over the sorted endpoint pairs;
   it is written here and nowhere else. Each row's nudge is computed
   once per call for a port row and once per cut. The nudge is
   absolute, so on a platform whose port rows carry costs in the
   thousands it can lift the LB visibly; a nudge relative to the row's
   scale would be a change to this function alone. *)
let nudge row =
  let key =
    match row with
    | Out j -> "out" ^ string_of_int j
    | In j -> "in" ^ string_of_int j
    | Cut ends ->
      "cut:"
      ^ String.concat ","
          (List.init (Array.length ends / 2) (fun k ->
               string_of_int ends.(2 * k) ^ ">" ^ string_of_int ends.((2 * k) + 1)))
  in
  1e-8 *. float_of_int (1 + (Hashtbl.hash key mod 97))

(* A pooled cut row, rho <= the sum of n_e over [ids], with everything a
   round needs of it, made once when the cut enters the pool. *)
type cut = {
  ids : int array; (* the crossing edges, ascending *)
  row : lb_row; (* its identity, [Cut ends] *)
  rhs : float; (* its nudge: the row is rho - sum n_e <= rhs *)
}

let solve_max ?(two_sided = true) ?warm ?(chain = true) ?send_cap ?recv_cap
    (p : Platform.t) =
  let g = p.Platform.graph in
  let source = p.Platform.source in
  let targets = p.Platform.targets in
  (match (send_cap, recv_cap) with
  | Some a, _ when Array.length a <> Digraph.n_nodes g ->
    invalid_arg "Formulations: send_cap length must match the node count"
  | _, Some a when Array.length a <> Digraph.n_nodes g ->
    invalid_arg "Formulations: recv_cap length must match the node count"
  | _ -> ());
  if not (Traversal.reaches_all g source targets) then None
  else begin
    let n = Digraph.n_nodes g in
    let edges = Array.of_list (Digraph.edges g) in
    let ne = Array.length edges in
    let out_edge_ids, in_edge_ids = edge_index g edges in
    let cost e = Rat.to_float edges.(e).Digraph.cost in
    (* One live LP per call. Its columns are rho (column 0), then one
       occupation per edge (column 1 + e), then one slack per row. Its
       rows are the port rows, out j then in j for every node j with
       such edges, then the pooled cuts newest first. Everything but the
       cuts is built here, once. A basis leaves the call keyed by what
       its columns and rows are on the platform ([warm_basis]: edges by
       endpoints, port rows by node id, cuts by their edge set), which
       is what makes it portable to a survivor platform or the next
       epoch. *)
    let nv = 1 + ne in
    let ports =
      List.init n (fun j ->
          [
            (Out j, out_edge_ids.(j), cap_of send_cap j);
            (In j, in_edge_ids.(j), cap_of recv_cap j);
          ])
      |> List.concat |> List.filter (fun (_, ids, _) -> ids <> []) |> Array.of_list
    in
    let n_port = Array.length ports in
    let port_rhs = Array.map (fun (row, _, cap) -> cap +. nudge row) ports in
    (* Each edge column's port entries, by ascending row. *)
    let port_entries = Array.make ne [] in
    Array.iteri
      (fun i (_, ids, _) ->
        List.iter (fun e -> port_entries.(e) <- (i, cost e) :: port_entries.(e)) ids)
      ports;
    let port_rows = Array.map (fun l -> Array.of_list (List.rev_map fst l)) port_entries in
    let port_vals = Array.map (fun l -> Array.of_list (List.rev_map snd l)) port_entries in
    (* Cut pool: every distinct cut ever separated stays in the working LP
       (deduplicated — the naive loop kept re-adding the same cuts and blew
       the LP up to thousands of rows). The pool stays small in practice
       (~1-2 cuts per edge), so each per-round LP re-solve is cheap.
       [crossing.(e)] counts the pooled cuts that edge e crosses. *)
    let pool : (int list, unit) Hashtbl.t = Hashtbl.create 64 in
    let pooled = ref [] in
    let crossing = Array.make ne 0 in
    (* An imported cut keeps its [row] if equal, so related bases share it. *)
    let add_cut ?row cut_edges =
      let key = List.sort_uniq Int.compare cut_edges in
      if not (Hashtbl.mem pool key) then begin
        Hashtbl.replace pool key ();
        let pairs =
          List.sort compare
            (List.map (fun e -> (edges.(e).Digraph.src, edges.(e).Digraph.dst)) key)
        in
        let ends = Array.of_list (List.concat_map (fun (u, v) -> [ u; v ]) pairs) in
        let row = match row with Some (Cut e as row) when e = ends -> row | _ -> Cut ends in
        List.iter (fun e -> crossing.(e) <- crossing.(e) + 1) key;
        pooled := { ids = Array.of_list key; row; rhs = nudge row } :: !pooled
      end
    in
    (* Initial trivial cuts keep rho bounded: around the source and around
       each target. *)
    add_cut out_edge_ids.(source);
    List.iter (fun t -> add_cut in_edge_ids.(t)) targets;
    (* The rows of the LP over the cuts [cuts], in order. *)
    let rows_of cuts =
      Array.append (Array.map (fun (row, _, _) -> row) ports) (Array.map (fun c -> c.row) cuts)
    in
    (* The caller's basis. Its cut rows are complete descriptions of the
       cuts themselves, so they join the pool up front: round 0 then
       builds the producer's final model directly, and the basis
       re-solves it in a handful of dual pivots instead of replaying the
       whole cut-generation loop against a trivial pool. Pairs whose edge
       no longer exists are dropped — a node-partition cut stays valid
       under edge deletion, fewer crossing edges only tighten it — and
       cuts with no surviving edges are skipped rather than imported as
       an empty (rho <= 0) row. [caller cuts] then maps the basis onto
       the LP whose cuts are [cuts]: edges by endpoints, a slack by its
       row's identity, so a cut that lost pairs is a new row. *)
    let caller =
      Option.map
        (fun w ->
          let edge_id = Hashtbl.create ne in
          Array.iteri
            (fun e ({ Digraph.src; dst; _ } : Digraph.edge) ->
              Hashtbl.replace edge_id (src, dst) e)
            edges;
          Array.iter
            (function
              | Cut ends as row ->
                let ids =
                  List.filter_map
                    (fun k -> Hashtbl.find_opt edge_id (ends.(2 * k), ends.((2 * k) + 1)))
                    (List.init (Array.length ends / 2) Fun.id)
                in
                if ids <> [] then add_cut ~row ids
              | Out _ | In _ -> ())
            w.rows;
          let old = Hashtbl.create (Array.length w.rows) in
          Array.iter (fun row -> Hashtbl.replace old row ()) w.rows;
          fun cuts ->
            let rows = rows_of cuts in
            let row_of = Hashtbl.create (Array.length rows) in
            Array.iteri (fun i row -> Hashtbl.replace row_of row i) rows;
            let col = function
              | Rho -> 0
              | Occ (u, v) -> Option.fold (Hashtbl.find_opt edge_id (u, v)) ~none:(-1) ~some:succ
              | Slack r -> Option.fold (Hashtbl.find_opt row_of r) ~none:(-1) ~some:(( + ) nv)
            in
            let is_new_row i = not (Hashtbl.mem old rows.(i)) in
            { Revised_simplex.basic = Array.map col w.basic; is_new_row })
        warm
    in
    (* A round's LP in the engine's standard form, over the cuts [cuts];
       both rungs of the solver chain read it. A cut row
       -rho + sum n_e >= -nudge is stored negated, as the engine would
       normalize it: rho - sum n_e <= nudge. *)
    let form cuts =
      let nc = Array.length cuts in
      (* Each edge column holds its port entries, then -1 on every cut
         row it crosses, filled in row order below. *)
      let fill = Array.map Array.length port_rows in
      let edge_col e =
        let k = fill.(e) in
        let rows = Array.make (k + crossing.(e)) 0 in
        let vals = Array.make (k + crossing.(e)) (-1.0) in
        Array.blit port_rows.(e) 0 rows 0 k;
        Array.blit port_vals.(e) 0 vals 0 k;
        (rows, vals)
      in
      let cols =
        Array.init nv (fun j ->
            if j = 0 then (Array.init nc (fun k -> n_port + k), Array.make nc 1.0)
            else edge_col (j - 1))
      in
      Array.iteri
        (fun k c ->
          Array.iter
            (fun e ->
              (fst cols.(1 + e)).(fill.(e)) <- n_port + k;
              fill.(e) <- fill.(e) + 1)
            c.ids)
        cuts;
      Revised_simplex.le_form ~objective:[ (1.0, 0) ] ~cols
        ~rhs:(Array.append port_rhs (Array.map (fun c -> c.rhs) cuts))
    in
    (* Warm-start state, as the map onto a round's LP: the caller's
       basis, mapped afresh each round, until a round of this loop yields
       one; then that round's basis as column indices. Cut rows only
       ever relax the previous optimum's dual feasibility — a new violated
       row enters with its slack basic — so chaining turns each round
       after the first into a short dual re-solve. The rows a round adds
       sit between the port rows and the older cuts, so an older basis
       maps onto the new LP by shifting its cut slacks past the new rows,
       which are the only ones it lacks. *)
    let start = ref caller in
    let chained (basic, old) cuts =
      let shift = Array.length cuts - Array.length old and first_cut = nv + n_port in
      {
        Revised_simplex.basic = Array.map (fun j -> if j < first_cut then j else j + shift) basic;
        is_new_row = (fun i -> i >= n_port && i < n_port + shift);
      }
    in
    (* The basis leaving the call, in the typed form: a round's basic
       indices into the LP over [cuts]. *)
    let export (basic, cuts) =
      let rows = rows_of cuts in
      let col j =
        if j = 0 then Rho
        else if j < nv then Occ (edges.(j - 1).Digraph.src, edges.(j - 1).Digraph.dst)
        else Slack rows.(j - nv)
      in
      { basic = Array.map col basic; rows }
    in
    let net = Maxflow.create ~n ~edges:(Array.map (fun e -> (e.Digraph.src, e.Digraph.dst)) edges) in
    let caps values = Array.init ne (fun e -> max 0.0 values.(1 + e)) in
    let rounds_used = ref 0 in
    let best_seen = ref None in
    let rec iterate round =
      rounds_used := round;
      let cuts = Array.of_list !pooled in
      match Solver_chain.solve ?start:(Option.map (fun f -> f cuts) !start) (form cuts) with
      | Solver_chain.Infeasible | Solver_chain.Unbounded -> None
      | Solver_chain.Optimal (sol, engine) ->
        let basis = match engine with `Revised basic -> Some (basic, cuts) | `Exact -> None in
        if chain then Option.iter (fun b -> start := Some (chained b)) basis;
        let r = sol.Lp_model.values.(0) in
        (* Track the tightest relaxation seen: rho must be non-increasing as
           cuts accumulate; a numerical wobble upward is ignored in favour
           of the stored best. *)
        (match !best_seen with
        | Some (r_best, _, _) when r_best <= r -> ()
        | _ -> best_seen := Some (r, sol, basis));
        if round >= 400 then Option.map (fun (_, s, b) -> (s, b)) !best_seen
        else begin
          let caps = caps sol.Lp_model.values in
          let violated = ref 0 in
          List.iter
            (fun t ->
              (* The tolerance sits safely above the rhs perturbation
                 (at most ~1e-6), else separation would chase the nudges
                 forever. The LB is exact up to this absolute slack. The
                 flow stops once it carries r: a flow that falls short of
                 r never met the limit, so it ran exactly as an unlimited
                 one would, and its cuts are the same. *)
              if Maxflow.run net ~cap:caps ~s:source ~t ~limit:r () < r -. 3e-6 then begin
                incr violated;
                (* Both minimum cuts, read in one pass over the edges. The
                   sink-side cut is usually distinct; adding both sharply
                   reduces the zigzagging of the cut loop (see the
                   ablation_cuts bench section). *)
                let src_side, snk_side = Maxflow.cut_sides net ~s:source ~t in
                let cut_s = ref [] and cut_t = ref [] in
                for e = ne - 1 downto 0 do
                  let { Digraph.src; dst; _ } = edges.(e) in
                  if src_side.(src) && not src_side.(dst) then cut_s := e :: !cut_s;
                  if (not snk_side.(src)) && snk_side.(dst) then cut_t := e :: !cut_t
                done;
                add_cut !cut_s;
                if two_sided && !cut_t <> !cut_s then add_cut !cut_t
              end)
            targets;
          (* On convergence return the CURRENT solution: it satisfies every
             pooled cut, which the stored minimum (an earlier round plus
             perturbation noise) need not. best_seen only serves the
             round-cap fallback. *)
          if !violated = 0 then Some (sol, basis) else iterate (round + 1)
        end
    in
    match iterate 0 with
    | None -> None
    | Some (sol, basis) ->
      let basis = Option.map export basis in
      let throughput = sol.Lp_model.values.(0) in
      if throughput < eps then None
      else begin
        (* Recover per-target flows of value rho under the optimal edge
           occupations, for node contributions and schedule building. *)
        let caps = caps sol.Lp_model.values in
        let node_inflow = Array.make n 0.0 in
        let usage = Array.make ne 0.0 in
        let commodity_flows =
          List.map
            (fun t ->
              ignore (Maxflow.run net ~cap:caps ~s:source ~t ~limit:throughput ());
              let flows =
                List.filter_map
                  (fun e ->
                    let f = Maxflow.flow net e in
                    if f > eps then begin
                      node_inflow.(edges.(e).Digraph.dst) <-
                        node_inflow.(edges.(e).Digraph.dst) +. f;
                      if f > usage.(e) then usage.(e) <- f;
                      Some ((edges.(e).Digraph.src, edges.(e).Digraph.dst), f)
                    end
                    else None)
                  (List.init ne Fun.id)
              in
              ((source, t), flows))
            targets
        in
        let edge_usage =
          List.filter_map
            (fun e ->
              if usage.(e) > eps then
                Some ((edges.(e).Digraph.src, edges.(e).Digraph.dst), usage.(e))
              else None)
            (List.init ne Fun.id)
        in
        Some
          ( { throughput; period = 1.0 /. throughput; node_inflow; edge_usage; commodity_flows },
            !rounds_used,
            basis )
      end
  end

(* ------------------------------------------------------------------ *)

(* Per-formulation spans and counters: one span per public bound solved,
   so a trace attributes the underlying lp.solve spans (and their pivots)
   to the formulation that triggered them. Args live in ?result closures —
   free when tracing is disabled. *)

let lb_rounds = Metrics.histogram "formulations.lb_cut_rounds"

let formulation_span name (p : Platform.t) solve =
  Trace.with_span ~cat:"lp" name
    ~result:(fun r ->
      ("nodes", Trace.Int (Platform.n_nodes p))
      :: ("targets", Trace.Int (List.length p.Platform.targets))
      ::
      (match r with
      | None -> [ ("feasible", Trace.Bool false) ]
      | Some (s : solution) -> [ ("throughput", Trace.Float s.throughput) ]))
    solve

let multicast_groups (p : Platform.t) =
  List.map (fun t -> (t, [ p.Platform.source ])) p.Platform.targets

let multicast_ub (p : Platform.t) =
  formulation_span "formulations.multicast_ub" p (fun () -> solve_sum p (multicast_groups p))

let solve_max_counted ?two_sided ?warm ?chain ?send_cap ?recv_cap p =
  let r = solve_max ?two_sided ?warm ?chain ?send_cap ?recv_cap p in
  (match r with
  | Some (_, rounds, _) -> Metrics.observe lb_rounds (float_of_int rounds)
  | None -> ());
  r

let multicast_lb_warm ?warm ?chain ?send_cap ?recv_cap (p : Platform.t) =
  Trace.with_span ~cat:"lp" "formulations.multicast_lb"
    ~result:(fun r ->
      ("nodes", Trace.Int (Platform.n_nodes p))
      :: ("targets", Trace.Int (List.length p.Platform.targets))
      ::
      (match r with
      | None -> [ ("feasible", Trace.Bool false) ]
      | Some ((s : solution), _) -> [ ("throughput", Trace.Float s.throughput) ]))
    (fun () ->
      Option.map
        (fun (s, _, b) -> (s, b))
        (solve_max_counted ?warm ?chain ?send_cap ?recv_cap p))

let multicast_lb (p : Platform.t) = Option.map fst (multicast_lb_warm p)

let broadcast_eb (p : Platform.t) =
  formulation_span "formulations.broadcast_eb" p (fun () ->
      Option.map (fun (s, _, _) -> s) (solve_max_counted (Platform.broadcast_of p)))

let multicast_lb_stats ?two_sided (p : Platform.t) =
  Option.map (fun (s, r, _) -> (s, r)) (solve_max_counted ?two_sided p)

let multisource_groups (p : Platform.t) ~sources =
  (match sources with
  | s0 :: _ when s0 = p.Platform.source -> ()
  | _ -> invalid_arg "Formulations.multisource_ub: sources must start with the platform source");
  if List.length (List.sort_uniq compare sources) <> List.length sources then
    invalid_arg "Formulations.multisource_ub: duplicate sources";
  List.iter
    (fun s ->
      if s < 0 || s >= Platform.n_nodes p then
        invalid_arg "Formulations.multisource_ub: source out of range")
    sources;
  let sources_arr = Array.of_list sources in
  let l = Array.length sources_arr in
  (* Secondary sources receive the whole message from strictly earlier
     sources (eq. (1)/(2)); plain targets from any source ((1b)/(2b)). *)
  let groups = ref [] in
  for i = l - 1 downto 1 do
    groups := (sources_arr.(i), List.init i (fun j -> sources_arr.(j))) :: !groups
  done;
  List.iter
    (fun t -> if not (List.mem t sources) then groups := (t, sources) :: !groups)
    p.Platform.targets;
  !groups

let multisource_ub (p : Platform.t) ~sources =
  formulation_span "formulations.multisource_ub" p (fun () ->
      solve_sum p (multisource_groups p ~sources))

let scatter_groups ?sources p =
  match sources with None -> multicast_groups p | Some sources -> multisource_groups p ~sources

let path_master ?sources p = path_master_of p (scatter_groups ?sources p)

let multicast_ub_colgen ?sources (p : Platform.t) =
  formulation_span "formulations.multicast_ub_colgen" p (fun () ->
      solve_sum_colgen p (scatter_groups ?sources p))
