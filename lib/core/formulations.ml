let eps = 1e-7

type solution = {
  throughput : float;
  period : float;
  node_inflow : float array;
  edge_usage : ((int * int) * float) list;
  commodity_flows : ((int * int) * ((int * int) * float) list) list;
}

(* ------------------------------------------------------------------ *)
(* Scatter-style programs (Multicast-UB, MulticastMultiSource-UB):
   per-edge occupation is the sum of the commodities crossing it
   (constraint (10)), so the flows appear directly in the port rows.    *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Dantzig-Wolfe reformulation of the scatter programs, used when the
   arc formulation would be large: the master LP has one row per port
   plus one value row per destination group, and one column per
   origin->destination path. Pricing a group = cheapest path from any of
   its origins under the port duals (multi-source Dijkstra), so columns
   are generated until no path beats its group's value dual. Exact, like
   the arc formulation, up to the float LP tolerances.                   *)

let solve_sum_colgen (p : Platform.t) groups =
  let g = p.Platform.graph in
  let n = Digraph.n_nodes g in
  let groups = Array.of_list groups in
  let ng = Array.length groups in
  (* Feasibility: every destination reachable from some origin. *)
  let reachable_ok =
    Array.for_all
      (fun (dest, origins) ->
        List.exists (fun o -> (Traversal.reachable g o).(dest)) origins)
      groups
  in
  if not reachable_ok then None
  else begin
    (* Initial columns: one shortest path (by time) per group. *)
    let initial_path (dest, origins) =
      let r = Paths.dijkstra g ~sources:origins in
      Option.get (Paths.extract_path r dest)
    in
    let columns = ref (Array.to_list (Array.mapi (fun gid grp -> (gid, initial_path grp)) groups)) in
    let seen = Hashtbl.create 64 in
    List.iter (fun (gid, path) -> Hashtbl.replace seen (gid, path) ()) !columns;
    (* Port cost of a path: each edge (u,v) charges c_uv to u's out-port and
       v's in-port. *)
    let rec iterate round =
      let cols = Array.of_list !columns in
      let m = Lp_model.create () in
      let rho = Lp_model.add_var m "rho" in
      let y = Array.mapi (fun j _ -> Lp_model.add_var m (Printf.sprintf "p%d" j)) cols in
      (* value rows, one per group: sum of its path weights = rho *)
      for gid = 0 to ng - 1 do
        let expr = ref [ (-1.0, rho) ] in
        Array.iteri (fun j (gj, _) -> if gj = gid then expr := (1.0, y.(j)) :: !expr) cols;
        Lp_model.add_constraint m !expr Eq 0.0
      done;
      (* port rows: out then in, for every node *)
      let out_expr = Array.make n [] and in_expr = Array.make n [] in
      Array.iteri
        (fun j (_, path) ->
          List.iter
            (fun (u, v) ->
              let c = Rat.to_float (Digraph.cost g ~src:u ~dst:v) in
              out_expr.(u) <- (c, y.(j)) :: out_expr.(u);
              in_expr.(v) <- (c, y.(j)) :: in_expr.(v))
            (Paths.path_edges path))
        cols;
      (* Row order bookkeeping for duals: value rows 0..ng-1, then ports. *)
      let port_rows = ref [] in
      for v = 0 to n - 1 do
        if out_expr.(v) <> [] then begin
          Lp_model.add_constraint m out_expr.(v) Le 1.0;
          port_rows := (`Out v) :: !port_rows
        end;
        if in_expr.(v) <> [] then begin
          Lp_model.add_constraint m in_expr.(v) Le 1.0;
          port_rows := (`In v) :: !port_rows
        end
      done;
      let port_rows = Array.of_list (List.rev !port_rows) in
      Lp_model.set_objective m ~maximize:true [ (1.0, rho) ];
      match Solver_chain.solve_with_fallback m with
      | Solver_chain.Infeasible | Solver_chain.Unbounded -> None
      | Solver_chain.Optimal (sol, `Exact) ->
        (* Exact fallback means the float engine had trouble on this
           master: accept its optimum rather than keep pricing on a model
           that is numerically shaky (the exact duals exist but one
           degenerate master rarely prices a useful column). *)
        Some (cols, y, sol)
      | Solver_chain.Optimal (sol, `Revised) ->
        if round >= 300 then Some (cols, y, sol)
        else begin
          (* Duals: pi_out/pi_in per node (port rows), mu per group (value
             rows, indices 0..ng-1). *)
          let pi_out = Array.make n 0.0 and pi_in = Array.make n 0.0 in
          Array.iteri
            (fun i kind ->
              let d = max 0.0 sol.Lp_model.row_duals.(ng + i) in
              match kind with `Out v -> pi_out.(v) <- d | `In v -> pi_in.(v) <- d)
            port_rows;
          (* Pricing: for each group, cheapest path under edge price
             c_uv * (pi_out u + pi_in v); a column improves when its price
             is below the group's value dual mu_g. *)
          let price (e : Digraph.edge) =
            let c = Rat.to_float e.Digraph.cost in
            Rat.of_float_approx ~max_den:1_000_000
              (c *. (pi_out.(e.Digraph.src) +. pi_in.(e.Digraph.dst)) +. 1e-12)
          in
          let added = ref 0 in
          Array.iteri
            (fun gid (dest, origins) ->
              (* A path column's reduced cost is -(mu_g + price): it improves
                 while price < -mu_g (the value-row duals are negative, they
                 sum to -1 by rho's optimality). *)
              let mu = sol.Lp_model.row_duals.(gid) in
              let r = Paths.dijkstra_cost g ~cost:price ~sources:origins in
              match (Paths.extract_path r dest, r.Paths.dist.(dest)) with
              | Some path, Some d ->
                if
                  Rat.to_float d +. mu < -1e-7
                  && not (Hashtbl.mem seen (gid, path))
                then begin
                  Hashtbl.replace seen (gid, path) ();
                  columns := (gid, path) :: !columns;
                  incr added
                end
              | _ -> ())
            groups;
          if !added = 0 then Some (cols, y, sol) else iterate (round + 1)
        end
    in
    match iterate 0 with
    | None -> None
    | Some (cols, y, sol) ->
      let throughput = sol.Lp_model.values.(0) in
      if throughput < eps then None
      else begin
        (* Reassemble per-group edge flows from the path weights. *)
        let node_inflow = Array.make n 0.0 in
        let usage = Hashtbl.create 64 in
        let per_group = Array.make ng [] in
        Array.iteri
          (fun j (gid, path) ->
            let w = sol.Lp_model.values.(y.(j)) in
            if w > eps then
              List.iter
                (fun (u, v) ->
                  node_inflow.(v) <- node_inflow.(v) +. w;
                  Hashtbl.replace usage (u, v)
                    (w +. Option.value ~default:0.0 (Hashtbl.find_opt usage (u, v)));
                  per_group.(gid) <-
                    ((u, v), w) :: per_group.(gid))
                (Paths.path_edges path))
          cols;
        let merge flows =
          let t = Hashtbl.create 16 in
          List.iter
            (fun (e, w) ->
              Hashtbl.replace t e (w +. Option.value ~default:0.0 (Hashtbl.find_opt t e)))
            flows;
          Hashtbl.fold (fun e w acc -> (e, w) :: acc) t []
        in
        let commodity_flows =
          Array.to_list
            (Array.mapi
               (fun gid (dest, origins) ->
                 ((List.hd origins, dest), merge per_group.(gid)))
               groups)
        in
        let edge_usage = Hashtbl.fold (fun e w acc -> (e, w) :: acc) usage [] in
        Some
          { throughput; period = 1.0 /. throughput; node_inflow; edge_usage; commodity_flows }
      end
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
  let rho = Lp_model.add_var m "rho" in
  (* x.(c).(e): flow of commodity c on edge e; -1 when the edge is excluded
     for that commodity (out of its destination). *)
  let x = Array.make_matrix nc ne (-1) in
  for c = 0 to nc - 1 do
    let _, dest = commodities.(c) in
    for e = 0 to ne - 1 do
      let { Digraph.src; _ } = edges.(e) in
      if src <> dest then x.(c).(e) <- Lp_model.add_var m (Printf.sprintf "x_c%d_e%d" c e)
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
  match Solver_chain.solve_with_fallback m with
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

(* Arc formulation for small instances (lower constant factors), path
   column generation beyond that: the arc LP grows as |groups| * |E|
   columns and becomes the bottleneck on the 65-node platforms. *)
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

type warm_basis = Revised_simplex.warm

(* Port capacities (the session engine's capacity sharing, PR 9): the
   one-port rows default to the paper's full time unit, but a caller
   co-scheduling several sessions on one platform passes the *residual*
   capacity of every send/receive port — one time unit minus what the
   other sessions' plans already occupy. Only the right-hand sides
   change: variables, row names and coefficients are identical to the
   full-capacity model, so a warm basis ports freely between epochs
   whose residuals differ — a pure-rhs re-solve is the dual simplex's
   best case, which is what makes per-epoch incremental re-optimization
   cheap. *)
let cap_of caps j = match caps with None -> 1.0 | Some a -> Float.max 0.0 a.(j)

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
    let edges = Array.of_list (Digraph.edges g) in
    let ne = Array.length edges in
    let out_edge_ids, in_edge_ids = edge_index g edges in
    (* Cut pool: every distinct cut ever separated stays in the working LP
       (deduplicated — the naive loop kept re-adding the same cuts and blew
       the LP up to thousands of rows). The pool stays small in practice
       (~1-2 cuts per edge), so each per-round LP re-solve is cheap. *)
    let pool : (int list, unit) Hashtbl.t = Hashtbl.create 64 in
    let cuts = ref [] in
    let add_cut cut_edges =
      let key = List.sort_uniq compare cut_edges in
      if not (Hashtbl.mem pool key) then begin
        Hashtbl.replace pool key ();
        cuts := key :: !cuts
      end
    in
    (* Initial trivial cuts keep rho bounded: around the source and around
       each target. *)
    add_cut out_edge_ids.(source);
    List.iter (fun t -> add_cut in_edge_ids.(t)) targets;
    (* Warm cut-pool import: the warm basis carries the source model's row
       names, and a cut row's name ("cut:u>v,...") is a complete, portable
       serialization of the cut itself. Re-materializing those cuts up
       front lets round 0 build the producer's final model directly, so
       the warm basis re-solves it in a handful of dual pivots instead of
       replaying the whole cut-generation loop against a trivial pool.
       Pairs whose edge no longer exists are dropped — a node-partition
       cut stays valid under edge deletion, fewer crossing edges only
       tighten it — and cuts with no surviving edges are skipped rather
       than imported as an empty (rho <= 0) row. *)
    (match warm with
    | None -> ()
    | Some w ->
      let edge_id = Hashtbl.create ne in
      Array.iteri
        (fun e ({ Digraph.src; dst; _ } : Digraph.edge) ->
          Hashtbl.replace edge_id (src, dst) e)
        edges;
      Array.iter
        (fun nm ->
          if String.length nm > 4 && String.sub nm 0 4 = "cut:" then begin
            let ids =
              List.filter_map
                (fun pair ->
                  match String.index_opt pair '>' with
                  | None -> None
                  | Some k -> (
                    match
                      ( int_of_string_opt (String.sub pair 0 k),
                        int_of_string_opt
                          (String.sub pair (k + 1) (String.length pair - k - 1)) )
                    with
                    | Some u, Some v -> Hashtbl.find_opt edge_id (u, v)
                    | _ -> None))
                (String.split_on_char ',' (String.sub nm 4 (String.length nm - 4)))
            in
            if ids <> [] then add_cut ids
          end)
        w.Revised_simplex.wrows);
    let cap_edges values nv =
      Array.mapi
        (fun e ({ Digraph.src; dst; _ } : Digraph.edge) ->
          (src, dst, max 0.0 values.(nv.(e))))
        edges
    in
    let rounds_used = ref 0 in
    let best_seen = ref None in
    (* Warm-start state: the basis of the previous round's optimum (or the
       caller's, round 0). Cut rows only ever relax the previous optimum's
       dual feasibility — a new violated row enters with its slack basic —
       so chaining turns each round after the first into a short dual
       re-solve. All names are stable functions of the platform (variables
       by edge endpoints, rows via ?name below), which is what makes the
       basis portable both round-to-round and across survivor platforms. *)
    let warm_ref = ref warm in
    let rec iterate round =
      rounds_used := round;
      (* Fresh model: ports + all pooled cuts. *)
      let m = Lp_model.create () in
      let rho = Lp_model.add_var m "rho" in
      let nv =
        Array.init ne (fun e ->
            Lp_model.add_var m
              (Printf.sprintf "n_%d_%d" edges.(e).Digraph.src edges.(e).Digraph.dst))
      in
      let cut_name cut =
        let pairs =
          List.sort compare
            (List.map (fun e -> (edges.(e).Digraph.src, edges.(e).Digraph.dst)) cut)
        in
        "cut:"
        ^ String.concat "," (List.map (fun (u, v) -> Printf.sprintf "%d>%d" u v) pairs)
      in
      let port_row ids =
        List.map (fun e -> (Rat.to_float edges.(e).Digraph.cost, nv.(e))) ids
      in
      (* Relax-only rhs perturbation: the cut LPs are massively degenerate
         (hundreds of near-parallel cut rows); nudging each right-hand side
         by a distinct tiny slack breaks the ties that make Dantzig crawl.
         Every nudge relaxes, so feasibility is preserved and the optimum
         moves by O(1e-7). The nudge is keyed to the row's {e name} (a
         stable function of the platform), not its insertion order: a row
         must keep its rhs bit-for-bit across cut rounds and across
         nominal/survivor models, or every warm-started re-solve would see
         each reordered row as a fresh noise-level primal violation and
         the dual simplex would pivot once per row to fix pure noise. *)
      let eps_of name = 1e-8 *. float_of_int (1 + (Hashtbl.hash name mod 97)) in
      for j = 0 to Digraph.n_nodes g - 1 do
        let out = port_row out_edge_ids.(j) in
        let out_name = Printf.sprintf "out%d" j in
        if out <> [] then
          Lp_model.add_constraint m ~name:out_name out Le
            (cap_of send_cap j +. eps_of out_name);
        let inp = port_row in_edge_ids.(j) in
        let in_name = Printf.sprintf "in%d" j in
        if inp <> [] then
          Lp_model.add_constraint m ~name:in_name inp Le
            (cap_of recv_cap j +. eps_of in_name)
      done;
      List.iter
        (fun cut ->
          let name = cut_name cut in
          Lp_model.add_constraint m ~name
            ((-1.0, rho) :: List.map (fun e -> (1.0, nv.(e))) cut)
            Ge (-.eps_of name))
        !cuts;
      Lp_model.set_objective m ~maximize:true [ (1.0, rho) ];
      match Solver_chain.solve_warm ?warm:!warm_ref m with
      | (Solver_chain.Infeasible | Solver_chain.Unbounded), _ -> None
      | Solver_chain.Optimal (sol, _), basis ->
        if chain && basis <> None then warm_ref := basis;
        (* Track the tightest relaxation seen: rho must be non-increasing as
           cuts accumulate; a numerical wobble upward is ignored in favour
           of the stored best. *)
        let keep =
          match !best_seen with
          | Some (r_best, _, _, _, _) when r_best <= sol.Lp_model.values.(rho) -> !best_seen
          | _ -> Some (sol.Lp_model.values.(rho), sol, rho, nv, basis)
        in
        best_seen := keep;
        if round >= 400 then Option.map (fun (_, s, r, n, b) -> (s, r, n, b)) !best_seen
        else begin
          let r = sol.Lp_model.values.(rho) in
          let caps = cap_edges sol.Lp_model.values nv in
          let violated = ref 0 in
          List.iter
            (fun t ->
              let mf = Maxflow.solve ~n:(Digraph.n_nodes g) ~edges:caps ~s:source ~t () in
              (* The tolerance sits safely above the rhs perturbation
                 (at most ~1e-6), else separation would chase the nudges
                 forever. The LB is exact up to this absolute slack. *)
              if mf.Maxflow.value < r -. 3e-6 then begin
                incr violated;
                let cut_s =
                  List.filter
                    (fun e ->
                      mf.Maxflow.source_side.(edges.(e).Digraph.src)
                      && not mf.Maxflow.source_side.(edges.(e).Digraph.dst))
                    (List.init ne Fun.id)
                in
                add_cut cut_s;
                (* The sink-side min cut is usually distinct; adding both
                   sharply reduces the zigzagging of the cut loop (see the
                   ablation_cuts bench section). *)
                if two_sided then begin
                  let cut_t =
                    List.filter
                      (fun e ->
                        (not mf.Maxflow.sink_side.(edges.(e).Digraph.src))
                        && mf.Maxflow.sink_side.(edges.(e).Digraph.dst))
                      (List.init ne Fun.id)
                  in
                  if cut_t <> cut_s then add_cut cut_t
                end
              end)
            targets;
          (* On convergence return the CURRENT solution: it satisfies every
             pooled cut, which the stored minimum (an earlier round plus
             perturbation noise) need not. best_seen only serves the
             round-cap fallback. *)
          if !violated = 0 then Some (sol, rho, nv, basis) else iterate (round + 1)
        end
    in
    match iterate 0 with
    | None -> None
    | Some (sol, rho, nv, basis) ->
      let throughput = sol.Lp_model.values.(rho) in
      if throughput < eps then None
      else begin
        (* Recover per-target flows of value rho under the optimal edge
           occupations, for node contributions and schedule building. *)
        let caps = cap_edges sol.Lp_model.values nv in
        let node_inflow = Array.make (Digraph.n_nodes g) 0.0 in
        let usage = Array.make ne 0.0 in
        let commodity_flows =
          List.map
            (fun t ->
              let mf =
                Maxflow.solve ~n:(Digraph.n_nodes g) ~edges:caps ~s:source ~t
                  ~limit:throughput ()
              in
              let flows =
                List.filter_map
                  (fun e ->
                    let f = mf.Maxflow.edge_flow.(e) in
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

let multicast_ub (p : Platform.t) =
  formulation_span "formulations.multicast_ub" p (fun () ->
      solve_sum p (List.map (fun t -> (t, [ p.Platform.source ])) p.Platform.targets))

let multicast_ub_colgen (p : Platform.t) =
  formulation_span "formulations.multicast_ub_colgen" p (fun () ->
      solve_sum_colgen p (List.map (fun t -> (t, [ p.Platform.source ])) p.Platform.targets))

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

let multisource_ub_impl (p : Platform.t) ~sources =
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
  solve_sum p !groups

let multisource_ub (p : Platform.t) ~sources =
  formulation_span "formulations.multisource_ub" p (fun () ->
      multisource_ub_impl p ~sources)
