(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md experiment index E1..E11).

   Usage: dune exec bench/main.exe -- [--only fig11,fig5] [--trials N]
            [--big-trials N] [--fast] [--out-dir DIR]
            [--check-against FILE] [--check-tolerance F] [--check-time-tolerance F]

   --only takes section names from the [sections] table at the end of this
   file; an unknown name, a malformed value or a count below 1 is a usage
   error (exit 2) before any section runs.

   --check-against gates the run's final metrics snapshot against a
   committed baseline (bench/baseline.json in CI): counter growth past the
   tolerance, a fallen LP-cache hit rate or a vanished metric fails the
   process with exit code 1 (exit 2 = unreadable baseline). See Regress.

   Absolute numbers differ from the paper (their testbed and LP solver, our
   simulator); each section prints the paper's qualitative claim next to
   the measured shape so the comparison is explicit. *)

let out_dir = ref "bench_out"
let trials = ref 10
let big_trials = ref 3
let only : string list ref = ref []
let fast = ref false
let jobs = ref (Pool.default_jobs ())
let trace_out : string option ref = ref None
let check_against : string option ref = ref None
let check_tolerance = ref 0.25
let check_time_tolerance : float option ref = ref None

let banner title = Printf.printf "\n==== %s ====\n%!" title

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Nearest-rank percentile. *)
let percentile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let n = List.length sorted in
    List.nth sorted (max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let ensure_out_dir () =
  try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let write_out fname text =
  ensure_out_dir ();
  Out_channel.with_open_text (Filename.concat !out_dir fname) (fun oc -> output_string oc text)

(* Gnuplot-ready data: a header, then one row per [(label, values)]. *)
let write_dat fname header rows =
  let row (label, xs) = label ^ String.concat "" (List.map (Printf.sprintf " %.4f") xs) ^ "\n" in
  write_out fname (String.concat "" (("# " ^ header ^ "\n") :: List.map row rows));
  Printf.printf "gnuplot data: %s/%s\n" !out_dir fname

let check text ok =
  Printf.printf "shape check: %s — %s\n" text (if ok then "OK" else "MISMATCH")

(* Prints each [(key, text, ok)] verdict and returns them as the summary's
   "shape" object. *)
let checks cs =
  List.iter (fun (_, text, ok) -> check text ok) cs;
  Json.JObj (List.map (fun (key, _, ok) -> (key, Json.JBool ok)) cs)

(* Machine-readable summaries, BENCH_<n>.json in the output directory: 2
   (robustness tables), 3 (parallel engine), 5 (metrics registry, the
   regression-gate baseline format), 6-9 (storms, soak, sessions, SLO).
   CI archives bench_out/BENCH_*.json. *)
let summary n label fields =
  let fname = Printf.sprintf "BENCH_%d.json" n in
  write_out fname (Json.to_string (Json.JObj fields));
  Printf.printf "%s summary: %s\n" label (Filename.concat !out_dir fname)

let num f = Json.JNum f
let str s = Json.JStr s

(* The robustness experiments (R1/R2) each fill one member of
   BENCH_2.json, written at the end of the run for CI to archive and diff. *)
let r1_means : (string * Json.t) list ref = ref []
let r2_rows : (string * Json.t) list ref = ref []

type r2_row = {
  r2_kind : string;
  r2_nominal_wc : float;  (* worst-case retention of the plain MCPH plan *)
  r2_robust_wc : float;  (* worst-case retention of the robust plan *)
  r2_nominal_mean : float;
  r2_robust_mean : float;
  r2_nominal_thr : float;  (* nominal throughput of the MCPH plan *)
  r2_robust_thr : float;  (* nominal throughput of the robust plan *)
}

(* ------------------------------------------------------------------ *)
(* E1 — Fig. 1: a single tree is not enough.                            *)

let fig1 () =
  banner "E1 / Fig.1 — single multicast tree vs. combination of trees";
  let p = Paper_platforms.fig1 () in
  let best = Option.get (Complexity.best_single_tree p) in
  let t1e, t2e = Paper_platforms.fig1_trees () in
  let set =
    Tree_set.make
      [
        (Multicast_tree.of_edges_exn p t1e, Rat.of_ints 1 2);
        (Multicast_tree.of_edges_exn p t2e, Rat.of_ints 1 2);
      ]
  in
  let sched = Schedule.of_tree_set set in
  let sim = Result.get_ok (Event_sim.run sched ~periods:16) in
  Printf.printf "%-44s %10s %10s\n" "quantity" "paper" "measured";
  Printf.printf "%-44s %10s %10s\n" "upper bound on throughput (P7 in-capacity)" "1" "1";
  Printf.printf "%-44s %10s %10s\n" "best single-tree throughput" "< 1"
    (Rat.to_string (Multicast_tree.throughput best));
  Printf.printf "%-44s %10s %10s\n" "two trees at weight 1/2: feasible" "yes"
    (if Tree_set.is_feasible set then "yes" else "no");
  Printf.printf "%-44s %10s %10.3f\n" "two-tree throughput (simulated)" "1"
    sim.Event_sim.measured_throughput;
  check "single tree strictly below 1, combination reaches it"
    (Rat.(Multicast_tree.throughput best < one)
    && abs_float (sim.Event_sim.measured_throughput -. 1.0) < 0.05)

(* ------------------------------------------------------------------ *)
(* E2 — §4 complexity table: gadget correspondence.                     *)

let table_complexity () =
  banner "E2 / Section 4 — NP-hardness gadget: best tree throughput = B/K*";
  let rng = Random.State.make [| 2004 |] in
  Printf.printf "%6s %6s %6s %6s | %12s %12s %8s\n" "trial" "|X|" "|C|" "B" "B/K*"
    "tree thr" "match";
  let all_ok = ref true in
  for trial = 1 to 8 do
    let universe = 4 + Random.State.int rng 3 in
    let n_sets = 3 + Random.State.int rng 2 in
    let cover = Set_cover.random rng ~universe ~n_sets ~density:0.4 in
    let bound = 1 + Random.State.int rng 2 in
    let thr, k_star, ok = Complexity.verify_gadget_correspondence cover ~bound in
    if not ok then all_ok := false;
    Printf.printf "%6d %6d %6d %6d | %12.4f %12.4f %8s\n" trial universe n_sets bound
      (float_of_int bound /. float_of_int k_star)
      thr
      (if ok then "OK" else "FAIL")
  done;
  check "single-tree optimum always equals B/K* (Theorems 1-2)" !all_ok

(* ------------------------------------------------------------------ *)
(* E3 — Fig. 4: neither bound tight.                                    *)

let fig4 () =
  banner "E3 / Fig.4 — neither LP bound is tight";
  let p = Paper_platforms.fig4 () in
  let lb = Option.get (Formulations.multicast_lb p) in
  let ub = Option.get (Formulations.multicast_ub p) in
  let opt = Option.get (Complexity.optimal_tree_packing p) in
  let opt_thr = Rat.to_float (Tree_set.throughput opt) in
  Printf.printf "%-36s %10s %10s\n" "quantity (throughput)" "paper" "measured";
  Printf.printf "%-36s %10s %10.4f\n" "Multicast-LB (optimistic)" "2/3"
    lb.Formulations.throughput;
  Printf.printf "%-36s %10s %10.4f\n" "best multicast (tree packing)" "1/2" opt_thr;
  Printf.printf "%-36s %10s %10.4f\n" "Multicast-UB (scatter)" "1/3"
    ub.Formulations.throughput;
  check "LB > OPT > UB strictly"
    (lb.Formulations.throughput > opt_thr +. 0.01 && opt_thr > ub.Formulations.throughput +. 0.01)

(* ------------------------------------------------------------------ *)
(* E4 — Fig. 5: the |T| gap family.                                     *)

let fig5 () =
  banner "E4 / Fig.5 — UB/LB period ratio reaches |P_target|";
  Printf.printf "%10s %12s %12s %12s %10s\n" "targets" "LB period" "UB period" "ratio" "paper";
  let ok = ref true in
  List.iter
    (fun n ->
      let p = Paper_platforms.fig5 ~n_targets:n in
      let lb = Formulations.period_of (Formulations.multicast_lb p) in
      let ub = Formulations.period_of (Formulations.multicast_ub p) in
      let ratio = ub /. lb in
      if abs_float (ratio -. float_of_int n) > 0.15 then ok := false;
      Printf.printf "%10d %12.4f %12.4f %12.3f %10d\n" n lb ub ratio n)
    [ 2; 3; 4; 6; 8 ];
  check "ratio tracks the target count" !ok

(* ------------------------------------------------------------------ *)
(* E5-E8 — Fig. 11: the main heuristic comparison.                      *)

let densities = [ 0.1; 0.2; 0.4; 0.6; 0.8; 1.0 ]

let ratio_methods =
  [ "lower bound"; "broadcast"; "MCPH"; "Augm. MC"; "Red. BC"; "Multisource MC" ]

(* Runs the portfolio across seeds and densities; returns
   (density, method -> mean period) rows plus the LAN pool size. *)
let fig11_data params n_trials ~tries =
  let lan = ref 0 in
  let table =
    List.map
      (fun d ->
        let per_method = Hashtbl.create 16 in
        List.iter (fun m -> Hashtbl.replace per_method m []) ("scatter" :: ratio_methods);
        for seed = 1 to n_trials do
          (* Same seed at every density: the paper reuses 10 fixed
             platforms per class and varies only the target draw. *)
          let rng = Random.State.make [| seed; 1789 |] in
          let probe = Tiers.generate rng params ~n_targets:1 in
          lan := List.length (Platform.lan_nodes probe);
          let k = max 1 (int_of_float (Float.round (d *. float_of_int !lan))) in
          let n_targets = min k !lan in
          let rng = Random.State.make [| seed; 1789 |] in
          let p = Tiers.generate rng params ~n_targets in
          let report = Heuristics.run_all ~max_tries_per_round:tries p in
          List.iter
            (fun (e : Heuristics.entry) ->
              if Hashtbl.mem per_method e.Heuristics.name then
                Hashtbl.replace per_method e.Heuristics.name
                  (e.Heuristics.period :: Hashtbl.find per_method e.Heuristics.name))
            report.Heuristics.entries
        done;
        (d, fun name -> mean (Hashtbl.find per_method name)))
      densities
  in
  (table, !lan)

(* One Fig. 11 panel: each method's mean period as a ratio to [vs]'s,
   printed and written as gnuplot data (one row per density, one column
   per method) — the paper's panels plot exactly these series. *)
let fig11_panel letter ~vs table =
  let methods = "scatter" :: ratio_methods in
  let rows = List.map (fun (d, mean) -> (d, List.map (fun m -> mean m /. mean vs) methods)) table in
  Printf.printf "\n-- Fig.11(%s): mean period ratio to \"%s\" --\n" letter vs;
  Printf.printf "%8s" "density";
  List.iter (fun m -> Printf.printf " %14s" m) methods;
  Printf.printf "\n";
  List.iter
    (fun (d, ratios) ->
      Printf.printf "%8.2f" d;
      List.iter (Printf.printf " %14.3f") ratios;
      Printf.printf "\n")
    rows;
  let column = String.map (fun c -> if c = ' ' then '_' else c) in
  write_dat ("fig11" ^ letter ^ ".dat")
    ("density " ^ String.concat " " (List.map column methods))
    (List.map (fun (d, ratios) -> (Printf.sprintf "%.2f" d, ratios)) rows)

let shape_checks_fig11 table =
  (* The §7 findings: (1) the refined LP heuristics sit close to the lower
     bound and far below scatter at moderate densities; (2) MCPH is close
     to them; (3) whole-platform broadcast becomes competitive once the
     density is large enough. *)
  let ok1 = ref true and ok2 = ref true and ok3 = ref true in
  List.iter
    (fun (d, mean) ->
      if d >= 0.4 then begin
        let lb = mean "lower bound" in
        let best_lp = min (mean "Augm. MC") (min (mean "Red. BC") (mean "Multisource MC")) in
        if best_lp > 0.8 *. mean "scatter" then ok1 := false;
        if best_lp > 2.2 *. lb then ok1 := false;
        if mean "MCPH" > 2.5 *. best_lp then ok2 := false;
        if mean "broadcast" > 1.7 *. best_lp then ok3 := false
      end)
    table;
  check "LP heuristics close to LB, well below scatter" !ok1;
  check "MCPH close to the LP heuristics" !ok2;
  check "plain broadcast competitive at density >= 0.4" !ok3

let fig11 title params n_trials ~tries (scatter_panel, lb_panel) =
  banner title;
  Printf.printf "trials per density: %d\n%!" n_trials;
  let table, lan = fig11_data params n_trials ~tries in
  Printf.printf "LAN host pool: %d\n" lan;
  fig11_panel scatter_panel ~vs:"scatter" table;
  fig11_panel lb_panel ~vs:"lower bound" table;
  shape_checks_fig11 table

let fig11_small () =
  fig11 "E5/E6 / Fig.11(a,b) — small platforms (30 nodes, 17 LAN hosts)" Tiers.small_params
    !trials ~tries:3 ("a", "b")

let fig11_big () =
  fig11 "E7/E8 / Fig.11(c,d) — big platforms (65 nodes, 47 LAN hosts)" Tiers.big_params
    !big_trials ~tries:2 ("c", "d")

(* ------------------------------------------------------------------ *)
(* E9 — Fig. 12: one topology, MCPH vs Multisource MC, DOT dumps.       *)

let fig12 () =
  banner "E9 / Fig.12 — topology walk-through (MCPH vs Multisource MC)";
  ensure_out_dir ();
  let rng = Random.State.make [| 1996 |] in
  let p = Tiers.generate rng Tiers.small_params ~n_targets:8 in
  Printf.printf "%s\n" (Platform.describe p);
  Format.printf "topology: %a@." Topology_stats.pp (Topology_stats.compute p);
  Dot.save
    (Filename.concat !out_dir "fig12_topology.dot")
    (Dot.digraph ~highlight_nodes:p.Platform.targets p.Platform.graph);
  let mcph = Option.get (Mcph.run p) in
  Dot.save
    (Filename.concat !out_dir "fig12_mcph.dot")
    (Dot.digraph ~highlight_nodes:p.Platform.targets
       ~highlight_edges:(Multicast_tree.edges mcph.Mcph.tree) p.Platform.graph);
  let ms = Option.get (Multisource.run ~max_tries_per_round:3 p) in
  let ms_edges = List.map fst ms.Multisource.solution.Formulations.edge_usage in
  Dot.save
    (Filename.concat !out_dir "fig12_multisource.dot")
    (Dot.digraph ~highlight_nodes:p.Platform.targets
       ~diamond_nodes:(List.tl ms.Multisource.sources) ~highlight_edges:ms_edges
       p.Platform.graph);
  let mcph_period = Rat.to_float mcph.Mcph.period in
  Printf.printf "MCPH period: %.1f   Multisource MC period: %.1f (secondary sources: %s)\n"
    mcph_period ms.Multisource.period
    (String.concat ", "
       (List.map (Digraph.label p.Platform.graph) (List.tl ms.Multisource.sources)));
  Printf.printf "DOT dumps in %s/ (fig12_{topology,mcph,multisource}.dot)\n" !out_dir;
  check "Multisource MC at least as fast as the MCPH tree (paper: 789 vs 1000)"
    (ms.Multisource.period <= mcph_period +. 1e-6)

(* ------------------------------------------------------------------ *)
(* E10 — §7 running-time comparison (bechamel).                         *)

let speed () =
  banner "E10 / Section 7 — running time: MCPH vs LP-based methods";
  let rng = Random.State.make [| 11 |] in
  let p = Tiers.generate rng Tiers.small_params ~n_targets:8 in
  let open Bechamel in
  let open Toolkit in
  let tests =
    Test.make_grouped ~name:"" ~fmt:"%s%s"
      [
        Test.make ~name:"MCPH (tree heuristic)" (Staged.stage (fun () -> ignore (Mcph.run p)));
        Test.make ~name:"Multicast-UB (scatter LP)"
          (Staged.stage (fun () -> ignore (Formulations.multicast_ub p)));
        Test.make ~name:"Broadcast-EB (cut-generation LP)"
          (Staged.stage (fun () -> ignore (Formulations.broadcast_eb p)));
        Test.make ~name:"Red. BC (LP loop)"
          (Staged.stage (fun () -> ignore (Reduced_broadcast.run ~max_tries_per_round:1 p)));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second (if !fast then 0.5 else 1.5)) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (t :: _) -> rows := (name, t) :: !rows
      | _ -> ())
    results;
  let rows = List.sort (fun (_, a) (_, b) -> compare a b) !rows in
  Printf.printf "%-45s %15s\n" "method" "time per run";
  List.iter (fun (name, ns) -> Printf.printf "%-45s %12.4f s\n" name (ns /. 1e9)) rows;
  match rows with
  | (fastest, _) :: _ ->
    check "MCPH is the fastest (paper: it solves no LP)" (String.starts_with ~prefix:"MCPH" fastest)
  | [] -> check "no measurements" false

(* ------------------------------------------------------------------ *)
(* A1 — ablation: one-sided vs two-sided cut separation.                *)

let ablation_cuts () =
  banner "A1 / ablation — cut separation: source-side only vs both sides";
  Printf.printf "%6s | %14s %14s | %10s
" "seed" "rounds(1-side)" "rounds(2-side)" "same rho";
  let tot1 = ref 0 and tot2 = ref 0 in
  for seed = 1 to 5 do
    let gen () =
      let rng = Random.State.make [| seed; 404 |] in
      Tiers.generate rng Tiers.small_params ~n_targets:8
    in
    match
      ( Formulations.multicast_lb_stats ~two_sided:false (gen ()),
        Formulations.multicast_lb_stats ~two_sided:true (gen ()) )
    with
    | Some (s1, r1), Some (s2, r2) ->
      tot1 := !tot1 + r1;
      tot2 := !tot2 + r2;
      Printf.printf "%6d | %14d %14d | %10s
" seed r1 r2
        (if abs_float (s1.Formulations.throughput -. s2.Formulations.throughput) < 1e-5
         then "yes" else "NO")
    | _ -> Printf.printf "%6d | infeasible
" seed
  done;
  Printf.printf "total rounds: one-sided %d, two-sided %d
" !tot1 !tot2;
  check "two-sided separation needs at most as many rounds" (!tot2 <= !tot1)

(* ------------------------------------------------------------------ *)
(* A2 — ablation: one-port MCPH vs classical Steiner trees.             *)

let ablation_mcph () =
  banner "A2 / ablation — one-port MCPH vs classical Steiner trees (periods)";
  Printf.printf "%6s | %10s %10s %10s %10s | %10s
" "seed" "MCPH" "TM" "dijkstra" "KMB" "LB";
  let wins = ref 0 and n = ref 0 in
  for seed = 1 to 6 do
    let rng = Random.State.make [| seed; 31 |] in
    let p = Tiers.generate rng Tiers.small_params ~n_targets:8 in
    let one_port tree_opt =
      match tree_opt with
      | None -> infinity
      | Some t -> (
        match Multicast_tree.of_out_tree p t with
        | Ok mt -> Rat.to_float (Multicast_tree.period mt)
        | Error _ -> infinity)
    in
    let mcph =
      match Mcph.run p with
      | Some r -> Rat.to_float r.Mcph.period
      | None -> infinity
    in
    let tm = one_port (Steiner.minimum_cost_path_tree p) in
    let pd = one_port (Steiner.pruned_dijkstra_tree p) in
    let kmb = one_port (Steiner.kmb_tree p) in
    let lb = Formulations.period_of (Formulations.multicast_lb p) in
    incr n;
    if mcph <= tm +. 1e-9 && mcph <= pd +. 1e-9 && mcph <= kmb +. 1e-9 then incr wins;
    Printf.printf "%6d | %10.1f %10.1f %10.1f %10.1f | %10.1f
" seed mcph tm pd kmb lb
  done;
  check
    (Printf.sprintf "the re-metricised MCPH is never beaten by a classical tree (%d/%d)" !wins !n)
    (!wins >= !n - 1)

(* ------------------------------------------------------------------ *)
(* A3 — ablation: greedy peeling vs column-generation packing.          *)

let ablation_packing () =
  banner "A3 / ablation — arborescence packing: greedy peeling vs column generation";
  Printf.printf "%6s | %10s %10s
" "seed" "greedy" "col-gen";
  let ok = ref true in
  for seed = 1 to 6 do
    let rng = Random.State.make [| seed; 56 |] in
    let p = Tiers.generate rng Tiers.small_params ~n_targets:5 in
    match Formulations.broadcast_eb p with
    | None -> ()
    | Some sol ->
      let b = Platform.broadcast_of p in
      let frac pk = pk.Arborescence_packing.achieved /. sol.Formulations.throughput in
      let g =
        frac
          (Arborescence_packing.pack_greedy b ~capacities:sol.Formulations.edge_usage
             ~rho:sol.Formulations.throughput)
      in
      let c =
        frac
          (Arborescence_packing.pack b ~capacities:sol.Formulations.edge_usage
             ~rho:sol.Formulations.throughput)
      in
      if c < 0.999 then ok := false;
      Printf.printf "%6d | %9.1f%% %9.1f%%
" seed (100. *. g) (100. *. c)
  done;
  check "column generation always realizes the full Broadcast-EB value" !ok

(* ------------------------------------------------------------------ *)
(* R1 — resilience sweep: failure rate x platform kind -> retention.    *)

let resilience_rates = [ 0.0; 0.05; 0.1; 0.2; 0.3 ]
let resilience_kinds = [ "tiers-small"; "random" ]

let resilience () =
  banner "R1 / resilience — throughput retention after random link+node failures";
  let n_trials = !trials in
  Printf.printf "trials per (kind, rate): %d\n%!" n_trials;
  let gen kind seed =
    let rng = Random.State.make [| seed; 7321 |] in
    match kind with
    | "tiers-small" -> Tiers.generate rng Tiers.small_params ~n_targets:8
    | "random" ->
      Generators.random_connected rng ~nodes:20 ~extra_edges:10 ~min_cost:1 ~max_cost:50
        ~n_targets:8
    | other -> failwith ("resilience: unknown kind " ^ other)
  in
  (* mean retention over trials; an unrecoverable failure counts as 0.
     Seeds are independent trials: Pool.map runs them across domains and
     keeps their order, so the mean is summed in the same order (hence the
     same float) for any --jobs. *)
  let cell kind rate =
    let one seed =
      let p = gen kind seed in
      match Mcph.run p with
      | None -> None
      | Some r ->
        let sched = Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ]) in
        let rng = Random.State.make [| seed; 9011 |] in
        let scenario =
          Fault.random_mixed_kills rng p ~link_rate:rate ~node_rate:(rate /. 2.)
            ~at:(Rat.mul (Rat.of_int 2) sched.Schedule.period)
        in
        match Repair.plan ~before:sched p (Fault.damage scenario) with
        | Ok rep -> Some (min 1.0 rep.Repair.retention)
        | Error _ -> Some 0.0
    in
    mean (List.filter_map Fun.id (Pool.map ~jobs:!jobs one (List.init n_trials (fun i -> i + 1))))
  in
  let table =
    List.map (fun rate -> (rate, List.map (fun kind -> cell kind rate) resilience_kinds)) resilience_rates
  in
  r1_means :=
    List.mapi
      (fun k kind ->
        ( kind,
          Json.JObj
            (List.map
               (fun (rate, cells) -> (Printf.sprintf "%.2f" rate, num (List.nth cells k)))
               table) ))
      resilience_kinds;
  Printf.printf "%8s" "rate";
  List.iter (fun k -> Printf.printf " %14s" k) resilience_kinds;
  Printf.printf "\n";
  List.iter
    (fun (rate, cells) ->
      Printf.printf "%8.2f" rate;
      List.iter (fun c -> Printf.printf " %14.3f" c) cells;
      Printf.printf "\n")
    table;
  write_dat "resilience.dat"
    ("rate " ^ String.concat " " resilience_kinds)
    (List.map (fun (rate, cells) -> (Printf.sprintf "%.2f" rate, cells)) table);
  let row_at rate = List.assoc rate table in
  let ok_baseline = List.for_all (fun c -> abs_float (c -. 1.0) < 1e-9) (row_at 0.0) in
  (* Retention should not rise as failures get denser (small-sample noise
     tolerated: allow a 5% upward wiggle between consecutive rates). *)
  let ok_monotone =
    List.for_all
      (fun i ->
        let prev = row_at (List.nth resilience_rates (i - 1)) in
        let cur = row_at (List.nth resilience_rates i) in
        List.for_all2 (fun a b -> b <= a +. 0.05) prev cur)
      [ 1; 2; 3; 4 ]
  in
  check "retention is exactly 1 with no failures" ok_baseline;
  check "retention does not improve with failure rate" ok_monotone

(* ------------------------------------------------------------------ *)
(* R2 — robust planning: worst-case retention vs nominal-throughput cost. *)

let robust_kinds = [ "two-relay"; "tiers-small"; "random" ]

let robust () =
  banner "R2 / robust — proactive planning: worst-case retention vs nominal cost";
  let loss_bound = 0.25 in
  (* two-relay is a fixed 5-node example; one trial is the population. *)
  let trials_of = function "two-relay" -> 1 | _ -> !trials in
  let gen kind seed =
    let rng = Random.State.make [| seed; 5501 |] in
    match kind with
    | "two-relay" -> Paper_platforms.two_relay ()
    | "tiers-small" -> Tiers.generate rng Tiers.small_params ~n_targets:6
    | "random" ->
      Generators.random_connected rng ~nodes:14 ~extra_edges:10 ~min_cost:1 ~max_cost:20
        ~n_targets:5
    | other -> failwith ("robust: unknown kind " ^ other)
  in
  let row kind =
    let n = trials_of kind in
    let acc = ref [] in
    for seed = 1 to n do
      let p = gen kind seed in
      match Robust_plan.plan ~loss_bound ~max_scenarios:48 ~seed ~jobs:!jobs p with
      | Error _ -> ()
      | Ok rep -> acc := rep :: !acc
    done;
    match !acc with
    | [] -> None
    | reps ->
      let avg f = mean (List.map f reps) in
      let nominal_score (r : Robust_plan.report) = r.Robust_plan.nominal_plan.Robust_plan.cand_score in
      let chosen_score (r : Robust_plan.report) = r.Robust_plan.chosen.Robust_plan.cand_score in
      Some
        {
          r2_kind = kind;
          r2_nominal_wc = avg (fun r -> (nominal_score r).Robust_plan.worst_case);
          r2_robust_wc = avg (fun r -> (chosen_score r).Robust_plan.worst_case);
          r2_nominal_mean = avg (fun r -> (nominal_score r).Robust_plan.mean);
          r2_robust_mean = avg (fun r -> (chosen_score r).Robust_plan.mean);
          r2_nominal_thr = avg (fun r -> (nominal_score r).Robust_plan.nominal);
          r2_robust_thr = avg (fun r -> (chosen_score r).Robust_plan.nominal);
        }
  in
  Printf.printf "loss bound: %.0f%%; scenario cap: 48; trials per kind: %d (two-relay: 1)\n%!"
    (100. *. loss_bound) !trials;
  let rows = List.filter_map row robust_kinds in
  r2_rows :=
    List.map
      (fun r ->
        ( r.r2_kind,
          Json.JObj
            [
              ("worst_case_nominal", num r.r2_nominal_wc);
              ("worst_case_robust", num r.r2_robust_wc);
              ("worst_case_delta", num (r.r2_robust_wc -. r.r2_nominal_wc));
              ("mean_nominal", num r.r2_nominal_mean);
              ("mean_robust", num r.r2_robust_mean);
              ("throughput_nominal", num r.r2_nominal_thr);
              ("throughput_robust", num r.r2_robust_thr);
              ( "throughput_ratio",
                if r.r2_nominal_thr > 0.0 then num (r.r2_robust_thr /. r.r2_nominal_thr)
                else Json.JNull );
            ] ))
      rows;
  Printf.printf "%-12s %10s %10s | %10s %10s | %10s %10s\n" "kind" "wc(mcph)" "wc(robust)"
    "mean(mcph)" "mean(rob)" "thr(mcph)" "thr(rob)";
  List.iter
    (fun r ->
      Printf.printf "%-12s %10.3f %10.3f | %10.3f %10.3f | %10.4f %10.4f\n" r.r2_kind
        r.r2_nominal_wc r.r2_robust_wc r.r2_nominal_mean r.r2_robust_mean r.r2_nominal_thr
        r.r2_robust_thr)
    rows;
  write_dat "robust.dat" "kind wc_mcph wc_robust mean_mcph mean_robust thr_mcph thr_robust"
    (List.map
       (fun r ->
         ( r.r2_kind,
           [
             r.r2_nominal_wc;
             r.r2_robust_wc;
             r.r2_nominal_mean;
             r.r2_robust_mean;
             r.r2_nominal_thr;
             r.r2_robust_thr;
           ] ))
       rows);
  let ok_wc =
    rows <> [] && List.for_all (fun r -> r.r2_robust_wc >= r.r2_nominal_wc -. 1e-9) rows
  in
  let ok_thr =
    rows <> []
    && List.for_all
         (fun r -> r.r2_robust_thr >= ((1.0 -. loss_bound) *. r.r2_nominal_thr) -. 1e-9)
         rows
  in
  let ok_margin =
    List.exists (fun r -> r.r2_robust_wc > r.r2_nominal_wc +. 0.1) rows
  in
  check "robust worst-case never below nominal's" ok_wc;
  check "robust nominal throughput within the loss bound" ok_thr;
  check "some kind gains >0.1 worst-case retention (two-relay: 0 -> 1/2)" ok_margin

(* ------------------------------------------------------------------ *)
(* R3 — failure storms: incremental repair vs full re-plan (BENCH_6).   *)

(* Per recoverable storm the sweep times both repair legs over the same
   damage, end to end: a full Repair.plan (MCPH re-run on the survivor plus
   the Multicast-LB diagnostic it always solves there) and
   Repair.plan_incremental (O(damage) patch of the running schedule — no
   MCPH, no LP). The wall-clock asymmetry IS the design claim: the full
   planner does platform-sized work per failure, the patch does
   damage-sized work plus a shared schedule-construction term; the reports'
   construction-only [replan_seconds] are recorded alongside. Every
   survivor is distinct, so the full leg's LB solve is a genuine cold solve
   per scenario, exactly as in online recovery.

   The incremental leg runs with a retention floor 2% under the full
   re-plan's retention, so every report tagged `Patched is within 2% of
   full-re-plan quality by construction and anything worse falls back — the
   floor is the mechanism that enforces the quality bound, not a post-hoc
   filter. Timing stats compare only `Patched scenarios (a fallback's
   latency includes the full re-plan it escalated to). *)
let storms () =
  banner "R3 / storms — incremental repair vs full re-plan under correlated outages";
  let lp_before = Lp_counters.snapshot () in
  let seeds = !trials in
  let patched_runs = ref [] in
  let fell_back = ref 0 and forced = ref 0 in
  let unrecoverable = ref 0 and total = ref 0 in
  let recovered = ref 0 and degraded = ref 0 and fallback_final = ref 0 in
  Printf.printf "seeds: %d; storms per seed: 3x burst(k=3), endpoint(2), subtree\n%!" seeds;
  Printf.printf "%6s %-10s %-11s %10s %10s %9s %9s\n" "seed" "storm" "method"
    "full(ms)" "inc(ms)" "ret(full)" "ret(inc)";
  for seed = 1 to seeds do
    let rng = Random.State.make [| seed; 6121 |] in
    let p = Tiers.generate rng Tiers.small_params ~n_targets:8 in
    match Mcph.run p with
    | None -> ()
    | Some r ->
      let sched =
        Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])
      in
      let at = Rat.mul (Rat.of_int 2) sched.Schedule.period in
      (* Three independent bursts per seed: a k=3 burst on Tiers severs a
         LAN host's only uplink often enough that roughly half the draws
         are unrecoverable — drawing several keeps the recoverable sample
         size up without changing the storm shape. *)
      let scenarios =
        [
          ("burst-a", Fault.random_burst rng p ~k:3 ~window:Rat.one ~at);
          ("burst-b", Fault.random_burst rng p ~k:3 ~window:Rat.one ~at);
          ("burst-c", Fault.random_burst rng p ~k:3 ~window:Rat.one ~at);
          ("endpoint", Fault.shared_endpoint_kills rng p ~endpoints:2 ~at);
          ("subtree", Fault.subtree_outage rng p ~at);
        ]
      in
      List.iter
        (fun (kind, scenario) ->
          incr total;
          let damage = Fault.damage scenario in
          let t0 = Unix.gettimeofday () in
          match Repair.plan ~before:sched p damage with
          | Error _ -> incr unrecoverable
          | Ok full -> (
            let t_full = Unix.gettimeofday () -. t0 in
            let floor = Float.max 0.0 (full.Repair.retention -. 0.02) in
            let t1 = Unix.gettimeofday () in
            match Repair.plan_incremental ~retention_floor:floor ~before:sched p damage with
            | Error _ -> incr unrecoverable
            | Ok inc ->
              let t_inc = Unix.gettimeofday () -. t1 in
              let meth =
                match inc.Repair.repair_method with
                | `Patched ->
                  patched_runs := (t_full, t_inc, full, inc) :: !patched_runs;
                  "patched"
                | `Fell_back _ ->
                  incr fell_back;
                  "fell-back"
                | `Full_replan -> "full"
              in
              Printf.printf "%6d %-10s %-11s %10.3f %10.3f %9.3f %9.3f\n" seed kind meth
                (1e3 *. t_full) (1e3 *. t_inc) full.Repair.retention inc.Repair.retention))
        scenarios;
      (* Guaranteed fallback-leg exercise: a retention floor no patch can
         reach (2x the pre-failure throughput) trips the floor check
         deterministically and escalates to the full re-plan inside
         plan_incremental. The first recoverable scenario of the seed is
         enough — unrecoverable ones error out before the floor matters. *)
      (try
         List.iter
           (fun (_, scenario) ->
             match
               Repair.plan_incremental ~retention_floor:2.0 ~before:sched p
                 (Fault.damage scenario)
             with
             | Ok { Repair.repair_method = `Fell_back _; _ } ->
               incr forced;
               raise Exit
             | Ok _ | Error _ -> ())
           scenarios
       with Exit -> ());
      (* Online controller leg: the incremental-first rung under the default
         policy — populates the recovery.replan_seconds histogram the
         regression gate holds on to. *)
      (match scenarios with
      | (_, scenario) :: _ -> (
        match Recovery_loop.run p sched scenario with
        | Error e -> failwith ("storms: recovery policy rejected: " ^ e)
        | Ok o -> (
          match o.Recovery_loop.final with
          | `Recovered _ | `No_failure -> incr recovered
          | `Degraded _ -> incr degraded
          | `Fallback _ -> incr fallback_final))
      | [] -> ())
  done;
  (* Both legs of every patched storm, newest first. *)
  let legs f = List.map f !patched_runs in
  let patched = List.length !patched_runs in
  let full_times = legs (fun (t, _, _, _) -> t) and inc_times = legs (fun (_, t, _, _) -> t) in
  let full_constr = legs (fun (_, _, f, _) -> f.Repair.replan_seconds)
  and inc_constr = legs (fun (_, _, _, i) -> i.Repair.replan_seconds) in
  let full_rets = legs (fun (_, _, f, _) -> f.Repair.retention)
  and inc_rets = legs (fun (_, _, _, i) -> i.Repair.retention) in
  let max_shortfall = List.fold_left Float.max 0.0 (List.map2 ( -. ) full_rets inc_rets) in
  let mean_full = mean full_times and mean_inc = mean inc_times in
  let speedup = if mean_inc > 0.0 then mean_full /. mean_inc else nan in
  Printf.printf
    "scenarios: %d (%d unrecoverable); patched %d, fell back %d, forced fallbacks %d\n"
    !total !unrecoverable patched !fell_back !forced;
  Printf.printf "full re-plan:    mean %.3fms  p50 %.3fms  p99 %.3fms  (construction only %.3fms)\n"
    (1e3 *. mean_full) (1e3 *. percentile 0.5 full_times)
    (1e3 *. percentile 0.99 full_times) (1e3 *. mean full_constr);
  Printf.printf "incremental:     mean %.3fms  p50 %.3fms  p99 %.3fms  (construction only %.3fms; speedup %.1fx)\n"
    (1e3 *. mean_inc) (1e3 *. percentile 0.5 inc_times)
    (1e3 *. percentile 0.99 inc_times) (1e3 *. mean inc_constr) speedup;
  Printf.printf "retention:       full mean %.4f, incremental mean %.4f, max shortfall %.4f\n"
    (mean full_rets) (mean inc_rets) max_shortfall;
  Printf.printf "online recovery: %d recovered, %d degraded, %d fallback\n" !recovered
    !degraded !fallback_final;
  let lp_d = Lp_counters.since lp_before in
  Printf.printf "warm starts:     %d hits across %d float solves (survivor LBs seeded from the nominal basis)\n"
    lp_d.Lp_counters.warm_hits lp_d.Lp_counters.float_solves;
  let shape =
    checks
      [
        ( "speedup_3x",
          "incremental repair >= 3x faster than full re-plan (mean)",
          patched > 0 && speedup >= 3.0 );
        ( "retention_within_2pct",
          "every patched storm within 2% of full re-plan retention",
          patched > 0 && max_shortfall <= 0.02 +. 1e-9 );
        ("fallback_exercised", "fallback leg exercised by the sweep", !forced >= 1);
        ( "warm_starts_engaged",
          "warm starts engaged during repair re-planning",
          lp_d.Lp_counters.warm_hits > 0 );
      ]
  in
  let leg times =
    Json.JObj
      [
        ("mean_seconds", num (mean times));
        ("p50_seconds", num (percentile 0.5 times));
        ("p99_seconds", num (percentile 0.99 times));
      ]
  in
  summary 6 "storm"
    [
      ("platform", str "tiers-small (8 targets)");
      ("seeds", Json.int seeds);
      ("storm_kinds", Json.JList [ str "burst"; str "endpoint"; str "subtree" ]);
      ("scenarios", Json.int !total);
      ("unrecoverable", Json.int !unrecoverable);
      ("patched", Json.int patched);
      ("fell_back", Json.int !fell_back);
      ("forced_fallbacks", Json.int !forced);
      ("full_replan", leg full_times);
      ("incremental", leg inc_times);
      ("full_replan_construction_mean_seconds", num (mean full_constr));
      ("incremental_construction_mean_seconds", num (mean inc_constr));
      ("mean_speedup", num speedup);
      ("retention_full_mean", num (mean full_rets));
      ("retention_incremental_mean", num (mean inc_rets));
      ("retention_max_shortfall", num max_shortfall);
      ("warm_hits", Json.int lp_d.Lp_counters.warm_hits);
      ( "online_recovery",
        Json.JObj
          [
            ("recovered", Json.int !recovered);
            ("degraded", Json.int !degraded);
            ("fallback", Json.int !fallback_final);
          ] );
      ("shape", shape);
    ]

(* ------------------------------------------------------------------ *)
(* R4 — chaos soak: damped controller vs naive re-planning (BENCH_7).   *)

(* Both controllers soak the same schedule against the same flapping-link
   timeline — the scenario flap damping exists for: a few links cycling
   up/down fast, most flaps never touching the running schedule. The
   naive controller re-plans fully on every effective-damage change; the
   damped one suppresses flappers, rations full re-plans through the
   token bucket and re-integrates healed capacity only past the
   hysteresis bar. The ablation claim is the R4 row of EXPERIMENTS.md:
   >= 3x fewer full re-plans at a delivered-throughput integral within
   5% of naive.

   The naive leg runs FIRST within each seed: the soak gauges
   (soak.availability, soak.delivered_fraction, recovery.replans_per_hour)
   are last-write-wins, so the damped leg's values are what BENCH_5.json
   records and the regression gate compares. *)
let soak_bench () =
  banner "R4 / soak — flap-damped recovery controller vs naive re-planning";
  let seeds = !trials in
  let horizon = Rat.of_int 400 in
  let runs = ref [] in
  Printf.printf
    "seeds: %d; flapping 3 links x 6 flaps (mean up 40, down 5), horizon %s\n%!" seeds
    (Rat.to_string horizon);
  Printf.printf "%6s %8s | %10s %10s | %10s %10s | %9s\n" "seed" "events" "naive-rpl"
    "damped-rpl" "naive-del" "damped-del" "supp";
  for seed = 1 to seeds do
    let rng = Random.State.make [| seed; 6131 |] in
    let p = Tiers.generate rng Tiers.small_params ~n_targets:8 in
    match Mcph.run p with
    | None -> ()
    | Some r ->
      let sched =
        Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ])
      in
      let scenario =
        Fault.flapping_links rng p ~links:3 ~flaps:6 ~mean_up:40.0 ~mean_down:5.0
          ~at:Rat.zero
      in
      let run config =
        match Soak.run ~config p sched scenario ~horizon with
        | Error e -> failwith ("soak bench: " ^ e)
        | Ok rep -> rep
      in
      let naive = run (Soak.naive_config p) in
      let damped = run (Soak.default_config p) in
      runs := (naive, damped) :: !runs;
      Printf.printf "%6d %8d | %10d %10d | %10.3f %10.3f | %9d\n" seed
        damped.Soak.sk_events naive.Soak.sk_full_replans damped.Soak.sk_full_replans
        naive.Soak.sk_delivered_integral damped.Soak.sk_delivered_integral
        damped.Soak.sk_suppressions
  done;
  (* Totals over the seeds, summed in seed order. *)
  let naive = List.rev_map fst !runs and damped = List.rev_map snd !runs in
  let count f = List.fold_left (fun a r -> a + f r) 0 in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 in
  let soaked = List.length naive in
  let naive_replans = count (fun r -> r.Soak.sk_full_replans) naive
  and damped_replans = count (fun r -> r.Soak.sk_full_replans) damped
  and naive_delivered = sum (fun r -> r.Soak.sk_delivered_integral) naive
  and damped_delivered = sum (fun r -> r.Soak.sk_delivered_integral) damped
  and nominal_integral = sum (fun r -> r.Soak.sk_nominal_integral) naive
  and damped_patches = count (fun r -> r.Soak.sk_patches) damped
  and suppressions = count (fun r -> r.Soak.sk_suppressions) damped
  and reintegrations = count (fun r -> r.Soak.sk_reintegrations) damped
  and exhaustions = count (fun r -> r.Soak.sk_token_exhaustions) damped
  and epochs = count (fun r -> r.Soak.sk_epochs) damped
  and events = count (fun r -> r.Soak.sk_events) damped in
  let avail reps = mean (List.map (fun r -> r.Soak.sk_availability) reps) in
  let delivered_ratio =
    if naive_delivered > 0.0 then damped_delivered /. naive_delivered else nan
  in
  let replan_ratio =
    if damped_replans > 0 then
      float_of_int naive_replans /. float_of_int damped_replans
    else infinity
  in
  Printf.printf "full re-plans:  naive %d, damped %d (%.1fx fewer)\n" naive_replans
    damped_replans replan_ratio;
  Printf.printf "delivered:      naive %.3f, damped %.3f of %.3f nominal (ratio %.4f)\n"
    naive_delivered damped_delivered nominal_integral delivered_ratio;
  Printf.printf "availability:   naive mean %.4f, damped mean %.4f\n" (avail naive)
    (avail damped);
  Printf.printf
    "damped extras:  %d patches, %d suppressions, %d re-integrations, %d token \
     exhaustions over %d epochs\n"
    damped_patches suppressions reintegrations exhaustions epochs;
  let shape =
    checks
      [
        ( "replans_3x_fewer",
          "damped controller does >= 3x fewer full re-plans than naive",
          soaked > 0 && naive_replans >= 3 * max 1 damped_replans );
        ( "delivered_within_5pct",
          "damped delivered-throughput integral within 5% of naive",
          soaked > 0 && delivered_ratio >= 0.95 );
        ("damping_exercised", "flap damping exercised (suppressions happened)", suppressions >= 1);
      ]
  in
  summary 7 "soak"
    [
      ("platform", str "tiers-small (8 targets)");
      ("scenario", str "flapping: 3 links x 6 flaps, mean up 40, mean down 5");
      ("horizon", num (Rat.to_float horizon));
      ("seeds", Json.int seeds);
      ("soaked", Json.int soaked);
      ("fault_events", Json.int events);
      ("epochs_damped", Json.int epochs);
      ("full_replans_naive", Json.int naive_replans);
      ("full_replans_damped", Json.int damped_replans);
      ("replan_ratio", num replan_ratio);
      ("delivered_naive", num naive_delivered);
      ("delivered_damped", num damped_delivered);
      ("nominal_integral", num nominal_integral);
      ("delivered_ratio", num delivered_ratio);
      ("availability_naive_mean", num (avail naive));
      ("availability_damped_mean", num (avail damped));
      ("damped_patches", Json.int damped_patches);
      ("suppressions", Json.int suppressions);
      ("reintegrations", Json.int reintegrations);
      ("token_exhaustions", Json.int exhaustions);
      ("shape", shape);
    ]

(* ------------------------------------------------------------------ *)
(* S1 — online sessions: incremental warm re-planning vs per-epoch cold
   re-plans, on identical seeded workloads and fault scenarios. *)

(* One seed's S1 instance: the platform, its session workload and a
   3-link burst at [burst_at], each from its own seed stream. *)
let s1_instance wl_params ~horizon ~burst_at seed =
  let p = Tiers.generate (Random.State.make [| seed; 6271 |]) Tiers.small_params ~n_targets:8 in
  ( p,
    Workload.generate (Random.State.make [| seed; 9001 |]) p wl_params ~horizon,
    Fault.random_burst (Random.State.make [| seed; 9002 |]) p ~k:3 ~window:Rat.one ~at:burst_at )

let sessions_bench () =
  banner "S1 / sessions — incremental warm re-planning vs per-epoch cold re-plans";
  let seeds = !trials in
  let horizon = Rat.of_int (if !fast then 200 else 300) in
  (* Long-lived sessions at modest demand fractions: plenty of quiet
     epochs where incremental planning has nothing to do while cold mode
     still pays one MCPH + LP solve per live session. Flash crowds are
     off — a crowd's admission burst costs both modes the same and would
     only blur the per-epoch latency contrast under study. *)
  let wl_params =
    {
      Workload.default_params with
      arrival_rate = 0.08;
      hold_mean = 100.0;
      demand_frac = (0.1, 0.35);
      flash_rate = 0.0;
    }
  in
  let burst_at = Rat.div horizon (Rat.of_int 2) in
  let runs = ref [] in
  Printf.printf "seeds: %d; tiers-small (8 targets), horizon %s, epoch %s, burst at %s\n%!"
    seeds (Rat.to_string horizon)
    (Rat.to_string Horizon.default_config.Horizon.epoch)
    (Rat.to_string burst_at);
  Printf.printf "%6s %8s | %9s %9s | %9s %9s %8s | %10s %10s\n" "seed" "offered"
    "inc-adm" "cold-adm" "inc-rpl" "cold-rpl" "skipped" "inc-p99" "cold-p99";
  for seed = 1 to seeds do
    let p, sessions, faults = s1_instance wl_params ~horizon ~burst_at seed in
    let run mode =
      let config = { Horizon.default_config with Horizon.replan_mode = mode } in
      match Horizon.run ~config ~faults p sessions ~horizon with
      | Error e -> failwith ("sessions bench: " ^ e)
      | Ok rep -> rep
    in
    let inc = run `Incremental in
    let cold = run `Cold in
    runs := (List.length sessions, inc, cold) :: !runs;
    Printf.printf "%6d %8d | %9d %9d | %9d %9d %8d | %10.4f %10.4f\n%!" seed
      (List.length sessions) inc.Horizon.hz_admitted cold.Horizon.hz_admitted
      inc.Horizon.hz_replans cold.Horizon.hz_replans inc.Horizon.hz_replans_skipped
      inc.Horizon.hz_p99_epoch_seconds cold.Horizon.hz_p99_epoch_seconds
  done;
  (* Totals over the seeds, summed in seed order. *)
  let runs = List.rev !runs in
  let ran = List.length runs in
  let count f = List.fold_left (fun a run -> a + f run) 0 runs in
  let sum f = List.fold_left (fun a run -> a +. f run) 0.0 runs in
  let offered = count (fun (n, _, _) -> n)
  and inc_admitted = count (fun (_, i, _) -> i.Horizon.hz_admitted)
  and cold_admitted = count (fun (_, _, c) -> c.Horizon.hz_admitted)
  and inc_replans = count (fun (_, i, _) -> i.Horizon.hz_replans)
  and cold_replans = count (fun (_, _, c) -> c.Horizon.hz_replans)
  and skipped = count (fun (_, i, _) -> i.Horizon.hz_replans_skipped)
  and inc_rate = sum (fun (_, i, _) -> i.Horizon.hz_admitted_rate_sum)
  and cold_rate = sum (fun (_, _, c) -> c.Horizon.hz_admitted_rate_sum) in
  let admitted_equal =
    List.for_all (fun (_, i, c) -> i.Horizon.hz_admitted = c.Horizon.hz_admitted) runs
  in
  let epoch_seconds (rep : Horizon.report) =
    List.map (fun (e : Horizon.epoch_record) -> e.Horizon.ep_seconds) rep.Horizon.hz_epochs
  in
  (* p99 over all epochs of all seeds: per-seed p99 on ~60 epochs is just
     the max, which a single heavy admission epoch (identical work in both
     modes) can dominate. *)
  let inc_p99 = percentile 0.99 (List.concat_map (fun (_, i, _) -> epoch_seconds i) runs)
  and cold_p99 = percentile 0.99 (List.concat_map (fun (_, _, c) -> epoch_seconds c) runs) in
  let p99_ratio = if inc_p99 > 0.0 then cold_p99 /. inc_p99 else infinity in
  let replan_ratio =
    if inc_replans > 0 then float_of_int cold_replans /. float_of_int inc_replans
    else infinity
  in
  Printf.printf "admissions:  incremental %d, cold %d of %d offered (equal per seed: %b)\n"
    inc_admitted cold_admitted offered admitted_equal;
  Printf.printf "re-plans:    incremental %d (+%d skipped), cold %d (%.1fx more)\n"
    inc_replans skipped cold_replans replan_ratio;
  Printf.printf "epoch p99:   incremental %.4fs, cold %.4fs (%.1fx)\n" inc_p99 cold_p99
    p99_ratio;
  Printf.printf "rate sums:   incremental %.4f, cold %.4f msg/unit\n" inc_rate cold_rate;
  let shape =
    checks
      [
        ( "admissions_equal",
          "incremental admits exactly the sessions cold admits",
          ran > 0 && admitted_equal );
        ( "p99_3x_faster",
          "incremental beats cold by >= 3x p99 epoch latency",
          ran > 0 && cold_p99 >= 3.0 *. inc_p99 );
        ("most_replans_skipped", "most per-epoch re-plan work is skipped", skipped > inc_replans);
      ]
  in
  summary 8 "sessions"
    [
      ("platform", str "tiers-small (8 targets)");
      ("workload", str "Poisson 0.08/unit, Pareto hold mean 100, demand 10-35% of standalone");
      ("scenario", str ("burst: 3 links at t=" ^ Rat.to_string burst_at));
      ("horizon", num (Rat.to_float horizon));
      ("seeds", Json.int seeds);
      ("offered", Json.int offered);
      ("admitted_incremental", Json.int inc_admitted);
      ("admitted_cold", Json.int cold_admitted);
      ("replans_incremental", Json.int inc_replans);
      ("replans_skipped", Json.int skipped);
      ("replans_cold", Json.int cold_replans);
      ("replan_ratio", num replan_ratio);
      ("p99_epoch_seconds_incremental", num inc_p99);
      ("p99_epoch_seconds_cold", num cold_p99);
      ("p99_ratio", num p99_ratio);
      ("admitted_rate_sum_incremental", num inc_rate);
      ("admitted_rate_sum_cold", num cold_rate);
      ("shape", shape);
    ]

(* ------------------------------------------------------------------ *)
(* O4 / SLO — burn-rate telemetry and in-lifetime enforcement on S1.    *)

(* The S1 workload under the S1 burst, run three ways per seed: bare
   (no sampling — the overhead baseline), sampled (telemetry + SLO
   objectives, no feedback) and enforced (burn rates feed the re-plan
   apply order and the victim ladder). Sampling must not change the
   digest; enforcement must not change admissions while the worst-case
   delivered fraction may only improve. The enforced leg runs last so
   the whole-run gauges (BENCH_5, the regression baseline) describe it. *)
let slo_bench () =
  banner "O4 / SLO — burn-rate telemetry + in-lifetime enforcement on the S1 workload";
  let seeds = !trials in
  let horizon = Rat.of_int (if !fast then 200 else 300) in
  (* The S1 platform, burst and seed streams, with the demand fractions
     raised: enforcement only has something to do when several hungry
     sessions compete for the capacity a release frees, which the
     low-contention S1 mix almost never produces. *)
  let wl_params =
    {
      Workload.default_params with
      arrival_rate = 0.1;
      hold_mean = 100.0;
      demand_frac = (0.3, 0.75);
      flash_rate = 0.0;
    }
  in
  let burst_at = Rat.div horizon (Rat.of_int 2) in
  let objectives =
    [
      (match Slo.parse "session.retention>=0.95,fast=15,slow=45,hold=15" with
      | Ok o -> o
      | Error e -> failwith e);
    ]
  in
  let digest_invariant = ref true and admissions_equal = ref true in
  let breaches = ref 0 in
  let sum_short_off = ref 0.0 and sum_short_on = ref 0.0 in
  let worst_off = ref 1.0 and worst_on = ref 1.0 in
  let bare_secs = ref 0.0 and sampled_secs = ref 0.0 in
  let ran = ref 0 in
  (* Mean per-session shortfall: how far below its admitted rate a
     session was ever held, averaged over non-rejected sessions — a more
     sensitive improvement signal than the min alone, which pins at 0
     whenever any session suspends. *)
  let mean_shortfall (rep : Horizon.report) =
    let shorts =
      List.filter_map
        (fun (s : Horizon.session_record) ->
          if s.Horizon.sr_outcome = Horizon.Rejected || Rat.sign s.Horizon.sr_admitted_rate <= 0
          then None
          else
            Some
              (1.0
              -. Rat.to_float (Rat.div s.Horizon.sr_min_rate s.Horizon.sr_admitted_rate)))
        rep.Horizon.hz_sessions
    in
    if shorts = [] then 0.0 else mean shorts
  in
  Printf.printf "seeds: %d; tiers-small (8 targets), horizon %s, burst at %s\n%!" seeds
    (Rat.to_string horizon) (Rat.to_string burst_at);
  Printf.printf "%6s | %9s %9s | %10s %10s | %6s %6s | %8s %8s\n" "seed" "adm-off"
    "adm-on" "short-off" "short-on" "dg-off" "dg-on" "breaches" "digest=";
  for seed = 1 to seeds do
    let p, sessions, faults = s1_instance wl_params ~horizon ~burst_at seed in
    let run ?telemetry ?(slo_enforce = false) () =
      match Horizon.run ~faults ?telemetry ~slo_enforce p sessions ~horizon with
      | Error e -> failwith ("slo bench: " ^ e)
      | Ok rep -> rep
    in
    let t0 = Unix.gettimeofday () in
    let bare = run () in
    let t1 = Unix.gettimeofday () in
    let off_sink = Timeseries.create ~slo:objectives () in
    let off = run ~telemetry:off_sink () in
    let t2 = Unix.gettimeofday () in
    let enforced =
      run ~telemetry:(Timeseries.create ~slo:objectives ()) ~slo_enforce:true ()
    in
    incr ran;
    bare_secs := !bare_secs +. (t1 -. t0);
    sampled_secs := !sampled_secs +. (t2 -. t1);
    if Horizon.digest bare <> Horizon.digest off then digest_invariant := false;
    if bare.Horizon.hz_admitted <> enforced.Horizon.hz_admitted then
      admissions_equal := false;
    let n_breach =
      List.length
        (List.filter (fun (e : Slo.event) -> e.Slo.e_kind = `Breach)
           (Timeseries.slo_events off_sink))
    in
    breaches := !breaches + n_breach;
    let s_off = mean_shortfall off and s_on = mean_shortfall enforced in
    sum_short_off := !sum_short_off +. s_off;
    sum_short_on := !sum_short_on +. s_on;
    worst_off := Float.min !worst_off off.Horizon.hz_min_delivered_fraction;
    worst_on := Float.min !worst_on enforced.Horizon.hz_min_delivered_fraction;
    let burn_epochs (rep : Horizon.report) =
      List.fold_left
        (fun acc (s : Horizon.session_record) -> acc + s.Horizon.sr_burn_epochs)
        0 rep.Horizon.hz_sessions
    in
    Printf.printf "%6d | %9d %9d | %10.4f %10.4f | %6d %6d | %8d %8b\n%!" seed
      bare.Horizon.hz_admitted enforced.Horizon.hz_admitted s_off s_on (burn_epochs off)
      (burn_epochs enforced) n_breach
      (Horizon.digest bare = Horizon.digest off)
  done;
  (* The contention duel: a deterministic three-session scenario where
     the apply-order lever provably matters. All three sessions root at
     the same LAN host, so its uplink is one shared bottleneck. S1
     (low-priority, id 1) is admitted first; S0 (id 0) arrives hungry;
     a transient high-priority S2 degrades S1 below its retention floor
     and departs mid-run. At the release both hungry sessions re-plan:
     without enforcement S0 applies first (id order) and takes the
     whole release, pinning S1 below its floor for the rest of the run;
     with enforcement the burning S1 applies first and recovers to full
     demand. Admissions and admitted rates are identical either way. *)
  let duel_off_burn, duel_on_burn, duel_off_frac, duel_on_frac, duel_admissions_equal =
    let duel_horizon = Rat.of_int 200 in
    let p =
      Tiers.generate (Random.State.make [| 1; 6271 |]) Tiers.small_params ~n_targets:8
    in
    let lans = Platform.lan_nodes p in
    let source = List.hd lans in
    let targets = List.filteri (fun i _ -> i >= 1 && i <= 4) lans in
    let standalone =
      match
        Mcph.run
          (Platform.restrict
             (Platform.make ~kinds:p.Platform.kinds p.Platform.graph ~source ~targets)
             ~keep:(Platform.is_active p))
      with
      | Some r -> r.Mcph.throughput
      | None -> failwith "slo bench duel: no standalone plan"
    in
    let frac num den = Rat.mul (Rat.of_ints num den) standalone in
    let mk ~id ~prio ~arr ~dep d =
      Session.make ~id ~source ~targets ~demand:d ~priority:prio
        ~arrival:(Rat.of_int arr) ~departure:(Rat.of_int dep)
    in
    let sessions =
      [
        mk ~id:1 ~prio:0 ~arr:0 ~dep:200 (frac 5 10);
        mk ~id:0 ~prio:1 ~arr:10 ~dep:200 (frac 8 10);
        mk ~id:2 ~prio:2 ~arr:20 ~dep:70 (frac 7 10);
      ]
    in
    let run enforce =
      match Horizon.run ~slo_enforce:enforce p sessions ~horizon:duel_horizon with
      | Error e -> failwith ("slo bench duel: " ^ e)
      | Ok rep -> rep
    in
    let off = run false and on = run true in
    let victim (rep : Horizon.report) =
      List.find
        (fun (s : Horizon.session_record) -> s.Horizon.sr_session.Session.id = 1)
        rep.Horizon.hz_sessions
    in
    let final_frac (s : Horizon.session_record) =
      if Rat.sign s.Horizon.sr_admitted_rate <= 0 then 0.0
      else Rat.to_float (Rat.div s.Horizon.sr_final_rate s.Horizon.sr_admitted_rate)
    in
    let vo = victim off and vn = victim on in
    ( vo.Horizon.sr_burn_epochs,
      vn.Horizon.sr_burn_epochs,
      final_frac vo,
      final_frac vn,
      off.Horizon.hz_admitted = on.Horizon.hz_admitted )
  in
  let overhead =
    if !bare_secs > 0.0 then (!sampled_secs -. !bare_secs) /. !bare_secs else 0.0
  in
  Printf.printf "digest:      sampling on vs off bit-identical per seed: %b\n"
    !digest_invariant;
  Printf.printf "admissions:  enforcement on vs off equal per seed: %b\n" !admissions_equal;
  Printf.printf
    "shortfall:   mean %.4f off -> %.4f on; worst delivered fraction %.4f -> %.4f\n"
    (!sum_short_off /. float_of_int !ran)
    (!sum_short_on /. float_of_int !ran)
    !worst_off !worst_on;
  Printf.printf "slo events:  %d breach(es) over %d seed(s)\n" !breaches !ran;
  Printf.printf
    "duel:        victim burn %d -> %d epochs, final delivered fraction %.2f -> %.2f\n"
    duel_off_burn duel_on_burn duel_off_frac duel_on_frac;
  Printf.printf "overhead:    sampling %.1f%% over bare (%.3fs vs %.3fs)\n"
    (100.0 *. overhead) !sampled_secs !bare_secs;
  let shape =
    checks
      [
        ("digest_invariant", "sampling never perturbs the digest", !ran > 0 && !digest_invariant);
        ( "admissions_equal",
          "enforcement leaves admissions unchanged",
          !ran > 0 && !admissions_equal && duel_admissions_equal );
        ( "shortfall_no_worse",
          "enforcement never worsens delivered-fraction shortfall",
          !sum_short_on <= !sum_short_off +. 1e-9 && !worst_on >= !worst_off -. 1e-9 );
        ( "duel_victim_rescued",
          "enforcement rescues the duel victim",
          duel_on_burn < duel_off_burn && duel_on_frac > duel_off_frac +. 1e-9 );
        ("breach_observed", "the burst provokes at least one SLO breach", !breaches > 0);
      ]
  in
  summary 9 "slo"
    [
      ("platform", str "tiers-small (8 targets)");
      ("objective", str (Slo.spec (List.hd objectives)));
      ("horizon", num (Rat.to_float horizon));
      ("seeds", Json.int seeds);
      ("breaches", Json.int !breaches);
      ("mean_shortfall_off", num (!sum_short_off /. float_of_int !ran));
      ("mean_shortfall_on", num (!sum_short_on /. float_of_int !ran));
      ("worst_delivered_fraction_off", num !worst_off);
      ("worst_delivered_fraction_on", num !worst_on);
      ("duel_burn_epochs_off", Json.int duel_off_burn);
      ("duel_burn_epochs_on", Json.int duel_on_burn);
      ("duel_final_fraction_off", num duel_off_frac);
      ("duel_final_fraction_on", num duel_on_frac);
      ("sampling_overhead", num overhead);
      ("shape", shape);
    ]

(* ------------------------------------------------------------------ *)
(* E11 — Theorem 5: prefix gadget.                                      *)

let prefix () =
  banner "E11 / Section 4.2 — pipelined parallel prefix (Theorem 5 gadget)";
  let rng = Random.State.make [| 5 |] in
  Printf.printf "%6s %6s %6s %6s | %16s %8s\n" "trial" "N" "K*" "B" "max occupation" "ok";
  let all_ok = ref true in
  for trial = 1 to 6 do
    let cover =
      Set_cover.random rng ~universe:(4 + Random.State.int rng 3) ~n_sets:4 ~density:0.4
    in
    let chosen = Option.get (Set_cover.minimum cover) in
    let k_star = List.length chosen in
    List.iter
      (fun bound ->
        if bound >= 1 && bound <= 4 then begin
          let g = Prefix_gadget.build cover ~bound in
          match Prefix_schedule.scheme_of_cover g ~chosen with
          | Error _ -> all_ok := false
          | Ok occ ->
            let feasible = Prefix_schedule.is_feasible occ in
            let expected = k_star <= bound in
            if feasible <> expected then all_ok := false;
            Printf.printf "%6d %6d %6d %6d | %16s %8s\n" trial cover.Set_cover.universe
              k_star bound
              (Rat.to_string (Prefix_schedule.max_occupation occ))
              (if feasible = expected then "OK" else "FAIL")
        end)
      [ k_star - 1; k_star ]
  done;
  check "throughput-1 scheme exists iff the cover fits the bound" !all_ok

(* ------------------------------------------------------------------ *)
(* P1 — parallel scenario engine: pool + LP-solve cache (BENCH_3).      *)

type p1_leg = {
  p1_seconds : float;
  p1_solves : int;
  p1_pivots : int;
  p1_hits : int;
  p1_misses : int;
  p1_pool : Pool.stats;
  p1_workers : int; (* pool workers that ran at least one task in the leg *)
  (* canonical per-candidate score data, for the bit-identity check:
     (label, nominal, worst_case, mean, per-scenario (retention, lb)) *)
  p1_data : (string * float * float * float * (float * float option) list) list;
}

let pseries () =
  banner "P1 / parallel scenario engine — domain pool + LP-solve cache";
  let seed = 1 in
  let rng = Random.State.make [| seed; 5501 |] in
  let p = Tiers.generate rng Tiers.small_params ~n_targets:6 in
  let loss_bound = 0.25 in
  let max_scenarios = if !fast then 16 else 48 in
  let audit_cap = if !fast then 4 else 8 in
  let par_jobs = if !jobs > 1 then !jobs else 4 in
  Printf.printf "%s\n" (Platform.describe p);
  Printf.printf "scenario cap: %d; pareto LB audit cap: %d; parallel leg: %d jobs\n%!"
    max_scenarios audit_cap par_jobs;
  (* The workload is the R2 sweep's expensive core: a robust plan with
     survivor-LB references, then an LB audit of the Pareto front (every
     Pareto candidate re-scored with per-scenario LB references). With the
     cache on, the survivor platforms recur across candidates and all but
     the first solve per scenario become hits. *)
  let run_leg ~leg_jobs ~cache =
    Lp_cache.reset ();
    Lp_cache.set_enabled cache;
    let before = Lp_counters.snapshot () in
    let tasks_before = Pool.worker_tasks () in
    let t0 = Unix.gettimeofday () in
    let rep =
      match
        Robust_plan.plan ~loss_bound ~max_scenarios ~seed ~with_lb:true ~jobs:leg_jobs p
      with
      | Ok r -> r
      | Error e -> failwith ("pseries: robust plan failed: " ^ e)
    in
    let audited = List.filteri (fun i _ -> i < audit_cap) rep.Robust_plan.pareto in
    (* Candidate-level pool (inner scoring sequential: pools don't nest);
       map_stats surfaces worker utilization for the report. Survivors are
       prepared once and shared across the audited candidates. *)
    let prepared = Robust_plan.prepare ~jobs:1 p rep.Robust_plan.failures in
    let audit_scores, pool_stats =
      Pool.map_stats ~jobs:leg_jobs
        (fun (c : Robust_plan.candidate) ->
          Robust_plan.score_prepared ~with_lb:true ~jobs:1 p c.Robust_plan.schedule
            ~prepared)
        audited
    in
    let p1_seconds = Unix.gettimeofday () -. t0 in
    let d = Lp_counters.since before in
    let p1_workers =
      let prev w = if w < Array.length tasks_before then tasks_before.(w) else 0 in
      Array.fold_left ( + ) 0
        (Array.mapi (fun w k -> if k > prev w then 1 else 0) (Pool.worker_tasks ()))
    in
    let cs = Lp_cache.stats () in
    Lp_cache.set_enabled true;
    let digest label (s : Robust_plan.score) =
      ( label,
        s.Robust_plan.nominal,
        s.Robust_plan.worst_case,
        s.Robust_plan.mean,
        List.map
          (fun (sc : Robust_plan.scenario_score) ->
            (sc.Robust_plan.sc_retention, sc.Robust_plan.sc_survivor_lb))
          s.Robust_plan.scenario_scores )
    in
    let nominal = rep.Robust_plan.nominal_plan and chosen = rep.Robust_plan.chosen in
    {
      p1_seconds;
      p1_solves = d.Lp_counters.float_solves + d.Lp_counters.exact_solves;
      p1_pivots = d.Lp_counters.pivots + d.Lp_counters.exact_pivots;
      p1_hits = cs.Lp_cache.hits;
      p1_misses = cs.Lp_cache.misses;
      p1_pool = pool_stats;
      p1_workers;
      p1_data =
        digest ("nominal:" ^ nominal.Robust_plan.label) nominal.Robust_plan.cand_score
        :: digest ("chosen:" ^ chosen.Robust_plan.label) chosen.Robust_plan.cand_score
        :: List.map2
             (fun (c : Robust_plan.candidate) s -> digest c.Robust_plan.label s)
             audited audit_scores;
    }
  in
  (* Sequential leg = the pre-PR path: one domain, cache off. *)
  let seq = run_leg ~leg_jobs:1 ~cache:false in
  let par = run_leg ~leg_jobs:par_jobs ~cache:true in
  let speedup = if par.p1_seconds > 0.0 then seq.p1_seconds /. par.p1_seconds else nan in
  let hit_rate =
    let total = par.p1_hits + par.p1_misses in
    if total = 0 then 0.0 else float_of_int par.p1_hits /. float_of_int total
  in
  let identical = seq.p1_data = par.p1_data in
  Printf.printf "%-28s %10s %10s %10s %8s %8s\n" "leg" "seconds" "LP solves" "pivots"
    "hits" "misses";
  let leg name l =
    Printf.printf "%-28s %10.3f %10d %10d %8d %8d\n" name l.p1_seconds l.p1_solves
      l.p1_pivots l.p1_hits l.p1_misses
  in
  leg "sequential (jobs 1, no cache)" seq;
  leg (Printf.sprintf "parallel (jobs %d, cache)" par_jobs) par;
  Printf.printf
    "speedup: %.2fx; cache hit rate: %.1f%%; audit tasks per worker: [%s]; workers used: %d\n"
    speedup (100. *. hit_rate)
    (String.concat ";" (Array.to_list (Array.map string_of_int par.p1_pool.Pool.per_worker)))
    par.p1_workers;
  (* Work, not wall time: a wall-time ratio flips on a loaded 2-core
     machine. The cache must save half the LP solves, and the pool must
     spread the leg's tasks over at least two workers. *)
  check "sequential leg solves at least 2x the LPs of the parallel+cache leg"
    (seq.p1_solves >= 2 * par.p1_solves);
  check "parallel leg ran tasks on at least 2 workers" (par.p1_workers >= 2);
  check "nonzero LP-cache hit rate" (par.p1_hits > 0);
  check "parallel results bit-identical to sequential" identical;
  (* O3 — warm-vs-cold survivor LB leg: every single-failure survivor
     re-solved twice. Cold is the full ablation (no basis chaining, no
     seed); warm threads the nominal optimal basis — whose row names also
     re-materialize the nominal cut pool — into each survivor solve. The
     LP-solve cache is disabled for both legs so the numbers measure the
     engines, not the memo table. *)
  Lp_cache.set_enabled false;
  let nominal_basis = Option.bind (Formulations.multicast_lb_warm ~chain:true p) snd in
  let survivors =
    List.filter_map
      (fun f ->
        match Robust_plan.prepare ~jobs:1 p [ f ] with
        | [ pf ] -> Result.to_option pf.Robust_plan.pf_survivor
        | _ -> None)
      (Robust_plan.single_failures p)
  in
  let survivor_leg warm chain =
    let before = Lp_counters.snapshot () in
    let t0 = Unix.gettimeofday () in
    let objs =
      List.map
        (fun s ->
          Option.map
            (fun ((sol : Formulations.solution), _) -> sol.Formulations.throughput)
            (Formulations.multicast_lb_warm ?warm ~chain s))
        survivors
    in
    (objs, Lp_counters.since before, Unix.gettimeofday () -. t0)
  in
  let cold_objs, cold_d, cold_secs = survivor_leg None false in
  let warm_objs, warm_d, warm_secs = survivor_leg nominal_basis true in
  Lp_cache.set_enabled true;
  let warm_agree =
    List.for_all2
      (fun c w ->
        match (c, w) with
        | Some c, Some w -> abs_float (c -. w) <= 1e-5 *. (1.0 +. abs_float c)
        | None, None -> true
        | _ -> false)
      cold_objs warm_objs
  in
  let pivot_ratio =
    if warm_d.Lp_counters.pivots > 0 then
      float_of_int cold_d.Lp_counters.pivots /. float_of_int warm_d.Lp_counters.pivots
    else nan
  in
  Printf.printf "warm-vs-cold survivor LBs (%d survivors):\n" (List.length survivors);
  Printf.printf "%-28s %10s %10s %10s %10s\n" "leg" "seconds" "LP solves" "pivots"
    "warm hits";
  let wleg name (d : Lp_counters.snapshot) secs =
    Printf.printf "%-28s %10.3f %10d %10d %10d\n" name secs d.Lp_counters.float_solves
      d.Lp_counters.pivots d.Lp_counters.warm_hits
  in
  wleg "cold (no chain, no seed)" cold_d cold_secs;
  wleg "warm (nominal basis)" warm_d warm_secs;
  Printf.printf "warm-vs-cold pivot ratio: %.2fx\n" pivot_ratio;
  check "warm-vs-cold pivot reduction at least 5x" (pivot_ratio >= 5.0);
  check "warm starts engaged on the warm leg" (warm_d.Lp_counters.warm_hits > 0);
  check "warm survivor LBs agree with cold" warm_agree;
  let leg l =
    Json.JObj
      [
        ("seconds", num l.p1_seconds);
        ("lp_solves", Json.int l.p1_solves);
        ("pivots", Json.int l.p1_pivots);
        ("cache_hits", Json.int l.p1_hits);
        ("cache_misses", Json.int l.p1_misses);
        ("workers", Json.int l.p1_workers);
        ( "pool_tasks_per_worker",
          Json.JList (Array.to_list (Array.map Json.int l.p1_pool.Pool.per_worker)) );
      ]
  in
  summary 3 "parallel-engine"
    [
      ("platform", str (Platform.describe p));
      ("nodes", Json.int (Platform.n_nodes p));
      ("scenario_cap", Json.int max_scenarios);
      ("pareto_audit_cap", Json.int audit_cap);
      ("parallel_jobs", Json.int par_jobs);
      ("sequential", leg seq);
      ("parallel", leg par);
      ("speedup", num speedup);
      ("cache_hit_rate", num hit_rate);
      ("warm_survivors", Json.int (List.length survivors));
      ("warm_cold_pivots", Json.int cold_d.Lp_counters.pivots);
      ("warm_warm_pivots", Json.int warm_d.Lp_counters.pivots);
      ("warm_pivot_ratio", num pivot_ratio);
      ("warm_hits", Json.int warm_d.Lp_counters.warm_hits);
      ("bit_identical", Json.JBool identical);
    ]

(* ------------------------------------------------------------------ *)
(* H1 — heuristic portfolio timing. Exists so the whole-run metrics      *)
(* snapshot (BENCH_5.json) exercises the heuristics.method_seconds       *)
(* histogram: the other fast sections never call Heuristics.run_all, so  *)
(* without this leg the histogram sat at count 0 and the regression gate *)
(* had nothing to hold on to.                                            *)

let hseries () =
  banner "H1 / heuristic portfolio timing — heuristics.method_seconds";
  let runs = if !fast then 1 else 2 in
  let n_methods = List.length Heuristics.method_names in
  let before = Metrics.snapshot () in
  Printf.printf "%6s %16s %12s %9s\n" "seed" "best method" "period" "total(s)";
  for seed = 1 to runs do
    let rng = Random.State.make [| seed; 1789 |] in
    let p = Tiers.generate rng Tiers.small_params ~n_targets:6 in
    let report = Heuristics.run_all ~max_tries_per_round:3 p in
    let entries = report.Heuristics.entries in
    let best =
      List.fold_left
        (fun (b : Heuristics.entry) (e : Heuristics.entry) ->
          if e.Heuristics.period < b.Heuristics.period then e else b)
        (List.hd entries) entries
    in
    let total =
      List.fold_left (fun a (e : Heuristics.entry) -> a +. e.Heuristics.wall_time) 0.0 entries
    in
    Printf.printf "%6d %16s %12.4f %9.2f\n" seed best.Heuristics.name best.Heuristics.period
      total
  done;
  let d = Metrics.delta ~before (Metrics.snapshot ()) in
  match Metrics.find d "heuristics.method_seconds" with
  | Some (Metrics.Histogram h) ->
    Printf.printf "heuristics.method_seconds: count %d, sum %.3fs, min %.4fs, max %.4fs\n"
      h.Metrics.h_count h.Metrics.h_sum h.Metrics.h_min h.Metrics.h_max;
    check
      (Printf.sprintf "one observation per method per run (%d = %d x %d)" h.Metrics.h_count runs
         n_methods)
      (h.Metrics.h_count = runs * n_methods)
  | _ -> check "heuristics.method_seconds registered" false

(* Sections in run order, each with the --only names that select it. The
   order matters: the soak and SLO gauges are last-write-wins and the
   regression gate reads them. [sessions] also selects the SLO section
   because the committed baseline carries its metrics. *)
let sections =
  [
    ([ "fig1" ], fig1);
    ([ "table_complexity" ], table_complexity);
    ([ "fig4" ], fig4);
    ([ "fig5" ], fig5);
    ([ "fig11" ], fig11_small);
    ([ "fig11big" ], fig11_big);
    ([ "fig12" ], fig12);
    ([ "speed" ], speed);
    ([ "ablation_cuts"; "ablations" ], ablation_cuts);
    ([ "ablation_mcph"; "ablations" ], ablation_mcph);
    ([ "ablation_packing"; "ablations" ], ablation_packing);
    ([ "resilience" ], resilience);
    ([ "robust" ], robust);
    ([ "storms" ], storms);
    ([ "soak" ], soak_bench);
    ([ "sessions" ], sessions_bench);
    ([ "slo"; "sessions" ], slo_bench);
    ([ "pseries" ], pseries);
    ([ "hseries" ], hseries);
    ([ "prefix" ], prefix);
  ]

let parse_args () =
  let positive flag r =
    Arg.Int (fun n -> if n < 1 then raise (Arg.Bad (flag ^ " must be at least 1")) else r := n)
  in
  let specs =
    [
      ( "--fast",
        Arg.Unit
          (fun () ->
            fast := true;
            trials := 2;
            big_trials := 1),
        " small sizes: 2 trials, 1 big trial" );
      ("--trials", positive "--trials" trials, "N trials per data point (default 10)");
      ("--big-trials", positive "--big-trials" big_trials, "N trials on big platforms (default 3)");
      ( "--only",
        Arg.String (fun s -> only := String.split_on_char ',' s),
        "S1,S2 run only these sections" );
      ("--out-dir", Arg.Set_string out_dir, "DIR output directory (default bench_out)");
      ("--jobs", positive "--jobs" jobs, "N worker domains");
      ("--trace", Arg.String (fun f -> trace_out := Some f), "FILE write a Chrome trace");
      ( "--check-against",
        Arg.String (fun f -> check_against := Some f),
        "FILE gate the run's metrics against a baseline" );
      ("--check-tolerance", Arg.Set_float check_tolerance, "F counter tolerance (default 0.25)");
      ( "--check-time-tolerance",
        Arg.Float (fun x -> check_time_tolerance := Some x),
        "F wall-time tolerance (default max 1 (4 F))" );
    ]
  in
  let names = List.sort_uniq compare (List.concat_map fst sections) in
  let usage = "Usage: main.exe [options]; sections: " ^ String.concat ", " names in
  Arg.parse (Arg.align specs) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  List.iter
    (fun name ->
      if not (List.mem name names) then begin
        Printf.eprintf "bench: unknown section %S\n%s\n" name usage;
        exit 2
      end)
    !only

let () =
  parse_args ();
  if !trace_out <> None then Trace.enable ();
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (names, run) -> if !only = [] || List.exists (fun n -> List.mem n !only) names then run ())
    sections;
  if !r1_means <> [] || !r2_rows <> [] then
    summary 2 "robustness"
      [ ("r1_retention_means", Json.JObj !r1_means); ("r2_robust_vs_nominal", Json.JObj !r2_rows) ];
  (* BENCH_5.json: the metrics-registry snapshot accumulated over the whole
     bench run — LP solve/pivot totals, per-caller cache hits, pool task
     counts and utilization, heuristic timings. This file is both a CI
     artifact and the regression-gate baseline format: committing a copy as
     bench/baseline.json is what --check-against compares future runs to. *)
  let metrics_json = Filename.concat !out_dir "BENCH_5.json" in
  write_out "BENCH_5.json" (Json.to_string (Metrics.to_json (Metrics.snapshot ())));
  Printf.printf "metrics snapshot: %s\n" metrics_json;
  (match !trace_out with
  | None -> ()
  | Some path ->
    let n = List.length (Trace.events ()) and d = Trace.dropped () in
    Trace.export path;
    Trace.disable ();
    Printf.printf "trace: wrote %d events to %s (%d dropped%s)\n" n path d
      (if d > 0 then ": ring full, trace is partial" else ""));
  Printf.printf "\nTotal bench time: %.1fs\n" (Unix.gettimeofday () -. t0);
  (* Regression gate: compare the whole run's metrics against a committed
     baseline. Runs last so a failing gate still leaves every artifact on
     disk for diagnosis. *)
  match !check_against with
  | None -> ()
  | Some baseline -> (
    banner "regression gate";
    match Regress.load baseline with
    | Error e ->
      Printf.printf "regression gate: cannot load baseline %s: %s\n" baseline e;
      exit 2
    | Ok before ->
      let rules =
        Regress.default_rules ~tolerance:!check_tolerance
          ?time_tolerance:!check_time_tolerance ()
      in
      let current = Regress.flatten_snapshot (Metrics.snapshot ()) in
      let report = Regress.compare_snapshots ~rules ~before current in
      print_string (Regress.to_text report);
      Printf.printf
        "baseline: %s (refresh: rerun the same sections and copy %s over it)\n" baseline
        metrics_json;
      if not (Regress.passed report) then exit 1)
