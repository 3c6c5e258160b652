(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md experiment index E1..E11).

   Usage: dune exec bench/main.exe -- [--only fig11a,fig5] [--trials N]
            [--big-trials N] [--fast] [--out-dir DIR]
            [--check-against FILE] [--check-tolerance F] [--check-time-tolerance F]

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

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--fast" :: rest ->
      fast := true;
      trials := 2;
      big_trials := 1;
      go rest
    | "--trials" :: n :: rest ->
      trials := int_of_string n;
      go rest
    | "--big-trials" :: n :: rest ->
      big_trials := int_of_string n;
      go rest
    | "--only" :: s :: rest ->
      only := String.split_on_char ',' s;
      go rest
    | "--out-dir" :: d :: rest ->
      out_dir := d;
      go rest
    | "--jobs" :: n :: rest ->
      jobs := int_of_string n;
      go rest
    | "--trace" :: f :: rest ->
      trace_out := Some f;
      go rest
    | "--check-against" :: f :: rest ->
      check_against := Some f;
      go rest
    | "--check-tolerance" :: x :: rest ->
      check_tolerance := float_of_string x;
      go rest
    | "--check-time-tolerance" :: x :: rest ->
      check_time_tolerance := Some (float_of_string x);
      go rest
    | other :: _ -> failwith ("unknown argument: " ^ other)
  in
  go (List.tl (Array.to_list Sys.argv))

let want section = !only = [] || List.mem section !only
let banner title = Printf.printf "\n==== %s ====\n%!" title

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let period_of = function
  | None -> infinity
  | Some (s : Formulations.solution) -> s.Formulations.period

(* Machine-readable summary of the robustness experiments (R1/R2), written
   to BENCH_2.json at the end of the run for CI to archive and diff. *)
let r1_table : (float * (string * float) list) list ref = ref []

type r2_row = {
  r2_kind : string;
  r2_nominal_wc : float;  (* worst-case retention of the plain MCPH plan *)
  r2_robust_wc : float;  (* worst-case retention of the robust plan *)
  r2_nominal_mean : float;
  r2_robust_mean : float;
  r2_nominal_thr : float;  (* nominal throughput of the MCPH plan *)
  r2_robust_thr : float;  (* nominal throughput of the robust plan *)
}

let r2_table : r2_row list ref = ref []

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
  Printf.printf "shape check: single tree strictly below 1, combination reaches it — %s\n"
    (if
       Rat.(Multicast_tree.throughput best < one)
       && abs_float (sim.Event_sim.measured_throughput -. 1.0) < 0.05
     then "OK"
     else "MISMATCH")

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
  Printf.printf "shape check: single-tree optimum always equals B/K* (Theorems 1-2) — %s\n"
    (if !all_ok then "OK" else "MISMATCH")

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
  Printf.printf "shape check: LB > OPT > UB strictly — %s\n"
    (if
       lb.Formulations.throughput > opt_thr +. 0.01
       && opt_thr > ub.Formulations.throughput +. 0.01
     then "OK"
     else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* E4 — Fig. 5: the |T| gap family.                                     *)

let fig5 () =
  banner "E4 / Fig.5 — UB/LB period ratio reaches |P_target|";
  Printf.printf "%10s %12s %12s %12s %10s\n" "targets" "LB period" "UB period" "ratio" "paper";
  let ok = ref true in
  List.iter
    (fun n ->
      let p = Paper_platforms.fig5 ~n_targets:n in
      let lb = period_of (Formulations.multicast_lb p) in
      let ub = period_of (Formulations.multicast_ub p) in
      let ratio = ub /. lb in
      if abs_float (ratio -. float_of_int n) > 0.15 then ok := false;
      Printf.printf "%10d %12.4f %12.4f %12.3f %10d\n" n lb ub ratio n)
    [ 2; 3; 4; 6; 8 ];
  Printf.printf "shape check: ratio tracks the target count — %s\n"
    (if !ok then "OK" else "MISMATCH")

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
        let mean name =
          let xs = Hashtbl.find per_method name in
          List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
        in
        (d, mean))
      densities
  in
  (table, !lan)

let ensure_out_dir () =
  try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* Single point of truth for the machine-readable summary names: BENCH_2
   (robustness tables), BENCH_3 (parallel engine), BENCH_5 (metrics
   registry, the regression-gate baseline format). CI archives
   bench_out/BENCH_*.json. *)
let bench_json_file n = Filename.concat !out_dir (Printf.sprintf "BENCH_%d.json" n)

(* Gnuplot-ready data files: one row per density, one column per method —
   the paper's Fig. 11 panels are plots of exactly these series. *)
let write_fig11_dat fname ~vs table =
  ensure_out_dir ();
  let oc = open_out (Filename.concat !out_dir fname) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        ("# density " ^ String.concat " " (List.map (String.map (fun c -> if c = ' ' then '_' else c)) ("scatter" :: ratio_methods)) ^ "\n");
      List.iter
        (fun (d, mean) ->
          let base = mean vs in
          output_string oc (Printf.sprintf "%.2f" d);
          List.iter
            (fun m -> output_string oc (Printf.sprintf " %.4f" (mean m /. base)))
            ("scatter" :: ratio_methods);
          output_string oc "\n")
        table)

let print_fig11 name ~vs table =
  Printf.printf "\n-- %s: mean period ratio to \"%s\" --\n" name vs;
  Printf.printf "%8s" "density";
  List.iter (fun m -> Printf.printf " %14s" m) ("scatter" :: ratio_methods);
  Printf.printf "\n";
  List.iter
    (fun (d, mean) ->
      let base = mean vs in
      Printf.printf "%8.2f" d;
      List.iter (fun m -> Printf.printf " %14.3f" (mean m /. base)) ("scatter" :: ratio_methods);
      Printf.printf "\n")
    table

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
  Printf.printf "shape check: LP heuristics close to LB, well below scatter — %s\n"
    (if !ok1 then "OK" else "MISMATCH");
  Printf.printf "shape check: MCPH close to the LP heuristics — %s\n"
    (if !ok2 then "OK" else "MISMATCH");
  Printf.printf "shape check: plain broadcast competitive at density >= 0.4 — %s\n"
    (if !ok3 then "OK" else "MISMATCH")

let fig11_small () =
  banner "E5/E6 / Fig.11(a,b) — small platforms (30 nodes, 17 LAN hosts)";
  Printf.printf "trials per density: %d\n%!" !trials;
  let table, lan = fig11_data Tiers.small_params !trials ~tries:3 in
  Printf.printf "LAN host pool: %d\n" lan;
  print_fig11 "Fig.11(a)" ~vs:"scatter" table;
  print_fig11 "Fig.11(b)" ~vs:"lower bound" table;
  write_fig11_dat "fig11a.dat" ~vs:"scatter" table;
  write_fig11_dat "fig11b.dat" ~vs:"lower bound" table;
  Printf.printf "gnuplot data: %s/fig11{a,b}.dat\n" !out_dir;
  shape_checks_fig11 table

let fig11_big () =
  banner "E7/E8 / Fig.11(c,d) — big platforms (65 nodes, 47 LAN hosts)";
  Printf.printf "trials per density: %d\n%!" !big_trials;
  let table, lan = fig11_data Tiers.big_params !big_trials ~tries:2 in
  Printf.printf "LAN host pool: %d\n" lan;
  print_fig11 "Fig.11(c)" ~vs:"scatter" table;
  print_fig11 "Fig.11(d)" ~vs:"lower bound" table;
  write_fig11_dat "fig11c.dat" ~vs:"scatter" table;
  write_fig11_dat "fig11d.dat" ~vs:"lower bound" table;
  Printf.printf "gnuplot data: %s/fig11{c,d}.dat\n" !out_dir;
  shape_checks_fig11 table

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
  Printf.printf
    "shape check: Multisource MC at least as fast as the MCPH tree (paper: 789 vs 1000) — %s\n"
    (if ms.Multisource.period <= mcph_period +. 1e-6 then "OK" else "MISMATCH")

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
    Printf.printf "shape check: MCPH is the fastest (paper: it solves no LP) — %s\n"
      (if contains fastest "MCPH" then "OK" else "MISMATCH")
  | [] -> Printf.printf "shape check: no measurements — MISMATCH\n"

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
  Printf.printf "shape check: two-sided separation needs at most as many rounds — %s
"
    (if !tot2 <= !tot1 then "OK" else "MISMATCH")

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
    let lb = period_of (Formulations.multicast_lb p) in
    incr n;
    if mcph <= tm +. 1e-9 && mcph <= pd +. 1e-9 && mcph <= kmb +. 1e-9 then incr wins;
    Printf.printf "%6d | %10.1f %10.1f %10.1f %10.1f | %10.1f
" seed mcph tm pd kmb lb
  done;
  Printf.printf
    "shape check: the re-metricised MCPH is never beaten by a classical tree (%d/%d) — %s
"
    !wins !n
    (if !wins >= !n - 1 then "OK" else "MISMATCH")

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
  Printf.printf
    "shape check: column generation always realizes the full Broadcast-EB value — %s
"
    (if !ok then "OK" else "MISMATCH")

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
    let retentions =
      List.filter_map Fun.id
        (Pool.map ~jobs:!jobs one (List.init n_trials (fun i -> i + 1)))
    in
    match retentions with
    | [] -> nan
    | rs -> List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs)
  in
  let table =
    List.map (fun rate -> (rate, List.map (fun kind -> cell kind rate) resilience_kinds)) resilience_rates
  in
  r1_table :=
    List.map (fun (rate, cells) -> (rate, List.combine resilience_kinds cells)) table;
  Printf.printf "%8s" "rate";
  List.iter (fun k -> Printf.printf " %14s" k) resilience_kinds;
  Printf.printf "\n";
  List.iter
    (fun (rate, cells) ->
      Printf.printf "%8.2f" rate;
      List.iter (fun c -> Printf.printf " %14.3f" c) cells;
      Printf.printf "\n")
    table;
  ensure_out_dir ();
  let oc = open_out (Filename.concat !out_dir "resilience.dat") in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc ("# rate " ^ String.concat " " resilience_kinds ^ "\n");
      List.iter
        (fun (rate, cells) ->
          output_string oc (Printf.sprintf "%.2f" rate);
          List.iter (fun c -> output_string oc (Printf.sprintf " %.4f" c)) cells;
          output_string oc "\n")
        table);
  Printf.printf "gnuplot data: %s/resilience.dat\n" !out_dir;
  let row_at rate =
    List.assoc rate table
  in
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
  Printf.printf "shape check: retention is exactly 1 with no failures — %s\n"
    (if ok_baseline then "OK" else "MISMATCH");
  Printf.printf "shape check: retention does not improve with failure rate — %s\n"
    (if ok_monotone then "OK" else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* R2 — robust planning: worst-case retention vs nominal-throughput cost. *)

let robust_kinds = [ "two-relay"; "tiers-small"; "random" ]

let robust () =
  banner "R2 / robust — proactive planning: worst-case retention vs nominal cost";
  let loss_bound = 0.25 in
  (* two-relay is a fixed 5-node example; one trial is the population. *)
  let trials_of = function "two-relay" -> 1 | _ -> max 1 !trials in
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
      let mean f = List.fold_left (fun s r -> s +. f r) 0.0 reps /. float_of_int (List.length reps) in
      let nominal_score (r : Robust_plan.report) = r.Robust_plan.nominal_plan.Robust_plan.cand_score in
      let chosen_score (r : Robust_plan.report) = r.Robust_plan.chosen.Robust_plan.cand_score in
      Some
        {
          r2_kind = kind;
          r2_nominal_wc = mean (fun r -> (nominal_score r).Robust_plan.worst_case);
          r2_robust_wc = mean (fun r -> (chosen_score r).Robust_plan.worst_case);
          r2_nominal_mean = mean (fun r -> (nominal_score r).Robust_plan.mean);
          r2_robust_mean = mean (fun r -> (chosen_score r).Robust_plan.mean);
          r2_nominal_thr = mean (fun r -> (nominal_score r).Robust_plan.nominal);
          r2_robust_thr = mean (fun r -> (chosen_score r).Robust_plan.nominal);
        }
  in
  Printf.printf "loss bound: %.0f%%; scenario cap: 48; trials per kind: %d (two-relay: 1)\n%!"
    (100. *. loss_bound) (max 1 !trials);
  let rows = List.filter_map row robust_kinds in
  r2_table := rows;
  Printf.printf "%-12s %10s %10s | %10s %10s | %10s %10s\n" "kind" "wc(mcph)" "wc(robust)"
    "mean(mcph)" "mean(rob)" "thr(mcph)" "thr(rob)";
  List.iter
    (fun r ->
      Printf.printf "%-12s %10.3f %10.3f | %10.3f %10.3f | %10.4f %10.4f\n" r.r2_kind
        r.r2_nominal_wc r.r2_robust_wc r.r2_nominal_mean r.r2_robust_mean r.r2_nominal_thr
        r.r2_robust_thr)
    rows;
  ensure_out_dir ();
  let oc = open_out (Filename.concat !out_dir "robust.dat") in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        "# kind wc_mcph wc_robust mean_mcph mean_robust thr_mcph thr_robust\n";
      List.iter
        (fun r ->
          output_string oc
            (Printf.sprintf "%s %.4f %.4f %.4f %.4f %.4f %.4f\n" r.r2_kind r.r2_nominal_wc
               r.r2_robust_wc r.r2_nominal_mean r.r2_robust_mean r.r2_nominal_thr
               r.r2_robust_thr))
        rows);
  Printf.printf "gnuplot data: %s/robust.dat\n" !out_dir;
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
  Printf.printf "shape check: robust worst-case never below nominal's — %s\n"
    (if ok_wc then "OK" else "MISMATCH");
  Printf.printf "shape check: robust nominal throughput within the loss bound — %s\n"
    (if ok_thr then "OK" else "MISMATCH");
  Printf.printf
    "shape check: some kind gains >0.1 worst-case retention (two-relay: 0 -> 1/2) — %s\n"
    (if ok_margin then "OK" else "MISMATCH")

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
  let seeds = max 1 !trials in
  let full_times = ref [] and inc_times = ref [] in
  let full_constr = ref [] and inc_constr = ref [] in
  let full_rets = ref [] and inc_rets = ref [] in
  let patched = ref 0 and fell_back = ref 0 and forced = ref 0 in
  let unrecoverable = ref 0 and total = ref 0 in
  let max_shortfall = ref 0.0 in
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
                  incr patched;
                  full_times := t_full :: !full_times;
                  inc_times := t_inc :: !inc_times;
                  full_constr := full.Repair.replan_seconds :: !full_constr;
                  inc_constr := inc.Repair.replan_seconds :: !inc_constr;
                  full_rets := full.Repair.retention :: !full_rets;
                  inc_rets := inc.Repair.retention :: !inc_rets;
                  max_shortfall :=
                    Float.max !max_shortfall
                      (full.Repair.retention -. inc.Repair.retention);
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
  let mean = function
    | [] -> nan
    | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let percentile q = function
    | [] -> nan
    | xs ->
      let sorted = List.sort compare xs in
      let n = List.length sorted in
      List.nth sorted (max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  in
  let mean_full = mean !full_times and mean_inc = mean !inc_times in
  let speedup = if mean_inc > 0.0 then mean_full /. mean_inc else nan in
  Printf.printf
    "scenarios: %d (%d unrecoverable); patched %d, fell back %d, forced fallbacks %d\n"
    !total !unrecoverable !patched !fell_back !forced;
  Printf.printf "full re-plan:    mean %.3fms  p50 %.3fms  p99 %.3fms  (construction only %.3fms)\n"
    (1e3 *. mean_full) (1e3 *. percentile 0.5 !full_times)
    (1e3 *. percentile 0.99 !full_times) (1e3 *. mean !full_constr);
  Printf.printf "incremental:     mean %.3fms  p50 %.3fms  p99 %.3fms  (construction only %.3fms; speedup %.1fx)\n"
    (1e3 *. mean_inc) (1e3 *. percentile 0.5 !inc_times)
    (1e3 *. percentile 0.99 !inc_times) (1e3 *. mean !inc_constr) speedup;
  Printf.printf "retention:       full mean %.4f, incremental mean %.4f, max shortfall %.4f\n"
    (mean !full_rets) (mean !inc_rets) !max_shortfall;
  Printf.printf "online recovery: %d recovered, %d degraded, %d fallback\n" !recovered
    !degraded !fallback_final;
  let lp_d = Lp_counters.since lp_before in
  Printf.printf "warm starts:     %d hits across %d float solves (survivor LBs seeded from the nominal basis)\n"
    lp_d.Lp_counters.warm_hits lp_d.Lp_counters.float_solves;
  let ok_speedup = !patched > 0 && speedup >= 3.0 in
  let ok_retention = !patched > 0 && !max_shortfall <= 0.02 +. 1e-9 in
  let ok_fallback = !forced >= 1 in
  let ok_warm = lp_d.Lp_counters.warm_hits > 0 in
  Printf.printf "shape check: incremental repair >= 3x faster than full re-plan (mean) — %s\n"
    (if ok_speedup then "OK" else "MISMATCH");
  Printf.printf "shape check: every patched storm within 2%% of full re-plan retention — %s\n"
    (if ok_retention then "OK" else "MISMATCH");
  Printf.printf "shape check: fallback leg exercised by the sweep — %s\n"
    (if ok_fallback then "OK" else "MISMATCH");
  Printf.printf "shape check: warm starts engaged during repair re-planning — %s\n"
    (if ok_warm then "OK" else "MISMATCH");
  ensure_out_dir ();
  let buf = Buffer.create 1024 in
  let fld ?(indent = "  ") last name v =
    Buffer.add_string buf (Printf.sprintf "%s%S: %s%s\n" indent name v (if last then "" else ","))
  in
  Buffer.add_string buf "{\n";
  fld false "platform" "\"tiers-small (8 targets)\"";
  fld false "seeds" (string_of_int seeds);
  fld false "storm_kinds" "[\"burst\",\"endpoint\",\"subtree\"]";
  fld false "scenarios" (string_of_int !total);
  fld false "unrecoverable" (string_of_int !unrecoverable);
  fld false "patched" (string_of_int !patched);
  fld false "fell_back" (string_of_int !fell_back);
  fld false "forced_fallbacks" (string_of_int !forced);
  let leg name times last =
    Buffer.add_string buf (Printf.sprintf "  %S: {\n" name);
    fld ~indent:"    " false "mean_seconds" (Printf.sprintf "%.6f" (mean times));
    fld ~indent:"    " false "p50_seconds" (Printf.sprintf "%.6f" (percentile 0.5 times));
    fld ~indent:"    " true "p99_seconds" (Printf.sprintf "%.6f" (percentile 0.99 times));
    Buffer.add_string buf (Printf.sprintf "  }%s\n" (if last then "" else ","))
  in
  leg "full_replan" !full_times false;
  leg "incremental" !inc_times false;
  fld false "full_replan_construction_mean_seconds" (Printf.sprintf "%.6f" (mean !full_constr));
  fld false "incremental_construction_mean_seconds" (Printf.sprintf "%.6f" (mean !inc_constr));
  fld false "mean_speedup" (Printf.sprintf "%.4f" speedup);
  fld false "retention_full_mean" (Printf.sprintf "%.4f" (mean !full_rets));
  fld false "retention_incremental_mean" (Printf.sprintf "%.4f" (mean !inc_rets));
  fld false "retention_max_shortfall" (Printf.sprintf "%.4f" !max_shortfall);
  fld false "warm_hits" (string_of_int lp_d.Lp_counters.warm_hits);
  Buffer.add_string buf "  \"online_recovery\": {\n";
  fld ~indent:"    " false "recovered" (string_of_int !recovered);
  fld ~indent:"    " false "degraded" (string_of_int !degraded);
  fld ~indent:"    " true "fallback" (string_of_int !fallback_final);
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"shape\": {\n";
  fld ~indent:"    " false "speedup_3x" (if ok_speedup then "true" else "false");
  fld ~indent:"    " false "retention_within_2pct" (if ok_retention then "true" else "false");
  fld ~indent:"    " false "fallback_exercised" (if ok_fallback then "true" else "false");
  fld ~indent:"    " true "warm_starts_engaged" (if ok_warm then "true" else "false");
  Buffer.add_string buf "  }\n}\n";
  let fname = bench_json_file 6 in
  let oc = open_out fname in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc buf);
  Printf.printf "storm summary: %s\n" fname

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
  let seeds = max 1 !trials in
  let horizon = Rat.of_int 400 in
  let naive_replans = ref 0 and damped_replans = ref 0 in
  let naive_delivered = ref 0.0 and damped_delivered = ref 0.0 in
  let nominal_integral = ref 0.0 in
  let naive_avail = ref [] and damped_avail = ref [] in
  let damped_patches = ref 0 and suppressions = ref 0 and reintegrations = ref 0 in
  let exhaustions = ref 0 and epochs = ref 0 and events = ref 0 in
  let soaked = ref 0 in
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
      incr soaked;
      naive_replans := !naive_replans + naive.Soak.sk_full_replans;
      damped_replans := !damped_replans + damped.Soak.sk_full_replans;
      naive_delivered := !naive_delivered +. naive.Soak.sk_delivered_integral;
      damped_delivered := !damped_delivered +. damped.Soak.sk_delivered_integral;
      nominal_integral := !nominal_integral +. naive.Soak.sk_nominal_integral;
      naive_avail := naive.Soak.sk_availability :: !naive_avail;
      damped_avail := damped.Soak.sk_availability :: !damped_avail;
      damped_patches := !damped_patches + damped.Soak.sk_patches;
      suppressions := !suppressions + damped.Soak.sk_suppressions;
      reintegrations := !reintegrations + damped.Soak.sk_reintegrations;
      exhaustions := !exhaustions + damped.Soak.sk_token_exhaustions;
      epochs := !epochs + damped.Soak.sk_epochs;
      events := !events + damped.Soak.sk_events;
      Printf.printf "%6d %8d | %10d %10d | %10.3f %10.3f | %9d\n" seed
        damped.Soak.sk_events naive.Soak.sk_full_replans damped.Soak.sk_full_replans
        naive.Soak.sk_delivered_integral damped.Soak.sk_delivered_integral
        damped.Soak.sk_suppressions
  done;
  let mean = function
    | [] -> nan
    | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
  in
  let delivered_ratio =
    if !naive_delivered > 0.0 then !damped_delivered /. !naive_delivered else nan
  in
  let replan_ratio =
    if !damped_replans > 0 then
      float_of_int !naive_replans /. float_of_int !damped_replans
    else infinity
  in
  Printf.printf "full re-plans:  naive %d, damped %d (%.1fx fewer)\n" !naive_replans
    !damped_replans replan_ratio;
  Printf.printf "delivered:      naive %.3f, damped %.3f of %.3f nominal (ratio %.4f)\n"
    !naive_delivered !damped_delivered !nominal_integral delivered_ratio;
  Printf.printf "availability:   naive mean %.4f, damped mean %.4f\n" (mean !naive_avail)
    (mean !damped_avail);
  Printf.printf
    "damped extras:  %d patches, %d suppressions, %d re-integrations, %d token \
     exhaustions over %d epochs\n"
    !damped_patches !suppressions !reintegrations !exhaustions !epochs;
  let ok_replans = !soaked > 0 && !naive_replans >= 3 * max 1 !damped_replans in
  let ok_delivered = !soaked > 0 && delivered_ratio >= 0.95 in
  let ok_damping = !suppressions >= 1 in
  Printf.printf
    "shape check: damped controller does >= 3x fewer full re-plans than naive — %s\n"
    (if ok_replans then "OK" else "MISMATCH");
  Printf.printf
    "shape check: damped delivered-throughput integral within 5%% of naive — %s\n"
    (if ok_delivered then "OK" else "MISMATCH");
  Printf.printf "shape check: flap damping exercised (suppressions happened) — %s\n"
    (if ok_damping then "OK" else "MISMATCH");
  ensure_out_dir ();
  let buf = Buffer.create 1024 in
  let fld ?(indent = "  ") last name v =
    Buffer.add_string buf
      (Printf.sprintf "%s%S: %s%s\n" indent name v (if last then "" else ","))
  in
  Buffer.add_string buf "{\n";
  fld false "platform" "\"tiers-small (8 targets)\"";
  fld false "scenario" "\"flapping: 3 links x 6 flaps, mean up 40, mean down 5\"";
  fld false "horizon" (Rat.to_string horizon);
  fld false "seeds" (string_of_int seeds);
  fld false "soaked" (string_of_int !soaked);
  fld false "fault_events" (string_of_int !events);
  fld false "epochs_damped" (string_of_int !epochs);
  fld false "full_replans_naive" (string_of_int !naive_replans);
  fld false "full_replans_damped" (string_of_int !damped_replans);
  fld false "replan_ratio"
    (if Float.is_finite replan_ratio then Printf.sprintf "%.4f" replan_ratio
     else "\"inf\"");
  fld false "delivered_naive" (Printf.sprintf "%.6f" !naive_delivered);
  fld false "delivered_damped" (Printf.sprintf "%.6f" !damped_delivered);
  fld false "nominal_integral" (Printf.sprintf "%.6f" !nominal_integral);
  fld false "delivered_ratio" (Printf.sprintf "%.6f" delivered_ratio);
  fld false "availability_naive_mean" (Printf.sprintf "%.6f" (mean !naive_avail));
  fld false "availability_damped_mean" (Printf.sprintf "%.6f" (mean !damped_avail));
  fld false "damped_patches" (string_of_int !damped_patches);
  fld false "suppressions" (string_of_int !suppressions);
  fld false "reintegrations" (string_of_int !reintegrations);
  fld false "token_exhaustions" (string_of_int !exhaustions);
  Buffer.add_string buf "  \"shape\": {\n";
  fld ~indent:"    " false "replans_3x_fewer" (if ok_replans then "true" else "false");
  fld ~indent:"    " false "delivered_within_5pct" (if ok_delivered then "true" else "false");
  fld ~indent:"    " true "damping_exercised" (if ok_damping then "true" else "false");
  Buffer.add_string buf "  }\n}\n";
  let fname = bench_json_file 7 in
  let oc = open_out fname in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc buf);
  Printf.printf "soak summary: %s\n" fname

(* ------------------------------------------------------------------ *)
(* S1 — online sessions: incremental warm re-planning vs per-epoch cold
   re-plans, on identical seeded workloads and fault scenarios. *)

let sessions_bench () =
  banner "S1 / sessions — incremental warm re-planning vs per-epoch cold re-plans";
  let seeds = max 1 !trials in
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
  let inc_secs = ref [] and cold_secs = ref [] in
  let inc_replans = ref 0 and cold_replans = ref 0 and skipped = ref 0 in
  let inc_admitted = ref 0 and cold_admitted = ref 0 in
  let admitted_equal = ref true in
  let inc_rate = ref 0.0 and cold_rate = ref 0.0 in
  let offered = ref 0 and ran = ref 0 in
  Printf.printf "seeds: %d; tiers-small (8 targets), horizon %s, epoch %s, burst at %s\n%!"
    seeds (Rat.to_string horizon)
    (Rat.to_string Horizon.default_config.Horizon.epoch)
    (Rat.to_string burst_at);
  Printf.printf "%6s %8s | %9s %9s | %9s %9s %8s | %10s %10s\n" "seed" "offered"
    "inc-adm" "cold-adm" "inc-rpl" "cold-rpl" "skipped" "inc-p99" "cold-p99";
  for seed = 1 to seeds do
    let p =
      Tiers.generate (Random.State.make [| seed; 6271 |]) Tiers.small_params ~n_targets:8
    in
    let sessions =
      Workload.generate (Random.State.make [| seed; 9001 |]) p wl_params ~horizon
    in
    let faults =
      Fault.random_burst (Random.State.make [| seed; 9002 |]) p ~k:3 ~window:Rat.one
        ~at:burst_at
    in
    let run mode =
      let config = { Horizon.default_config with Horizon.replan_mode = mode } in
      match Horizon.run ~config ~faults p sessions ~horizon with
      | Error e -> failwith ("sessions bench: " ^ e)
      | Ok rep -> rep
    in
    let inc = run `Incremental in
    let cold = run `Cold in
    incr ran;
    offered := !offered + List.length sessions;
    if inc.Horizon.hz_admitted <> cold.Horizon.hz_admitted then admitted_equal := false;
    inc_admitted := !inc_admitted + inc.Horizon.hz_admitted;
    cold_admitted := !cold_admitted + cold.Horizon.hz_admitted;
    inc_replans := !inc_replans + inc.Horizon.hz_replans;
    cold_replans := !cold_replans + cold.Horizon.hz_replans;
    skipped := !skipped + inc.Horizon.hz_replans_skipped;
    inc_rate := !inc_rate +. inc.Horizon.hz_admitted_rate_sum;
    cold_rate := !cold_rate +. cold.Horizon.hz_admitted_rate_sum;
    let push acc rep =
      List.iter
        (fun (e : Horizon.epoch_record) -> acc := e.Horizon.ep_seconds :: !acc)
        rep.Horizon.hz_epochs
    in
    push inc_secs inc;
    push cold_secs cold;
    Printf.printf "%6d %8d | %9d %9d | %9d %9d %8d | %10.4f %10.4f\n%!" seed
      (List.length sessions) inc.Horizon.hz_admitted cold.Horizon.hz_admitted
      inc.Horizon.hz_replans cold.Horizon.hz_replans inc.Horizon.hz_replans_skipped
      inc.Horizon.hz_p99_epoch_seconds cold.Horizon.hz_p99_epoch_seconds
  done;
  (* Nearest-rank percentile over all epochs of all seeds: per-seed p99
     on ~60 epochs is just the max, which a single heavy admission epoch
     (identical work in both modes) can dominate. *)
  let percentile q xs =
    match List.sort compare xs with
    | [] -> nan
    | sorted ->
      let n = List.length sorted in
      let idx = min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1) in
      List.nth sorted (max 0 idx)
  in
  let inc_p99 = percentile 0.99 !inc_secs and cold_p99 = percentile 0.99 !cold_secs in
  let p99_ratio = if inc_p99 > 0.0 then cold_p99 /. inc_p99 else infinity in
  let replan_ratio =
    if !inc_replans > 0 then float_of_int !cold_replans /. float_of_int !inc_replans
    else infinity
  in
  Printf.printf "admissions:  incremental %d, cold %d of %d offered (equal per seed: %b)\n"
    !inc_admitted !cold_admitted !offered !admitted_equal;
  Printf.printf "re-plans:    incremental %d (+%d skipped), cold %d (%.1fx more)\n"
    !inc_replans !skipped !cold_replans replan_ratio;
  Printf.printf "epoch p99:   incremental %.4fs, cold %.4fs (%.1fx)\n" inc_p99 cold_p99
    p99_ratio;
  Printf.printf "rate sums:   incremental %.4f, cold %.4f msg/unit\n" !inc_rate !cold_rate;
  let ok_admit = !ran > 0 && !admitted_equal in
  let ok_p99 = !ran > 0 && cold_p99 >= 3.0 *. inc_p99 in
  let ok_skip = !skipped > !inc_replans in
  Printf.printf
    "shape check: incremental admits exactly the sessions cold admits — %s\n"
    (if ok_admit then "OK" else "MISMATCH");
  Printf.printf
    "shape check: incremental beats cold by >= 3x p99 epoch latency — %s\n"
    (if ok_p99 then "OK" else "MISMATCH");
  Printf.printf "shape check: most per-epoch re-plan work is skipped — %s\n"
    (if ok_skip then "OK" else "MISMATCH");
  ensure_out_dir ();
  let buf = Buffer.create 1024 in
  let fld ?(indent = "  ") last name v =
    Buffer.add_string buf
      (Printf.sprintf "%s%S: %s%s\n" indent name v (if last then "" else ","))
  in
  Buffer.add_string buf "{\n";
  fld false "platform" "\"tiers-small (8 targets)\"";
  fld false "workload"
    "\"Poisson 0.08/unit, Pareto hold mean 100, demand 10-35% of standalone\"";
  fld false "scenario" (Printf.sprintf "\"burst: 3 links at t=%s\"" (Rat.to_string burst_at));
  fld false "horizon" (Rat.to_string horizon);
  fld false "seeds" (string_of_int seeds);
  fld false "offered" (string_of_int !offered);
  fld false "admitted_incremental" (string_of_int !inc_admitted);
  fld false "admitted_cold" (string_of_int !cold_admitted);
  fld false "replans_incremental" (string_of_int !inc_replans);
  fld false "replans_skipped" (string_of_int !skipped);
  fld false "replans_cold" (string_of_int !cold_replans);
  fld false "replan_ratio"
    (if Float.is_finite replan_ratio then Printf.sprintf "%.4f" replan_ratio
     else "\"inf\"");
  fld false "p99_epoch_seconds_incremental" (Printf.sprintf "%.6f" inc_p99);
  fld false "p99_epoch_seconds_cold" (Printf.sprintf "%.6f" cold_p99);
  fld false "p99_ratio"
    (if Float.is_finite p99_ratio then Printf.sprintf "%.4f" p99_ratio else "\"inf\"");
  fld false "admitted_rate_sum_incremental" (Printf.sprintf "%.6f" !inc_rate);
  fld false "admitted_rate_sum_cold" (Printf.sprintf "%.6f" !cold_rate);
  Buffer.add_string buf "  \"shape\": {\n";
  fld ~indent:"    " false "admissions_equal" (if ok_admit then "true" else "false");
  fld ~indent:"    " false "p99_3x_faster" (if ok_p99 then "true" else "false");
  fld ~indent:"    " true "most_replans_skipped" (if ok_skip then "true" else "false");
  Buffer.add_string buf "  }\n}\n";
  let fname = bench_json_file 8 in
  let oc = open_out fname in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc buf);
  Printf.printf "sessions summary: %s\n" fname

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
  let seeds = max 1 !trials in
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
  let degraded_off = ref 0 and degraded_on = ref 0 in
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
    match shorts with
    | [] -> 0.0
    | _ -> List.fold_left ( +. ) 0.0 shorts /. float_of_int (List.length shorts)
  in
  Printf.printf "seeds: %d; tiers-small (8 targets), horizon %s, burst at %s\n%!" seeds
    (Rat.to_string horizon) (Rat.to_string burst_at);
  Printf.printf "%6s | %9s %9s | %10s %10s | %6s %6s | %8s %8s\n" "seed" "adm-off"
    "adm-on" "short-off" "short-on" "dg-off" "dg-on" "breaches" "digest=";
  for seed = 1 to seeds do
    let p =
      Tiers.generate (Random.State.make [| seed; 6271 |]) Tiers.small_params ~n_targets:8
    in
    let sessions =
      Workload.generate (Random.State.make [| seed; 9001 |]) p wl_params ~horizon
    in
    let faults =
      Fault.random_burst (Random.State.make [| seed; 9002 |]) p ~k:3 ~window:Rat.one
        ~at:burst_at
    in
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
    degraded_off := !degraded_off + burn_epochs off;
    degraded_on := !degraded_on + burn_epochs enforced;
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
  let ok_digest = !ran > 0 && !digest_invariant in
  let ok_admit = !ran > 0 && !admissions_equal && duel_admissions_equal in
  let ok_short = !sum_short_on <= !sum_short_off +. 1e-9 && !worst_on >= !worst_off -. 1e-9 in
  let ok_duel = duel_on_burn < duel_off_burn && duel_on_frac > duel_off_frac +. 1e-9 in
  let ok_breach = !breaches > 0 in
  Printf.printf "shape check: sampling never perturbs the digest — %s\n"
    (if ok_digest then "OK" else "MISMATCH");
  Printf.printf "shape check: enforcement leaves admissions unchanged — %s\n"
    (if ok_admit then "OK" else "MISMATCH");
  Printf.printf "shape check: enforcement never worsens delivered-fraction shortfall — %s\n"
    (if ok_short then "OK" else "MISMATCH");
  Printf.printf "shape check: enforcement rescues the duel victim — %s\n"
    (if ok_duel then "OK" else "MISMATCH");
  Printf.printf "shape check: the burst provokes at least one SLO breach — %s\n"
    (if ok_breach then "OK" else "MISMATCH");
  ensure_out_dir ();
  let buf = Buffer.create 1024 in
  let fld ?(indent = "  ") last name v =
    Buffer.add_string buf
      (Printf.sprintf "%s%S: %s%s\n" indent name v (if last then "" else ","))
  in
  Buffer.add_string buf "{\n";
  fld false "platform" "\"tiers-small (8 targets)\"";
  fld false "objective" (Printf.sprintf "%S" (Slo.spec (List.hd objectives)));
  fld false "horizon" (Rat.to_string horizon);
  fld false "seeds" (string_of_int seeds);
  fld false "breaches" (string_of_int !breaches);
  fld false "mean_shortfall_off" (Printf.sprintf "%.6f" (!sum_short_off /. float_of_int !ran));
  fld false "mean_shortfall_on" (Printf.sprintf "%.6f" (!sum_short_on /. float_of_int !ran));
  fld false "worst_delivered_fraction_off" (Printf.sprintf "%.6f" !worst_off);
  fld false "worst_delivered_fraction_on" (Printf.sprintf "%.6f" !worst_on);
  fld false "duel_burn_epochs_off" (string_of_int duel_off_burn);
  fld false "duel_burn_epochs_on" (string_of_int duel_on_burn);
  fld false "duel_final_fraction_off" (Printf.sprintf "%.6f" duel_off_frac);
  fld false "duel_final_fraction_on" (Printf.sprintf "%.6f" duel_on_frac);
  fld false "sampling_overhead" (Printf.sprintf "%.6f" overhead);
  Buffer.add_string buf "  \"shape\": {\n";
  fld ~indent:"    " false "digest_invariant" (if ok_digest then "true" else "false");
  fld ~indent:"    " false "admissions_equal" (if ok_admit then "true" else "false");
  fld ~indent:"    " false "shortfall_no_worse" (if ok_short then "true" else "false");
  fld ~indent:"    " false "duel_victim_rescued" (if ok_duel then "true" else "false");
  fld ~indent:"    " true "breach_observed" (if ok_breach then "true" else "false");
  Buffer.add_string buf "  }\n}\n";
  let fname = bench_json_file 9 in
  let oc = open_out fname in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc buf);
  Printf.printf "slo summary: %s\n" fname

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
  Printf.printf "shape check: throughput-1 scheme exists iff the cover fits the bound — %s\n"
    (if !all_ok then "OK" else "MISMATCH")

(* ------------------------------------------------------------------ *)
(* P1 — parallel scenario engine: pool + LP-solve cache (BENCH_3).      *)

type p1_leg = {
  p1_seconds : float;
  p1_solves : int;
  p1_pivots : int;
  p1_hits : int;
  p1_misses : int;
  p1_pool : Pool.stats;
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
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  (* The workload is the R2 sweep's expensive core: a robust plan with
     survivor-LB references, then an LB audit of the Pareto front (every
     Pareto candidate re-scored with per-scenario LB references). With the
     cache on, the survivor platforms recur across candidates and all but
     the first solve per scenario become hits. *)
  let run_leg ~leg_jobs ~cache =
    Lp_cache.reset ();
    Lp_cache.set_enabled cache;
    let before = Lp_counters.snapshot () in
    let t0 = Unix.gettimeofday () in
    let rep =
      match
        Robust_plan.plan ~loss_bound ~max_scenarios ~seed ~with_lb:true ~jobs:leg_jobs p
      with
      | Ok r -> r
      | Error e -> failwith ("pseries: robust plan failed: " ^ e)
    in
    let audited = take audit_cap rep.Robust_plan.pareto in
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
  Printf.printf "speedup: %.2fx; cache hit rate: %.1f%%; pool tasks per worker: [%s]\n"
    speedup (100. *. hit_rate)
    (String.concat ";" (Array.to_list (Array.map string_of_int par.p1_pool.Pool.per_worker)));
  Printf.printf "shape check: parallel+cache at least 2x the sequential leg — %s\n"
    (if speedup >= 2.0 then "OK" else "MISMATCH");
  Printf.printf "shape check: nonzero LP-cache hit rate — %s\n"
    (if par.p1_hits > 0 then "OK" else "MISMATCH");
  Printf.printf "shape check: parallel results bit-identical to sequential — %s\n"
    (if identical then "OK" else "MISMATCH");
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
  Printf.printf "shape check: warm-vs-cold pivot reduction at least 5x — %s\n"
    (if pivot_ratio >= 5.0 then "OK" else "MISMATCH");
  Printf.printf "shape check: warm starts engaged on the warm leg — %s\n"
    (if warm_d.Lp_counters.warm_hits > 0 then "OK" else "MISMATCH");
  Printf.printf "shape check: warm survivor LBs agree with cold — %s\n"
    (if warm_agree then "OK" else "MISMATCH");
  (* BENCH_3.json: machine-readable summary for CI artifacts. *)
  ensure_out_dir ();
  let buf = Buffer.create 1024 in
  let fld ?(indent = "  ") last name v =
    Buffer.add_string buf (Printf.sprintf "%s%S: %s%s\n" indent name v (if last then "" else ","))
  in
  Buffer.add_string buf "{\n";
  fld false "platform" (Printf.sprintf "%S" (Platform.describe p));
  fld false "nodes" (string_of_int (Platform.n_nodes p));
  fld false "scenario_cap" (string_of_int max_scenarios);
  fld false "pareto_audit_cap" (string_of_int audit_cap);
  fld false "parallel_jobs" (string_of_int par_jobs);
  let leg_json name l last =
    Buffer.add_string buf (Printf.sprintf "  %S: {\n" name);
    fld ~indent:"    " false "seconds" (Printf.sprintf "%.4f" l.p1_seconds);
    fld ~indent:"    " false "lp_solves" (string_of_int l.p1_solves);
    fld ~indent:"    " false "pivots" (string_of_int l.p1_pivots);
    fld ~indent:"    " false "cache_hits" (string_of_int l.p1_hits);
    fld ~indent:"    " false "cache_misses" (string_of_int l.p1_misses);
    fld ~indent:"    " true "pool_tasks_per_worker"
      (Printf.sprintf "[%s]"
         (String.concat ","
            (Array.to_list (Array.map string_of_int l.p1_pool.Pool.per_worker))));
    Buffer.add_string buf (Printf.sprintf "  }%s\n" (if last then "" else ","))
  in
  leg_json "sequential" seq false;
  leg_json "parallel" par false;
  fld false "speedup" (Printf.sprintf "%.4f" speedup);
  fld false "cache_hit_rate" (Printf.sprintf "%.4f" hit_rate);
  fld false "warm_survivors" (string_of_int (List.length survivors));
  fld false "warm_cold_pivots" (string_of_int cold_d.Lp_counters.pivots);
  fld false "warm_warm_pivots" (string_of_int warm_d.Lp_counters.pivots);
  fld false "warm_pivot_ratio" (Printf.sprintf "%.4f" pivot_ratio);
  fld false "warm_hits" (string_of_int warm_d.Lp_counters.warm_hits);
  fld true "bit_identical" (if identical then "true" else "false");
  Buffer.add_string buf "}\n";
  let fname = bench_json_file 3 in
  let oc = open_out fname in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc buf);
  Printf.printf "parallel-engine summary: %s\n" fname

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
    Printf.printf "shape check: one observation per method per run (%d = %d x %d) — %s\n"
      h.Metrics.h_count runs n_methods
      (if h.Metrics.h_count = runs * n_methods then "OK" else "MISMATCH")
  | _ -> Printf.printf "shape check: heuristics.method_seconds registered — MISMATCH\n"

(* Hand-rolled JSON (no external deps): per-kind R1 retention means and the
   R2 robust-vs-nominal deltas, for CI artifacts and regression diffing. *)
let write_bench_json () =
  ensure_out_dir ();
  let buf = Buffer.create 1024 in
  let fld last name v = Buffer.add_string buf (Printf.sprintf "      %S: %s%s\n" name v (if last then "" else ",")) in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"r1_retention_means\": {\n";
  let kinds = match !r1_table with [] -> [] | (_, cells) :: _ -> List.map fst cells in
  List.iteri
    (fun i kind ->
      Buffer.add_string buf (Printf.sprintf "    %S: {\n" kind);
      List.iteri
        (fun j (rate, cells) ->
          Buffer.add_string buf
            (Printf.sprintf "      \"%.2f\": %.4f%s\n" rate (List.assoc kind cells)
               (if j = List.length !r1_table - 1 then "" else ",")))
        !r1_table;
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n" (if i = List.length kinds - 1 then "" else ",")))
    kinds;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf "  \"r2_robust_vs_nominal\": {\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf (Printf.sprintf "    %S: {\n" r.r2_kind);
      fld false "worst_case_nominal" (Printf.sprintf "%.4f" r.r2_nominal_wc);
      fld false "worst_case_robust" (Printf.sprintf "%.4f" r.r2_robust_wc);
      fld false "worst_case_delta" (Printf.sprintf "%.4f" (r.r2_robust_wc -. r.r2_nominal_wc));
      fld false "mean_nominal" (Printf.sprintf "%.4f" r.r2_nominal_mean);
      fld false "mean_robust" (Printf.sprintf "%.4f" r.r2_robust_mean);
      fld false "throughput_nominal" (Printf.sprintf "%.4f" r.r2_nominal_thr);
      fld false "throughput_robust" (Printf.sprintf "%.4f" r.r2_robust_thr);
      fld true "throughput_ratio"
        (if r.r2_nominal_thr > 0.0 then Printf.sprintf "%.4f" (r.r2_robust_thr /. r.r2_nominal_thr)
         else "null");
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n" (if i = List.length !r2_table - 1 then "" else ",")))
    !r2_table;
  Buffer.add_string buf "  }\n}\n";
  let fname = bench_json_file 2 in
  let oc = open_out fname in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Buffer.output_buffer oc buf);
  Printf.printf "robustness summary: %s\n" fname

(* BENCH_5.json: the metrics-registry snapshot accumulated over the whole
   bench run — LP solve/pivot totals, per-caller cache hits, pool task
   counts and utilization, heuristic timings. This file is both a CI
   artifact and the regression-gate baseline format: committing a copy as
   bench/baseline.json is what --check-against compares future runs to. *)
let write_metrics_json () =
  ensure_out_dir ();
  let fname = bench_json_file 5 in
  let oc = open_out fname in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Metrics.to_json (Metrics.snapshot ()));
      output_char oc '\n');
  Printf.printf "metrics snapshot: %s\n" fname

let () =
  parse_args ();
  if !trace_out <> None then Trace.enable ();
  let t0 = Unix.gettimeofday () in
  if want "fig1" then fig1 ();
  if want "table_complexity" then table_complexity ();
  if want "fig4" then fig4 ();
  if want "fig5" then fig5 ();
  if want "fig11a" || want "fig11b" || want "fig11" then fig11_small ();
  if want "fig11c" || want "fig11d" || want "fig11big" then fig11_big ();
  if want "fig12" then fig12 ();
  if want "speed" then speed ();
  if want "ablation_cuts" || want "ablations" then ablation_cuts ();
  if want "ablation_mcph" || want "ablations" then ablation_mcph ();
  if want "ablation_packing" || want "ablations" then ablation_packing ();
  if want "resilience" then resilience ();
  if want "robust" then robust ();
  if want "storms" then storms ();
  if want "soak" then soak_bench ();
  if want "sessions" || want "s1" then sessions_bench ();
  if want "slo" || want "sessions" || want "s1" then slo_bench ();
  if want "pseries" then pseries ();
  if want "hseries" then hseries ();
  if want "prefix" then prefix ();
  if !r1_table <> [] || !r2_table <> [] then write_bench_json ();
  write_metrics_json ();
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
        (bench_json_file 5);
      if not (Regress.passed report) then exit 1)
