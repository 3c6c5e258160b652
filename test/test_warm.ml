(* Satellite sweep for the warm-started LP pipeline (PR 8): random small
   platforms, single-edge or single-node damage, and three properties per
   case:

   - {e agreement}: the warm-started survivor LB equals the cold one
     (same feasibility verdict, objectives within float tolerance) — a
     warm basis may steer which optimal vertex is reported, never the
     optimal value;
   - {e work reduction}: across the sweep, the warm leg spends strictly
     fewer simplex pivots than the cold leg on at least 90% of the
     comparable cases (both feasible, nominal basis available);
   - {e oracle}: on a subsample, the cold objective matches the exact
     rational solver.

   Pivot accounting uses the process-global {!Lp_counters}, so the legs
   run sequentially inside one test body. The cold leg is the full
   ablation ([~chain:false], no seed basis): no warm starts anywhere,
   including between cut-generation rounds. *)

let tol v ref_v = abs_float v < 1e-5 *. (1.0 +. abs_float ref_v)

(* One random platform plus a single-entity damage record, both derived
   from [seed] alone. Node kills draw from the intermediates (never the
   source, so the survivor stays well-formed); platforms without
   intermediates fall back to an edge kill. *)
let case_of_seed seed =
  let rng = Random.State.make [| seed; 808 |] in
  let nodes = 6 + Random.State.int rng 3 in
  let p =
    Generators.random_connected rng ~nodes ~extra_edges:(3 + Random.State.int rng 3)
      ~min_cost:1 ~max_cost:9
      ~n_targets:(2 + Random.State.int rng (nodes - 3))
  in
  let kill_edge () =
    let es = Digraph.edges p.Platform.graph in
    let e = List.nth es (Random.State.int rng (List.length es)) in
    Repair.damage ~dead_edges:[ (e.Digraph.src, e.Digraph.dst) ] ()
  in
  let damage =
    match Platform.intermediates p with
    | inter when inter <> [] && Random.State.bool rng ->
      let v = List.nth inter (Random.State.int rng (List.length inter)) in
      Repair.damage ~dead_nodes:[ v ] ()
    | _ -> kill_edge ()
  in
  (p, damage)

type leg = { obj_ : float option; pivots : int; warm_hits : int }

let run_leg ?warm ~chain p =
  let before = Lp_counters.snapshot () in
  let sol = Formulations.multicast_lb_warm ?warm ~chain p in
  let d = Lp_counters.since before in
  {
    obj_ = Option.map (fun (s, _) -> s.Formulations.throughput) sol;
    pivots = d.Lp_counters.pivots;
    warm_hits = d.Lp_counters.warm_hits;
  }

let n_cases = 220

let test_sweep_agree_and_fewer_pivots () =
  let comparable = ref 0 and fewer = ref 0 and hits = ref 0 in
  let feasible = ref 0 in
  for seed = 0 to n_cases - 1 do
    let p, damage = case_of_seed seed in
    match Repair.apply_damage p damage with
    | Error _ -> () (* source-disconnecting damage: nothing to compare *)
    | Ok survivor ->
      let nominal = Formulations.multicast_lb_warm ~chain:true p in
      let basis = Option.bind nominal snd in
      let cold = run_leg ~chain:false survivor in
      let warm = run_leg ?warm:basis ~chain:true survivor in
      (match (cold.obj_, warm.obj_) with
      | None, None -> ()
      | Some c, Some w ->
        incr feasible;
        if not (tol (c -. w) c) then
          Alcotest.failf "seed %d: cold %.9f <> warm %.9f" seed c w
      | Some _, None | None, Some _ ->
        Alcotest.failf "seed %d: warm and cold disagree on feasibility" seed);
      if cold.obj_ <> None && basis <> None then begin
        incr comparable;
        hits := !hits + warm.warm_hits;
        if warm.pivots < cold.pivots then incr fewer
      end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough feasible cases (%d)" !feasible)
    true (!feasible >= 150);
  Alcotest.(check bool) "warm starts actually engaged" true (!hits > 0);
  let rate = float_of_int !fewer /. float_of_int (max 1 !comparable) in
  Alcotest.(check bool)
    (Printf.sprintf "warm beats cold on >=90%% of %d cases (got %.1f%%)" !comparable
       (100.0 *. rate))
    true (rate >= 0.90)

(* Exact-oracle subsample: the survivor LB the sweep trusts for agreement
   must itself match the rational solver. Kept small — the exact solver's
   bignums are the cost — but enough to anchor the float legs. *)
let test_sweep_exact_oracle () =
  let checked = ref 0 in
  for seed = 1000 to 1019 do
    let p, damage = case_of_seed seed in
    match Repair.apply_damage p damage with
    | Error _ -> ()
    | Ok survivor -> (
      let cold = run_leg ~chain:false survivor in
      match (cold.obj_, Formulations_exact.multicast_lb survivor) with
      | Some f, Some e ->
        incr checked;
        let ev = Rat.to_float e in
        if not (tol (f -. ev) ev) then
          Alcotest.failf "seed %d: float %.9f <> exact %.9f" seed f ev
      | None, None -> ()
      | Some _, None | None, Some _ ->
        Alcotest.failf "seed %d: float and exact disagree on feasibility" seed)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "oracle checked enough cases (%d)" !checked)
    true (!checked >= 12)

let suite =
  [
    ("warm sweep: agreement and pivot reduction", `Slow, test_sweep_agree_and_fewer_pivots);
    ("warm sweep: exact oracle subsample", `Slow, test_sweep_exact_oracle);
  ]
