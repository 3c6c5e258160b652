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

(* A Multicast-LB row and column as text: "out<j>", "in<j>",
   "cut:u>v,..."; "rho", "n_u_v" and "s:<row>". The digest below was
   first taken over bases kept in this text. *)
let row_text = function
  | Formulations.Out j -> Printf.sprintf "out%d" j
  | Formulations.In j -> Printf.sprintf "in%d" j
  | Formulations.Cut ends ->
    "cut:"
    ^ String.concat ","
        (List.init (Array.length ends / 2) (fun k ->
             Printf.sprintf "%d>%d" ends.(2 * k) ends.((2 * k) + 1)))

let col_text = function
  | Formulations.Rho -> "rho"
  | Formulations.Occ (u, v) -> Printf.sprintf "n_%d_%d" u v
  | Formulations.Slack r -> "s:" ^ row_text r

(* Bit-for-bit pin of the Multicast-LB cut loop. Over twelve seeded
   Tiers-small platforms it solves each one cold, with residual port
   capacities, and warm from the previous platform's basis (a foreign
   basis whose names only partly resolve), then one survivor with a
   deleted edge warm from its nominal basis, so the cut import drops
   pairs. Every solve adds its throughput's bits, its cut-round count,
   its pivot count and its returned basis to one digest. A change that
   claims to leave the loop's work alone must leave the digest as it
   is. *)
let cut_loop_digest () =
  let buf = Buffer.create 65536 in
  let rounds () =
    match Metrics.find (Metrics.snapshot ()) "formulations.lb_cut_rounds" with
    | Some (Metrics.Histogram h) -> h.Metrics.h_sum
    | _ -> 0.0
  in
  let solve ?warm ?send_cap ?recv_cap p =
    let r0 = rounds () and before = Lp_counters.snapshot () in
    let r = Formulations.multicast_lb_warm ?warm ?send_cap ?recv_cap p in
    let pivots = (Lp_counters.since before).Lp_counters.pivots in
    (match r with
    | None -> Buffer.add_string buf "none\n"
    | Some (s, b) ->
      Printf.bprintf buf "%Ld %.0f %d\n"
        (Int64.bits_of_float s.Formulations.throughput)
        (rounds () -. r0) pivots;
      Option.iter
        (fun (w : Formulations.warm_basis) ->
          Array.iter (fun c -> Printf.bprintf buf "%s;" (col_text c)) w.basic;
          Buffer.add_char buf '|';
          Array.iter (fun r -> Printf.bprintf buf "%s;" (row_text r)) w.rows;
          Buffer.add_char buf '\n')
        b);
    Option.bind r snd
  in
  let sibling = ref None and last = ref None in
  for seed = 0 to 11 do
    let rng = Random.State.make [| seed; 2004 |] in
    let p = Tiers.generate rng Tiers.small_params ~n_targets:(3 + (seed mod 6)) in
    let n = Platform.n_nodes p in
    let basis = solve p in
    let caps () = Array.init n (fun _ -> 0.25 +. Random.State.float rng 0.75) in
    let send_cap = caps () in
    let recv_cap = caps () in
    ignore (solve ~send_cap ~recv_cap p);
    ignore (solve ?warm:!sibling p);
    sibling := basis;
    last := Some (p, basis)
  done;
  (match !last with
  | Some (p, (Some w as warm)) ->
    (* The first edge that some pooled cut crosses and whose loss keeps
       every target reachable. *)
    let in_cut (e : Digraph.edge) =
      Array.exists
        (function
          | Formulations.Cut ends ->
            List.exists
              (fun k -> ends.(2 * k) = e.Digraph.src && ends.((2 * k) + 1) = e.Digraph.dst)
              (List.init (Array.length ends / 2) Fun.id)
          | Formulations.Out _ | Formulations.In _ -> false)
        w.Formulations.rows
    in
    let survivor =
      List.find_map
        (fun (e : Digraph.edge) ->
          if not (in_cut e) then None
          else
            match
              Repair.survivor p (Repair.damage ~dead_edges:[ (e.Digraph.src, e.Digraph.dst) ] ())
            with
            | Ok s -> Some s
            | Error _ -> None)
        (Digraph.edges p.Platform.graph)
    in
    (match survivor with
    | Some s -> ignore (solve ?warm s)
    | None -> Alcotest.fail "no survivor with a deleted cut edge")
  | _ -> Alcotest.fail "last platform has no basis");
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_cut_loop_digest () =
  Alcotest.(check string) "cut-loop digest" "90d4d698e0ce3048ee4c0eaeac8d0e7d" (cut_loop_digest ())

let suite =
  [
    ("cut loop: bit-for-bit digest", `Quick, test_cut_loop_digest);
    ("warm sweep: agreement and pivot reduction", `Slow, test_sweep_agree_and_fewer_pivots);
    ("warm sweep: exact oracle subsample", `Slow, test_sweep_exact_oracle);
  ]
