(* portfolio: the paper's Fig. 11 protocol. Each unit plans one multicast
   offline with every method of the portfolio, exhaustive probing as in the
   paper, then builds the MCPH schedule and replays it. *)

(* The deck is fixed, as the paper reuses one platform set, and the seed
   orders it: per-instance cost ranges over 0.3-14 s between platform and
   target draws, so drawing them from the seed would dominate the spread.
   Big platforms appear only at density 1.0: at mid density their
   Multicast-LB cut loop alone takes 1-33 s. *)
let dense_small = [ 2; 4 ]
let dense_big = [ 4 ]
let sparse_small = [ 1 ]
let sparse_densities = [ 0.1; 0.4 ]

(* Separation tolerance of the cut-generation LB, on throughput
   (formulations.mli). *)
let lb_slack = 3e-6 +. 1e-9

let platform params seed =
  Tiers.generate (Random.State.make [| seed; 1789 |]) params ~n_targets:1

(* Targets: a fixed draw of [density] of the LAN hosts. *)
let with_density p ~seed density =
  let rng = Random.State.make [| seed; 1790 |] in
  let lan = Platform.lan_nodes p in
  let n = List.length lan in
  let k = max 1 (int_of_float (Float.round (density *. float_of_int n))) in
  Platform.with_targets p
    (if k >= n then lan else Generators.sample_without_replacement rng k lan)

let deck ~seed ~smoke =
  let instance params kind s d =
    (Printf.sprintf "%s-%d@%g" kind s d, with_density (platform params s) ~seed:s d)
  in
  let small = instance Tiers.small_params "small" in
  if smoke then [ small 1 0.1 ]
  else
    let sparse =
      List.concat_map (fun s -> List.map (small s) sparse_densities) sparse_small
    in
    let dense =
      List.map (fun s -> small s 1.0) dense_small
      @ List.map (fun s -> instance Tiers.big_params "big" s 1.0) dense_big
    in
    Acc.shuffle (Random.State.make [| seed; 4242 |]) (sparse @ dense)

type plans = {
  ub : Formulations.solution option;
  lb : Formulations.solution option;
  eb : Formulations.solution option;
  mcph : Mcph.result option;
  augmented : Augmented_multicast.result option;
  reduced : Reduced_broadcast.result option;
  multisource : Multisource.result option;
}

(* Periods in [Heuristics.method_names] order, normalized as
   [Heuristics.run_all] reports them. *)
let periods pl =
  let lp = function None -> infinity | Some (s : Formulations.solution) -> s.period in
  let heur f = function None -> infinity | Some r -> f r in
  List.map
    (fun x -> if x <= 0. then infinity else x)
    [
      lp pl.ub;
      lp pl.lb;
      lp pl.eb;
      heur (fun r -> Rat.to_float r.Mcph.period) pl.mcph;
      heur (fun r -> r.Augmented_multicast.period) pl.augmented;
      heur (fun r -> r.Reduced_broadcast.period) pl.reduced;
      heur (fun r -> r.Multisource.period) pl.multisource;
    ]

let lp_solves f =
  let before = Lp_counters.snapshot () in
  let r = f () in
  let d = Lp_counters.since before in
  (r, float_of_int (d.Lp_counters.float_solves + d.Lp_counters.exact_solves))

(* Every public call the portfolio makes, each timed into [epoch_ms] and
   its per-layer key. *)
let plan acc p =
  let step ~layer ?key name f =
    let r, dt = Acc.call ~layer name f in
    let ms = 1000. *. dt in
    Acc.add acc "epoch_ms" ms;
    Option.iter (fun k -> Acc.add acc k ms) key;
    (r, ms)
  in
  let ub, ub_ms = step ~layer:"lp" "multicast_ub" (fun () -> Formulations.multicast_ub p) in
  let lb, lb_ms = step ~layer:"lp" "multicast_lb" (fun () -> Formulations.multicast_lb p) in
  let eb, eb_ms = step ~layer:"lp" "broadcast_eb" (fun () -> Formulations.broadcast_eb p) in
  Acc.add acc "core.bounds_ms" (ub_ms +. lb_ms +. eb_ms);
  let mcph, _ = step ~layer:"core" ~key:"core.mcph_ms" "mcph" (fun () -> Mcph.run p) in
  let (augmented, aug_solves), _ =
    step ~layer:"core" ~key:"core.augmented_ms" "augmented_multicast" (fun () ->
        lp_solves (fun () -> Augmented_multicast.run p))
  in
  let (reduced, red_solves), _ =
    step ~layer:"core" ~key:"core.reduced_ms" "reduced_broadcast" (fun () ->
        lp_solves (fun () -> Reduced_broadcast.run p))
  in
  let multisource, _ =
    step ~layer:"core" ~key:"core.multisource_ms" "multisource" (fun () -> Multisource.run p)
  in
  Acc.add acc "core.augmented_solves" aug_solves;
  Acc.add acc "core.reduced_solves" red_solves;
  let schedule, _ =
    step ~layer:"core" ~key:"core.schedule_ms" "schedule" (fun () ->
        Option.map
          (fun r ->
            let s = Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ]) in
            (s, Schedule.check s))
          mcph)
  in
  let replay, _ =
    step ~layer:"sim" "replay" (fun () ->
        Option.map
          (fun (s, _) -> Event_sim.run s ~periods:(Schedule.init_periods s + 10))
          schedule)
  in
  ({ ub; lb; eb; mcph; augmented; reduced; multisource }, schedule, replay)

let ( let* ) = Result.bind

(* The paper's inequalities, on every instance: LB <= every period (within
   the separation slack), scatter <= |T| x LB (§5.1.3), and the MCPH
   schedule checks and replays at its planned throughput. *)
let checks acc (p : Platform.t) pl schedule replay =
  let named = List.combine Heuristics.method_names (periods pl) in
  let* () =
    match List.find_opt (fun (_, x) -> x = infinity) named with
    | Some (name, _) -> Error (name ^ " found no plan")
    | None -> Ok ()
  in
  let p_lb = List.assoc "lower bound" named and p_ub = List.assoc "scatter" named in
  let rho_lb = 1. /. p_lb in
  let n_targets = float_of_int (List.length p.Platform.targets) in
  let* () =
    Acc.check_all
      (List.map
         (fun (name, x) ->
           ( 1. /. x <= rho_lb +. lb_slack,
             Printf.sprintf "%s period %.9g below the lower bound %.9g" name x p_lb ))
         named)
  in
  let* () =
    Acc.check
      (1. /. p_ub >= (rho_lb -. lb_slack) /. n_targets)
      (Printf.sprintf "scatter period %.9g above |T| x LB %.9g" p_ub (n_targets *. p_lb))
  in
  let* sched, checked = Option.to_result ~none:"no MCPH schedule" schedule in
  let* () = Result.map_error (( ^ ) "MCPH schedule: ") checked in
  let* st = Option.value replay ~default:(Error "no replay") in
  let want = Rat.to_float sched.Schedule.throughput in
  let* () =
    Acc.check
      (Float.abs (st.Event_sim.measured_throughput -. want) /. want < 0.1)
      (Printf.sprintf "replay measured %.6g, schedule promises %.6g"
         st.Event_sim.measured_throughput want)
  in
  let reached = List.map (fun d -> d.Event_sim.target) st.Event_sim.deliveries in
  let best =
    List.fold_left (fun b (name, x) -> if name = "lower bound" then b else Float.min b x) infinity named
  in
  Acc.add acc "period_over_lb" (best /. p_lb);
  Acc.add acc "offered" 1.;
  Acc.add acc "admitted" 1.;
  Acc.add acc "availability"
    (if List.for_all (fun t -> List.mem t reached) p.Platform.targets then 1. else 0.);
  Ok ()

let setup ~seed ~smoke =
  let deck = deck ~seed ~smoke in
  fun acc ->
    List.iter
      (fun (label, p) ->
        Acc.unit_ acc label (fun acc ->
            let (pl, schedule, replay), dt = Acc.timed (fun () -> plan acc p) in
            Acc.add acc "plan_ms" (1000. *. dt);
            checks acc p pl schedule replay))
      deck
