(* soak: the fault-recovery controller. Each unit runs [Soak.run] with the
   damped default config over one renewal-mixed timeline (link renewal plus
   node renewal at doubled MTBF, built as [mcast soak] builds it) on one
   30-node platform. The initial MCPH schedule and the nominal LB are set
   up once. *)

(* Timelines are fixed and the seed orders them: per-timeline cost ranges
   over 1.2-3.5 s, so drawing them from the seed would dominate the spread. *)
let platform_seed = 2
let timelines = [ 1; 2; 3; 4 ]
let mtbf = 1500.
let mttr = 30.

let ( let* ) = Result.bind

let run acc ~config ~horizon ~lb_period p sched scenario =
  let r, dt =
    Acc.call ~layer:"sim" "soak_run" (fun () ->
        Soak.run ~now:Acc.clock ~config p sched scenario ~horizon)
  in
  let* rep = r in
  Acc.add acc "plan_ms" (1000. *. dt);
  Acc.add acc "epoch_ms" (1000. *. dt /. float_of_int (max 1 rep.Soak.sk_epochs));
  Acc.add acc "offered" 1.;
  Acc.add acc "admitted" 1.;
  Acc.add acc "availability" rep.Soak.sk_availability;
  Acc.add acc "replans_per_hour" rep.Soak.sk_replans_per_hour;
  Acc.add acc "period_over_lb"
    (Stats.mean
       (List.map
          (fun s -> 1. /. Rat.to_float s.Schedule.throughput /. lb_period)
          rep.Soak.sk_schedules));
  let* () =
    Acc.check
      (rep.Soak.sk_availability >= 0. && rep.Soak.sk_availability <= 1. +. 1e-9)
      (Printf.sprintf "availability %.17g outside [0, 1]" rep.Soak.sk_availability)
  in
  List.fold_left
    (fun ok s -> Result.bind ok (fun () -> Result.map_error (( ^ ) "adopted schedule: ") (Schedule.check s)))
    (Ok ()) rep.Soak.sk_schedules

let setup ~seed ~smoke =
  let p = Tiers.generate (Random.State.make [| platform_seed |]) Tiers.small_params ~n_targets:8 in
  let horizon = Rat.of_int (if smoke then 300 else 3000) in
  let timeline t =
    let rng = Random.State.make [| t; 7001 |] in
    Fault.renewal_link_faults rng p ~mtbf ~mttr ~horizon
    @ Fault.renewal_node_faults rng p ~mtbf:(2. *. mtbf) ~mttr ~horizon
  in
  let order = Acc.shuffle (Random.State.make [| seed; 7002 |]) (if smoke then [ 1 ] else timelines) in
  let scenarios = List.map (fun t -> (t, timeline t)) order in
  let r = Option.get (Mcph.run p) in
  let sched = Schedule.of_tree_set (Tree_set.make [ (r.Mcph.tree, Rat.inv r.Mcph.period) ]) in
  Result.iter_error failwith (Schedule.check sched);
  let lb_period = (Option.get (Formulations.multicast_lb p)).Formulations.period in
  let config = Soak.default_config p in
  fun acc ->
    List.iter
      (fun (t, scenario) ->
        Acc.unit_ acc (Printf.sprintf "timeline %d" t) (fun acc ->
            run acc ~config ~horizon ~lb_period p sched scenario))
      scenarios
