(* Tests for the online session engine: workload generator contracts,
   fake-clock determinism, warm/cold admission equality, Pool-jobs digest
   stability, and a seeded 200-case property sweep asserting the planner
   never oversubscribes a port and never adopts an unchecked schedule. *)

let fake_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 0.001;
    !t

let tiers seed ~n_targets =
  Tiers.generate (Random.State.make [| seed; 6121 |]) Tiers.small_params ~n_targets

let workload seed p ?(params = Workload.default_params) ~horizon () =
  Workload.generate (Random.State.make [| seed; 9001 |]) p params ~horizon

let run ?config ?faults p sessions ~horizon =
  match Horizon.run ~now:(fake_clock ()) ?config ?faults p sessions ~horizon with
  | Error e -> Alcotest.fail e
  | Ok rep -> rep

let test_workload_contract () =
  (* generate's promises (dense arrival-sorted ids, every session valid on
     the platform) are exactly what Workload.validate checks. *)
  let p = tiers 1 ~n_targets:8 in
  let horizon = Rat.of_int 300 in
  let sessions = workload 1 p ~horizon () in
  (match Workload.validate p sessions with
  | Ok () -> ()
  | Error e -> Alcotest.failf "generated workload fails validate: %s" e);
  Alcotest.(check bool) "workload nonempty" true (sessions <> []);
  List.iter
    (fun (s : Session.t) ->
      if not Rat.(s.Session.arrival < horizon) then
        Alcotest.failf "session %d arrives at %s, beyond the horizon" s.Session.id
          (Rat.to_string s.Session.arrival);
      if Rat.sign s.Session.demand <= 0 then
        Alcotest.failf "session %d has non-positive demand" s.Session.id)
    sessions

let test_workload_seed_stability () =
  (* Same seed, same stream — the open-loop property every warm/cold and
     jobs comparison in this file leans on. *)
  let p = tiers 2 ~n_targets:8 in
  let horizon = Rat.of_int 200 in
  let a = workload 2 p ~horizon () and b = workload 2 p ~horizon () in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun (x : Session.t) (y : Session.t) ->
      Alcotest.(check int) "same id" x.Session.id y.Session.id;
      Alcotest.(check bool) "same demand" true Rat.(equal x.Session.demand y.Session.demand);
      Alcotest.(check bool) "same arrival" true
        Rat.(equal x.Session.arrival y.Session.arrival))
    a b

let test_run_deterministic () =
  (* Two runs with fresh fake clocks agree on the full decision digest:
     nothing observable depends on wall time. *)
  let p = tiers 3 ~n_targets:8 in
  let horizon = Rat.of_int 200 in
  let sessions = workload 3 p ~horizon () in
  let a = run p sessions ~horizon and b = run p sessions ~horizon in
  Alcotest.(check string) "digests agree" (Horizon.digest a) (Horizon.digest b)

let test_warm_cold_equal_admissions () =
  (* On this seed at horizon 200, `Incremental and `Cold admit the same
     sessions at the same rates. The modes are not guaranteed to agree in
     general (see horizon.mli): a capacity release inside an epoch reaches
     a hungry session one epoch later in `Incremental mode. *)
  let p = tiers 4 ~n_targets:8 in
  let horizon = Rat.of_int 200 in
  let sessions = workload 4 p ~horizon () in
  let faults =
    Fault.random_burst (Random.State.make [| 4; 9002 |]) p ~k:3 ~window:Rat.one
      ~at:(Rat.of_int 100)
  in
  let go mode =
    run ~config:{ Horizon.default_config with Horizon.replan_mode = mode } ~faults p
      sessions ~horizon
  in
  let inc = go `Incremental and cold = go `Cold in
  Alcotest.(check int) "admitted agree" inc.Horizon.hz_admitted cold.Horizon.hz_admitted;
  Alcotest.(check int) "rejected agree" inc.Horizon.hz_rejected cold.Horizon.hz_rejected;
  List.iter2
    (fun (a : Horizon.session_record) (b : Horizon.session_record) ->
      Alcotest.(check int) "same session" a.Horizon.sr_session.Session.id
        b.Horizon.sr_session.Session.id;
      Alcotest.(check bool)
        (Printf.sprintf "session %d admitted at the same rate"
           a.Horizon.sr_session.Session.id)
        true
        Rat.(equal a.Horizon.sr_admitted_rate b.Horizon.sr_admitted_rate))
    inc.Horizon.hz_sessions cold.Horizon.hz_sessions;
  Alcotest.(check bool) "incremental skips re-plans" true
    (inc.Horizon.hz_replans < cold.Horizon.hz_replans)

let test_sessions_property_sweep () =
  (* Seeded 200-case sweep across platform shapes, workload mixes and
     fault families. Invariants: the run never crashes, no port is ever
     oversubscribed (exact arithmetic, so the bound is exactly 1), every
     schedule ever in force passes Schedule.check, and — on a quarter of
     the cases — the decision digest is bit-identical across Pool job
     counts. *)
  let counters =
    List.map
      (fun name -> Metrics.counter ("session." ^ name))
      [ "admitted"; "rejected"; "preempted"; "replans"; "replans_skipped" ]
  in
  for i = 1 to 200 do
    let rng = Random.State.make [| i; 9717 |] in
    let p =
      if i mod 3 = 0 then
        Generators.random_connected rng ~nodes:(8 + (i mod 6)) ~extra_edges:(4 + (i mod 4))
          ~min_cost:1 ~max_cost:10 ~n_targets:(2 + (i mod 4))
      else tiers i ~n_targets:(4 + (i mod 5))
    in
    let horizon = Rat.of_int 60 in
    let params =
      {
        Workload.default_params with
        Workload.arrival_rate = 0.1 +. (0.05 *. float_of_int (i mod 4));
        hold_mean = 25.0;
        demand_frac = (0.2, 0.4 +. (0.1 *. float_of_int (i mod 6)));
        flash_rate = (if i mod 7 = 0 then 0.02 else 0.0);
        priorities = 1 + (i mod 4);
      }
    in
    let sessions = workload i p ~params ~horizon () in
    let faults =
      let frng = Random.State.make [| i; 9002 |] in
      match i mod 4 with
      | 0 -> []
      | 1 -> Fault.renewal_link_faults frng p ~mtbf:40.0 ~mttr:8.0 ~horizon
      | 2 -> Fault.random_burst frng p ~k:2 ~window:Rat.one ~at:(Rat.of_int 30)
      | _ ->
        Fault.flapping_links frng p ~links:2 ~flaps:3 ~mean_up:15.0 ~mean_down:3.0
          ~at:Rat.zero
    in
    let config =
      { Horizon.default_config with Horizon.epoch = Rat.of_int (3 + (i mod 3)) }
    in
    let before = List.map Metrics.counter_value counters in
    let rep = run ~config ~faults p sessions ~horizon in
    List.iter2
      (fun c (v0, total) ->
        Alcotest.(check int)
          (Printf.sprintf "case %d: counter increase equals the report total" i)
          total
          (Metrics.counter_value c - v0))
      counters
      (List.combine before
         [
           rep.Horizon.hz_admitted;
           rep.Horizon.hz_rejected;
           rep.Horizon.hz_preempted;
           rep.Horizon.hz_replans;
           rep.Horizon.hz_replans_skipped;
         ]);
    if Rat.(rep.Horizon.hz_max_port_occupation > one) then
      Alcotest.failf "case %d: peak port occupation %s exceeds 1" i
        (Rat.to_string rep.Horizon.hz_max_port_occupation);
    List.iter
      (fun (e : Horizon.epoch_record) ->
        if Rat.(e.Horizon.ep_max_port > one) then
          Alcotest.failf "case %d: epoch %d port occupation %s exceeds 1" i
            e.Horizon.ep_index
            (Rat.to_string e.Horizon.ep_max_port))
      rep.Horizon.hz_epochs;
    List.iter
      (fun (epoch, sid, sched) ->
        match Schedule.check sched with
        | Ok () -> ()
        | Error e ->
          Alcotest.failf "case %d: schedule for session %d (epoch %d) fails check: %s" i
            sid epoch e)
      rep.Horizon.hz_schedules;
    (* The report's totals agree with both of its logs: the epoch tallies
       and the per-session records. *)
    let sum f = List.fold_left (fun acc e -> acc + f e) 0 rep.Horizon.hz_epochs in
    let count f = List.length (List.filter f rep.Horizon.hz_sessions) in
    let ended o (r : Horizon.session_record) = r.Horizon.sr_outcome = o in
    List.iter
      (fun (what, total, per_epoch, per_session) ->
        if total <> per_epoch || total <> per_session then
          Alcotest.failf "case %d: %s: report %d, epoch sum %d, session records %d" i what
            total per_epoch per_session)
      [
        ( "admitted",
          rep.Horizon.hz_admitted,
          sum (fun e -> e.Horizon.ep_admitted),
          count (fun r -> not (ended Horizon.Rejected r)) );
        ( "rejected",
          rep.Horizon.hz_rejected,
          sum (fun e -> e.Horizon.ep_rejected),
          count (ended Horizon.Rejected) );
        ( "preempted",
          rep.Horizon.hz_preempted,
          sum (fun e -> e.Horizon.ep_preempted),
          count (ended Horizon.Preempted) );
        ( "replans",
          rep.Horizon.hz_replans,
          sum (fun e -> e.Horizon.ep_replans),
          List.fold_left (fun acc r -> acc + r.Horizon.sr_replans) 0 rep.Horizon.hz_sessions
        );
      ];
    if rep.Horizon.hz_admitted > 0 && rep.Horizon.hz_schedules = [] then
      Alcotest.failf "case %d: %d admissions but no schedule was ever in force" i
        rep.Horizon.hz_admitted;
    if i mod 4 = 0 then begin
      let par =
        run ~config:{ config with Horizon.jobs = 3 } ~faults p sessions ~horizon
      in
      Alcotest.(check string)
        (Printf.sprintf "case %d: digest stable across job counts" i)
        (Horizon.digest rep) (Horizon.digest par)
    end
  done

let test_epoch_count_out_of_range () =
  (* A horizon/epoch ratio beyond the native int range is a rejected
     input, returned as an Error like every other bad argument. *)
  let p = tiers 5 ~n_targets:4 in
  let horizon = Rat.of_int 100 in
  let epoch = Rat.of_string "1/100000000000000000000000" in
  let config = { Horizon.default_config with Horizon.epoch } in
  match Horizon.run ~config p (workload 5 p ~horizon ()) ~horizon with
  | Error e -> Alcotest.(check string) "error" "horizon/epoch out of range" e
  | Ok _ -> Alcotest.fail "an out-of-range epoch count was accepted"

let test_slo_sampling_digest_invariant () =
  (* Telemetry and SLO evaluation are pure observers: turning them on —
     at any Pool fan-out — must leave every planning decision, and so
     the digest, bit-identical. The sink check keeps the property
     non-vacuous. *)
  let slo_events = ref 0 in
  for seed = 1 to 3 do
    let p = tiers seed ~n_targets:8 in
    let horizon = Rat.of_int 150 in
    let sessions = workload seed p ~horizon () in
    let faults =
      Fault.random_burst (Random.State.make [| seed; 9002 |]) p ~k:3 ~window:Rat.one
        ~at:(Rat.of_int 75)
    in
    let objectives =
      match Slo.parse "session.retention>=0.95,fast=15,slow=45,hold=15" with
      | Ok o -> [ o ]
      | Error e -> Alcotest.fail e
    in
    let go ~jobs ~sampled =
      let sink = if sampled then Some (Timeseries.create ~slo:objectives ()) else None in
      match
        Horizon.run ~now:(fake_clock ())
          ~config:{ Horizon.default_config with Horizon.jobs }
          ~faults ?telemetry:sink p sessions ~horizon
      with
      | Error e -> Alcotest.fail e
      | Ok rep -> (rep, sink)
    in
    let plain, _ = go ~jobs:1 ~sampled:false in
    let sampled1, sink1 = go ~jobs:1 ~sampled:true in
    let sampled3, sink3 = go ~jobs:3 ~sampled:true in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: sampling leaves the digest alone" seed)
      (Horizon.digest plain) (Horizon.digest sampled1);
    Alcotest.(check string)
      (Printf.sprintf "seed %d: sampled digest stable across job counts" seed)
      (Horizon.digest sampled1) (Horizon.digest sampled3);
    match (sink1, sink3) with
    | Some sink, Some sink3 ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: the sink actually collected series" seed)
        true
        (List.mem "horizon.throughput" (Timeseries.names sink));
      (* The sink's SLO evaluation is exactly a standalone engine fed the
         same samples: replay the watched series (one sample per bucket
         while the ring has not compacted) through a fresh engine. *)
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no compaction, one sample per bucket" seed)
        0
        (Timeseries.compactions sink "session.retention");
      let engine = Slo.engine objectives in
      List.iter
        (fun (b : Timeseries.bucket) ->
          ignore
            (Slo.observe engine ~time:b.Timeseries.b_t1 "session.retention"
               b.Timeseries.b_last))
        (Timeseries.buckets sink "session.retention");
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: sink SLO events equal a standalone engine's" seed)
        true
        (Timeseries.slo_events sink = Slo.events engine);
      slo_events := !slo_events + List.length (Slo.events engine);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: sampled run kept its SLO event log" seed)
        true
        (Timeseries.slo_events sink = Timeseries.slo_events sink3)
    | _ -> Alcotest.fail "sampled run lost its sink"
  done;
  Alcotest.(check bool) "the objective breached on some seed" true (!slo_events > 0)

let test_slo_enforce_admissions_equal () =
  (* Enforcement re-orders re-plan application and victim choice, never
     admission outcomes: on vs off must admit and reject the same
     sessions. *)
  for seed = 1 to 3 do
    let p = tiers seed ~n_targets:8 in
    let horizon = Rat.of_int 150 in
    let sessions = workload seed p ~horizon () in
    let faults =
      Fault.random_burst (Random.State.make [| seed; 9002 |]) p ~k:3 ~window:Rat.one
        ~at:(Rat.of_int 75)
    in
    let go enforce =
      match
        Horizon.run ~now:(fake_clock ()) ~faults ~slo_enforce:enforce p sessions ~horizon
      with
      | Error e -> Alcotest.fail e
      | Ok rep -> rep
    in
    let off = go false and on = go true in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: same admissions" seed)
      off.Horizon.hz_admitted on.Horizon.hz_admitted;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: same rejections" seed)
      off.Horizon.hz_rejected on.Horizon.hz_rejected;
    List.iter2
      (fun (a : Horizon.session_record) (b : Horizon.session_record) ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d session %d: same admitted rate" seed
             a.Horizon.sr_session.Session.id)
          true
          Rat.(equal a.Horizon.sr_admitted_rate b.Horizon.sr_admitted_rate))
      off.Horizon.hz_sessions on.Horizon.hz_sessions
  done

let test_slo_enforce_duel_rescue () =
  (* The deterministic contention duel (also shape-checked in the
     bench): three sessions share one LAN uplink; a transient
     high-priority arrival degrades the low-priority S1 below its
     retention floor, and when it departs both S1 and the hungry S0
     re-plan for the release. Without enforcement S0 applies first (id
     order) and S1 stays pinned below its floor; with enforcement the
     burning S1 applies first and recovers to full demand. *)
  let horizon = Rat.of_int 200 in
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
    | None -> Alcotest.fail "duel: no standalone plan"
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
  let go enforce =
    match Horizon.run ~now:(fake_clock ()) ~slo_enforce:enforce p sessions ~horizon with
    | Error e -> Alcotest.fail e
    | Ok rep -> rep
  in
  let off = go false and on = go true in
  Alcotest.(check int) "duel: admissions unchanged" off.Horizon.hz_admitted
    on.Horizon.hz_admitted;
  let victim (rep : Horizon.report) =
    List.find
      (fun (s : Horizon.session_record) -> s.Horizon.sr_session.Session.id = 1)
      rep.Horizon.hz_sessions
  in
  let vo = victim off and vn = victim on in
  Alcotest.(check bool) "duel: victim burned without enforcement" true
    (vo.Horizon.sr_burn_epochs > vn.Horizon.sr_burn_epochs);
  Alcotest.(check bool) "duel: victim recovers to full admitted rate" true
    Rat.(equal vn.Horizon.sr_final_rate vn.Horizon.sr_admitted_rate);
  Alcotest.(check bool) "duel: without enforcement it stays degraded" true
    Rat.(vo.Horizon.sr_final_rate < vo.Horizon.sr_admitted_rate)

let suite =
  [
    ("workload generator keeps its contract", `Quick, test_workload_contract);
    ("workload streams are seed-stable", `Quick, test_workload_seed_stability);
    ("fake clock makes runs deterministic", `Quick, test_run_deterministic);
    ("an out-of-range epoch count is an Error", `Quick, test_epoch_count_out_of_range);
    ("warm and cold modes admit identically", `Quick, test_warm_cold_equal_admissions);
    ("SLO sampling never perturbs the digest", `Quick, test_slo_sampling_digest_invariant);
    ("SLO enforcement leaves admissions unchanged", `Quick, test_slo_enforce_admissions_equal);
    ("SLO enforcement rescues the duel victim", `Quick, test_slo_enforce_duel_rescue);
    ("session property sweep: 200 seeded cases", `Slow, test_sessions_property_sweep);
  ]
