(* sessions: the online epoch planner. [Horizon.run] in incremental mode on
   one 30-node platform at arrival rate 0.2, so admission, degrade and
   preempt all fire, with a fault burst at mid-horizon. A pass is one run;
   every pass after the first checks that the decision digest repeats. *)

(* The input is fixed whatever the seed: drawing the session stream or the
   burst from it moved admissions between 31 and 52 and the busy-epoch
   median between 5 and 25 ms, far beyond any usable bound. *)
let platform_seed = 1
let stream_seed = 5
let burst_seed = 1
let burst_k = 4

(* One job: at 2 jobs (the core count) every multi-session epoch spawns a
   domain, which made the busy-epoch median spread 0.30 between runs and
   bought no speed. *)
let jobs = 1

let ( let* ) = Result.bind

let run acc ~config ~faults ~horizon ~digest p sessions =
  let r, dt =
    Acc.call ~layer:"session" "horizon_run" (fun () ->
        Horizon.run ~now:Acc.clock ~config ~faults p sessions ~horizon)
  in
  let* rep = r in
  Acc.add acc "plan_ms" (1000. *. dt);
  List.iter (fun s -> Acc.add acc "epoch_ms" (1000. *. s)) (Stats.busy_epoch_seconds rep.Horizon.hz_epochs);
  Acc.add acc "offered" (float_of_int (List.length sessions));
  Acc.add acc "admitted" (float_of_int rep.Horizon.hz_admitted);
  (* Availability: share of served sessions never suspended. *)
  let served = List.filter (fun s -> s.Horizon.sr_outcome <> Horizon.Rejected) rep.Horizon.hz_sessions in
  let kept = List.filter (fun s -> Rat.sign s.Horizon.sr_min_rate > 0) served in
  Acc.add acc "availability"
    (Stats.ratio (float_of_int (List.length kept)) (float_of_int (List.length served)));
  (* Planned period over the session's last LB certificate. *)
  List.iter
    (fun s ->
      if s.Horizon.sr_lb > 0. && Rat.sign s.Horizon.sr_final_rate > 0 then
        Acc.add acc "period_over_lb" (s.Horizon.sr_lb /. Rat.to_float s.Horizon.sr_final_rate))
    rep.Horizon.hz_sessions;
  Acc.add acc "replans_per_hour"
    (float_of_int rep.Horizon.hz_replans /. (Rat.to_float horizon /. 3600.));
  let d = Horizon.digest rep in
  let* () =
    match !digest with
    | None ->
      digest := Some d;
      Ok ()
    | Some first -> Acc.check (d = first) "decision digest differs from the first run"
  in
  Acc.check
    Rat.(rep.Horizon.hz_max_port_occupation <= one)
    ("port occupation " ^ Rat.to_string rep.Horizon.hz_max_port_occupation ^ " above 1")

let setup ~seed:_ ~smoke =
  let p = Tiers.generate (Random.State.make [| platform_seed |]) Tiers.small_params ~n_targets:8 in
  let horizon = Rat.of_int (if smoke then 60 else 1000) in
  let params = { Workload.default_params with Workload.arrival_rate = 0.2 } in
  let sessions = Workload.generate (Random.State.make [| stream_seed; 9001 |]) p params ~horizon in
  let faults =
    Fault.random_burst
      (Random.State.make [| burst_seed; 9002 |])
      p ~k:burst_k ~window:Rat.one
      ~at:(Rat.div horizon (Rat.of_int 2))
  in
  let config = { Horizon.default_config with Horizon.jobs } in
  let digest = ref None in
  fun acc ->
    Acc.unit_ acc "horizon run" (fun acc -> run acc ~config ~faults ~horizon ~digest p sessions)
