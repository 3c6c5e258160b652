type event =
  | Failure_observed of { at : Rat.t; losses : int; scenario : string }
  | Replan_attempt of { n : int; at : Rat.t; incremental : bool }
  | Replan_failed of { n : int; reason : string }
  | Deadline_exceeded of { n : int; seconds : float; deadline : float }
  | Fallback_to_checkpoint of { n : int }
  | Backoff of { n : int; delay : Rat.t; resume_at : Rat.t }
  | Degraded of { dropped : int list; serving : int }
  | Recovered of { at : Rat.t; throughput : float; degraded : bool }
  | Gave_up of { attempts : int; reason : string }

type policy = {
  max_attempts : int;
  base_backoff : Rat.t;
  backoff_factor : int;
  replan_deadline : float;
  drop_order : int list;
  horizon_periods : int;
  prefer_incremental : bool;
}

let default_policy (p : Platform.t) =
  {
    max_attempts = 5;
    base_backoff = Rat.one;
    backoff_factor = 2;
    replan_deadline = 1.0;
    drop_order = List.rev p.Platform.targets;
    horizon_periods = 12;
    prefer_incremental = true;
  }

let validate_policy (p : Platform.t) pol =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let n = Platform.n_nodes p in
  if pol.max_attempts < 1 then
    err "policy: max_attempts must be >= 1 (got %d)" pol.max_attempts
  else if pol.backoff_factor < 1 then
    err "policy: backoff_factor must be >= 1 (got %d)" pol.backoff_factor
  else if Rat.sign pol.base_backoff < 0 then
    err "policy: base_backoff must be >= 0 (got %s)" (Rat.to_string pol.base_backoff)
  else if not (pol.replan_deadline > 0.0) then
    err "policy: replan_deadline must be positive (got %g)" pol.replan_deadline
  else if pol.horizon_periods < 1 then
    err "policy: horizon_periods must be >= 1 (got %d)" pol.horizon_periods
  else
    match List.find_opt (fun v -> v < 0 || v >= n) pol.drop_order with
    | Some v -> err "policy: drop_order node %d out of range [0, %d)" v n
    | None -> Ok ()

type planner =
  ?before:Schedule.t -> Platform.t -> Repair.damage -> (Repair.report, string) result

type outcome = {
  events : event list;
  final :
    [ `No_failure
    | `Recovered of Repair.report
    | `Degraded of Repair.report * int list
    | `Fallback of Schedule.t ];
  attempts_used : int;
  sim_time : Rat.t;
  detection : Event_sim.fault_stats;
}

let fault_time = Fault.event_time

let rec int_pow b = function 0 -> 1 | n -> b * int_pow b (n - 1)

let event_name = function
  | Failure_observed _ -> "failure-observed"
  | Replan_attempt _ -> "replan-attempt"
  | Replan_failed _ -> "replan-failed"
  | Deadline_exceeded _ -> "deadline-exceeded"
  | Fallback_to_checkpoint _ -> "fallback-to-checkpoint"
  | Backoff _ -> "backoff"
  | Degraded _ -> "degraded"
  | Recovered _ -> "recovered"
  | Gave_up _ -> "gave-up"

let runs = Metrics.counter "recovery.runs"
let replan_attempts = Metrics.counter "recovery.replan_attempts"
let replan_seconds = Metrics.histogram "recovery.replan_seconds"

let run_validated ~now ~pol ~(planner : planner) ~telemetry ~sim_offset
    (p : Platform.t) (sched : Schedule.t) (scenario : Fault.scenario) =
  Metrics.incr runs;
  Trace.with_span ~cat:"recovery" "recovery.run"
    ~result:(fun o ->
      [
        ("attempts", Trace.Int o.attempts_used);
        ( "final",
          Trace.Str
            (match o.final with
            | `No_failure -> "no-failure"
            | `Recovered _ -> "recovered"
            | `Degraded _ -> "degraded"
            | `Fallback _ -> "fallback") );
      ])
  @@ fun () ->
  let horizon = max pol.horizon_periods (Schedule.init_periods sched + 3) in
  let fs = Event_sim.run_with_faults sched ~faults:scenario ~periods:horizon in
  if fs.Event_sim.f_losses = [] then
    {
      events = [];
      final = `No_failure;
      attempts_used = 0;
      sim_time = Rat.zero;
      detection = fs;
    }
  else begin
    let events = ref [] in
    let emit e =
      Trace.instant ~cat:"recovery" ("recovery." ^ event_name e);
      events := e :: !events
    in
    let t_fail =
      match scenario with
      | [] -> Rat.zero
      | ev :: rest ->
        List.fold_left (fun acc e -> Rat.min acc (fault_time e)) (fault_time ev) rest
    in
    let clock = ref t_fail in
    emit
      (Failure_observed
         {
           at = t_fail;
           losses = List.length fs.Event_sim.f_losses;
           scenario = Fault.describe scenario;
         });
    let damage = Fault.damage scenario in
    let attempts = ref 0 in
    (* One guarded attempt: deadline, then planner verdict, then an
       independent Schedule.check on whatever the planner returned. The
       incremental rung patches the running schedule without internal
       fallback — escalation to the full planner is this ladder's job, so a
       failed patch surfaces as one more [Replan_failed]. *)
    let attempt ?(incremental = false) plat =
      incr attempts;
      Metrics.incr replan_attempts;
      let n = !attempts in
      emit (Replan_attempt { n; at = !clock; incremental });
      let t0 = now () in
      let result =
        Trace.with_span ~cat:"recovery" "recovery.replan"
          ~args:
            [ ("attempt", Trace.Int n); ("incremental", Trace.Bool incremental) ]
          ~result:(function
            | Ok _ -> [ ("outcome", Trace.Str "ok") ]
            | Error e -> [ ("outcome", Trace.Str e) ])
          (fun () ->
            if incremental then
              Repair.plan_incremental ~now ~fallback:false ~before:sched plat damage
            else planner ~before:sched plat damage)
      in
      let dt = now () -. t0 in
      Metrics.observe replan_seconds dt;
      (match telemetry with
      | Some sink ->
        Timeseries.sample sink "recovery.replan_seconds"
          ~time:(sim_offset +. Rat.to_float !clock)
          dt
      | None -> ());
      if dt > pol.replan_deadline then begin
        emit (Deadline_exceeded { n; seconds = dt; deadline = pol.replan_deadline });
        emit (Fallback_to_checkpoint { n });
        Error "re-plan deadline exceeded"
      end
      else
        match result with
        | Ok rep -> (
          match Schedule.check rep.Repair.schedule with
          | Ok () -> Ok rep
          | Error e -> Error ("repaired schedule fails check: " ^ e))
        | Error e -> Error e
    in
    let finish final =
      {
        events = List.rev !events;
        final;
        attempts_used = !attempts;
        sim_time = !clock;
        detection = fs;
      }
    in
    (* Phase 1: re-plan for the full surviving target set, with exponential
       backoff in simulated time between attempts. *)
    let rec full_loop k last_err =
      if k > pol.max_attempts then Error last_err
      else
        match attempt p with
        | Ok rep -> Ok rep
        | Error e ->
          emit (Replan_failed { n = !attempts; reason = e });
          if k < pol.max_attempts then begin
            let delay =
              Rat.mul pol.base_backoff (Rat.of_int (int_pow pol.backoff_factor (k - 1)))
            in
            clock := Rat.add !clock delay;
            emit (Backoff { n = !attempts; delay; resume_at = !clock })
          end;
          full_loop (k + 1) e
    in
    (* Phase 0 (when the policy prefers it): one incremental-repair rung —
       patch the running schedule in O(damage). A failed patch escalates to
       the full-re-plan ladder immediately; it never consumes one of the
       [max_attempts] full-re-plan slots and never backs off first, because
       escalation is a different strategy, not a retry of the same one. *)
    let phase1 =
      if not pol.prefer_incremental then full_loop 1 "no attempt made"
      else
        match attempt ~incremental:true p with
        | Ok rep -> Ok rep
        | Error e ->
          emit (Replan_failed { n = !attempts; reason = e });
          full_loop 1 e
    in
    match phase1 with
    | Ok rep ->
      emit
        (Recovered
           { at = !clock; throughput = rep.Repair.throughput_after; degraded = false });
      finish (`Recovered rep)
    | Error full_err ->
      (* Phase 2: graceful degradation — drop targets in priority order
         until the survivor can be planned for, keeping at least one. *)
      let surviving =
        List.filter (fun t -> not (List.mem t damage.Repair.dead_nodes)) p.Platform.targets
      in
      let next_drop remaining =
        List.find_opt (fun v -> List.mem v remaining) pol.drop_order
      in
      let rec degrade dropped remaining last_err =
        match next_drop remaining with
        | None ->
          emit (Gave_up { attempts = !attempts; reason = last_err });
          finish (`Fallback sched)
        | Some victim ->
          let remaining = List.filter (fun t -> t <> victim) remaining in
          if remaining = [] then begin
            emit (Gave_up { attempts = !attempts; reason = last_err });
            finish (`Fallback sched)
          end
          else begin
            let dropped = dropped @ [ victim ] in
            emit (Degraded { dropped; serving = List.length remaining });
            let plat = Platform.with_targets p remaining in
            match attempt plat with
            | Ok rep ->
              emit
                (Recovered
                   {
                     at = !clock;
                     throughput = rep.Repair.throughput_after;
                     degraded = true;
                   });
              finish (`Degraded (rep, dropped))
            | Error e ->
              emit (Replan_failed { n = !attempts; reason = e });
              degrade dropped remaining e
          end
      in
      if surviving = [] then begin
        emit (Gave_up { attempts = !attempts; reason = full_err });
        finish (`Fallback sched)
      end
      else degrade [] surviving full_err
  end

let run ?(now = Unix.gettimeofday) ?policy ?(planner : planner option) ?telemetry
    ?(sim_offset = 0.0) (p : Platform.t) (sched : Schedule.t)
    (scenario : Fault.scenario) =
  (* The default planner threads the injected clock into Repair.plan, so a
     fake-clock run never reads the wall clock anywhere on the re-plan path
     (replan_seconds included) — a caller-supplied planner owns its own
     clock. *)
  let planner =
    match planner with
    | Some f -> f
    | None -> fun ?before p d -> Repair.plan ~now ?before p d
  in
  let pol = match policy with Some pol -> pol | None -> default_policy p in
  match validate_policy p pol with
  | Error e -> Error e
  | Ok () -> Ok (run_validated ~now ~pol ~planner ~telemetry ~sim_offset p sched scenario)

let pp_event fmt = function
  | Failure_observed e ->
    Format.fprintf fmt "[t=%s] failure observed: %d deliveries lost (%s)"
      (Rat.to_string e.at) e.losses e.scenario
  | Replan_attempt e ->
    Format.fprintf fmt "[t=%s] re-plan attempt %d%s" (Rat.to_string e.at) e.n
      (if e.incremental then " (incremental patch)" else "")
  | Replan_failed e -> Format.fprintf fmt "re-plan attempt %d failed: %s" e.n e.reason
  | Deadline_exceeded e ->
    Format.fprintf fmt "attempt %d exceeded the %.3fs deadline (took %.3fs)" e.n
      e.deadline e.seconds
  | Fallback_to_checkpoint e ->
    Format.fprintf fmt "attempt %d: falling back to the checkpointed schedule" e.n
  | Backoff e ->
    Format.fprintf fmt "backing off %s (resume at t=%s)" (Rat.to_string e.delay)
      (Rat.to_string e.resume_at)
  | Degraded e ->
    Format.fprintf fmt "degraded mode: dropped targets [%s], serving %d"
      (String.concat "," (List.map string_of_int e.dropped))
      e.serving
  | Recovered e ->
    Format.fprintf fmt "[t=%s] recovered%s: throughput %.6f" (Rat.to_string e.at)
      (if e.degraded then " (degraded)" else "")
      e.throughput
  | Gave_up e -> Format.fprintf fmt "gave up after %d attempts: %s" e.attempts e.reason

let pp_outcome fmt o =
  Format.fprintf fmt "@[<v>";
  List.iter (fun e -> Format.fprintf fmt "%a@," pp_event e) o.events;
  (match o.final with
  | `No_failure -> Format.fprintf fmt "no failure observed; schedule unchanged"
  | `Recovered rep ->
    Format.fprintf fmt "recovered (full target set): %a" Repair.pp_report rep
  | `Degraded (rep, dropped) ->
    Format.fprintf fmt "recovered degraded (dropped %s): %a"
      (String.concat "," (List.map string_of_int dropped))
      Repair.pp_report rep
  | `Fallback _ ->
    Format.fprintf fmt "gave up; last checkpointed schedule remains in force");
  Format.fprintf fmt "@ (%d attempts, simulated clock %s)@]" o.attempts_used
    (Rat.to_string o.sim_time)
