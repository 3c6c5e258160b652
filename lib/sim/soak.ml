type controller = Naive | Damped

type config = {
  controller : controller;
  token_capacity : int;
  token_refill : float;
  hysteresis : float;
  policy : Recovery_loop.policy;
}

(* Flap damping, in simulated-time units: each kill/revive transition adds
   one penalty unit, decaying with a 30-unit half-life; a component is
   suppressed at penalty 3 and trusted again below 1.5, once up and quiet
   for 20 units. *)
let penalty_per_flap = 1.0
let half_life = 30.0
let suppress_threshold = 3.0
let reuse_threshold = 1.5
let hold_down = 20.0

(* Simulated-time units per reported "hour". *)
let hour = 3600.0

let default_config (p : Platform.t) =
  {
    controller = Damped;
    token_capacity = 4;
    token_refill = 60.0;
    hysteresis = 0.05;
    policy = { (Recovery_loop.default_policy p) with Recovery_loop.max_attempts = 2 };
  }

let naive_config p = { (default_config p) with controller = Naive }

type outcome = No_failure | Recovered | Degraded | Fallback | Cached

let outcome_name = function
  | No_failure -> "no-failure"
  | Recovered -> "recovered"
  | Degraded -> "degraded"
  | Fallback -> "fallback"
  | Cached -> "cached"

type soak_event =
  | Flap of { at : Rat.t; what : string; up : bool; penalty : float }
  | Suppressed of { at : Rat.t; what : string; penalty : float }
  | Released of { at : Rat.t; what : string }
  | Episode of { at : Rat.t; outcome : outcome; patched : bool }
  | Reintegrated of { at : Rat.t; before : float; after : float }
  | Reintegration_skipped of { at : Rat.t; reason : string }
  | Tokens_exhausted of { at : Rat.t }
  | Stale of { at : Rat.t; rate : float }

type report = {
  sk_horizon : float;
  sk_events : int;
  sk_epochs : int;
  sk_availability : float;
  sk_degraded_time : float;
  sk_delivered_integral : float;
  sk_nominal_integral : float;
  sk_full_replans : int;
  sk_patches : int;
  sk_replans_per_hour : float;
  sk_suppressions : int;
  sk_releases : int;
  sk_reintegrations : int;
  sk_cache_hits : int;
  sk_token_exhaustions : int;
  sk_final_throughput : float;
  sk_schedules : Schedule.t list;
  sk_log : soak_event list;
}

let runs_m = Metrics.counter "soak.runs"
let epochs_m = Metrics.counter "soak.epochs"
let full_replans_m = Metrics.counter "soak.full_replans"
let patches_m = Metrics.counter "soak.incremental_patches"
let suppressions_m = Metrics.counter "soak.suppressions"
let reintegrations_m = Metrics.counter "soak.reintegrations"
let token_exhaustions_m = Metrics.counter "soak.token_exhaustions"
let availability_g = Metrics.gauge "soak.availability"
let delivered_g = Metrics.gauge "soak.delivered_fraction"
let replans_per_hour_g = Metrics.gauge "recovery.replans_per_hour"

(* --- components and health ----------------------------------------------- *)

(* Health is tracked per physical component: an undirected link (both
   directed edges flap together in every generator) or a node. *)
type component = Link of int * int | Node of int

let component_name = function
  | Link (u, v) -> Printf.sprintf "link %d-%d" u v
  | Node v -> Printf.sprintf "node %d" v

let flap_of = function
  | Fault.Kill_edge { src; dst; _ } -> Some (Link (min src dst, max src dst), false)
  | Fault.Revive_edge { src; dst; _ } -> Some (Link (min src dst, max src dst), true)
  | Fault.Kill_node { node; _ } -> Some (Node node, false)
  | Fault.Revive_node { node; _ } -> Some (Node node, true)
  | Fault.Degrade_edge _ | Fault.Clear_degrade _ -> None

type health = {
  mutable penalty : float;  (* as of [last] *)
  mutable last : Rat.t;  (* last flap time *)
  mutable suppressed : bool;
}

let decayed h ~at = h.penalty *. (0.5 ** (Rat.to_float (Rat.sub at h.last) /. half_life))

(* --- damage plumbing ------------------------------------------------------ *)

let dedup xs =
  let seen = Hashtbl.create 16 in
  List.filter (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.replace seen x ();
        true
      end) xs

let suppression_damage (p : Platform.t) comps =
  let g = p.Platform.graph in
  Repair.damage
    ~dead_edges:
      (List.concat_map
         (function
           | Link (u, v) ->
             List.filter (fun (a, b) -> Digraph.mem_edge g ~src:a ~dst:b) [ (u, v); (v, u) ]
           | Node _ -> [])
         comps)
    ~dead_nodes:(List.filter_map (function Node v -> Some v | Link _ -> None) comps)
    ()

(* The current effective damage re-encoded as an instantaneous scenario, so
   one Recovery_loop episode can replay the running schedule against it:
   kills the schedule does not use produce no losses, hence `No_failure and
   zero re-planning work — the short-circuit that makes soak cheap. *)
let scenario_of_damage (d : Repair.damage) : Fault.scenario =
  List.map (fun (src, dst) -> Fault.Kill_edge { src; dst; at = Rat.zero }) d.Repair.dead_edges
  @ List.map (fun node -> Fault.Kill_node { node; at = Rat.zero }) d.Repair.dead_nodes
  @ List.map
      (fun ((src, dst), factor) -> Fault.Degrade_edge { src; dst; at = Rat.zero; factor })
      d.Repair.degraded

module Damage_map = Map.Make (struct
  type t = Repair.damage

  let compare = Repair.compare_damage
end)

let worsened (eff : Repair.damage) (prev : Repair.damage) =
  List.exists (fun e -> not (List.mem e prev.Repair.dead_edges)) eff.Repair.dead_edges
  || List.exists (fun v -> not (List.mem v prev.Repair.dead_nodes)) eff.Repair.dead_nodes
  || List.exists
       (fun (e, f) ->
         let old =
           match List.assoc_opt e prev.Repair.degraded with Some x -> x | None -> Rat.one
         in
         Rat.(f > old))
       eff.Repair.degraded

(* --- validation ----------------------------------------------------------- *)

let validate_config (p : Platform.t) cfg =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if cfg.token_capacity < 0 then
    err "config: token_capacity must be >= 0 (got %d)" cfg.token_capacity
  else if not (cfg.token_refill > 0.0) then
    err "config: token_refill must be positive (got %g)" cfg.token_refill
  else if not (cfg.hysteresis >= 0.0) then
    err "config: hysteresis must be >= 0 (got %g)" cfg.hysteresis
  else Recovery_loop.validate_policy p cfg.policy

(* --- the soak loop -------------------------------------------------------- *)

let group_batches scenario ~horizon =
  let clipped =
    List.filter (fun e -> Rat.(Fault.event_time e <= horizon)) scenario
  in
  let sorted =
    List.stable_sort
      (fun a b -> Rat.compare (Fault.event_time a) (Fault.event_time b))
      clipped
  in
  let rec group = function
    | [] -> []
    | e :: _ as l ->
      let t = Fault.event_time e in
      let batch, rest = List.partition (fun e' -> Rat.equal (Fault.event_time e') t) l in
      (t, batch) :: group rest
  in
  (List.length clipped, group sorted)

let run_validated ~now ~cfg ~telemetry (p : Platform.t) (sched : Schedule.t)
    scenario ~horizon =
  Metrics.incr runs_m;
  Trace.with_span ~cat:"soak" "soak.run"
    ~result:(fun r ->
      [
        ("epochs", Trace.Int r.sk_epochs);
        ("availability", Trace.Float r.sk_availability);
        ("full_replans", Trace.Int r.sk_full_replans);
      ])
  @@ fun () ->
  let n_events, batches = group_batches scenario ~horizon in
  let thr0 = Rat.to_float sched.Schedule.throughput in
  let replay_periods s =
    max cfg.policy.Recovery_loop.horizon_periods (Schedule.init_periods s + 3)
  in
  (* running state *)
  let cur = ref sched and cur_rate = ref thr0 and full_cov = ref true in
  let stale = ref false in
  let prev_eff = ref Repair.no_damage in
  let tokens = ref (float_of_int cfg.token_capacity) in
  let t_prev = ref Rat.zero in
  (* accumulators *)
  (* Covered time is summed exactly on the fault-time grid, so the
     availability fraction lies in [0, 1] by construction. *)
  let avail = ref Rat.zero and degraded = ref 0.0 and delivered = ref 0.0 in
  let full_replans = ref 0 and epochs = ref 0 in
  let log = ref [] and schedules = ref [ sched ] in
  let health : (component, health) Hashtbl.t = Hashtbl.create 16 in
  let suppressed () =
    Hashtbl.fold (fun c h acc -> if h.suppressed then c :: acc else acc) health []
  in
  (* RIB-style schedule memory (damped controller only): every schedule
     ever adopted, keyed by the effective-damage state it was planned for.
     A flapping component alternates between a handful of joint states, so
     after the first full cycle the controller serves every recurring state
     from cache — zero tokens, zero planner work. *)
  let cache = ref (Damage_map.singleton Repair.no_damage (sched, thr0, true)) in
  let remember key = cache := Damage_map.add key (!cur, !cur_rate, !full_cov) !cache in
  let ticks = ref [] in
  let emit e = log := e :: !log in
  (* A tick is only a "wake me up by then" request: if an earlier tick is
     already pending, that epoch will re-examine the same state, so the
     later request is dropped. This keeps the queue from chaining — one
     pending wake-up per open question, not one per epoch that asked. *)
  let push_tick t =
    if
      Rat.(t <= horizon)
      && Rat.(t > !t_prev)
      && not (List.exists (fun tk -> Rat.(tk <= t)) !ticks)
    then ticks := List.sort Rat.compare (t :: !ticks)
  in
  let accrue t =
    let span = Rat.sub t !t_prev in
    let dt = Rat.to_float span in
    if dt > 0.0 then begin
      delivered := !delivered +. (!cur_rate *. dt);
      if !full_cov then avail := Rat.add !avail span;
      if not (!full_cov && !cur_rate >= thr0 -. 1e-9) then degraded := !degraded +. dt;
      tokens :=
        Float.min (float_of_int cfg.token_capacity) (!tokens +. (dt /. cfg.token_refill));
      t_prev := t
    end
  in
  let exhausted_this_epoch = ref false in
  let note_exhaustion () =
    if not !exhausted_this_epoch then begin
      exhausted_this_epoch := true;
      Trace.instant ~cat:"soak" "soak.tokens-exhausted";
      emit (Tokens_exhausted { at = !t_prev })
    end
  in
  (* Time until the bucket next holds a whole token. *)
  let refill_eta () = (1.0 -. Float.min 1.0 !tokens) *. cfg.token_refill in
  (* One token buys one full-re-plan *episode*, not one planner call: once
     an episode has paid, its whole escalation ladder (retries, the
     degraded-mode target drops) runs on that token. Charging per call
     would burn each scarce token on the ladder's doomed full-set attempt
     and never fund the degrade rung that actually recovers service. *)
  let paid = ref false in
  let gated_planner ?before plat dmg =
    if !paid || !tokens >= 1.0 then begin
      if not !paid then begin
        tokens := !tokens -. 1.0;
        paid := true
      end;
      incr full_replans;
      Metrics.incr full_replans_m;
      Repair.plan ~now ?before plat dmg
    end
    else begin
      note_exhaustion ();
      Error "re-plan token budget exhausted"
    end
  in
  let adopt ~key (rep : Repair.report) ~extra_dropped =
    cur := rep.Repair.schedule;
    cur_rate := rep.Repair.throughput_after;
    full_cov := rep.Repair.lost_targets = [] && extra_dropped = [];
    stale := false;
    schedules := rep.Repair.schedule :: !schedules;
    remember key
  in
  (* [fs] is the running schedule replayed against the current damage. *)
  let go_stale t (fs : Event_sim.fault_stats) =
    cur_rate := fs.Event_sim.f_measured_throughput;
    full_cov := false;
    stale := true;
    emit (Stale { at = t; rate = !cur_rate });
    (* retry once the bucket holds a token again, even if no further fault fires *)
    push_tick (Rat.add t (Fault.grid_time (Float.max (refill_eta ()) 1.0)))
  in
  let episode t eff =
    paid := false;
    match
      Recovery_loop.run ~now ~policy:cfg.policy ~planner:gated_planner ?telemetry
        ~sim_offset:(Rat.to_float t) p !cur (scenario_of_damage eff)
    with
    | Error e ->
      (* the policy was validated on entry, so this cannot happen *)
      invalid_arg ("Soak: recovery loop rejected a validated policy: " ^ e)
    | Ok o ->
      let patched =
        match o.Recovery_loop.final with
        | `Recovered rep | `Degraded (rep, _) -> (
          match rep.Repair.repair_method with `Patched -> true | _ -> false)
        | _ -> false
      in
      let outcome =
        match o.Recovery_loop.final with
        | `No_failure ->
          (* the change does not touch the running schedule: keep it — and
             remember that the running schedule answers this state too *)
          stale := false;
          remember eff;
          No_failure
        | `Recovered rep ->
          adopt ~key:eff rep ~extra_dropped:[];
          Recovered
        | `Degraded (rep, dropped) ->
          adopt ~key:eff rep ~extra_dropped:dropped;
          Degraded
        | `Fallback _ ->
          (* the loop's detection replay is exactly the replay of the
             running schedule against this damage *)
          go_stale t o.Recovery_loop.detection;
          Fallback
      in
      emit (Episode { at = t; outcome; patched })
  in
  let reintegrate t ~was eff =
    if thr0 > !cur_rate *. (1.0 +. cfg.hysteresis) || not !full_cov then begin
      if !tokens < 1.0 then begin
        (* No token for the re-plan: leave the heal pending (restore
           [prev_eff]) and wake up when the bucket has refilled, so healed
           capacity is reclaimed even if no further fault ever fires. *)
        note_exhaustion ();
        prev_eff := was;
        push_tick (Rat.add t (Fault.grid_time (Float.max (refill_eta ()) 1.0)));
        emit (Reintegration_skipped { at = t; reason = "re-plan token budget exhausted" })
      end
      else begin
        paid := false;
        match gated_planner ~before:!cur p eff with
        | Ok rep ->
          let regains_coverage = (not !full_cov) && rep.Repair.lost_targets = [] in
          if
            rep.Repair.throughput_after > !cur_rate *. (1.0 +. cfg.hysteresis)
            || regains_coverage
          then begin
            Trace.instant ~cat:"soak" "soak.reintegrated";
            let before = !cur_rate in
            adopt ~key:eff rep ~extra_dropped:[];
            emit (Reintegrated { at = t; before; after = rep.Repair.throughput_after })
          end
          else
            emit (Reintegration_skipped { at = t; reason = "gain below hysteresis" })
        | Error e -> emit (Reintegration_skipped { at = t; reason = e })
      end
    end
    else emit (Reintegration_skipped { at = t; reason = "below hysteresis bound" })
  in
  let naive_epoch t eff =
    incr full_replans;
    Metrics.incr full_replans_m;
    match Repair.plan ~now ~before:!cur p eff with
    | Ok rep ->
      (* the naive ablation writes the cache too but never reads it *)
      adopt ~key:eff rep ~extra_dropped:[];
      emit (Episode { at = t; outcome = Recovered; patched = false })
    | Error _ ->
      go_stale t
        (Event_sim.run_with_faults !cur ~faults:(scenario_of_damage eff)
           ~periods:(replay_periods !cur))
  in
  let epoch t evs =
    accrue t;
    incr epochs;
    Metrics.incr epochs_m;
    exhausted_this_epoch := false;
    (* Only the damped controller records flaps: under [Naive], [health]
       stays empty, so nothing below is suppressed or released and the
       effective damage is the actual one. *)
    if cfg.controller = Damped then
      List.iter
        (fun (c, up) ->
          let h =
            match Hashtbl.find_opt health c with
            | Some h -> h
            | None ->
              let h = { penalty = 0.0; last = t; suppressed = false } in
              Hashtbl.replace health c h;
              h
          in
          h.penalty <- decayed h ~at:t +. penalty_per_flap;
          h.last <- t;
          emit (Flap { at = t; what = component_name c; up; penalty = h.penalty });
          if (not h.suppressed) && h.penalty >= suppress_threshold then begin
            (* Suppressing a component only pays if the platform can still
               cover every target with it treated dead: damping a host's
               sole uplink would trade a briefly-flapping link for an
               indefinitely-dropped target, so critical components are
               never suppressed — their flaps keep being handled
               reactively. The check is a reachability sweep, not a plan. *)
            let keeps_every_target =
              match Repair.survivor p (suppression_damage p (c :: suppressed ())) with
              | Ok s -> s.Platform.targets = p.Platform.targets
              | Error _ -> false
            in
            if keeps_every_target then begin
              h.suppressed <- true;
              Trace.instant ~cat:"soak" "soak.suppressed";
              emit (Suppressed { at = t; what = component_name c; penalty = h.penalty })
            end
          end)
        (dedup (List.filter_map flap_of evs));
    let actual = Fault.damage_at scenario ~at:t in
    Hashtbl.iter
      (fun c h ->
        if h.suppressed then begin
          let up =
            match c with
            | Node v -> not (List.mem v actual.Repair.dead_nodes)
            | Link (u, v) ->
              not
                (List.mem (u, v) actual.Repair.dead_edges
                || List.mem (v, u) actual.Repair.dead_edges)
          in
          if
            up
            && decayed h ~at:t < reuse_threshold
            && Rat.to_float (Rat.sub t h.last) >= hold_down -. 1e-9
          then begin
            h.suppressed <- false;
            Trace.instant ~cat:"soak" "soak.released";
            emit (Released { at = t; what = component_name c })
          end
        end)
      health;
    let eff =
      let sup = suppression_damage p (suppressed ()) in
      Repair.damage
        ~dead_edges:(actual.Repair.dead_edges @ sup.Repair.dead_edges)
        ~dead_nodes:(actual.Repair.dead_nodes @ sup.Repair.dead_nodes)
        ~degraded:actual.Repair.degraded ()
    in
    if (not (Repair.damage_equal eff !prev_eff)) || !stale then begin
      let was = !prev_eff in
      prev_eff := eff;
      match cfg.controller with
      | Naive -> naive_epoch t eff
      | Damped -> (
        match Damage_map.find_opt eff !cache with
        | Some (s, r, fc) ->
          (* this exact state was planned for before: re-adopt for free *)
          cur := s;
          cur_rate := r;
          full_cov := fc;
          stale := false;
          schedules := s :: !schedules;
          emit (Episode { at = t; outcome = Cached; patched = false })
        | None ->
          if worsened eff was || !stale then episode t eff else reintegrate t ~was eff)
    end;
    (* While components sit suppressed, the fault timeline alone will not
       wake the controller to release them — schedule a tick. *)
    if suppressed () <> [] then
      push_tick (Rat.add t (Fault.grid_time (Float.max hold_down 1.0)));
    (* Epoch-boundary sampling (PR 10): a pure observer — nothing above
       ever reads the sink back into a decision, so a sampled run takes
       exactly the decisions an unsampled one does. *)
    match telemetry with
    | None -> ()
    | Some sink ->
      let tf = Rat.to_float t in
      let observe name v = Timeseries.sample sink name ~time:tf v in
      observe "soak.throughput" !cur_rate;
      observe "soak.delivered_fraction" (if thr0 > 0.0 then !cur_rate /. thr0 else 0.0);
      (* Instantaneous coverage indicator: the SLO engine's windows turn the
         0/1 samples into a windowed availability fraction, which is exactly
         what a burn rate over an availability objective wants. *)
      observe "soak.availability" (if !full_cov then 1.0 else 0.0);
      observe "soak.tokens" !tokens;
      observe "soak.suppressed" (float_of_int (List.length (suppressed ())))
  in
  let rec drive batches =
    match (batches, !ticks) with
    | [], [] -> ()
    | [], tk :: rest ->
      ticks := rest;
      epoch tk [];
      drive []
    | (bt, evs) :: brest, [] ->
      epoch bt evs;
      drive brest
    | (bt, evs) :: brest, tk :: trest ->
      if Rat.(tk < bt) then begin
        ticks := trest;
        epoch tk [];
        drive batches
      end
      else begin
        if Rat.equal tk bt then ticks := trest;
        epoch bt evs;
        drive brest
      end
  in
  drive batches;
  accrue horizon;
  let hf = Rat.to_float horizon in
  let availability = Rat.to_float (Rat.div !avail horizon) in
  let nominal_integral = thr0 *. hf in
  let rph = float_of_int !full_replans /. (hf /. hour) in
  Metrics.set_gauge availability_g availability;
  Metrics.set_gauge delivered_g
    (if nominal_integral > 0.0 then !delivered /. nominal_integral else 0.0);
  Metrics.set_gauge replans_per_hour_g rph;
  let log = List.rev !log in
  let count p = List.length (List.filter p log) in
  let r =
    {
      sk_horizon = hf;
      sk_events = n_events;
      sk_epochs = !epochs;
      sk_availability = availability;
      sk_degraded_time = !degraded;
      sk_delivered_integral = !delivered;
      sk_nominal_integral = nominal_integral;
      sk_full_replans = !full_replans;
      sk_patches = count (function Episode { patched; _ } -> patched | _ -> false);
      sk_replans_per_hour = rph;
      sk_suppressions = count (function Suppressed _ -> true | _ -> false);
      sk_releases = count (function Released _ -> true | _ -> false);
      sk_reintegrations = count (function Reintegrated _ -> true | _ -> false);
      sk_cache_hits = count (function Episode { outcome = Cached; _ } -> true | _ -> false);
      sk_token_exhaustions = count (function Tokens_exhausted _ -> true | _ -> false);
      sk_final_throughput = !cur_rate;
      sk_schedules = List.rev !schedules;
      sk_log = log;
    }
  in
  Metrics.add patches_m r.sk_patches;
  Metrics.add suppressions_m r.sk_suppressions;
  Metrics.add reintegrations_m r.sk_reintegrations;
  Metrics.add token_exhaustions_m r.sk_token_exhaustions;
  r

let run ?(now = Unix.gettimeofday) ?config ?telemetry (p : Platform.t)
    (sched : Schedule.t) scenario ~horizon =
  let cfg = match config with Some c -> c | None -> default_config p in
  match validate_config p cfg with
  | Error _ as e -> e
  | Ok () -> (
    if Rat.sign horizon <= 0 then Error "soak: horizon must be positive"
    else
      match Fault.validate p scenario with
      | Error e -> Error ("soak scenario: " ^ e)
      | Ok () -> (
        match Schedule.check sched with
        | Error e -> Error ("soak: initial schedule fails check: " ^ e)
        | Ok () -> Ok (run_validated ~now ~cfg ~telemetry p sched scenario ~horizon)))

let pp_event fmt = function
  | Flap e ->
    Format.fprintf fmt "[t=%s] %s %s (penalty %.2f)" (Rat.to_string e.at) e.what
      (if e.up then "up" else "down")
      e.penalty
  | Suppressed e ->
    Format.fprintf fmt "[t=%s] %s suppressed (penalty %.2f)" (Rat.to_string e.at) e.what
      e.penalty
  | Released e -> Format.fprintf fmt "[t=%s] %s trusted again" (Rat.to_string e.at) e.what
  | Episode e ->
    Format.fprintf fmt "[t=%s] recovery episode: %s%s" (Rat.to_string e.at)
      (outcome_name e.outcome)
      (if e.patched then " (incremental patch)" else "")
  | Reintegrated e ->
    Format.fprintf fmt "[t=%s] re-integrated healed capacity: %.6f -> %.6f"
      (Rat.to_string e.at) e.before e.after
  | Reintegration_skipped e ->
    Format.fprintf fmt "[t=%s] re-integration skipped: %s" (Rat.to_string e.at) e.reason
  | Tokens_exhausted e ->
    Format.fprintf fmt "[t=%s] re-plan token bucket exhausted" (Rat.to_string e.at)
  | Stale e ->
    Format.fprintf fmt "[t=%s] stale schedule in force (measured rate %.6f)"
      (Rat.to_string e.at) e.rate

let pp_report fmt r =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "horizon %.1f, %d fault events, %d epochs@," r.sk_horizon r.sk_events
    r.sk_epochs;
  Format.fprintf fmt "availability (full coverage): %.4f@," r.sk_availability;
  Format.fprintf fmt "delivered integral: %.2f of %.2f nominal (%.4f)@,"
    r.sk_delivered_integral r.sk_nominal_integral
    (if r.sk_nominal_integral > 0.0 then r.sk_delivered_integral /. r.sk_nominal_integral
     else 0.0);
  Format.fprintf fmt "time in degraded mode: %.1f@," r.sk_degraded_time;
  Format.fprintf fmt "full re-plans: %d (%.2f per hour); incremental patches: %d@,"
    r.sk_full_replans r.sk_replans_per_hour r.sk_patches;
  Format.fprintf fmt
    "suppressions: %d; releases: %d; re-integrations: %d; cached re-adoptions: %d; \
     token exhaustions: %d@,"
    r.sk_suppressions r.sk_releases r.sk_reintegrations r.sk_cache_hits
    r.sk_token_exhaustions;
  Format.fprintf fmt "final throughput: %.6f (%d schedules in force over the run)@]"
    r.sk_final_throughput
    (List.length r.sk_schedules)
