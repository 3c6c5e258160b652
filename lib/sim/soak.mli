(** Chaos soak driver: continuous recovery over a long fault timeline.

    The one-shot {!Recovery_loop} handles a single failure episode; this
    driver runs it {e continuously} over a horizon where components die,
    heal and flap ({!Fault} revival events and renewal generators). The
    controller decides, at every instant the fault timeline changes the
    platform, whether to live with the running schedule, patch it
    incrementally, or spend a full re-plan — and aggregates what the
    service actually delivered over the whole horizon.

    {b Controller machinery} (the damped controller; {!Naive} re-plans
    fully on every change, the ablation baseline):
    - {e Flap damping}, BGP-style: every kill/revive transition of a
      component adds one unit to its exponentially decaying penalty
      (half-life 30 simulated time units). When the penalty reaches 3 the
      component is {e suppressed} — treated as dead for planning even while
      it is momentarily up — and is trusted again only once the penalty has
      decayed below 1.5, the component is actually up, and at least 20
      simulated time units have passed since its last flap. Damping is {e criticality-aware}: a component whose loss would
      disconnect a target (with the already-suppressed set also treated
      dead) is never suppressed — damping a host's sole uplink would trade
      a briefly-flapping link for an indefinitely-dropped target.
    - {e Re-plan token bucket}: full re-planning drains a bucket of
      {!config.token_capacity} tokens refilling at one per
      {!config.token_refill} simulated time units. One token buys one
      {e episode} — once paid, the episode's whole escalation ladder
      (full-set retries, degraded-mode target drops) runs {!Repair.plan}
      as it needs, so a scarce token funds the rung that actually recovers
      service instead of being burned on a doomed full-set attempt. An
      empty bucket forces the O(damage) incremental rung
      ({!Repair.plan_incremental} via {!Recovery_loop}); when even the
      patch fails, the stale schedule stays in force until a token
      accrues.
    - {e RIB-style schedule memory}: every schedule the damped controller
      adopts is remembered, keyed by the effective-damage state it was
      planned for; when a state {e recurs} (flapping alternates between a
      handful of joint states) the remembered schedule is re-adopted for
      free — no token, no planner work, logged as a [cached] episode. The
      {!Naive} ablation never uses the cache.
    - {e Capacity re-integration with hysteresis}: when damage only {e
      shrinks} (heals, suppression releases), the controller re-plans to
      reclaim the capacity only when the nominal throughput exceeds the
      current rate by more than {!config.hysteresis} (relative) or full
      target coverage can be restored — and adopts the candidate only when
      the realized gain clears the same bar. Everything else keeps the
      running schedule: no re-plan thrash on marginal heals. *)

type controller =
  | Naive  (** full re-plan on every effective-damage change — no damping,
               no token bucket, no hysteresis. The ablation baseline. *)
  | Damped
      (** flap damping with the fixed parameters of the module doc, the
          token bucket, schedule memory and re-integration hysteresis *)

type config = {
  controller : controller;
  token_capacity : int;
      (** full-re-plan episode bucket size (>= 0; 0 = patch-only) *)
  token_refill : float;  (** simulated time per regained token (> 0) *)
  hysteresis : float;  (** min relative throughput gain to re-integrate (>= 0) *)
  policy : Recovery_loop.policy;  (** per-episode recovery policy *)
}

(** Damped controller, 4-token bucket refilling every 60 simulated units,
    5% hysteresis, and the platform's default recovery policy capped at 2
    full attempts per episode. *)
val default_config : Platform.t -> config

(** {!default_config} with the {!Naive} controller. *)
val naive_config : Platform.t -> config

(** How a recovery episode ended. *)
type outcome =
  | No_failure  (** the damage does not touch the running schedule *)
  | Recovered  (** a re-plan serves every target *)
  | Degraded  (** a re-plan serves a reduced target set *)
  | Fallback  (** recovery failed; the stale schedule stays in force *)
  | Cached
      (** the state recurred and its remembered schedule was re-adopted
          without any planning *)

(** ["no-failure"], ["recovered"], ["degraded"], ["fallback"] or
    ["cached"], as {!pp_event} prints it. *)
val outcome_name : outcome -> string

(** Timestamped controller decisions, in order. [what] names a component
    ("link 3-7", "node 5"). *)
type soak_event =
  | Flap of { at : Rat.t; what : string; up : bool; penalty : float }
  | Suppressed of { at : Rat.t; what : string; penalty : float }
  | Released of { at : Rat.t; what : string }
  | Episode of { at : Rat.t; outcome : outcome; patched : bool }
      (** one {!Recovery_loop} run (damped), direct re-plan (naive) or
          cached re-adoption *)
  | Reintegrated of { at : Rat.t; before : float; after : float }
  | Reintegration_skipped of { at : Rat.t; reason : string }
  | Tokens_exhausted of { at : Rat.t }
  | Stale of { at : Rat.t; rate : float }
      (** recovery failed; the broken schedule stays in force at the
          replay-measured rate until the next epoch *)

type report = {
  sk_horizon : float;
  sk_events : int;  (** fault events inside the horizon *)
  sk_epochs : int;  (** decision instants (event batches + controller ticks) *)
  sk_availability : float;
      (** fraction of the horizon at full target coverage: every target of
          the nominal platform served by the running schedule. Covered time
          is summed exactly, so the value is in [[0, 1]] and a run that
          never loses coverage reports exactly [1.0]. *)
  sk_degraded_time : float;
      (** simulated time {e not} at full nominal service — coverage
          incomplete or throughput below the initial schedule's *)
  sk_delivered_integral : float;
      (** ∫ delivered throughput dt — multicasts completed to the
          currently-served target set *)
  sk_nominal_integral : float;
      (** initial schedule's throughput × horizon. A reference, not a bound:
          re-plans may adopt trees better than the initial one, so the
          delivered integral can exceed it. The bound that holds is the
          Multicast-LB throughput × horizon. *)
  sk_full_replans : int;  (** {!Repair.plan} invocations (the costly ones) *)
  sk_patches : int;  (** episodes resolved by the incremental rung *)
  sk_replans_per_hour : float;
      (** [full_replans / (horizon / 3600)]: an "hour" is 3600 simulated
          time units *)
  sk_suppressions : int;
  sk_releases : int;
  sk_reintegrations : int;
  sk_cache_hits : int;  (** recurring states served from schedule memory *)
  sk_token_exhaustions : int;  (** epochs the bucket ran dry *)
  sk_final_throughput : float;
  sk_schedules : Schedule.t list;
      (** every schedule that was ever in force, chronological, the initial
          one first — each passed {!Schedule.check} before adoption *)
  sk_log : soak_event list;
}

(** [run ?now ?config p sched scenario ~horizon] soaks [sched] (the
    running, checked schedule for [p]) against the fault timeline
    [scenario] clipped to [horizon]. Validates the scenario, the config and
    the initial schedule; [now] (default [Unix.gettimeofday]) is the wall
    clock behind re-plan timing, injected end-to-end so fake-clock runs are
    fully deterministic. Updates the [soak.*] metrics and the
    [recovery.replans_per_hour] gauge, and traces [soak.run] plus
    suppress/release/re-integration instants.

    {b Telemetry (PR 10).} [?telemetry] receives samples at every decision
    instant on the simulated clock: [soak.throughput] (current delivered
    rate), [soak.delivered_fraction] (rate over the nominal schedule's),
    [soak.availability] (1 when every nominal target is covered, else 0 —
    the SLO windows turn the indicator into a windowed availability
    fraction), [soak.tokens] (re-plan budget) and [soak.suppressed]
    (flap-damped components held out of service). The sink is also handed
    to {!Recovery_loop.run}, so per-attempt [recovery.replan_seconds]
    samples land at episode time. The sink evaluates its own SLO
    objectives over these samples ({!Timeseries.slo_events}); joined with
    the fault timeline and the [sk_log] repair actions, the events become
    {!Incident} timelines ({!Incident.of_soak}). The sink is a pure
    observer: nothing reads it back into a decision, so a sampled run
    takes exactly the decisions an unsampled one does. *)
val run :
  ?now:(unit -> float) ->
  ?config:config ->
  ?telemetry:Timeseries.t ->
  Platform.t ->
  Schedule.t ->
  Fault.scenario ->
  horizon:Rat.t ->
  (report, string) result

val pp_event : Format.formatter -> soak_event -> unit

(** Multi-line summary: availability, delivered fraction, degraded time,
    re-plan counts and rates, damping statistics. *)
val pp_report : Format.formatter -> report -> unit
