(** Rolling-horizon planner for churning multicast sessions.

    The paper plans one static multicast; {!Horizon} runs a {e stream} of
    them ({!Session}) on one shared platform under an epoch clock. Every
    [epoch] time units the planner:

    + retires departed sessions and refreshes the failure state
      ({!Fault.damage_at} on the fault scenario's {!Fault.timeline},
      built once per run, composed into a damage-restricted carrier
      platform);
    + re-plans live sessions — in [`Incremental] mode only those whose
      residual capacity actually changed: a session with a broken tree,
      or one below demand after a {e capacity release} (a departure,
      preemption, degrade, suspension, shrink or damage change) since
      its last plan. A session at full demand with an intact tree is
      skipped outright — the exact invariant keeps its plan feasible
      whatever the others do, and a hungry one took everything its
      bottleneck offered, so a re-plan cannot help it until someone
      gives capacity back. Re-plans are warm-started from the session's
      previous LP basis via {!Warm_registry}. In [`Cold] mode every
      live session re-plans, from scratch, every epoch (the S1 ablation
      baseline);
    + admits the epoch's arrivals in {!Session.admission_order} against
      exact residual port capacity, degrading then preempting
      lowest-priority sessions first when a higher-priority arrival does
      not fit.

    {b Capacity sharing.} Sessions meet only through per-node port
    occupations (see {!Multicast_tree.send_occupation}): a session running at rate
    [y] occupies [y * o_v] of each port [v] its tree touches. All
    admission arithmetic is exact ({!Rat}); admitted rates are floored
    onto the [1/960] lattice, so the per-port sums provably never
    exceed one. The LP sees the same residuals as float [send_cap] /
    [recv_cap] right-hand sides ({!Formulations.multicast_lb_warm}) —
    the rows are unchanged across epochs, which is what makes the
    previous epoch's basis portable.

    {b Determinism.} Planning decisions depend only on exact rational
    arithmetic and deterministic orderings — never on LP floats, wall
    clock, or scheduling order — so a run's {!digest} is bit-identical
    for any [jobs] value (re-plans are farmed out with {!Pool.map} from
    a consistent snapshot and applied sequentially in session-id order).

    {b Incremental vs cold.} The two modes share every decision rule:
    the same exact residuals, the same admission ladder, and the same
    never-abandon-the-incumbent rule, so a session that both modes
    re-plan against equal residuals ends up with the same tree and rate.
    They are {e not} guaranteed to admit the same sessions. The
    re-plan set is fixed from the epoch's snapshot, but plans are
    applied one by one against live residuals. When one applied re-plan
    frees capacity (its new tree drops a port), a hungry session later
    in the same epoch uses it at once in [`Cold] mode. In
    [`Incremental] mode it was skipped for this epoch and only wakes at
    the next one. The one-epoch lag shifts the residuals later arrivals
    see: on [mcast sessions --horizon 1000 --arrival-rate 0.2] the
    modes admit 73 and 77 of 228 sessions. Short runs without such a
    lag admit identically; the tests check that at horizon 200. *)

type replan_mode =
  [ `Incremental  (** warm-started, change-driven re-planning *)
  | `Cold  (** full re-plan of every live session each epoch *) ]

(** The admission ladder's parameters are fixed:
    - a session is admitted only at [>= 0.5 * demand] (the admit floor);
    - preemption first degrades victims to [0.25 * demand] (the degrade
      floor), and considers at most 4 victims per arriving session;
    - an epoch at rate [< 0.7 * admitted_rate] counts as degraded, and a
      session whose minimum rate stays above that fraction (the SLO
      retention) has [sr_slo_ok];
    - admitted rates are multiples of [1/960] (the rate grid). *)
type config = {
  epoch : Rat.t;  (** planning period (positive) *)
  replan_mode : replan_mode;
  jobs : int;  (** {!Pool.map} fan-out for the per-epoch re-plans *)
}

(** Epoch 5, incremental re-planning, sequential. *)
val default_config : config

type outcome =
  | Completed  (** departed on schedule *)
  | Active  (** still live when the horizon ended *)
  | Rejected  (** never admitted *)
  | Preempted  (** evicted for a higher-priority arrival *)

(** Per-session summary. [sr_min_rate] is the lowest rate the session
    was ever held at while live (zero if it was ever suspended);
    [sr_slo_ok] compares it against [0.7 * sr_admitted_rate].
    [sr_lb] is the last LP certificate the session planned against. *)
type session_record = {
  sr_session : Session.t;
  sr_outcome : outcome;
  sr_admitted_rate : Rat.t;
  sr_final_rate : Rat.t;
  sr_min_rate : Rat.t;
  sr_lb : float;
  sr_replans : int;
  sr_degraded_epochs : int;
  sr_burn_epochs : int;
      (** epochs spent below [0.7 * sr_admitted_rate] at an
          epoch boundary, suspended epochs included — the error-budget
          spend behind the burn rate [slo_enforce] feeds back (PR 10).
          [sr_degraded_epochs] counts degrade {e actions}; this counts
          {e time} out of SLO. *)
  sr_slo_ok : bool;
}

(** Per-epoch summary. [ep_seconds] is the wall-clock the planner spent
    on the epoch (re-plans plus admission); [ep_max_port] the largest
    port occupation left standing after it — always at most one. *)
type epoch_record = {
  ep_index : int;
  ep_time : Rat.t;
  ep_arrivals : int;
  ep_admitted : int;
  ep_rejected : int;
  ep_preempted : int;
  ep_degraded : int;
  ep_suspended : int;
  ep_replans : int;
  ep_replans_skipped : int;
  ep_active : int;
  ep_seconds : float;
  ep_max_port : Rat.t;
}

(** The run's totals are folds of its two logs, so they always agree with
    them: [hz_admitted], [hz_rejected], [hz_preempted], [hz_replans] and
    [hz_replans_skipped] are the sums of the matching [ep_*] fields over
    [hz_epochs], [hz_peak_active] is the largest [ep_active], and
    [hz_planner_seconds] is the in-order sum of [ep_seconds].
    [hz_completed] counts the [Completed] records of [hz_sessions], whose
    non-[Rejected] records number [hz_admitted], and whose [sr_replans]
    sum to [hz_replans]. *)
type report = {
  hz_epochs : epoch_record list;
  hz_sessions : session_record list;  (** sorted by session id *)
  hz_admitted : int;
  hz_rejected : int;
  hz_preempted : int;
  hz_completed : int;
  hz_degradations : int;
  hz_suspensions : int;
  hz_replans : int;
  hz_replans_skipped : int;
  hz_slo_violations : int;
  hz_peak_active : int;
  hz_planner_seconds : float;
  hz_p50_epoch_seconds : float;
  hz_p99_epoch_seconds : float;
  hz_max_port_occupation : Rat.t;  (** over the whole run; [<= 1] *)
  hz_admitted_rate_sum : float;
  hz_mean_lb_gap : float;
      (** mean [final_rate / lb] over sessions that ended with a
          positive rate. The certificate is priced at the re-plan
          snapshot while rates can later grow in place against live
          residuals, so values slightly above 1 are possible — the
          ratio is a health indicator, never a decision input *)
  hz_schedules : (int * int * Schedule.t) list;
      (** every in-force schedule ever adopted, as
          [(epoch, session id, schedule)] in adoption order; each passed
          {!Schedule.check} when adopted *)
  hz_min_delivered_fraction : float;
      (** worst instantaneous delivered fraction vs admitted rate over
          all non-rejected sessions (1.0 = nobody ever degraded, 0 =
          some session was suspended at least once); also exported as
          the [session.delivered_fraction.min] gauge *)
}

(** [run ?now ?config ?faults p sessions ~horizon] replays the workload
    through the epoch loop and reports. [sessions] must pass
    {!Workload.validate}; [faults] is a {!Fault.scenario} over [p]
    (which must keep [p]'s designated source alive, as {!Fault}'s
    generators guarantee). [now] (default [Unix.gettimeofday]) only
    feeds the timing telemetry, never a decision. Updates the
    [session.*] metrics and records [session.run] / [session.epoch] /
    [session.plan] trace spans.

    {b Telemetry (PR 10).} [?telemetry] receives epoch-boundary samples
    on the simulated clock: [horizon.throughput] (sum of live rates),
    [horizon.active], [horizon.admitted] (this epoch),
    [horizon.headroom] (1 − worst port occupation), and the worst live
    [session.retention] (rate/admitted) and [session.delivered_fraction]
    (rate/demand). The sink evaluates its own SLO objectives over these
    samples ({!Timeseries.slo_events}). It is a pure observer —
    sampling happens on epoch boundaries only and nothing reads the
    sink back into a decision, so the {!digest} is bit-identical with
    sampling on or off (pinned by a seeded test).

    {b In-lifetime SLO enforcement (PR 10, closes the ROADMAP item 3
    follow-on).} With [slo_enforce], the per-session burn rate — the
    out-of-SLO epoch fraction over the [1 - 0.7] error
    budget, the same SRE burn-rate form {!Slo} uses — feeds back into
    two decision points: sessions spending their budget apply their
    re-plans {e first} (worst burn first, capturing freed capacity
    before slack-rich peers instead of yielding to id order), and
    within a victim priority class the degrade-then-preempt ladder
    charges victims whose budget is already burning first — their
    budget is sunk cost, so a slack-rich peer is kept inside its SLO
    instead of starting a fresh breach. Admission {e outcomes} on the
    S1 workload are unchanged and random-workload shortfall never
    worsens (both shape-checked in the bench); the bench's
    deterministic contention duel shows the mechanism: a degraded
    session that loses the post-departure capacity race under id order
    wins it under enforcement and recovers to full demand. Enforcement
    changes rates, so the digest differs from an enforcement-off run —
    determinism across [jobs] values is preserved. *)
val run :
  ?now:(unit -> float) ->
  ?config:config ->
  ?faults:Fault.scenario ->
  ?telemetry:Timeseries.t ->
  ?slo_enforce:bool ->
  Platform.t ->
  Session.t list ->
  horizon:Rat.t ->
  (report, string) result

(** Hex digest of every planning {e decision} in the report (epoch
    tallies, exact port peaks, per-session outcomes and exact rates) —
    deliberately excluding wall-clock fields and LP floats, so it is
    bit-identical across [jobs] values and, for admission decisions,
    across re-plan modes. *)
val digest : report -> string

val pp_report : Format.formatter -> report -> unit
