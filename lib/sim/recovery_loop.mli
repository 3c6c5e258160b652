(** Online recovery controller: replay, detect, re-plan, degrade, recover.

    {!Repair.plan} is a single re-planning step; this module is the loop
    around it. It replays a running schedule against a {!Fault.scenario},
    detects the deliveries the faults cost, and drives the planner under a
    retry/timeout/backoff policy:

    - the first attempt patches the running schedule
      ({!Repair.plan_incremental}, O(damage)); a failed patch escalates to
      full re-plans at once, without using one of their [max_attempts].
      The patch sets no retention floor: any patch that schedules and
      passes {!Schedule.check} is accepted, whatever it retains;
    - each re-plan attempt gets a wall-clock {e deadline} of one second;
      an attempt that overruns it is abandoned and the controller falls
      back to the last checkpointed good schedule before retrying;
    - failed full re-plans back off {e exponentially in simulated time}
      ([2^(n-1)] time units after the [n]-th) up to [max_attempts];
    - when the survivor cannot serve every remaining target, the controller
      enters {e degraded mode}: it drops targets one at a time in the
      caller-supplied [drop_order] until planning succeeds, serving the
      high-priority remainder rather than stalling;
    - every step emits a structured {!event}, so tests and the CLI can
      assert on the exact sequence
      (failure → attempts/backoffs → degraded → recovered).

    The controller works in simulated time: the clock starts at the first
    fault event and advances by the backoff delays; wall-clock is only used
    against the per-attempt deadline. *)

type event =
  | Failure_observed of { at : Rat.t; losses : int; scenario : string }
      (** the faulty replay lost [losses] owed deliveries *)
  | Replan_attempt of { n : int; at : Rat.t; incremental : bool }
      (** [incremental]: the attempt patches the running schedule
          ({!Repair.plan_incremental}) instead of re-planning from scratch *)
  | Replan_failed of { n : int; reason : string }
  | Deadline_exceeded of { n : int; seconds : float; deadline : float }
      (** attempt [n] overran the per-attempt re-plan deadline *)
  | Fallback_to_checkpoint of { n : int }
      (** the controller reverted to the last checkpointed good schedule *)
  | Backoff of { n : int; delay : Rat.t; resume_at : Rat.t }
  | Degraded of { dropped : int list; serving : int }
      (** entered (or deepened) degraded mode: [dropped] targets
          sacrificed, [serving] still served *)
  | Recovered of { at : Rat.t; throughput : float; degraded : bool }
      (** a repaired schedule passed {!Schedule.check} *)
  | Gave_up of { attempts : int; reason : string }

type policy = {
  max_attempts : int;  (** full-target re-plan attempts before degrading *)
  drop_order : int list;
      (** targets in the order they may be sacrificed in degraded mode;
          targets not listed are never dropped *)
  horizon_periods : int;  (** replay horizon for failure detection *)
}

(** [default_policy p]: 5 attempts, drop order = reversed target list
    (the highest-numbered target is sacrificed first), 12-period
    horizon. *)
val default_policy : Platform.t -> policy

(** [validate_policy p pol] is the check {!run} performs on entry: rejects
    [max_attempts < 1], [horizon_periods < 1] and [drop_order] ids outside
    the platform's node range, each with a descriptive message. *)
val validate_policy : Platform.t -> policy -> (unit, string) result

(** The planning function the controller drives — injectable so tests can
    exercise transient failures and deadline overruns. Defaults to
    {!Repair.plan}. *)
type planner =
  ?before:Schedule.t -> Platform.t -> Repair.damage -> (Repair.report, string) result

type outcome = {
  events : event list;  (** chronological *)
  final :
    [ `No_failure  (** the replay lost nothing; nothing to do *)
    | `Recovered of Repair.report  (** full target set restored *)
    | `Degraded of Repair.report * int list
      (** recovered after sacrificing the listed targets *)
    | `Fallback of Schedule.t
      (** every attempt failed; the last checkpointed schedule stands *) ];
  attempts_used : int;
  sim_time : Rat.t;  (** simulated clock when the controller stopped *)
  detection : Event_sim.fault_stats;
      (** the detection replay {!run} made on entry, {!detect}. A caller that keeps [sched] running after [`Fallback]
          reads its surviving rate here instead of replaying again. *)
}

(** [detect policy sched scenario] is the detection replay: [sched]
    against [scenario] over [max horizon_periods (Schedule.init_periods
    sched + 3)] periods ({!Event_sim.run_with_faults}). *)
val detect : policy -> Schedule.t -> Fault.scenario -> Event_sim.fault_stats

(** [run p sched scenario] drives the loop. The policy is validated on
    entry ({!validate_policy}) — an invalid one is a caller bug reported as
    [Error], not silent misbehavior. The scenario must validate against
    [p]; the initial schedule is the first checkpoint. Attempt 1 is an
    incremental patch of [sched]
    ({!Repair.plan_incremental} with [fallback:false]) and the injected
    [planner] is only consulted on escalation and in degraded mode. [now]
    (default [Unix.gettimeofday]) is the wall clock the per-attempt deadline
    is measured against, and the default planner threads it into
    {!Repair.plan} so every timing in the loop reads the same injected
    clock — tests (and the {!Soak} driver) inject a fake clock to make
    runs fully deterministic, e.g. to provoke deadline overruns without
    sleeping under a tight deadline.
    Every attempt's wall-clock cost lands in the [recovery.replan_seconds]
    histogram; with [?telemetry] it is also sampled into the
    [recovery.replan_seconds] time series at simulated time
    [sim_offset + clock] (PR 10) — {!Soak} passes its sink and the episode
    time so repair latency lines up with the driver's other series. Pure
    observation: the sink is never read back into a decision.

    [?detection] is a detection replay the caller already holds, the
    {!outcome.detection} of an earlier run on the same [sched] and
    scenario under the same policy; the loop then reads it instead of
    replaying again. {!Soak} passes it when a stale schedule is retried
    against unchanged damage. *)
val run :
  ?now:(unit -> float) ->
  ?policy:policy ->
  ?planner:planner ->
  ?telemetry:Timeseries.t ->
  ?sim_offset:float ->
  ?detection:Event_sim.fault_stats ->
  Platform.t ->
  Schedule.t ->
  Fault.scenario ->
  (outcome, string) result

(** Stable kebab-case name of an event's constructor, e.g.
    ["replan-attempt"] — used by tests asserting on event sequences and as
    the suffix of the controller's [recovery.*] trace instants (PR 4). *)
val event_name : event -> string

val pp_outcome : Format.formatter -> outcome -> unit
