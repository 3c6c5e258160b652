(** Recovery planning after platform failures.

    The paper's steady-state machinery assumes a static platform. The
    resilience subsystem relaxes that: a {!damage} record describes which
    links and nodes died (and which links degraded) by the time re-planning
    starts; {!plan} removes them from the platform, re-runs the tree-set
    construction on the surviving graph and builds a fresh periodic
    {!Schedule.t}, reporting what the failure cost.

    Recovery cost has two components, both reported: the {e re-plan time}
    (wall-clock spent constructing the new schedule) and the {e pipeline
    re-fill} ({!Schedule.init_periods} of the new schedule — periods before
    the first post-repair message reaches the deepest target). The
    steady-state loss is [throughput_before - throughput_after]; the LP
    lower bound re-solved on the survivor ([lb_after]) says how much of the
    drop is intrinsic to the degraded platform rather than to the planner. *)

(** A damage state, always in canonical form: both dead sets sorted
    without duplicates, and [degraded] holding one entry per edge, sorted by
    edge, whose factor is the edge's {e net} factor (the product of every
    factor stated for it) and never exactly one. Only {!damage} builds the
    record, so two states are the same damage exactly when {!compare_damage}
    says so, and a state can be used directly as a map key. *)
type damage = private {
  dead_edges : (int * int) list;  (** directed edges that no longer exist *)
  dead_nodes : int list;  (** failed processors (never the source) *)
  degraded : ((int * int) * Rat.t) list;
      (** surviving edges whose cost is multiplied by the factor ([>= 1]) *)
}

(** [damage ?dead_edges ?dead_nodes ?degraded ()] is the canonical form of
    the stated damage: duplicates and order in the dead sets do not matter,
    factors stated for the same edge multiply, and an edge whose factors
    multiply to one is not degraded. Each list defaults to empty. *)
val damage :
  ?dead_edges:(int * int) list ->
  ?dead_nodes:int list ->
  ?degraded:((int * int) * Rat.t) list ->
  unit ->
  damage

val no_damage : damage

(** A total order on damage states: dead edges, then dead nodes, then the
    net factors ({!Rat.compare}), each compared lexicographically. *)
val compare_damage : damage -> damage -> int

(** [damage_equal a b] is [compare_damage a b = 0]: the same dead sets and
    the same net factor per edge. The soak controller and the session
    engine use it to detect whether an epoch changed the effective damage
    before spending any re-planning work. *)
val damage_equal : damage -> damage -> bool

(** [apply_damage p damage] is the surviving platform: dead edges removed,
    degraded edge costs scaled, dead nodes (and their targets) restricted
    away. Node ids are stable. Errors on: killing the source, killing every
    target, damaging edges the platform does not have, or net factors
    [< 1]. *)
val apply_damage : Platform.t -> damage -> (Platform.t, string) result

(** [survivor p damage] is {!apply_damage} followed by the reachability
    check {!plan} and {!plan_incremental} make first: it errors when a
    surviving target is unreachable from the source, so [Ok s] means the
    source still reaches every target of [s]. *)
val survivor : Platform.t -> damage -> (Platform.t, string) result

type repair_method =
  [ `Full_replan  (** {!plan}: MCPH re-run on the whole survivor *)
  | `Patched  (** {!plan_incremental}: only the severed subtrees were re-attached *)
  | `Fell_back of string
    (** {!plan_incremental} abandoned the patch for the stated reason and the
        report comes from a full re-plan *) ]

type report = {
  survivor : Platform.t;
  schedule : Schedule.t;  (** passes {!Schedule.check}; simulator-verified upstream *)
  baseline : [ `Given | `Fresh_mcph ];
      (** where [throughput_before] comes from: [`Given] when the caller
          passed [?before] (the schedule that was actually running),
          [`Fresh_mcph] when it was re-derived by running MCPH on the
          {e undamaged} platform. The two baselines can differ: a caller may
          have been running a schedule better (or worse) than MCPH, so
          retention numbers are only comparable within one baseline kind. *)
  repair_method : repair_method;  (** how this schedule was produced *)
  throughput_before : float;
      (** steady-state throughput of the pre-failure schedule *)
  throughput_after : float;
  retention : float;  (** [throughput_after / throughput_before] *)
  lb_after : float option;
      (** Multicast-LB throughput on the survivor ([None] if infeasible) *)
  replan_seconds : float;
  refill_periods : int;  (** pipeline depth of the repaired schedule *)
  lost_targets : int list;  (** targets that died with their node *)
}

(** [plan ?now ?before p damage] re-plans on the surviving platform.
    [before] is the schedule that was running (its throughput is the
    baseline and the report is tagged [baseline = `Given]); when absent the
    baseline is a fresh MCPH plan on the undamaged platform
    ([baseline = `Fresh_mcph]) — an explicit choice, not a silent default:
    see {!report.baseline}. [now] (default [Unix.gettimeofday]) is the clock
    behind [replan_seconds]; tests inject a fake one so timing assertions
    are deterministic. [lb_after] is solved through {!Lp_cache}. Errors when
    the survivor cannot serve the remaining targets. *)
val plan :
  ?now:(unit -> float) ->
  ?before:Schedule.t ->
  Platform.t ->
  damage ->
  (report, string) result

(** [plan_incremental ~before p damage] repairs the {e running} schedule in
    time proportional to the damage instead of the platform. The surviving
    part of every tree of [before] is retained verbatim; each subtree the
    damage severed is re-attached through one bottleneck-path search under
    MCPH's residual re-metric (committed edges free, senders' other
    out-edges carrying their committed load — Fig. 9 lines 11-13 replayed
    over the survivors); fragments serving only dead targets are dropped.
    The patched set keeps the schedule's relative tree weights, rescaled so
    the worst port occupation is exactly one — no LP solve, so [lb_after] is
    [None] and [replan_seconds] covers patching plus schedule construction,
    the same span {!plan}'s timer covers (MCPH plus schedule construction).

    The result is tagged [`Patched] on success. When the patch cannot be
    built, fails {!Schedule.check}, or retains less than [retention_floor]
    (a fraction of [before]'s throughput, default [0.0]), the planner falls
    back to a full {!plan} and tags the report [`Fell_back reason] — unless
    [fallback] is [false], in which case the reason is returned as [Error]
    so callers (the recovery loop's escalation ladder) can schedule the full
    re-plan themselves. Errors that make the damage unrecoverable
    (source/all-targets dead, unreachable survivor) are [Error]s regardless
    of [fallback], exactly as in {!plan}. *)
val plan_incremental :
  ?now:(unit -> float) ->
  ?retention_floor:float ->
  ?fallback:bool ->
  before:Schedule.t ->
  Platform.t ->
  damage ->
  (report, string) result

(** One-line report: repair method, throughput before/after, retention, LB
    reference, re-plan time, re-fill depth, lost targets. *)
val pp_report : Format.formatter -> report -> unit
