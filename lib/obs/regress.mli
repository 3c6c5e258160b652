(** Metrics-snapshot regression gate (PR 5 analysis layer).

    Compares two metrics snapshots — a committed baseline and the
    current run — per metric, with a direction and a relative tolerance
    per rule: pivot and solve counts must not {e grow} by more than the
    tolerance, the LP-cache hit rate must not {e fall}, wall-time sums
    get their own (far more generous) tolerance. This is the gate behind
    [bench --check-against bench/baseline.json] and the CI
    regression-gate job: a perf PR that doubles [lp.pivots.float] on the
    P1 workload fails the build instead of landing silently.

    {b Snapshot sources.} A snapshot is a flat [name -> float] list.
    {!load} reads one from disk, accepting both file shapes the repo
    produces: the bare metrics-registry object ([bench_out/BENCH_5.json],
    written by {!Metrics.to_json}) and the [mcast profile --json] output
    (whose metrics live under a top-level ["metrics"] key). Histogram
    objects flatten to [name.count] / [name.sum] / [name.min] /
    [name.max] / [name.p50] / [name.p90] / [name.p99]; non-numeric
    values are ignored. {!flatten_snapshot} does
    the same for an in-process {!Metrics.snapshot}, so the bench can
    gate its own live registry against a file.

    {b Derived metrics.} Before comparing, both sides gain
    [derived.lp_cache.hit_rate] (total hits over total lookups across
    all [lp_cache.{hits,misses}.*] callers) when any lookups happened —
    the rate is what must not fall; raw hit counts scale with the
    workload and are not individually gated.

    {b Baseline discipline.} Tolerances are relative, so a baseline is
    only meaningful against the {e same workload} (same bench sections,
    same seeds, same [--fast] setting). Refresh it by rerunning the
    gate command and committing the fresh [BENCH_5.json] (see
    README, "Profiling and the regression gate"). *)

(** Which direction of change is a regression. *)
type direction =
  | Not_above  (** growing past tolerance regresses (costs: pivots, solves, seconds) *)
  | Not_below  (** falling past tolerance regresses (qualities: cache hit rate) *)

(** One gate rule, matched by metric-name prefix; the first matching
    rule in the list wins. [r_tol] is the allowed relative change in the
    bad direction ([0.25] = 25%). *)
type rule = { r_prefix : string; r_dir : direction; r_tol : float }

(** The standard gate: [lp.pivots*], [lp.solves*],
    [formulations.lb_cut_rounds.sum], [solver_chain.fallbacks] (every
    revised-to-exact LP retry) and [repair.fallback] (incremental
    patches escalating to full re-plans) must not grow more than
    [tolerance] (default [0.25]);
    [heuristics.method_seconds.sum], [pool.task_seconds.sum] and
    [recovery.replan_seconds.sum] must not grow more than
    [time_tolerance] (default [max 1.0 (4 * tolerance)] — wall time is
    machine-dependent, so the time gate only catches blowups);
    [derived.lp_cache.hit_rate] must not fall more than [tolerance], and
    neither may [repair.patched] (a collapsed patch count means the
    incremental planner stopped patching and every repair pays the full
    re-plan price). The soak gate (PR 7): [soak.availability] and
    [soak.delivered_fraction] must not fall, [soak.full_replans] and
    [recovery.replans_per_hour] must not grow — the gauges are
    last-write-wins, so they reflect the damped controller leg the bench
    runs last, and a controller change that re-plans more or serves less
    on the R4 soak workload fails the gate. The session gate (S1):
    [session.admitted] must not fall and [session.replan_seconds.sum]
    must not grow more than [time_tolerance] — together they catch a
    {!Horizon} change that stops admitting or stops skipping
    unnecessary re-plans. The SLO/tail gate (PR 10):
    [session.replan_seconds.p99] and [recovery.replan_seconds.p99]
    must not grow more than [time_tolerance] (a flat sum no longer
    hides a fatter tail), [slo.breach_epochs] must not grow, and
    [session.delivered_fraction.min] (the S1 SLO leg's worst
    per-session delivered fraction, last-write-wins from the
    enforcement leg) must not fall. *)
val default_rules : ?tolerance:float -> ?time_tolerance:float -> unit -> rule list

type status =
  | Passed
  | Regressed
  | Missing  (** the baseline has the metric, the current run doesn't *)

type finding = {
  f_name : string;
  f_before : float;
  f_after : float option;  (** [None] when missing from the current run *)
  f_change : float;  (** relative change, signed; [0.] when equal or missing *)
  f_rule : rule;
  f_status : status;
}

type report = {
  rep_findings : finding list;  (** rule-matched metrics, sorted by name *)
  rep_unmatched : int;  (** metrics no rule covers (informational) *)
  rep_new : string list;  (** rule-matched names present only in the current run *)
}

(** Flatten a live registry snapshot into gate input. *)
val flatten_snapshot : Metrics.snapshot -> (string * float) list

(** Load a snapshot file (see above for accepted shapes). [Error] carries
    a parse or IO message. *)
val load : string -> ((string * float) list, string) result

(** [compare_snapshots ~rules ~before after] applies the gate. Metrics
    matched by a rule and present in [before] produce a finding; a
    rule-matched metric that disappeared is a [Missing] finding (it
    counts as a failure — a silently vanished counter usually means the
    instrumented path stopped running). *)
val compare_snapshots :
  rules:rule list -> before:(string * float) list -> (string * float) list -> report

val passed : report -> bool

(** Human-readable report: one line per finding ([ok]/[REGRESSED]/
    [MISSING] with before/after/limit), then a pass/fail summary. *)
val to_text : report -> string
