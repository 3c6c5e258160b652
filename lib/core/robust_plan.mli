(** Proactive robust planning: prefer schedules that keep serving after a
    failure instead of only reacting to one.

    {!Repair.plan} (PR 1) is reactive: it re-plans once a failure has been
    observed, and until it finishes a single well-placed link kill can zero
    the delivered throughput of a single-tree plan. This module closes the
    gap {e before} the failure: it enumerates (or, above a size cutoff,
    samples) every single-link and single-node failure scenario, scores a
    candidate {!Schedule.t} by how much throughput keeps flowing in each,
    and searches for a weighted tree set whose {e worst-case} retention is
    maximal subject to a bounded nominal-throughput loss — the
    tree-packing view of the problem (cf. the Maximum Bounded Rooted-Tree
    Packing line of work): a set of trees with disjoint critical links
    degrades gracefully because the surviving trees still serve every
    target.

    Retention semantics match the simulator's completed-multicast
    accounting: under a failure, a tree of the running schedule still
    contributes its weight iff its surviving edges reach every {e surviving}
    target (a dead target no longer counts against the trees). The
    per-scenario reference is the Multicast-LB re-solved on the survivor
    (through the {!Solver_chain} fallback, see {!Formulations.multicast_lb})
    — it bounds what any planner could retain on that survivor, so the gap
    [lb - retained] is the price of not re-planning. *)

(** A failure scenario: one physical link (both directions when the
    platform has them), one non-source processor, or a caller-supplied
    {e correlated} outage — the end-state damage of a whole failure storm
    (burst, shared endpoint, subtree — see the generators in [Fault]),
    labeled for reports. *)
type failure =
  | Link of int * int  (** undirected: kills [u->v] and [v->u] when present *)
  | Node of int
  | Correlated of string * Repair.damage
      (** a named multi-entity outage, scored exactly like the single
          failures: a tree survives iff its surviving edges reach every
          surviving target *)

(** [single_failures p] enumerates every single-failure scenario of [p]:
    one per undirected link, one per active non-source node (excluding a
    node that is the only target — unrecoverable by construction). *)
val single_failures : Platform.t -> failure list

(** [damage_of_failure p f] is the failure in the recovery planner's
    vocabulary ({!Repair.apply_damage} consumes it). *)
val damage_of_failure : Platform.t -> failure -> Repair.damage

type scenario_score = {
  sc_failure : failure;
  sc_retention : float;
      (** surviving throughput of the fixed schedule / nominal throughput *)
  sc_survivor_lb : float option;
      (** Multicast-LB throughput on the survivor — the per-scenario
          reference; [None] when not requested or when the survivor is
          infeasible/unrecoverable *)
}

type score = {
  nominal : float;  (** steady-state throughput with no failure *)
  worst_case : float;  (** min over scenarios of [sc_retention]; 1 if none *)
  mean : float;  (** mean over scenarios of [sc_retention]; 1 if none *)
  scenario_scores : scenario_score list;
}

(** [score ?with_lb p sched ~failures] evaluates the fixed schedule
    against each failure: {!Repair.apply_damage} produces the survivor, and
    a tree of [sched] still counts iff its surviving edges reach every
    surviving target. [with_lb] (default [false] — one LP per scenario)
    additionally solves Multicast-LB on each survivor as the per-scenario
    reference, through {!Lp_cache} (survivors recur across candidates).
    Scenarios are scored on a {!Pool.default_jobs} domain pool; the result
    is bit-identical for every job count (see {!Pool.map}). *)
val score :
  ?with_lb:bool ->
  Platform.t ->
  Schedule.t ->
  failures:failure list ->
  score

(** A failure with its survivor platform already built. The survivor depends
    only on the platform and the failure — not on the candidate being scored
    — so callers scoring several candidates against the same failure list
    should {!prepare} once and reuse it; rebuilding survivors per candidate
    ({!Repair.apply_damage} copies the whole graph) dominates scoring cost
    otherwise. *)
type prepared_failure = {
  pf_failure : failure;
  pf_damage : Repair.damage;
  pf_survivor : (Platform.t, string) result;
}

(** [prepare ?jobs p failures] builds each failure's survivor, in input
    order, on a domain pool. *)
val prepare : ?jobs:int -> Platform.t -> failure list -> prepared_failure list

(** [score_prepared] is {!score} over an already-{!prepare}d failure list;
    [score p sched ~failures] is [score_prepared p sched
    ~prepared:(prepare p failures)]; [jobs] (default {!Pool.default_jobs})
    sets the pool's size. *)
val score_prepared :
  ?with_lb:bool ->
  ?jobs:int ->
  Platform.t ->
  Schedule.t ->
  prepared:prepared_failure list ->
  score

type candidate = {
  label : string;  (** how the candidate was constructed *)
  set : Tree_set.t;
  schedule : Schedule.t;  (** passes {!Schedule.check} *)
  cand_score : score;
}

type report = {
  nominal_plan : candidate;  (** the plain MCPH baseline *)
  chosen : candidate;
      (** maximal worst-case retention among candidates whose nominal
          throughput is at least [(1 - loss_bound) * best nominal];
          ties broken by mean retention, then nominal throughput *)
  pareto : candidate list;
      (** candidates not dominated in (nominal, worst_case), best nominal
          first — the explicit robustness/throughput trade-off *)
  critical_edges : (int * int) list;
      (** links whose single failure realizes the nominal plan's worst-case
          retention — the links the perturbations reweight *)
  failures : failure list;  (** the evaluated scenario set *)
  total_failures : int;  (** before sampling *)
  sampled : bool;  (** true when the scenario set was capped *)
  loss_bound : float;
}

(** [plan p] builds the robust plan. Candidate tree sets perturb the MCPH
    construction two ways: {e edge-penalty reweighting} (re-run MCPH with
    the critical links' costs inflated by 4 and by 16, yielding trees that
    avoid them) and {e redundant sibling subtrees} (re-attach the child of
    a critical tree edge to an alternative in-tree parent, yielding
    single-edge variants); the
    candidates are the trees alone, optimal ({!Tree_set.best_weights}) and
    balanced pairings with the baseline, and the optimally weighted full
    portfolio. Scenario sets larger than [max_scenarios] (default [64]) are
    sampled with the seeded rng and reported as such ([sampled]).
    [with_lb] re-scores the nominal and chosen candidates with per-scenario
    Multicast-LB references. [extra_failures] (default none) appends
    caller-supplied scenarios — typically {!failure.Correlated} storms — to
    the evaluated set; they are never sampled away ([total_failures] counts
    them, the cap applies to the enumeration only). [jobs] (default
    {!Pool.default_jobs}) runs the perturbation searches and scenario
    scoring on a domain pool; reports are bit-identical across job counts.
    Errors when [loss_bound] is negative or NaN (no candidate would be
    eligible) and when MCPH itself fails (some target unreachable). *)
val plan :
  ?loss_bound:float ->
  ?max_scenarios:int ->
  ?seed:int ->
  ?with_lb:bool ->
  ?extra_failures:failure list ->
  ?jobs:int ->
  Platform.t ->
  (report, string) result

(** [describe_failure p f] is a human-readable label using the platform's
    node labels, e.g. ["link wan0<->wan1"] — also the [failure] span
    argument in traces (PR 4). *)
val describe_failure : Platform.t -> failure -> string

(** Multi-line report: scenario counts, per-candidate score lines for the
    nominal and chosen plans, critical-link count, and the Pareto front. *)
val pp_report : Format.formatter -> report -> unit
