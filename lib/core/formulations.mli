(** The paper's linear programs (§5), in steady-state throughput form.

    The paper states its LPs as completion-time minimizations for a unit
    divisible message; we build the equivalent throughput maximizations
    (maximize ρ subject to port occupations at most one time unit), which
    makes the origin feasible and so keeps phase 1 of the simplex trivial.
    Periods are reported as [1/ρ], matching the paper's numbers.

    - [Multicast-UB] (pessimistic): the per-edge occupation counts the flows
      of the different targets separately, [n_jk = Σ_i x_i^jk] — a scatter.
      Its optimum {e is} achievable by a schedule, so it is an upper bound
      on the optimal period (lower bound on throughput).
    - [Multicast-LB] (optimistic): flows to different targets sharing an
      edge are assumed to be sub-messages of the largest, [n_jk = max_i
      x_i^jk]. Its optimum is a lower bound on the optimal period.
    - [Broadcast-EB]: [Multicast-LB] with every node a target; by the
      companion broadcast paper this bound is achievable, which is what the
      broadcast-based heuristics exploit.
    - [MulticastMultiSource-UB]: scatter-style multicast with an ordered set
      of intermediate sources, each of which must first receive the whole
      message from earlier sources (§5.2.3). Each destination's per-source
      commodities are aggregated into one multi-origin commodity — exact
      for the LP value (flows decompose per origin; occupations are sums)
      while shrinking the program by a factor of the source count. *)

type solution = {
  throughput : float; (** ρ: multicasts initiated per time unit *)
  period : float; (** 1/ρ *)
  node_inflow : float array;
      (** [Σ_i Σ_{j ∈ N_in(m)} x_i^{j,m}] — the node-contribution measure
          the refined heuristics sort on *)
  edge_usage : ((int * int) * float) list;
      (** per-edge occupation measure [n_jk] (messages per time unit) *)
  commodity_flows : ((int * int) * ((int * int) * float) list) list;
      (** per (origin, destination): the flow [x] on each edge, for path
          decomposition and schedule reconstruction *)
}

(** [period_of s] is [s]'s period, and [infinity] for an infeasible
    program ([None]). *)
val period_of : solution option -> float

(** [multicast_ub p] solves Multicast-UB. [None] when some target is
    unreachable (ρ = 0). *)
val multicast_ub : Platform.t -> solution option

(** [multicast_lb p] solves Multicast-LB by Benders-style cut generation:
    the working LP keeps one occupation variable per edge plus the port
    rows, and violated source→target minimum-cut rows (separated with a
    max-flow oracle, both cut sides per violation) are pooled in until none
    remains — equivalent to the paper's per-commodity formulation by
    max-flow/min-cut, and verified against the exact rational simplex on
    the full formulation in the test suite. The reported optimum carries an
    absolute slack of at most 3e-6 on ρ (the separation tolerance, which
    must dominate the anti-degeneracy rhs perturbation). *)
val multicast_lb : Platform.t -> solution option

(** A Multicast-LB row, by what it constrains on the platform: the send
    port of node [j] ([Out j]), its receive port ([In j]), or a
    source→target cut, given by the endpoints of its crossing edges as
    sorted pairs flattened into [u0 v0 u1 v1 ...]. *)
type lb_row = Out of int | In of int | Cut of int array

(** A Multicast-LB column: the throughput ρ, the occupation of edge
    [(u, v)], or the slack of a row. *)
type lb_col = Rho | Occ of int * int | Slack of lb_row

(** A simplex basis of one Multicast-LB solve, for a related one: the
    basic columns in header order, and every row of the model it came
    from (so a receiving model can tell its new rows from merely
    non-binding ones). Keyed by what its columns and rows are on the
    platform rather than by position, it ports from a nominal platform
    to its survivors and from one epoch to the next. *)
type warm_basis = { basic : lb_col array; rows : lb_row array }

(** [multicast_lb_warm ?warm ?chain ?send_cap ?recv_cap p] is
    {!multicast_lb} returning the optimal basis of the final cut-loop LP
    (when the revised engine produced it), and optionally seeded with a
    basis from a related solve. [chain] (default [true]) controls
    round-to-round basis reuse inside the cut loop; [~chain:false] solves
    every round cold — the ablation baseline of the bench's warm-vs-cold
    leg. Warm starts never change the result, only the pivot count.

    {b Capacity sharing} (the online session engine, {!Horizon}): the
    one-port rows default to the paper's full time unit per port, but
    [send_cap]/[recv_cap] (one entry per node, clamped below at [0])
    replace the right-hand sides with {e residual} capacities — one time
    unit minus what co-scheduled sessions already occupy on that port.
    The optimum is then the best throughput a {e single} session can
    extract from the platform's leftover capacity. Only the rhs changes:
    variables, rows and coefficients are those of the
    full-capacity model, so one session's basis warm-starts its own
    re-solve at the next epoch even though every residual moved — a
    pure-rhs re-solve is the dual simplex's best case. Raises
    [Invalid_argument] when a capacity array's length is not the node
    count. *)
val multicast_lb_warm :
  ?warm:warm_basis ->
  ?chain:bool ->
  ?send_cap:float array ->
  ?recv_cap:float array ->
  Platform.t ->
  (solution * warm_basis option) option

(** [broadcast_eb p] is [multicast_lb] on the broadcast version of [p]
    (every non-source node a target). *)
val broadcast_eb : Platform.t -> solution option

(** [multicast_lb_stats ?two_sided p] is {!multicast_lb} with the number of
    cut-generation rounds used, and a knob disabling the sink-side cuts —
    the ablation of the bench's [ablation_cuts] section. Default
    [two_sided] is [true], as used by {!multicast_lb}. *)
val multicast_lb_stats :
  ?two_sided:bool -> Platform.t -> (solution * int) option

(** [multisource_ub p ~sources] solves MulticastMultiSource-UB for the
    ordered intermediate source list [sources] (which must start with the
    platform source). Raises [Invalid_argument] on a malformed source list;
    [None] when a destination is unreachable. *)
val multisource_ub : Platform.t -> sources:int list -> solution option

(** [path_master ?sources p] is the column-generation master of
    Multicast-UB, or with [sources] of MulticastMultiSource-UB (validated
    as {!multisource_ub} does): one value row per destination group,
    ρ − (its path weights) ≤ 0, then each node's out- and in-port; the ρ
    column ([None]) first, then paths ([Some (group, nodes)]). [None] when
    a destination is unreachable. Exposed so tests can re-solve it cold. *)
val path_master : ?sources:int list -> Platform.t -> (int * int list) option Colgen.master option

(** [multicast_ub_colgen ?sources p] solves {!path_master} (which
    {!multicast_ub} and {!multisource_ub} use above an instance size) and
    reassembles each group's flow from its path weights, scaled to carry
    exactly ρ. Exposed for cross-validation in the test suite. *)
val multicast_ub_colgen : ?sources:int list -> Platform.t -> solution option
