(** Declarative service-level objectives with multi-window error-budget
    burn rates (PR 10 observability layer).

    An {!objective} watches one {!Timeseries} series name — e.g.
    [session.retention >= 0.95] or [soak.availability >= 0.99] — and
    classifies each sample as {e good} or {e bad} against the
    threshold. The SRE framing: the objective grants an {e error
    budget} [o_budget] (the allowed bad fraction of samples), and the
    {e burn rate} over a window is [bad-fraction / budget] — burn [1.0]
    spends the budget exactly at the sustainable rate, burn [2.0]
    exhausts it twice as fast.

    {b Multi-window alerting.} A breach fires only when {e both} a
    short window burns at [>= o_fast_burn] {e and} a long window burns
    at [>= o_slow_burn]: the fast window gives low detection latency,
    the slow window suppresses one-sample blips (the standard
    fast-burn/slow-burn alert pair). Recovery is hysteresis-gated: the
    objective must hold both windows below their trigger burns for
    [o_hold_down] time units of samples before a [Recovery] event is
    emitted, so a flapping series does not emit a breach/recovery pair
    per flap.

    {b Determinism.} The engine consumes sample times from the caller
    (simulated time), holds plain state, and emits events — nothing
    here reads a wall clock, so a seeded run replays bit-identically.
    Feeding a burn signal {e back} into a planner (as {!Horizon}'s
    enforcement mode does) is the caller's decision; the engine itself
    is pure bookkeeping.

    Metrics: [slo.breaches] / [slo.recoveries] count emitted events,
    [slo.breach_epochs] counts samples observed while some objective
    was in breach, and the [slo.max_burn_rate] gauge tracks the worst
    fast-window burn seen — all gated by the bench regression rules. *)

type direction =
  | At_least  (** a sample is bad when [value < threshold] *)
  | At_most  (** a sample is bad when [value > threshold] *)

type objective = {
  o_name : string;  (** display name, defaults to the spec string *)
  o_series : string;  (** the {!Timeseries} series this objective watches *)
  o_dir : direction;
  o_threshold : float;
  o_budget : float;  (** allowed bad-sample fraction (error budget), in (0, 1] *)
  o_fast_window : float;  (** short window length, simulated-time units *)
  o_slow_window : float;  (** long window length (clamped to [>= o_fast_window]) *)
  o_fast_burn : float;  (** burn multiplier the fast window must reach to breach *)
  o_slow_burn : float;  (** burn multiplier the slow window must reach to breach *)
  o_hold_down : float;  (** recovery hysteresis, simulated-time units *)
}

(** Build an objective. Defaults: [budget] is [1 - threshold] clamped
    into [\[0.001, 0.5\]] for [At_least] objectives with a threshold in
    (0, 1) — the natural reading of "availability >= 0.99 grants a 1%
    budget" — and [0.05] otherwise; [fast_window 10.], [slow_window
    50.], [fast_burn 2.], [slow_burn 1.], [hold_down 10.]. *)
val objective :
  ?name:string ->
  ?budget:float ->
  ?fast_window:float ->
  ?slow_window:float ->
  ?fast_burn:float ->
  ?slow_burn:float ->
  ?hold_down:float ->
  series:string ->
  direction ->
  float ->
  objective

(** Parse a CLI spec: [series>=0.95] or [series<=2.5], optionally
    followed by comma-separated tuning keys —
    [soak.availability>=0.99,fast=20,slow=100,fastburn=3,slowburn=1,budget=0.01,hold=25].
    Unknown keys, malformed numbers and non-finite ones ([nan], [inf])
    are errors. *)
val parse : string -> (objective, string) result

(** Canonical one-line description ([series>=0.95] form). *)
val spec : objective -> string

type event = {
  e_kind : [ `Breach | `Recovery ];
  e_at : float;  (** sample time that triggered the transition *)
  e_objective : string;  (** [o_name] *)
  e_fast_burn : float;  (** fast-window burn rate at the transition *)
  e_slow_burn : float;
}

type engine

val engine : objective list -> engine

(** [observe e ~time series v] feeds one sample to every objective
    watching [series] and returns the events (breaches/recoveries) this
    sample triggered, oldest first. Samples for unwatched series return
    []. Times should be non-decreasing. *)
val observe : engine -> time:float -> string -> float -> event list

(** Current (fast, slow) burn rates of the named objective; [None] for
    an unknown objective or before any sample. *)
val burn : engine -> string -> (float * float) option

(** Is the named objective currently breached? *)
val in_breach : engine -> string -> bool

(** All events emitted so far, oldest first. *)
val events : engine -> event list

(** Total samples observed while the observed objective was in breach
    (summed over objectives) — the quantity behind the
    [slo.breach_epochs] regression rule. *)
val breach_epochs : engine -> int
