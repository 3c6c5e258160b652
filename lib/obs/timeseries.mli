(** Fixed-capacity time series with decaying resolution (PR 10
    observability layer).

    The metrics registry ({!Metrics}) answers "how much, in total" —
    counters and end-of-run gauges. It cannot answer "what did the
    system look like {e over time}": a 10k-epoch soak that dips to 60%
    availability for 200 epochs and recovers reports the same final
    gauge as one that never dipped. A {!t} is a sink of named series
    sampled by the long-running drivers ({!Horizon} per epoch, {!Soak}
    per accrual step, {!Recovery_loop} per repair attempt) on the
    {e simulated} clock, so the whole history ships in the artifact.

    {b Bounded memory, no data loss.} Each series is a ring of at most
    [capacity] buckets. While there is room, every sample is its own
    bucket (full resolution). When the ring fills, adjacent buckets are
    merged pairwise — halving the bucket count and doubling each
    bucket's time span — and sampling continues at full resolution on
    top. A long soak therefore decays smoothly into coarser buckets
    instead of dropping its oldest half: recent history is sharp, old
    history is summarized, and the rollup stays {e exact} because it is
    maintained independently of the ring.

    {b Determinism.} Sample times come from the caller (simulated time
    as a float, derived from exact rationals), never from a wall
    clock; sampling writes into the sink and nothing reads it back
    into a computation, so enabling series collection cannot perturb
    planner decisions — the same argument as {!Trace} and {!Metrics},
    and the property the [sessions] digest-invariance test pins down.

    {b Domain safety.} The sink is mutex-protected; the drivers sample
    from their sequential epoch loops, but pool workers may too. *)

(** One retained bucket: an aggregate of [b_count] consecutive samples
    spanning [\[b_t0, b_t1\]] (equal for a single-sample bucket). *)
type bucket = {
  b_t0 : float;  (** time of the earliest sample merged into this bucket *)
  b_t1 : float;  (** time of the latest *)
  b_count : int;
  b_sum : float;
  b_min : float;
  b_max : float;
  b_last : float;  (** value of the latest sample *)
}

(** Exact whole-series aggregate, independent of ring decay. *)
type rollup = {
  r_count : int;
  r_sum : float;
  r_min : float;
  r_max : float;
  r_last : float;
  r_last_time : float;
}

type t

(** [create ?capacity ?slo ()] makes an empty sink. [capacity] (default
    [512], clamped to at least [4]) bounds the buckets retained per
    series. The [slo] objectives (default none) are evaluated over every
    sample the sink receives, so a driver that samples into a sink gets
    SLO evaluation without knowing about it. *)
val create : ?capacity:int -> ?slo:Slo.objective list -> unit -> t

(** [sample t name ~time v] appends one observation, then feeds it to the
    sink's SLO objectives. Series are created on first use; times should
    be non-decreasing per series (out-of-order samples are accepted but
    land in the current bucket ordering). *)
val sample : t -> string -> time:float -> float -> unit

(** Breach and recovery events the sink's objectives have emitted so
    far, oldest first; empty without objectives. *)
val slo_events : t -> Slo.event list

(** The sink's objectives whose series has no sample, in [create]
    order. Such an objective was never evaluated: a run that reports on
    it passes no matter what happened, so callers treat it as an error
    (a misspelled series name, or a series this driver never samples). *)
val unsampled : t -> Slo.objective list

(** Registered series names, sorted. *)
val names : t -> string list

(** Retained buckets, oldest first. Empty for an unknown series. *)
val buckets : t -> string -> bucket list

(** Exact whole-series rollup; [None] for an unknown series. *)
val rollup : t -> string -> rollup option

(** Mean of a rollup ([0.] when empty). *)
val mean : rollup -> float

(** [window t name ~t0 ~t1] aggregates the retained buckets overlapping
    [\[t0, t1\]] (windowed aggregation over the decayed ring — resolution
    is bucket-level, so a bucket straddling the boundary counts whole).
    [None] when nothing overlaps. [r_last_time] is the last overlapping
    bucket's [b_t1]. *)
val window : t -> string -> t0:float -> t1:float -> rollup option

(** How many pairwise-merge passes this series has survived — each pass
    roughly doubles the time span per bucket. [0] for unknown series. *)
val compactions : t -> string -> int

(** JSON object keyed by series name:
    [{"<name>": {"count":..,"sum":..,"min":..,"max":..,"mean":..,
    "last":..,"compactions":..,"points":[{"t0":..,"t1":..,"count":..,
    "sum":..,"min":..,"max":..,"last":..},..]},..}], series in name
    order. Printed by {!Json.to_string}: one series per line. *)
val to_json : t -> Json.t

(** OpenMetrics text exposition: per series a [# TYPE <name> gauge]
    header then one [<name> <mean> <t1>] sample line per retained
    bucket (timestamps in seconds of simulated time), terminated by the
    mandatory [# EOF]. Series names are sanitized to the OpenMetrics
    charset (dots become underscores). *)
val to_openmetrics : t -> string

(** Per-series [(name, (time, value) points)] for Perfetto counter
    tracks — the shape {!Trace.to_chrome_json} accepts as ["C"]-phase
    events so series render alongside spans. Point values are bucket
    means; times are bucket end times. *)
val counter_tracks : t -> (string * (float * float) list) list
