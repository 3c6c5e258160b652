(** Domain-based work pool with deterministic result ordering.

    [map f xs] applies [f] to every element of [xs] on up to [jobs] OCaml 5
    domains and returns the results {e in input order}, regardless of which
    domain ran which task or in what order tasks finished. Tasks are handed
    out dynamically (shared atomic index), so uneven task costs balance
    across workers.

    Determinism contract: as long as [f] itself is deterministic and free of
    shared mutable state, [map ~jobs:n f xs] returns the same value for
    every [n], including [n = 1] which runs sequentially on the calling
    domain with no domain spawned at all. The planner and benches rely on
    this to make [--jobs 4] bit-identical to [--jobs 1].

    Exceptions: a task that raises does not kill the pool; remaining tasks
    still run. [map] re-raises the exception of the {e lowest-indexed}
    failing task (again independent of scheduling), [map_result] returns
    every outcome.

    Pools must not nest: calling [map ~jobs:n>1] from inside a task would
    oversubscribe domains. Callers parallelize at one level only.

    Worker count is capped at [Domain.recommended_domain_count ()] unless
    [~oversubscribe:true]: OCaml 5 minor collections synchronize every
    running domain, so CPU-bound domains beyond the core count make the
    whole pool {e slower}, not faster (on a single-core machine, measurably
    ~4x). [--jobs 8] on a 4-core box therefore runs 4 workers; the request
    is a ceiling, not a demand. [oversubscribe] exists for tests that must
    exercise the multi-domain machinery regardless of the machine.

    Observability (PR 4): each executed task runs inside a [pool.task]
    trace span carrying the task index, the worker number, and (as the
    span's [tid]) the OCaml domain that ran it — a [--trace] of a
    [--jobs N] run therefore shows the pool's parallel utilization
    directly. Task and map totals accumulate under the [pool.tasks] and
    [pool.maps] metrics. Since PR 5 every task's wall time is also
    observed into the [pool.task_seconds] histogram (per-task skew) and
    each map sets the [pool.utilization] gauge to its busy fraction
    ([busy_seconds / (jobs * wall_seconds)]), so scheduling imbalance is
    visible from a [--metrics] snapshot without recording a trace.
    Tracing observes, never steers: the determinism contract above holds
    with tracing on or off. *)

type stats = {
  jobs : int;  (** worker count actually used *)
  tasks : int;  (** total tasks executed *)
  per_worker : int array;
      (** tasks executed by each worker, length [jobs]; worker 0 is the
          calling domain. Utilization = how evenly these balance. *)
  wall_seconds : float;  (** wall-clock of the whole map *)
  busy_seconds : float;
      (** summed task wall times across workers; utilization =
          [busy_seconds / (jobs * wall_seconds)] *)
}

(** Default worker count: the [MCAST_JOBS] environment variable if set to a
    positive integer, else 1. CLI [--jobs] flags default to this. *)
val default_jobs : unit -> int

(** [map ?jobs f xs] — results in input order; re-raises the first (by
    input index) task exception after all tasks have settled. [jobs]
    defaults to {!default_jobs}; values [<= 1] run sequentially;
    values above the core count are capped unless [~oversubscribe:true]. *)
val map : ?oversubscribe:bool -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** [worker_tasks ()] is, for each worker number, the tasks it has run
    over every map since the program started ([0] is the calling
    domain). The difference of two readings shows which workers a
    stretch of work used, across maps the caller does not see. *)
val worker_tasks : unit -> int array

(** Like {!map} but each task's outcome is captured as a [result]. *)
val map_result :
  ?oversubscribe:bool -> ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list

(** Like {!map}, also returning scheduling statistics. *)
val map_stats :
  ?oversubscribe:bool -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list * stats
