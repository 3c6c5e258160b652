(** Aggregate analysis over a recorded {!Trace} buffer (PR 5 analysis
    layer).

    PR 4 records raw span events; this module answers the questions a
    profile exists for: {e where does the wall-clock go} (per-span-name
    self time), {e how busy were the pool domains} (per-domain busy
    fraction and idle gaps), and {e what chain of work bounded the run}
    (the critical-path descent). It is pure post-processing: it reads an
    event list and never touches the live ring buffer except through
    {!Trace.events}, so computing a profile cannot perturb the run it
    describes.

    {b Self time.} A span's {e total} (inclusive) time counts everything
    that happened while it was open; its {e self} (exclusive) time
    subtracts the durations of its direct children. Self times are the
    quantity that partitions the run: within one domain, the self times
    of all spans sum to the domain's busy time (the union of its root
    spans), which is what the [mcast --profile] sum check relies on.

    {b Tree reconstruction.} The ring buffer stores completed intervals,
    not an explicit tree, and completion order is innermost-first. The
    tree is rebuilt per domain ([ev_tid]) from interval nesting: spans
    are sorted by start time (ties: longer first) and pushed through a
    stack, so span B is a child of span A iff they ran on the same
    domain and B's interval lies inside A's. Spans whose parent was
    overwritten by ring overflow simply surface as roots — the profile
    degrades gracefully on truncated buffers (and says so via
    [p_dropped]). *)

(** One node of a reconstructed span tree. *)
type node = {
  n_event : Trace.event;
  n_children : node list;  (** direct children, in start order *)
  n_self : float;  (** duration minus direct children's durations, >= 0 *)
}

(** [forests events] rebuilds the span trees: one forest per domain id,
    roots in start order. Instants (no duration) are ignored. *)
val forests : Trace.event list -> (int * node list) list

(** Per-(name, category) aggregate over every span of that name. *)
type name_stat = {
  ns_name : string;
  ns_cat : string;
  ns_count : int;
  ns_total : float;  (** summed inclusive durations, seconds *)
  ns_self : float;  (** summed self times, seconds *)
  ns_min : float;  (** min inclusive duration *)
  ns_max : float;  (** max inclusive duration *)
}

(** Per-domain utilization. Busy time is the sum of {e root} span
    durations (nested spans don't double-count); gaps are measured
    between consecutive root spans and against the run's global start
    and end, so a worker that finished early shows a large trailing
    gap. *)
type domain_stat = {
  ds_tid : int;
  ds_spans : int;  (** spans recorded by this domain, all depths *)
  ds_busy : float;  (** seconds inside root spans *)
  ds_busy_fraction : float;  (** [ds_busy] / profile wall-clock *)
  ds_max_gap : float;  (** largest idle gap, seconds *)
}

(** One step of the critical-path descent. *)
type step = {
  st_name : string;
  st_cat : string;
  st_ts : float;
  st_dur : float;
  st_self : float;
}

type profile = {
  p_wall : float;
      (** traced wall-clock: latest event end minus earliest event
          start, across all domains *)
  p_spans : int;
  p_instants : int;
  p_dropped : int;  (** ring-buffer overflow count, if supplied *)
  p_names : name_stat list;  (** sorted by self time, descending *)
  p_domains : domain_stat list;  (** sorted by domain id *)
  p_critical : step list;
      (** the longest root span, then at each level its longest direct
          child — the dominant chain of the run, root first *)
}

(** [of_events ?dropped events] computes the full profile. [dropped]
    (default 0) is threaded through to [p_dropped] for reporting. *)
val of_events : ?dropped:int -> Trace.event list -> profile

(** Profile of the live buffer: [of_events ~dropped:(Trace.dropped ())
    (Trace.events ())]. *)
val compute : unit -> profile

(** Sum of self times across all names — the total busy time of the
    run. Equals [p_wall] for a single-domain run; up to [domains *
    p_wall] for a parallel one. *)
val total_self : profile -> float

(** Human-readable profile: the top-[top] (default 15) self-time table,
    the self-vs-wall sum line, the per-domain utilization table, and the
    critical path. *)
val to_text : ?top:int -> profile -> string

(** The profile as a JSON object ([wall_seconds], [spans], [instants],
    [dropped], [names], [domains], [critical_path]) — the ["profile"]
    member of the document [mcast --profile] writes. *)
val to_json : profile -> Json.t
