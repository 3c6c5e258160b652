(** Incident timelines: causally-ordered fault → breach → repair →
    recovery reports (PR 10 observability layer).

    The SLO engine ({!Slo}) emits breach/recovery events against
    sampled series; the fault layer ({!Fault}) knows {e why} the system
    degraded; the drivers ({!Soak}, {!Horizon}) know what they did
    about it. This module joins the three into per-incident timelines:
    each SLO breach opens an incident, faults shortly {e before} the
    breach are attributed as probable causes, repair actions {e during}
    the breach are attached, and the matching recovery closes it —
    turning three separate event logs into the postmortem narrative
    "fault X at t → breach of objective Y at t+δ → repair → recovery".

    Everything here is pure bookkeeping over already-emitted events;
    times are simulated seconds throughout (rationals lowered via
    {!Rat.to_float}). *)

type entry =
  | E_fault of { at : float; desc : string }
  | E_breach of { at : float; objective : string; fast_burn : float; slow_burn : float }
  | E_repair of { at : float; desc : string }
  | E_recovery of { at : float; objective : string }

val entry_time : entry -> float

type incident = {
  i_objective : string;  (** the breached objective's name *)
  i_start : float;  (** breach time *)
  i_end : float option;  (** recovery time; [None] if never recovered *)
  i_entries : entry list;  (** causally ordered (time-ascending) *)
}

(** [build ?lookback ?faults ?repairs slo_events] pairs each [`Breach]
    with the next [`Recovery] of the same objective and attaches
    context: fault events with time in [\[breach - lookback, end\]]
    (default lookback [25.] — faults {e after} the breach but before
    recovery also belong to the incident, they prolong it) and repair
    actions with time in [\[breach - lookback, end\]]. An unrecovered
    incident extends to the last known event time. Fault events are
    rendered via their constructor ("kill edge 3->7 at t=150", ...);
    repairs are free-form [(time, description)] pairs from the driver
    (adopted schedules, re-plans, re-integrations). *)
val build :
  ?lookback:float ->
  ?faults:Fault.scenario ->
  ?repairs:(float * string) list ->
  Slo.event list ->
  incident list

(** [of_soak ~faults report slo_events] is {!build} (default lookback)
    for one {!Soak.run}: [faults] is the scenario the soak ran against,
    [slo_events] the events of the sink it sampled into
    ({!Timeseries.slo_events}), and the repairs are read from the
    controller log — every recovery episode except cached re-adoptions,
    and every capacity re-integration. *)
val of_soak : faults:Fault.scenario -> Soak.report -> Slo.event list -> incident list

(** Human-readable report: a header and a [chain:] summary line per
    incident — [chain: fault(t=150) -> breach(t=152) -> repair(t=155)
    -> recovery(t=190)] — then one line per entry. Ends with a one-line
    total. "no incidents" when the list is empty. *)
val to_text : incident list -> string

(** JSON array of incident objects with typed entry lists; an open
    incident's ["end"] is [null]. Printed by {!Json.to_string}: one
    incident per line. *)
val to_json : incident list -> Json.t
