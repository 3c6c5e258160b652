(** Discrete-event replay of a periodic multicast schedule.

    The simulator unrolls a {!Schedule.t} over a number of periods into
    timed busy intervals, one per transfer per period. One walk over those
    intervals does the message accounting for both replays: each (tree,
    edge) pair accrues progress at rate [1/f], where [f] is the link's
    slowdown factor, and the walk reports every reception and the message
    in flight at the start of each interval. {!run} is that walk at rate 1
    plus three checks that independently re-verify what the schedule
    construction promises:

    - {b port exclusivity}: no node ever runs two sends (or two receives)
      concurrently;
    - {b causality}: a node only forwards messages it has already fully
      received (the source owns all messages from the start; a node at
      depth [d] of tree [k] forwards message [m] only after its own
      reception of [m], which happens one period earlier);
    - {b delivery completeness}: a target at depth [d] of tree [k] is owed
      messages [0 .. (periods - d) * m_k - 1] within the horizon, each
      exactly once — dropped and duplicated deliveries are both reported.

    Message accounting works at whole-message granularity: a busy interval
    carrying [q] messages of cost [c] delivers message boundaries at
    [start + c, start + 2c, ...]; receptions may span consecutive busy
    intervals of the same (tree, edge) pair. {!run_with_faults} runs the
    same walk with the scenario's dead links and slowdowns. Both replays
    measure throughput over the same steady-state window. *)

type delivery = {
  target : int;
  tree : int;
  message : int; (** global message index of that tree, 0-based *)
  time : Rat.t; (** absolute completion time of the reception *)
}

type stats = {
  periods : int;
  messages_delivered : int; (** total target-message deliveries *)
  measured_throughput : float;
      (** distinct multicasts fully delivered per time unit, in steady state *)
  max_latency : float; (** worst emission-to-last-delivery latency *)
  deliveries : delivery list;
}

(** [run sched ~periods] replays the schedule. Returns [Error reason] if a
    violation is detected. [periods] must exceed the pipeline depth
    ({!Schedule.init_periods}) for any message to be fully delivered. *)
val run : Schedule.t -> periods:int -> (stats, string) Result.t

(** One target-message delivery that a fault scenario prevented. *)
type loss = {
  l_tree : int;
  l_target : int;
  l_message : int;
}

type fault_stats = {
  f_periods : int;
  f_delivered : int;  (** target-message deliveries that still went through *)
  f_losses : loss list;  (** owed deliveries that never happened *)
  f_completed : int;  (** multicast instances every target still received *)
  f_measured_throughput : float;
      (** surviving steady-state rate, same warm window as {!run} *)
}

(** [run_with_faults sched ~faults ~periods] replays the {e fixed} schedule
    against a {!Fault.scenario} — the schedule is not re-timed. A transfer
    over a dead link makes no progress during its reserved slot; a degraded
    link accrues progress at rate [1/factor], so messages complete late or
    not at all within the horizon. Receptions are validated in completion
    order: one counts only if the sender is the tree root or itself held a
    validly received copy when transmission began, so a loss near the root
    cascades to the whole subtree. Unlike {!run} this never aborts — it
    reports which owed deliveries were lost and what throughput survived. *)
val run_with_faults : Schedule.t -> faults:Fault.scenario -> periods:int -> fault_stats
