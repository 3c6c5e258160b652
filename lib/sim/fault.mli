(** Timed platform failures and revivals injected into schedule replay.

    A scenario is a set of fault events, each firing at an absolute time of
    the unrolled timeline: a link can die ([Kill_edge]) and later come back
    ([Revive_edge]), a processor can die with all its ports ([Kill_node])
    and be repaired ([Revive_node]), a link can degrade — transfers over it
    take [factor] times longer from then on ([Degrade_edge]) — and the
    accumulated degradation can clear ([Clear_degrade]). Damage is therefore
    a {e time-varying} set, not a monotone one.

    One rule defines it: {!timeline} folds a scenario, once, into the
    instants at which it changes the platform, each with the damage in
    force from then on. Every reader looks steps up instead of rescanning
    the events: the replay builds each link's fault index from them
    ({!Event_sim.run_with_faults}), the chaos soak driver ({!Soak}) and the
    session planner ({!Horizon}) read the damage of each epoch through
    {!damage_at}, and the one-shot recovery planner consumes the end state
    ({!damage}). *)

type event =
  | Kill_edge of { src : int; dst : int; at : Rat.t }
  | Kill_node of { node : int; at : Rat.t }
  | Degrade_edge of { src : int; dst : int; at : Rat.t; factor : Rat.t }
      (** [factor >= 1]: the link's effective capacity divides by it *)
  | Revive_edge of { src : int; dst : int; at : Rat.t }
      (** the link returns to service (must follow a kill of that edge) *)
  | Revive_node of { node : int; at : Rat.t }
      (** the processor returns with all its ports (must follow its kill) *)
  | Clear_degrade of { src : int; dst : int; at : Rat.t }
      (** accumulated degradation factors on the edge reset to 1 *)

type scenario = event list

(** [validate p s] checks node ids in range, referenced edges present in the
    platform, factors [>= 1] and fire times [>= 0].

    Overlap and ordering semantics (normative for {!timeline}):
    - {e Duplicate events are idempotent.} Killing (or reviving) the same
      entity twice {e at the same time} is the same event stated twice; it
      validates and counts once.
    - {e Kill/revive timelines must alternate.} Per entity, the deduplicated
      kill/revive events sorted by time must read kill, revive, kill, … at
      strictly increasing times: a kill–revive–kill history is accepted, a
      revive before any kill is rejected, as are double kills without an
      intervening revive, double revives, and a kill and revive at the same
      instant (the state would be ambiguous).
    - {e Degrading a dead edge is a no-op.} A [Degrade_edge] firing while
      the edge (or an endpoint node) is dead validates, and its factor is
      kept in the damage, but the replay reads kills first, and the
      recovery planner removes dead edges before applying degradation
      factors.
    - Degrading the same edge repeatedly is not an overlap at all: the
      factors compose multiplicatively until a [Clear_degrade] resets them.
      A clear firing together with a degrade at the same instant applies
      first, so the fresh factor survives. *)
val validate : Platform.t -> scenario -> (unit, string) result

(** The event's fire time. *)
val event_time : event -> Rat.t

(** One instant at which the scenario changes the platform. *)
type step = {
  at : Rat.t;
  fired : event list;  (** the events firing at [at], in scenario order *)
  damage : Repair.damage;
      (** the damage in force from [at] until the next step, in
          {!Repair.damage}'s canonical form *)
}

(** A scenario folded into its steps, in increasing instant order. *)
type timeline

(** [timeline s] sorts [s] once by fire time (a stable sort) and folds the
    instants in order. An entity is dead from its kill until its revive;
    an edge is also out of service while an endpoint node is dead, which
    the damage states as the dead node. An edge's factor is the product
    of the degrades fired since its latest [Clear_degrade], which applies
    before the degrades of its own instant; an edge back at factor one is
    not degraded. A kill and a revive of one entity at one instant, which
    {!validate} rejects, leave the one stated first in force. Costs one
    sort plus, per instant, the size of the damage in force. *)
val timeline : scenario -> timeline

(** The steps in increasing instant order. *)
val steps : timeline -> step list

(** [damage_at tl ~at] is the damage in force at time [at]: the damage of
    the latest step at or before [at], {!Repair.no_damage} before the
    first. A binary search over the steps, O(log steps). *)
val damage_at : timeline -> at:Rat.t -> Repair.damage

(** [damage s] is the scenario's end state, the damage of the last step of
    its timeline. An entity killed and later revived is {e not} damage;
    with kill-only scenarios this is the union of all kills. *)
val damage : scenario -> Repair.damage

(** [edge_factor d ~src ~dst] reads the link [src -> dst] under the damage
    [d] as the replay does: [None] while the edge or an endpoint node is
    dead, else [Some] its slowdown factor ([Rat.one] when not degraded). *)
val edge_factor : Repair.damage -> src:int -> dst:int -> Rat.t option

(** [random_link_kills rng p ~rate ~at] kills each {e undirected} link
    (both directions) independently with probability [rate], all at time
    [at] — the failure generator of the resilience benchmark sweep. *)
val random_link_kills :
  Random.State.t -> Platform.t -> rate:float -> at:Rat.t -> scenario

(** [random_node_kills rng p ~rate ~at] kills each active non-source node
    independently with probability [rate], all at time [at]. The draw never
    kills {e every} target (one uniformly drawn target is spared when it
    would), so the resulting damage is never unrecoverable by construction
    alone — the sweeps exercise node failures, not the trivial total loss. *)
val random_node_kills :
  Random.State.t -> Platform.t -> rate:float -> at:Rat.t -> scenario

(** [random_mixed_kills rng p ~link_rate ~node_rate ~at] draws link kills at
    [link_rate] and node kills at [node_rate] — the mixed failure generator
    of the R1/R2 benchmark sweeps. *)
val random_mixed_kills :
  Random.State.t ->
  Platform.t ->
  link_rate:float ->
  node_rate:float ->
  at:Rat.t ->
  scenario

(** {2 Correlated storm generators}

    The independent per-entity draws above stop being representative at
    scale: real outages arrive in {e bursts} (a power event takes k things
    down inside seconds), share hardware (every link through one switch
    port), or take out whole subtrees (a rack, a site). These generators
    produce such correlated scenarios — the input of the R3 storm sweep and
    of the recovery controller's incremental-repair rung. All of them obey
    the sparing rule of {!random_node_kills}: a storm never kills {e every}
    target. *)

(** [random_burst rng p ~k ~window ~at] draws [k] distinct entities
    (undirected links or non-source nodes) uniformly without replacement and
    kills each at an independent uniform time inside [[at, at + window]] —
    a failure burst. [k] is clamped to the entity count; killed links die in
    both directions at the same instant. The result always validates. *)
val random_burst :
  Random.State.t -> Platform.t -> k:int -> window:Rat.t -> at:Rat.t -> scenario

(** [shared_endpoint_kills rng p ~endpoints ~at] draws [endpoints] distinct
    non-source nodes and kills {e every link incident to each} (both
    directions) at time [at] — the node itself stays alive, modeling a NIC
    or switch-port failure. Unlike node kills this can isolate a target
    while it survives, which is exactly the shape that forces the recovery
    controller into degraded mode. *)
val shared_endpoint_kills :
  Random.State.t -> Platform.t -> endpoints:int -> at:Rat.t -> scenario

(** [subtree_outage rng p ~at] kills one uniformly drawn MAN router together
    with all its LAN hosts — a whole-subtree outage on a {!Tiers}-style
    platform (a host's only uplink is its MAN router, so the storm severs
    the full subtree at once). On platforms with no MAN layer it degenerates
    to a single {!shared_endpoint_kills} outage. The sparing rule applies. *)
val subtree_outage : Random.State.t -> Platform.t -> at:Rat.t -> scenario

(** {2 Renewal-process generators}

    Fail/repair processes for the chaos soak driver ({!Soak}): components
    die and come back over a long horizon, so damage breathes instead of
    accumulating. All fire times are drawn on a 1/1000 grid (small exact
    rationals) and every generated scenario validates by construction. *)

(** [grid_time x] rounds the duration [x] to the 1/1000 grid, never below
    one tick (timelines need strictly increasing times); [exp_time rng
    ~mean] is an exponential draw on that grid. Every generated time
    (faults, controller ticks, session arrivals) lives on it, so
    simulated-clock arithmetic stays on small exact rationals. *)
val grid_time : float -> Rat.t
val exp_time : Random.State.t -> mean:float -> Rat.t

(** [renewal_link_faults rng p ~mtbf ~mttr ~horizon] runs an independent
    alternating renewal process on every undirected link: up-times are
    exponential with mean [mtbf], down-times exponential with mean [mttr],
    truncated at [horizon]. A link whose repair would land past the horizon
    stays down (end-state damage). *)
val renewal_link_faults :
  Random.State.t -> Platform.t -> mtbf:float -> mttr:float -> horizon:Rat.t -> scenario

(** [renewal_node_faults rng p ~mtbf ~mttr ~horizon] — the same renewal
    process on every active non-source node. No sparing rule: over a long
    horizon the damage is transient, and the soak driver is expected to ride
    out (and report) windows where every target is down. *)
val renewal_node_faults :
  Random.State.t -> Platform.t -> mtbf:float -> mttr:float -> horizon:Rat.t -> scenario

(** [flapping_links rng p ~links ~flaps ~mean_up ~mean_down ~at] draws
    [links] distinct undirected links and cycles each through [flaps]
    kill/revive pairs starting at [at]: up-times exponential with mean
    [mean_up], down-times with mean [mean_down]. Short means produce the
    BGP-style flapping that the soak controller's damping exists to absorb.
    Every flapped link ends alive. *)
val flapping_links :
  Random.State.t ->
  Platform.t ->
  links:int ->
  flaps:int ->
  mean_up:float ->
  mean_down:float ->
  at:Rat.t ->
  scenario

(** [diurnal_degradation rng p ~waves ~period ~factor ~rate] models daily
    congestion waves: for each of [waves] consecutive periods, each
    undirected link independently degrades by [factor] (probability [rate])
    at the period start and clears at its midpoint — load rises, then
    ebbs. End-state damage is empty. *)
val diurnal_degradation :
  Random.State.t ->
  Platform.t ->
  waves:int ->
  period:Rat.t ->
  factor:Rat.t ->
  rate:float ->
  scenario

val describe : scenario -> string
