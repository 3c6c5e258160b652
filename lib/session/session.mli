(** One multicast session in a churning stream.

    The paper plans a single static multicast; the session layer models
    the production story — a {e stream} of sessions arriving and
    departing on one shared platform, each a multicast problem of its
    own: a source node, a target set, a demanded steady-state throughput
    and a priority that decides who yields when capacity runs out. A
    session occupies the shared platform's ports
    ({!Multicast_tree.send_occupation}) for its whole residence [[arrival, departure)]; the {!Horizon}
    planner decides per epoch what rate each live session actually
    gets. *)

type t = {
  id : int;  (** dense, unique within a workload *)
  source : int;  (** the node holding this session's data *)
  targets : int list;  (** sorted, distinct, never contains [source] *)
  demand : Rat.t;  (** desired throughput, multicasts per time unit *)
  priority : int;  (** higher is more important; ties break by arrival *)
  arrival : Rat.t;
  departure : Rat.t;  (** strictly after [arrival] *)
}

(** [make ~id ~source ~targets ~demand ~priority ~arrival ~departure]
    validates and builds a session: non-negative id, at least one
    target, source not among the targets, positive demand, and
    [arrival < departure] with [arrival >= 0]. Targets are sorted and
    deduplicated. Raises [Invalid_argument] otherwise. *)
val make :
  id:int ->
  source:int ->
  targets:int list ->
  demand:Rat.t ->
  priority:int ->
  arrival:Rat.t ->
  departure:Rat.t ->
  t

(** [validate p s] checks the session's node ids against a platform:
    in range and currently active. *)
val validate : Platform.t -> t -> (unit, string) result

(** [platform_for p s] is the session's single-session planning view:
    the shared platform's graph (with its current active set) under the
    session's own source and target roles. [Error] when the session's
    nodes are invalid on [p] — e.g. its source died. *)
val platform_for : Platform.t -> t -> (Platform.t, string) result

(** Admission comparator: priority descending, then arrival ascending,
    then id ascending — the deterministic order in which the {!Horizon}
    planner considers a batch of arrivals. *)
val admission_order : t -> t -> int
