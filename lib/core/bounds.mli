(** The bound chain of §5.1 on one instance.

    In period terms:
    [Multicast-LB <= OPT <= Multicast-UB <= |P_target| * Multicast-LB], and
    [Broadcast-EB >= Multicast-LB] (broadcasting to everyone can only be
    harder than reaching a subset). All comparisons are on steady-state
    periods for unit messages. *)

type t = {
  lb : Formulations.solution option; (** Multicast-LB *)
  ub : Formulations.solution option; (** Multicast-UB *)
  broadcast : Formulations.solution option; (** Broadcast-EB on the full platform *)
}

(** Solve all three programs. *)
val compute : Platform.t -> t

(** [check b ~n_targets] verifies the §5.1 inequality chain up to the float
    tolerance, taking an infeasible program's period as infinite; returns
    an error description on violation. *)
val check : t -> n_targets:int -> (unit, string) Result.t
