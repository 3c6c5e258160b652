(** Linear-program builder over indexed variables.

    All variables are implicitly non-negative, which matches every
    formulation in the paper (fractions of messages, occupation times,
    throughput). *)

type t

type cmp = Le | Ge | Eq

(** Sparse linear expression: list of (coefficient, variable). *)
type expr = (float * int) list

(** An optimal vertex with its duals, as {!Solver_chain} returns it
    whichever engine solved the model. *)
type solution = {
  values : float array;  (** one value per structural variable *)
  objective : float;
  row_duals : float array;
      (** shadow price of each constraint, in the order the rows were added
          ([d objective / d rhs]); valid as-is for rows with non-negative
          right-hand sides (rows normalized by negation get a flipped
          sign). Read by the cut- and column-generation loops. *)
  pivots : int;
      (** pivot count of this solve. Per-solve and never accumulated: the
          engines keep no state across calls, so concurrent solves on
          separate domains are independent. *)
}

val create : unit -> t

(** [add_var m] registers a fresh variable and returns its index
    (0, 1, ... in registration order). *)
val add_var : t -> int

val n_vars : t -> int

(** [add_constraint m expr cmp rhs] appends a row. *)
val add_constraint : t -> expr -> cmp -> float -> unit

val n_constraints : t -> int

(** [set_objective m ~maximize expr] installs the objective. *)
val set_objective : t -> maximize:bool -> expr -> unit

(** Accessors used by the solvers. *)

val objective : t -> bool * expr

val rows : t -> (expr * cmp * float) array
