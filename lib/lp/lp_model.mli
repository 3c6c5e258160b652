(** Linear-program builder with named variables.

    All variables are implicitly non-negative, which matches every
    formulation in the paper (fractions of messages, occupation times,
    throughput). Constraints may be added incrementally; the multicast
    formulations use this for lazy generation of the [n_jk >= x_i_jk]
    max-occupation rows. *)

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

(** [add_var m name] registers a fresh variable and returns its index.
    Names must be unique; reuse raises [Invalid_argument]. *)
val add_var : t -> string -> int

(** [var m name] is the index of a registered variable.
    Raises [Not_found]. *)
val var : t -> string -> int

val n_vars : t -> int
val var_name : t -> int -> string

(** [add_constraint m ?name expr cmp rhs] appends a row. [name] (default
    ["r<index>"]) identifies the row in warm-start bases ({!Revised_simplex}):
    a slack basic for this row is recorded under the row's name, so models
    naming their rows stably can port bases across structurally different
    instances. Names need not be unique — only warm-start resolution reads
    them, and it takes the first match. *)
val add_constraint : t -> ?name:string -> expr -> cmp -> float -> unit

val n_constraints : t -> int

(** Row names, in the order {!rows} returns them. *)
val row_names : t -> string array

(** [set_objective m ~maximize expr] installs the objective. *)
val set_objective : t -> maximize:bool -> expr -> unit

(** Accessors used by the solvers. *)

val objective : t -> bool * expr

val rows : t -> (expr * cmp * float) array

(** Pretty-print in LP-ish text format, for debugging and the CLI. *)
val pp : Format.formatter -> t -> unit
