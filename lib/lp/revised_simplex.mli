(** Revised primal/dual simplex over a sparse column-major model.

    The float engine ({!Solver_chain} tries it ahead of the exact
    oracle {!Simplex_exact}). Works from the basis header plus an
    LU-with-eta factorization ({!Basis}, factors and etas stored as
    nonzeros only, so a solve costs [O(m)] plus the stored nonzeros)
    that is rebuilt every {!Basis.refactor_interval} pivots or earlier
    when a residual check detects drift. Pricing is Dantzig with the {!Anti_cycle} one-way
    Bland latch; the standard form normalizes rows to rhs ≥ 0, adds one
    slack per inequality and one artificial per Ge/Eq row, and evicts
    zero-valued basic artificials eagerly.

    The optimal basis is exported twice: by index into the model it
    came from ([basic]), and by {e name} ([basis]) — structural variables
    by their {!Lp_model} name, the slack of a row named [r] as
    [slack_name r], plus the full row-name list of the source model. A
    caller that grows one model itself (the Multicast-LB cut loop) hands
    the indices back, mapped to the grown model ({!Indexed}); any other
    basis comes by name ({!Named}) and can seed a {e related} model (same
    naming scheme, possibly different rows/columns). Both front ends feed
    one repair into a nonsingular basis of the new model (rows the source
    model never had get their slacks basic; resolved columns are
    eliminated strictly within the shared rows, which reconstructs the
    dual-feasible block basis when rows were only added), and the solve
    re-optimizes with dual simplex (basis dual feasible) or primal phase 2
    (basis primal feasible). The warm path
    is verdict-neutral: every failure mode falls back to a cold solve
    internally, so only [Optimal] can ever come out of it, and models
    with artificials (Ge/Eq rows after normalization) skip it
    entirely. *)

(** A basis by name, portable across related models: the basic columns
    plus every row name of the model it came from (so a receiving model
    can tell its genuinely new rows from merely non-binding ones). *)
type warm = {
  wcols : string array;  (** basic columns, in header order *)
  wrows : string array;  (** all rows of the source model, input order *)
}

type solution = {
  values : float array;  (** one value per structural variable *)
  objective : float;
  row_duals : float array;
      (** shadow prices in input row order, for the normalized (rhs ≥ 0)
          rows — same convention as {!Lp_model.solution.row_duals} *)
  pivots : int;
      (** pivots spent in this call, warm attempt and any cold restart
          included *)
  basis : warm;  (** the optimal basis, ready to warm-start a relative *)
  basic : int array;
      (** the same basis as column indices of the solved model, in header
          order (structural variables first, then one slack per row) *)
  warm_used : bool;
      (** true iff the result came from the warm path (counted in
          [lp.warm.hits]) *)
}

type status = Optimal of solution | Infeasible | Unbounded | Stalled

(** A warm start: a basis from another model, by name, or one the
    caller has mapped onto this model's column indices itself, with the
    rows the basis's own model did not have. *)
type start =
  | Named of warm
  | Indexed of { basic : int array; is_new_row : int -> bool }

(** [slack_name r] names the slack column of row [r] in a {!warm}. *)
val slack_name : string -> string

(** [solve ?max_iter ?warm model]. [max_iter] (default 200 000) is the
    overall pivot budget of the call. The dual re-solve of a warm attempt
    is additionally capped at [32 + m] pivots — a repaired basis that has
    not converged by then is degenerate-cycling, and surrendering to the
    cold path is cheaper than grinding (the dual engine also latches to
    Bland's lowest-index rules after [m] iterations for the same reason).
    [Stalled] means the iteration budget ran out or the numerics gave way — {!Solver_chain} then re-solves the
    model on the exact engine. Tests use tiny caps to provoke stalls
    deterministically. *)
val solve : ?max_iter:int -> ?warm:warm -> Lp_model.t -> status

(** A model in the engine's standard form. *)
type form

(** [le_form ~objective ~cols ~rhs ~col_names ~row_names] is the standard
    form of: maximize [objective] subject to [A x <= rhs], [x >= 0], for
    a caller that keeps [A] by columns: [cols.(j)] is column [j] as
    (row indices ascending, values), and every [rhs.(i)] is [>= 0]. It is
    what {!solve} builds from the equivalent {!Lp_model} (row [i] with
    [rhs.(i)], variable [j] with [cols.(j)]), so both solve identically.
    [col_names] names the structural columns and then the slack of each
    row ({!slack_name}), [row_names] the rows; only a {!Named} start and
    the exported [basis] read them. *)
val le_form :
  objective:(float * int) list ->
  cols:(int array * float array) array ->
  rhs:float array ->
  col_names:string array ->
  row_names:string array ->
  form

(** [dims f] is [(structural variables, rows)]. *)
val dims : form -> int * int

(** [solve_form ?max_iter ?start f] is {!solve} on a standard form,
    warm-started from [start]. *)
val solve_form : ?max_iter:int -> ?start:start -> form -> status

(** Degenerate pivots tolerated before the pricing rule switches to Bland. *)
val stall_window : int

(** Anti-cycling controller of the primal engine: Dantzig pricing until
    the objective has stalled for {!stall_window} consecutive pivots,
    then Bland's rule for the remainder of the phase. The switch is a
    one-way latch — once engaged it stays engaged even if the objective
    later improves, because releasing it would void Bland's termination
    guarantee (a cycle alternating tiny progress with degenerate stretches
    would re-arm Dantzig forever). Exposed so the latch semantics are
    regression-testable. *)
module Anti_cycle : sig
  type t

  (** [create obj] starts a controller at objective value [obj]. *)
  val create : float -> t

  (** [observe t obj] accounts one pivot that ended at objective [obj]. *)
  val observe : t -> float -> unit

  (** Whether Bland's rule is engaged. *)
  val bland : t -> bool
end
