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

    The optimal basis is exported as column indices of the model it
    came from ([basic]). The engine stores no names: a caller re-solving
    a {e related} model (the Multicast-LB cut loop, which only adds
    rows, or a survivor platform or the next epoch, whose basis
    [Formulations] carries in its own typed form) maps that basis onto
    the new model's column indices itself and flags the rows the
    basis's own model did not have ({!start}). A repair turns it into a
    nonsingular basis of the new model (rows the source model never had
    get their slacks basic; the given columns are eliminated strictly
    within the shared rows, which reconstructs the dual-feasible block
    basis when rows were only added), and the solve re-optimizes with
    dual simplex (basis dual feasible) or primal phase 2 (basis primal
    feasible). The warm path is verdict-neutral: every failure mode
    falls back to a cold solve internally, so only [Optimal] can ever
    come out of it, and models with artificials (Ge/Eq rows after
    normalization) skip it entirely. *)

type solution = {
  values : float array;  (** one value per structural variable *)
  objective : float;
  row_duals : float array;
      (** shadow prices in input row order, for the normalized (rhs ≥ 0)
          rows — same convention as {!Lp_model.solution.row_duals} *)
  pivots : int;
      (** pivots spent in this call, warm attempt and any cold restart
          included *)
  basic : int array;
      (** the optimal basis as column indices of the solved model, in
          header order (structural variables first, then one slack per
          row) *)
  warm_used : bool;
      (** true iff the result came from the warm path (counted in
          [lp.warm.hits]) *)
}

type status = Optimal of solution | Infeasible | Unbounded | Stalled

(** A warm start: a basis the caller has mapped onto this model's
    column indices, in header order, and the rows the basis's own model
    did not have. Negative, out-of-range and repeated indices are
    dropped, and at most one index per row is kept. *)
type start = { basic : int array; is_new_row : int -> bool }

(** [solve ?max_iter ?start model]. [max_iter] (default 200 000) is the
    overall pivot budget of the call. The dual re-solve of a warm attempt
    is additionally capped at [32 + m] pivots — a repaired basis that has
    not converged by then is degenerate-cycling, and surrendering to the
    cold path is cheaper than grinding (the dual engine also latches to
    Bland's lowest-index rules after [m] iterations for the same reason).
    [Stalled] means the iteration budget ran out or the numerics gave way — {!Solver_chain} then re-solves the
    model on the exact engine. Tests use tiny caps to provoke stalls
    deterministically. *)
val solve : ?max_iter:int -> ?start:start -> Lp_model.t -> status

(** A model in the engine's standard form. *)
type form

(** [le_form ~objective ~cols ~rhs] is the standard
    form of: maximize [objective] subject to [A x <= rhs], [x >= 0], for
    a caller that keeps [A] by columns: [cols.(j)] is column [j] as
    (row indices ascending, values), and every [rhs.(i)] is [>= 0]. It is
    what {!solve} builds from the equivalent {!Lp_model} (row [i] with
    [rhs.(i)], variable [j] with [cols.(j)]), so both solve identically:
    column [j] is variable [j], then column [nv + i] is the slack of row
    [i]. *)
val le_form :
  objective:(float * int) list -> cols:(int array * float array) array -> rhs:float array -> form

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
