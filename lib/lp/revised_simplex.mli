(** Revised primal/dual simplex over a sparse column-major standard form.

    The float engine ({!Solver_chain} tries it ahead of the exact
    oracle {!Simplex_exact}, which reads the same program back through
    {!to_model}). A caller describes each LP once, as a {!form}: from an
    {!Lp_model} ({!of_model}) or directly by columns ({!le_form}). Works
    from the basis header plus an LU-with-eta factorization ({!Basis},
    factors and etas stored as nonzeros only, so a solve costs [O(m)]
    plus the stored nonzeros) that is rebuilt every {!Basis.refactor_interval} pivots or earlier
    when a residual check detects drift. Pricing is Dantzig with the {!Anti_cycle} one-way
    Bland latch; the standard form normalizes rows to rhs ≥ 0, adds one
    slack per inequality and one artificial per Ge/Eq row, and evicts
    zero-valued basic artificials eagerly.

    The optimal basis is exported as column indices of the form it
    came from (the [int array] of [Optimal]). The engine stores no names: a caller re-solving
    a {e related} model (the Multicast-LB cut loop, which only adds
    rows, or a survivor platform or the next epoch, whose basis
    [Formulations] carries in its own typed form) maps that basis onto
    the new model's column indices itself and flags the rows the
    basis's own model did not have ({!start}). {!Basis.warm} turns it
    into a nonsingular basis of the new model and its factors in one
    elimination (rows the source model never had get their slacks basic;
    the given columns pivot only on the shared rows, dependent ones are
    dropped and rows left over get their slacks, which reconstructs the
    dual-feasible block basis when rows were only added), and the solve
    re-optimizes with dual simplex (basis dual feasible) or primal
    phase 2 (basis primal feasible). The warm path is verdict-neutral: every failure mode
    falls back to a cold solve internally, so only [Optimal] can ever
    come out of it, and models with artificials (Ge/Eq rows after
    normalization) skip it entirely. *)

(** A program in the engine's standard form: rows normalized to rhs ≥ 0,
    then column [j < nv] is structural variable [j] and the columns
    after them are one slack (+1, a [Le] row) or surplus (−1, a [Ge]
    row) per inequality, in row order, then one artificial per [Ge]/[Eq]
    row. *)
type form

(** [of_model m] is the standard form of [m]: a row with a negative rhs
    is negated (its comparison flipped), and repeated objective terms on
    one variable are summed in floats. *)
val of_model : Lp_model.t -> form

(** [le_form ~objective ~cols ~rhs] is the standard
    form of: maximize [objective] subject to [A x <= rhs], [x >= 0], for
    a caller that keeps [A] by columns: [cols.(j)] is column [j] as
    (row indices ascending, values), and every [rhs.(i)] is [>= 0]. It is
    what {!of_model} builds from the equivalent {!Lp_model} (row [i] with
    [rhs.(i)], variable [j] with [cols.(j)]), so both solve identically:
    column [j] is variable [j], then column [nv + i] is the slack of row
    [i]. *)
val le_form :
  objective:(float * int) list -> cols:(int array * float array) array -> rhs:float array -> form

(** [to_model f] is the program [f] holds, as the exact engine reads it:
    the same variables in the same order, and row [i] as [f] holds it
    (normalized, so rhs ≥ 0) with [Le] for a +1 slack, [Ge] for a −1
    surplus and [Eq] for no slack. Every coefficient is the form's float,
    so the exact solve of [to_model (of_model m)] is the exact solve of
    [m] (the exact engine negates a negative-rhs row the same way), on
    the condition that [m]'s objective lists each variable once, since
    {!of_model} float-sums repeated terms. *)
val to_model : form -> Lp_model.t

(** [dims f] is [(structural variables, rows)]. *)
val dims : form -> int * int

(** [Optimal (solution, basic)]: [basic] is the optimal basis as column
    indices of the solved form, in header order. [solution.row_duals] are
    for the normalized (rhs ≥ 0) rows, as {!Lp_model.solution} documents
    them, and [solution.pivots] counts the warm attempt and any cold
    restart. *)
type status = Optimal of Lp_model.solution * int array | Infeasible | Unbounded | Stalled

(** A warm start: a basis the caller has mapped onto this form's
    column indices, in header order, and the rows the basis's own form
    did not have. Negative, out-of-range and repeated indices are
    dropped, and at most one index per row is kept. *)
type start = { basic : int array; is_new_row : int -> bool }

(** [solve ?max_iter ?start f]. [max_iter] (default 200 000) is the
    overall pivot budget of the call. The dual re-solve of a warm attempt
    is additionally capped at [32 + m] pivots — a warm basis that has
    not converged by then is degenerate-cycling, and surrendering to the
    cold path is cheaper than grinding (the dual engine also latches to
    Bland's lowest-index rules after [m] iterations for the same reason).
    A warm start that succeeds counts under [lp.warm.hits].
    [Stalled] means the iteration budget ran out or the numerics gave
    way — {!Solver_chain} then re-solves [to_model f] on the exact
    engine. Tests use tiny caps to provoke stalls deterministically. *)
val solve : ?max_iter:int -> ?start:start -> form -> status

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
