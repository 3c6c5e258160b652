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

    The optimal basis is exported by {e name} — structural variables by
    their {!Lp_model} name, the slack of a row named [r] as ["s:r"], plus
    the full row-name list of the source model — and can be fed back via [?warm] to a {e related}
    model (same naming scheme, possibly different rows/columns). A warm
    solve resolves the names, repairs them into a nonsingular basis of
    the new model (rows the source model never had get their slacks
    basic; resolved columns are eliminated strictly within the shared
    rows, which reconstructs the dual-feasible block basis when rows
    were only added), and re-optimizes with dual simplex (basis dual
    feasible) or primal phase 2 (basis primal feasible). The warm path
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
  warm_used : bool;
      (** true iff the result came from the warm path (counted in
          [lp.warm.hits]) *)
}

type status = Optimal of solution | Infeasible | Unbounded | Stalled

(** Default value of [?max_iter]: the overall pivot budget of one
    {!solve} call. The dual re-solve of a warm attempt is additionally
    capped at [32 + m] pivots — a repaired basis that has not converged
    by then is degenerate-cycling, and surrendering to the cold path is
    cheaper than grinding (the dual engine also latches to Bland's
    lowest-index rules after [m] iterations for the same reason). *)
val max_iterations : int

(** [solve ?max_iter ?warm model]. [Stalled] means the iteration budget
    ran out or the numerics gave way — {!Solver_chain} then re-solves the
    model on the exact engine. Tests use tiny caps to provoke stalls
    deterministically. *)
val solve : ?max_iter:int -> ?warm:warm -> Lp_model.t -> status

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
