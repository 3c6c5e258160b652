(** LU-factorized simplex basis with product-form (eta) updates.

    Maintains a factorization of the basis matrix B — the columns
    [header] of a sparse column-major constraint matrix — supporting the
    two solves the revised simplex needs per iteration: FTRAN (B x = b)
    and BTRAN (Bᵀ y = c). Pivots are absorbed as product-form eta
    vectors; after {!refactor_interval} of them the factorization is
    rebuilt from scratch, and callers can force an earlier rebuild when
    {!residual} shows the eta file has drifted.

    The factorization is a left-looking sparse elimination that makes
    the pivots and multipliers of a dense partial-pivoting LU (largest
    magnitude, ties to the row first in the dense kernel's current row
    order) in time proportional to [m] plus the factors' nonzeros;
    {!warm} runs it over the columns of a warm start to pick the basis
    as it factorizes it. L and U are stored sparsely (by rows and by
    columns), each {!refactor} and each {!warm} counts under the
    [lp.factorizations] metric, and each eta keeps only the nonzeros of
    its pivot column. FTRAN and BTRAN
    walk those nonzeros in the order a dense triangular solve visits
    indices, so they return exactly what the dense solves would (up to
    the sign of a zero) at a cost proportional to [m] plus the stored
    nonzeros. *)

type t

(** Updates between automatic refactorizations (64). *)
val refactor_interval : int

(** Pivot magnitude at or below which a factorization is singular and
    an update is refused (1e-11). *)
val singular_tol : float

(** [create ~cols ~header] factorizes the basis made of columns
    [header.(0..m-1)] of [cols], where [cols.(j)] is column [j] as
    parallel (row indices, values) arrays. Keeps a reference to both
    arrays: [header] is mutated by {!update}, and [cols] must outlive
    the basis unchanged. [Error _] if the basis is numerically
    singular. *)
val create :
  cols:(int array * float array) array ->
  header:int array ->
  (t, string) result

(** [warm ~cols ~forced ~candidates ~slack_of_row] picks and factorizes
    the basis of a warm start in one elimination, the one {!refactor}
    runs. The columns are eliminated in the order [forced] (the slacks of
    the rows the start's own model did not have, in ascending row order),
    then [candidates] (the start's columns); a column whose largest
    remaining pivot is at most 1e-9 is dropped, its work undone, and
    takes no position. So each forced slack pivots on its own row, and the
    candidates only on the other rows: a candidate equal to a forced slack
    is dropped. Every row left unpivoted then gets its slack from
    [slack_of_row], in ascending row order. Which rows are left then
    depends on how pivot ties are broken, so the kept candidates and the
    rows they leave are re-picked in a second pass with ties to the
    lowest row index; those starts count under
    [lp.warm.rank_deficient]. The factors are bit for bit those of
    {!create} on the returned header, and one factorization is counted.
    Keeps [cols] as {!create} does. [Error _] if a slack fails to
    pivot. *)
val warm :
  cols:(int array * float array) array ->
  forced:int list ->
  candidates:int list ->
  slack_of_row:int array ->
  (t, string) result

(** The live header array (shared, not a copy). *)
val header : t -> int array

(** [ftran t b] solves [B x = b]. Returns a fresh array. *)
val ftran : t -> float array -> float array

(** [btran t c] solves [Bᵀ y = c]. Returns a fresh array. *)
val btran : t -> float array -> float array

(** [advance t x] carries a solution of [B x = b] across the last
    {!update}: [x], the result of [ftran t b] before that update, becomes
    [ftran t b] after it, bit for bit, in place and at the cost of the
    newest eta's nonzeros ([ftran] applies the etas oldest to newest, so
    this is its last step on the same operands). Call it once after each
    update. [false], leaving [x] alone, when the update refactorized
    instead of appending an eta: then only a fresh [ftran] gives the
    solution. *)
val advance : t -> float array -> bool

(** [update t ~row ~col ~w] replaces the basic column at position [row]
    with column [col], where [w = ftran t a_col] is the pivot column in
    the current basis. Mutates [header]; appends an eta, or refactorizes
    in place once the eta file is full. [Error _] if the pivot element
    [w.(row)] is too small to absorb, or the refactorization finds the
    new basis singular. *)
val update : t -> row:int -> col:int -> w:float array -> (unit, string) result

(** Rebuild the factorization from the current header, emptying the eta
    file. *)
val refactor : t -> (unit, string) result

(** [residual t ~b ~x] is the relative residual
    [‖B x − b‖∞ / max(1, ‖b‖∞)] — a cheap stability probe for a
    previously FTRAN'd solution. It allocates nothing: [B x] is summed
    in a scratch vector the basis owns. *)
val residual : t -> b:float array -> x:float array -> float
