(** The restricted master of a column generation, kept live across
    pricing rounds: the path master of the scatter bounds
    ({!Formulations}) and the arborescence packing of Broadcast-EB
    ({!Arborescence_packing}) both run here.

    A master is a fixed set of [<=] rows with right-hand sides [>= 0], a
    pool of sparse columns that only grows, and a pricing oracle. Each
    round solves "maximize the columns' objective within the rows, every
    weight [>= 0]" as a {!Revised_simplex.le_form} through
    {!Solver_chain.solve}, then prices on the row duals. New columns go
    after the pool, so the previous round's basis maps onto the next form
    by index (slacks shift by the number of new columns, no row is new)
    and stays primal feasible: each round after the first is a warm
    re-solve, and the objective never falls. The loop stops when the exact
    rung answered (a numerically shaky master is accepted, not priced
    on), when no priced column enters, or after 300 pricing rounds. *)

(** Entries (rows ascending, each once), objective coefficient, and the
    caller's [item]. *)
type 'a column = { item : 'a; rows : int array; vals : float array; obj : float }

(** The rows' right-hand sides, the initial columns, and the pricing: it
    reads one dual per row and returns candidates, of which only those
    with a reduced cost above [1e-7] whose entries and objective are not
    pooled yet enter. *)
type 'a master = {
  rhs : float array;
  initial : 'a column list;
  price : float array -> 'a column list;
}

(** The pool in entry order and the last master's solution ([values.(j)]
    weighs [pool.(j)]). *)
type 'a result = { pool : 'a column array; solution : Lp_model.solution }

(** [form ~rhs pool] is the master over [pool] as a round solves it. *)
val form : rhs:float array -> 'a column array -> Revised_simplex.form

(** [None] when a master is infeasible or unbounded. *)
val solve : 'a master -> 'a result option
