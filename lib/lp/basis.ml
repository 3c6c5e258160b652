(* LU-factorized simplex basis with product-form updates.

   The basis matrix B is the set of columns [header] drawn from a sparse
   column-major constraint matrix. We keep P B0 = L U from the last
   refactorization plus an eta file recording the pivots applied since:
   B_k = B_0 E_1 ... E_k where eta E_t replaces column r_t of the
   identity with w_t = B_{t-1}^{-1} a_q. FTRAN applies the LU solve then
   the eta inverses oldest-to-newest; BTRAN applies the transposed eta
   inverses newest-to-oldest then the transposed LU solve. So a caller
   that keeps x = B^-1 b across pivots needs only the newest eta inverse
   after each update ([advance]), and gets a fresh FTRAN's bits.

   The elimination is left-looking and sparse (Gilbert and Peierls,
   SIAM J. Sci. Stat. Comput. 9(5), 1988): each header column in turn is
   scattered into an m-vector, takes the earlier pivots' updates in
   ascending pivot order, and pivots on its unpivoted row of largest
   magnitude, ties going to the row first in the row order that the
   dense right-looking kernel (partial pivoting, the pivot row swapped
   into place) would have at that step. Every update is that kernel's
   [x -. f *. u] on the same operands, so the pivots, multipliers and
   factors are its own, at a cost of O(m + nnz(L + U)) plus a scan over
   the pivots between the lowest and highest one a column touches. (A
   multiplier that underflows to zero is dropped; the dense kernel kept
   the unscaled entry in that case.) L and U are stored twice: by rows
   for FTRAN and by columns for BTRAN, each with entries in ascending
   index order, plus U's diagonal. Etas keep only the nonzeros of w
   (minus the pivot entry, stored beside its row). Every solve walks
   stored nonzeros in the order the textbook dense loops visit indices,
   so each result is the dense computation term for term with the
   exact-zero terms left out — the same numbers, at a cost of
   O(m + nnz(L + U) + nnz(etas)) per solve instead of O(m^2 + k m).

   The eta file is bounded: once [refactor_interval] updates accumulate,
   the next update triggers a fresh factorization instead of a 65th eta.
   Callers additionally watch the residual of B x_B = b (see [residual])
   and force an early refactorization when drift exceeds their tolerance. *)

let refactor_interval = 64
let singular_tol = 1e-11

(* Compressed sparse lines (rows, columns or etas): line [l] holds the
   entries [start.(l) .. start.(l + 1) - 1] of [idx]/[v]. The entry
   buffers grow by doubling and are reused across refactorizations. *)
type lines = {
  start : int array;
  mutable idx : int array;
  mutable v : float array;
}

let lines n = { start = Array.make (n + 1) 0; idx = [||]; v = [||] }

let reserve s n =
  let cap = Array.length s.idx in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let idx = Array.make cap' 0 and v = Array.make cap' 0.0 in
    Array.blit s.idx 0 idx 0 cap;
    Array.blit s.v 0 v 0 cap;
    s.idx <- idx;
    s.v <- v
  end

let push s k i x =
  reserve s (k + 1);
  Array.unsafe_set s.idx k i;
  Array.unsafe_set s.v k x

(* [cols] := [rows] transposed, by counting: rows are read in ascending
   order, so every column lists its rows in ascending order too. *)
let transpose m rows cols cursor =
  let nnz = rows.start.(m) in
  Array.fill cols.start 0 (m + 1) 0;
  for k = 0 to nnz - 1 do
    let j = rows.idx.(k) in
    cols.start.(j + 1) <- cols.start.(j + 1) + 1
  done;
  for j = 0 to m - 1 do
    cols.start.(j + 1) <- cols.start.(j + 1) + cols.start.(j)
  done;
  Array.blit cols.start 0 cursor 0 m;
  reserve cols nnz;
  for i = 0 to m - 1 do
    for k = rows.start.(i) to rows.start.(i + 1) - 1 do
      let j = rows.idx.(k) in
      let p = cursor.(j) in
      cols.idx.(p) <- i;
      cols.v.(p) <- rows.v.(k);
      cursor.(j) <- p + 1
    done
  done

type t = {
  m : int;
  cols : (int array * float array) array;
  header : int array; (* owned jointly with the caller; [update] mutates it *)
  perm : int array; (* perm.(i) = original row now at position i *)
  diag : float array; (* U's diagonal *)
  l_rows : lines; (* strict lower triangle of L, by row *)
  u_rows : lines; (* strict upper triangle of U, by row *)
  l_cols : lines;
  u_cols : lines;
  cursor : int array; (* transposition scratch *)
  (* elimination scratch, clean between steps ([residual] borrows [work]
     there and leaves it clean) *)
  work : float array; (* the column being eliminated, by original row *)
  pattern : int array; (* original rows [work] touches *)
  mutable np : int; (* rows in [pattern] *)
  in_pattern : bool array;
  pending : bool array; (* pivots whose row entered the pattern, by pivot *)
  mutable lo : int; (* lowest and highest pending pivot *)
  mutable hi : int;
  mutable nl : int; (* entries of L and U made so far *)
  mutable nu : int;
  pos : int array; (* pos.(r) = position of original row r, inverse of [perm] *)
  etas : lines; (* nonzeros of each w_t, pivot entry excluded *)
  eta_row : int array;
  eta_piv : float array; (* w_t.(r_t) *)
  mutable n_etas : int;
}

let header t = t.header

(* No row pivoted, no factor entry, no eta. *)
let reset t =
  for i = 0 to t.m - 1 do
    t.perm.(i) <- i;
    t.pos.(i) <- i
  done;
  t.n_etas <- 0;
  t.nl <- 0;
  t.nu <- 0

(* Left-looking: the column of step c is scattered into [work], receives
   the updates of the earlier pivots in pivot order, then picks its pivot.
   Pivot p's row sits at position p from then on, so a row r is pivoted
   before step c exactly when pos.(r) < c, and then pos.(r) is its pivot.
   While steps run, [l_cols] holds L by column over original rows in
   pattern order; once every pivot is known its rows are renamed to their
   final positions and the counting transposes sort both L and U
   ([finish]).

   Row r enters step c's pattern. A pivot's column only reaches rows
   unpivoted when it was made, so it only flags later pivots and the
   upward scan from [lo] meets them all. *)
let touch t c r =
  if not (Array.unsafe_get t.in_pattern r) then begin
    Array.unsafe_set t.in_pattern r true;
    Array.unsafe_set t.pattern t.np r;
    t.np <- t.np + 1;
    let p = Array.unsafe_get t.pos r in
    if p < c then begin
      Array.unsafe_set t.pending p true;
      if p < t.lo then t.lo <- p;
      if p > t.hi then t.hi <- p
    end
  end

(* Step c on column [j]: true when j pivots, taking position c, on its
   unpivoted row of largest magnitude above [tol], ties going to the row
   first in the dense kernel's current order or, with [by_row], to the
   lowest row index. Otherwise j's U entries are undone and the
   factorization is as it was before the step. *)
let eliminate t c j ~tol ~by_row =
  let work = t.work and pattern = t.pattern and in_pattern = t.in_pattern in
  let pending = t.pending and pos = t.pos and perm = t.perm in
  let lc = t.l_cols and uc = t.u_cols in
  let rows, vals = t.cols.(j) in
  for k = 0 to Array.length rows - 1 do
    let r = rows.(k) in
    touch t c r;
    work.(r) <- work.(r) +. vals.(k)
  done;
  (* work.(r) -. (f *. u): the dense kernel's row update, same operands;
     a zero u changes nothing but the sign of a zero, so it is skipped. *)
  let p = ref t.lo in
  while !p <= t.hi do
    let p' = !p in
    if pending.(p') then begin
      pending.(p') <- false;
      let u = work.(perm.(p')) in
      if u <> 0.0 then begin
        push uc t.nu p' u;
        t.nu <- t.nu + 1;
        for k = lc.start.(p') to lc.start.(p' + 1) - 1 do
          let r = Array.unsafe_get lc.idx k in
          touch t c r;
          Array.unsafe_set work r
            (Array.unsafe_get work r -. (Array.unsafe_get lc.v k *. u))
        done
      end
    end;
    incr p
  done;
  t.lo <- t.m;
  t.hi <- -1;
  let best = ref (-1) and best_v = ref 0.0 in
  for q = 0 to t.np - 1 do
    let r = pattern.(q) in
    if pos.(r) >= c then begin
      let v = abs_float work.(r) in
      if
        v > !best_v
        || v = !best_v && !best >= 0 && (if by_row then r < !best else pos.(r) < pos.(!best))
      then begin
        best_v := v;
        best := r
      end
    end
  done;
  let pivoted = !best_v > tol in
  if pivoted then begin
    uc.start.(c + 1) <- t.nu;
    let w = !best in
    let pw = pos.(w) and rc = perm.(c) in
    perm.(pw) <- rc;
    pos.(rc) <- pw;
    perm.(c) <- w;
    pos.(w) <- c;
    let piv = work.(w) in
    t.diag.(c) <- piv;
    for q = 0 to t.np - 1 do
      let r = pattern.(q) in
      if pos.(r) > c then begin
        let f = work.(r) /. piv in
        if f <> 0.0 then begin
          push lc t.nl r f;
          t.nl <- t.nl + 1
        end
      end
    done;
    lc.start.(c + 1) <- t.nl
  end
  else t.nu <- uc.start.(c);
  for q = 0 to t.np - 1 do
    let r = pattern.(q) in
    work.(r) <- 0.0;
    in_pattern.(r) <- false
  done;
  t.np <- 0;
  pivoted

(* Once every position holds a pivot: L's rows renamed to their final
   positions, and both factors sorted by the counting transposes. *)
let finish t =
  let lc = t.l_cols in
  for k = 0 to t.nl - 1 do
    lc.idx.(k) <- t.pos.(lc.idx.(k))
  done;
  transpose t.m lc t.l_rows t.cursor;
  transpose t.m t.l_rows lc t.cursor;
  transpose t.m t.u_cols t.u_rows t.cursor

(* The header's columns in order, each pivoting above [singular_tol]. *)
let factor t =
  reset t;
  let c = ref 0 in
  while !c < t.m && eliminate t !c t.header.(!c) ~tol:singular_tol ~by_row:false do
    incr c
  done;
  if !c < t.m then Error "singular basis"
  else begin
    finish t;
    Ok ()
  end

let refactor t =
  Lp_counters.record_factorization ();
  factor t

let make ~cols ~header =
  let m = Array.length header in
  {
    m;
    cols;
    header;
    perm = Array.init m Fun.id;
    diag = Array.make m 0.0;
    l_rows = lines m;
    u_rows = lines m;
    l_cols = lines m;
    u_cols = lines m;
    cursor = Array.make m 0;
    work = Array.make m 0.0;
    pattern = Array.make m 0;
    np = 0;
    in_pattern = Array.make m false;
    pending = Array.make m false;
    lo = m;
    hi = -1;
    nl = 0;
    nu = 0;
    pos = Array.make m 0;
    etas = lines refactor_interval;
    eta_row = Array.make refactor_interval 0;
    eta_piv = Array.make refactor_interval 0.0;
    n_etas = 0;
  }

let create ~cols ~header =
  let t = make ~cols ~header in
  Result.map (fun () -> t) (refactor t)

(* A warm header's columns are dropped at this pivot magnitude, well above
   [singular_tol]: a column that barely pivots is better left to a slack. *)
let drop_tol = 1e-9

(* The forced slacks pivot on their own rows first, so the candidates can
   only pivot on shared rows. That is what keeps a start whose model only
   gained rows (a cut round, a survivor re-solve) dual feasible: its old
   basis is nonsingular on the shared rows, every candidate pivots there,
   and the header is the block-triangular [B 0; C I], priced as the old
   optimum. Free pivoting would put an old column on a new cut row (their
   ±1 entries dominate cost-sized ones) and swap another slack in.

   When the kept candidates leave no row unpivoted the header is decided
   whatever the tie rule, and the pass has made [create]'s factors.
   Otherwise the tie rule decides which rows stay unpivoted, hence which
   slacks complete the header: a second pass picks them with ties to the
   lowest row index, and [factor] then makes [create]'s factors of that
   header. *)
let warm ~cols ~forced ~candidates ~slack_of_row =
  let m = Array.length slack_of_row in
  let t = make ~cols ~header:(Array.make m (-1)) in
  Lp_counters.record_factorization ();
  let n = ref 0 in
  let place ~by_row j =
    if !n < m && eliminate t !n j ~tol:drop_tol ~by_row then begin
      t.header.(!n) <- j;
      incr n
    end
  in
  let pick ~by_row =
    reset t;
    n := 0;
    List.iter (place ~by_row) forced;
    List.iter (place ~by_row) candidates
  in
  pick ~by_row:false;
  if !n = m then begin
    finish t;
    Ok t
  end
  else begin
    Lp_counters.record_rank_deficient ();
    pick ~by_row:true;
    for i = 0 to m - 1 do
      if t.pos.(i) >= !n then place ~by_row:true slack_of_row.(i)
    done;
    if !n < m then Error "singular basis" else Result.map (fun () -> t) (factor t)
  end

(* x := E_e^-1 x, in place. *)
let eta_inverse t x e =
  let { start; idx; v } = t.etas in
  let r = t.eta_row.(e) in
  let xr = x.(r) /. t.eta_piv.(e) in
  if xr <> 0.0 then
    for k = start.(e) to start.(e + 1) - 1 do
      let i = Array.unsafe_get idx k in
      Array.unsafe_set x i (Array.unsafe_get x i -. (Array.unsafe_get v k *. xr))
    done;
  x.(r) <- xr

(* Solve B x = b:  L U x = P b, then undo the etas in application order. *)
let ftran t b =
  let m = t.m in
  let x = Array.make m 0.0 in
  for i = 0 to m - 1 do
    x.(i) <- b.(t.perm.(i))
  done;
  let { start; idx; v } = t.l_rows in
  for i = 0 to m - 1 do
    let s = ref x.(i) in
    for k = start.(i) to start.(i + 1) - 1 do
      s := !s -. (Array.unsafe_get v k *. Array.unsafe_get x (Array.unsafe_get idx k))
    done;
    x.(i) <- !s
  done;
  let { start; idx; v } = t.u_rows in
  for i = m - 1 downto 0 do
    let s = ref x.(i) in
    for k = start.(i) to start.(i + 1) - 1 do
      s := !s -. (Array.unsafe_get v k *. Array.unsafe_get x (Array.unsafe_get idx k))
    done;
    x.(i) <- !s /. t.diag.(i)
  done;
  for e = 0 to t.n_etas - 1 do
    eta_inverse t x e
  done;
  x

(* Solve Bᵀ y = c: transposed eta inverses newest-to-oldest, then
   Uᵀ forward, Lᵀ back, and undo the row permutation. *)
let btran t c =
  let m = t.m in
  let x = Array.copy c in
  let { start; idx; v } = t.etas in
  for e = t.n_etas - 1 downto 0 do
    let r = t.eta_row.(e) in
    let s = ref x.(r) in
    for k = start.(e) to start.(e + 1) - 1 do
      s := !s -. (Array.unsafe_get v k *. Array.unsafe_get x (Array.unsafe_get idx k))
    done;
    x.(r) <- !s /. t.eta_piv.(e)
  done;
  let { start; idx; v } = t.u_cols in
  for i = 0 to m - 1 do
    let s = ref x.(i) in
    for k = start.(i) to start.(i + 1) - 1 do
      s := !s -. (Array.unsafe_get v k *. Array.unsafe_get x (Array.unsafe_get idx k))
    done;
    x.(i) <- !s /. t.diag.(i)
  done;
  let { start; idx; v } = t.l_cols in
  for i = m - 1 downto 0 do
    let s = ref x.(i) in
    for k = start.(i) to start.(i + 1) - 1 do
      s := !s -. (Array.unsafe_get v k *. Array.unsafe_get x (Array.unsafe_get idx k))
    done;
    x.(i) <- !s
  done;
  let y = Array.make m 0.0 in
  for i = 0 to m - 1 do
    y.(t.perm.(i)) <- x.(i)
  done;
  y

(* [ftran]'s last step, on the FTRAN made before the newest eta was
   appended: the same operands, so the same bits. *)
let advance t x =
  let e = t.n_etas - 1 in
  if e < 0 then false
  else begin
    eta_inverse t x e;
    true
  end

let update t ~row ~col ~w =
  if abs_float w.(row) <= singular_tol then Error "pivot element too small"
  else begin
    t.header.(row) <- col;
    if t.n_etas >= refactor_interval then refactor t
    else begin
      let e = t.n_etas in
      let etas = t.etas in
      let k = ref etas.start.(e) in
      for i = 0 to t.m - 1 do
        let x = w.(i) in
        if x <> 0.0 && i <> row then begin
          push etas !k i x;
          incr k
        end
      done;
      etas.start.(e + 1) <- !k;
      t.eta_row.(e) <- row;
      t.eta_piv.(e) <- w.(row);
      t.n_etas <- e + 1;
      Ok ()
    end
  end

(* B x is summed into [work], the elimination scratch, which is all-zero
   between refactorizations and is left so. *)
let residual t ~b ~x =
  let m = t.m in
  let r = t.work in
  for p = 0 to m - 1 do
    let xp = x.(p) in
    if xp <> 0.0 then begin
      let rows, vals = t.cols.(t.header.(p)) in
      for k = 0 to Array.length rows - 1 do
        r.(rows.(k)) <- r.(rows.(k)) +. (vals.(k) *. xp)
      done
    end
  done;
  let num = ref 0.0 and den = ref 1.0 in
  for i = 0 to m - 1 do
    let d = abs_float (r.(i) -. b.(i)) in
    r.(i) <- 0.0;
    if d > !num then num := d;
    let bi = abs_float b.(i) in
    if bi > !den then den := bi
  done;
  !num /. !den
