(* A value with |v| <= max_int is always [S v]; anything larger in magnitude
   (min_int included, whose magnitude is 2^62) is sign-magnitude [B] over
   Nat with [sg] in {-1, 1} and [mag > max_int]. The form is canonical, so
   structural equality coincides with [equal]. Small operations detect
   overflow and redo the operation on magnitudes; every result goes back
   through [of_sign_mag], so a result that shrinks into range is small. *)

type t = S of int | B of { sg : int; mag : Nat.t }

let of_sign_mag sg mag =
  match Nat.to_int mag with Some i -> S (sg * i) | None -> B { sg; mag }

let zero = S 0
let one = S 1
let minus_one = S (-1)

let of_int n =
  if n = min_int then B { sg = -1; mag = Nat.shift_left Nat.one (Sys.int_size - 1) }
  else S n

let to_int = function S n -> Some n | B _ -> None

(* For |n| < 2^62, float_of_int is one correctly rounded conversion, as is
   Nat.to_float's digit loop, so both give the same float. *)
let to_float = function
  | S n -> float_of_int n
  | B b -> float_of_int b.sg *. Nat.to_float b.mag

let of_nat mag = of_sign_mag 1 mag
let abs_nat = function S n -> Nat.of_int (Stdlib.abs n) | B b -> b.mag
let sign = function S n -> Int.compare n 0 | B b -> b.sg
let is_zero = function S 0 -> true | _ -> false

let equal a b =
  match (a, b) with
  | S x, S y -> Int.equal x y
  | B x, B y -> x.sg = y.sg && Nat.equal x.mag y.mag
  | _ -> false

let compare a b =
  match (a, b) with
  | S x, S y -> Int.compare x y
  | S _, B y -> -y.sg
  | B x, S _ -> x.sg
  | B x, B y ->
    if x.sg <> y.sg then Int.compare x.sg y.sg
    else if x.sg > 0 then Nat.compare x.mag y.mag
    else Nat.compare y.mag x.mag

let neg = function S n -> S (-n) | B b -> B { b with sg = -b.sg }

(* --- magnitude paths, taken on overflow or when an operand is big --- *)

let sign_mag = function
  | S n -> (Int.compare n 0, Nat.of_int (Stdlib.abs n))
  | B b -> (b.sg, b.mag)

let add_big a b =
  let sa, ma = sign_mag a and sb, mb = sign_mag b in
  if sa = 0 then b
  else if sb = 0 then a
  else if sa = sb then of_sign_mag sa (Nat.add ma mb)
  else begin
    let c = Nat.compare ma mb in
    if c = 0 then zero
    else if c > 0 then of_sign_mag sa (Nat.sub ma mb)
    else of_sign_mag sb (Nat.sub mb ma)
  end

let mul_big a b =
  let sa, ma = sign_mag a and sb, mb = sign_mag b in
  of_sign_mag (sa * sb) (Nat.mul ma mb)

let ediv_rem_big a b =
  let sa, ma = sign_mag a and sb, mb = sign_mag b in
  let q, r = Nat.divmod ma mb in
  if sa >= 0 then (of_sign_mag sb q, of_nat r)
  else if Nat.is_zero r then (of_sign_mag (-sb) q, zero)
  else (of_sign_mag (-sb) (Nat.add q Nat.one), of_nat (Nat.sub mb r))

(* --- native fast paths --- *)

(* A sum overflowed iff it differs in sign from both operands; min_int is
   in range for the machine but not for [S]. *)
let add a b =
  match (a, b) with
  | S x, S y ->
    let s = x + y in
    if (x lxor s) land (y lxor s) < 0 || s = min_int then add_big a b else S s
  | _ -> add_big a b

let sub a b =
  match (a, b) with
  | S x, S y ->
    let d = x - y in
    if (x lxor y) land (x lxor d) < 0 || d = min_int then add_big a (neg b) else S d
  | _ -> add_big a (neg b)

(* Factors below 2^31 in magnitude cannot overflow; otherwise the product
   is checked by dividing it back. Neither factor is min_int. *)
let mul a b =
  match (a, b) with
  | S x, S y ->
    if Stdlib.abs x < 1 lsl 31 && Stdlib.abs y < 1 lsl 31 then S (x * y)
    else begin
      let p = x * y in
      if x <> 0 && (p / x <> y || p = min_int) then mul_big a b else S p
    end
  | _ -> mul_big a b

let ediv_rem a b =
  match (a, b) with
  | _, S 0 -> raise Division_by_zero
  | S x, S y ->
    let q = x / y and r = x mod y in
    if r >= 0 then (S q, S r)
    else if y > 0 then (S (q - 1), S (r + y))
    else (S (q + 1), S (r - y))
  | _ -> ediv_rem_big a b

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let gcd a b =
  match (a, b) with
  | S x, S y -> S (gcd_int (Stdlib.abs x) (Stdlib.abs y))
  | _ -> of_nat (Nat.gcd (abs_nat a) (abs_nat b))

let of_string s =
  let tail () = String.sub s 1 (String.length s - 1) in
  if String.length s > 0 && s.[0] = '-' then of_sign_mag (-1) (Nat.of_string (tail ()))
  else if String.length s > 0 && s.[0] = '+' then of_nat (Nat.of_string (tail ()))
  else of_nat (Nat.of_string s)

let to_string = function
  | S n -> string_of_int n
  | B b -> if b.sg < 0 then "-" ^ Nat.to_string b.mag else Nat.to_string b.mag

let pp fmt n = Format.pp_print_string fmt (to_string n)
