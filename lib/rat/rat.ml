type t = { n : Zint.t; d : Zint.t }

let make num den =
  if Zint.is_zero den then raise Division_by_zero;
  if Zint.is_zero num then { n = Zint.zero; d = Zint.one }
  else begin
    let g = Zint.gcd num den in
    let n, d =
      if Zint.equal g Zint.one then (num, den)
      else (fst (Zint.ediv_rem num g), fst (Zint.ediv_rem den g))
    in
    if Zint.sign d < 0 then { n = Zint.neg n; d = Zint.neg d } else { n; d }
  end

let zero = { n = Zint.zero; d = Zint.one }
let one = { n = Zint.one; d = Zint.one }
let minus_one = { n = Zint.minus_one; d = Zint.one }
let of_ints n d = make (Zint.of_int n) (Zint.of_int d)
let of_int n = { n = Zint.of_int n; d = Zint.one }
let num q = q.n
let den q = q.d

let of_float_exact x =
  match Float.classify_float x with
  | FP_nan | FP_infinite -> invalid_arg "Rat.of_float_exact: not finite"
  | FP_zero -> zero
  | FP_normal | FP_subnormal ->
    let m, e = Float.frexp x in
    (* m * 2^53 is integral for any finite float. *)
    let mi = Int64.of_float (Float.ldexp m 53) in
    let n = Zint.of_string (Int64.to_string mi) in
    let e = e - 53 in
    if e >= 0 then make (Zint.mul n (Zint.of_nat (Nat.pow Nat.two e))) Zint.one
    else make n (Zint.of_nat (Nat.pow Nat.two (-e)))

let to_float q = Zint.to_float q.n /. Zint.to_float q.d
let sign q = Zint.sign q.n
let is_zero q = Zint.is_zero q.n
let equal a b = Zint.equal a.n b.n && Zint.equal a.d b.d

let compare a b =
  Zint.compare (Zint.mul a.n b.d) (Zint.mul b.n a.d)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let neg q = { n = Zint.neg q.n; d = q.d }

let add a b =
  make (Zint.add (Zint.mul a.n b.d) (Zint.mul b.n a.d)) (Zint.mul a.d b.d)

let sub a b =
  make (Zint.sub (Zint.mul a.n b.d) (Zint.mul b.n a.d)) (Zint.mul a.d b.d)

let mul a b = make (Zint.mul a.n b.n) (Zint.mul a.d b.d)
let div a b = make (Zint.mul a.n b.d) (Zint.mul a.d b.n)
let inv a = make a.d a.n

(* Best approximation with bounded denominator, by the classical
   continued-fraction convergent recurrence on the float value. *)
let of_float_approx ?(max_den = 1_000_000_000) x =
  if Float.is_nan x then invalid_arg "Rat.of_float_approx: nan"
  else if Float.is_integer x then of_int (int_of_float x)
  else begin
    let neg_input = Stdlib.( < ) x 0.0 in
    let x = Float.abs x in
    let rec go x (p0, q0) (p1, q1) depth =
      let a = int_of_float (Float.floor x) in
      let p2 = (a * p1) + p0 and q2 = (a * q1) + q0 in
      if q2 > max_den || q2 < 0 || depth > 40 then (p1, q1)
      else begin
        let frac = x -. float_of_int a in
        if Stdlib.( < ) frac 1e-13 then (p2, q2)
        else go (1.0 /. frac) (p1, q1) (p2, q2) (depth + 1)
      end
    in
    let p, q = go x (0, 1) (1, 0) 0 in
    let r = of_ints p (Stdlib.max q 1) in
    if neg_input then neg r else r
  end

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( = ) = equal
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0

let common_denominator qs =
  List.fold_left
    (fun acc q -> Zint.of_nat (Nat.lcm (Zint.abs_nat acc) (Zint.abs_nat q.d)))
    Zint.one qs

let scale_to_int q m =
  let v = mul q { n = m; d = Zint.one } in
  if not (Zint.equal v.d Zint.one) then
    invalid_arg "Rat.scale_to_int: not integral";
  match Zint.to_int v.n with
  | Some i -> i
  | None -> invalid_arg "Rat.scale_to_int: out of int range"

let of_string s =
  match String.index_opt s '/' with
  | None -> { n = Zint.of_string s; d = Zint.one }
  | Some i ->
    make
      (Zint.of_string (String.sub s 0 i))
      (Zint.of_string (String.sub s Stdlib.(i + 1) Stdlib.(String.length s - i - 1)))

let to_string q =
  if Zint.equal q.d Zint.one then Zint.to_string q.n
  else Zint.to_string q.n ^ "/" ^ Zint.to_string q.d

let pp fmt q = Format.pp_print_string fmt (to_string q)
