(* Unit and property tests for the arbitrary-precision rational substrate. *)

let nat = Alcotest.testable Nat.pp Nat.equal
let rat = Alcotest.testable Rat.pp Rat.equal

let check_nat = Alcotest.check nat
let check_rat = Alcotest.check rat

(* --- Nat unit tests --- *)

let test_nat_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check (option int)) "to_int (of_int n)" (Some n) (Nat.to_int (Nat.of_int n)))
    [ 0; 1; 2; 41; 1 lsl 24; (1 lsl 24) - 1; (1 lsl 48) + 17; max_int / 2 ]

let test_nat_add_sub () =
  let a = Nat.of_string "123456789012345678901234567890" in
  let b = Nat.of_string "987654321098765432109876543210" in
  check_nat "a + b" (Nat.of_string "1111111110111111111011111111100") (Nat.add a b);
  check_nat "(a+b)-b = a" a (Nat.sub (Nat.add a b) b);
  check_nat "a - a = 0" Nat.zero (Nat.sub a a)

let test_nat_mul () =
  let a = Nat.of_string "123456789012345678901234567890" in
  check_nat "a * 0" Nat.zero (Nat.mul a Nat.zero);
  check_nat "a * 1" a (Nat.mul a Nat.one);
  check_nat "small" (Nat.of_int 391) (Nat.mul (Nat.of_int 17) (Nat.of_int 23));
  check_nat "big square"
    (Nat.of_string "15241578753238836750495351562536198787501905199875019052100")
    (Nat.mul a a)

let test_nat_divmod () =
  let a = Nat.of_string "15241578753238836750495351562536198787501905199875019052100" in
  let b = Nat.of_string "123456789012345678901234567890" in
  let q, r = Nat.divmod a b in
  check_nat "exact quotient" b q;
  check_nat "exact remainder" Nat.zero r;
  let q, r = Nat.divmod (Nat.add a Nat.one) b in
  check_nat "quotient" b q;
  check_nat "remainder" Nat.one r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod a Nat.zero))

let test_nat_gcd () =
  check_nat "gcd(12,18)" (Nat.of_int 6) (Nat.gcd (Nat.of_int 12) (Nat.of_int 18));
  check_nat "gcd(0,x)" (Nat.of_int 7) (Nat.gcd Nat.zero (Nat.of_int 7));
  check_nat "lcm(4,6)" (Nat.of_int 12) (Nat.lcm (Nat.of_int 4) (Nat.of_int 6))

let test_nat_pow_shift () =
  check_nat "2^10" (Nat.of_int 1024) (Nat.pow Nat.two 10);
  check_nat "shift_left" (Nat.of_int (7 lsl 30)) (Nat.shift_left (Nat.of_int 7) 30);
  check_nat "shift_right" (Nat.of_int 7) (Nat.shift_right (Nat.of_int (7 lsl 30)) 30);
  Alcotest.(check int) "bits 0" 0 (Nat.bits Nat.zero);
  Alcotest.(check int) "bits 1" 1 (Nat.bits Nat.one);
  Alcotest.(check int) "bits 2^24" 25 (Nat.bits (Nat.of_int (1 lsl 24)))

let test_nat_string () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Nat.to_string (Nat.of_string s)))
    [ "0"; "1"; "999999999"; "1000000000"; "123456789012345678901234567890" ]

(* --- Zint unit tests --- *)

let zint = Alcotest.testable Zint.pp Zint.equal

let test_zint_arith () =
  let z = Zint.of_int in
  Alcotest.check zint "add" (z 1) (Zint.add (z 5) (z (-4)));
  Alcotest.check zint "sub" (z (-9)) (Zint.sub (z (-5)) (z 4));
  Alcotest.check zint "mul" (z (-20)) (Zint.mul (z 5) (z (-4)));
  Alcotest.check zint "neg zero" Zint.zero (Zint.neg Zint.zero)

let test_zint_ediv () =
  let z = Zint.of_int in
  let check_pair name (eq, er) (a, b) =
    let q, r = Zint.ediv_rem (z a) (z b) in
    Alcotest.check zint (name ^ " q") (z eq) q;
    Alcotest.check zint (name ^ " r") (z er) r
  in
  check_pair "7/2" (3, 1) (7, 2);
  check_pair "-7/2" (-4, 1) (-7, 2);
  check_pair "7/-2" (-3, 1) (7, -2);
  check_pair "-7/-2" (4, 1) (-7, -2);
  check_pair "6/3" (2, 0) (6, 3);
  check_pair "-6/3" (-2, 0) (-6, 3)

(* Reference integers as (sign, magnitude) over Nat, normalized so a zero
   magnitude has sign 0. Zint keeps native ints below 2^62 and Nat beyond,
   so every operation below is checked against plain Nat arithmetic. *)
let ref_norm (s, m) = if Nat.is_zero m then (0, Nat.zero) else (s, m)
let ref_to_zint (s, m) = if s < 0 then Zint.neg (Zint.of_nat m) else Zint.of_nat m

let ref_to_string (s, m) = (if s < 0 then "-" else "") ^ Nat.to_string m

let ref_add (sa, ma) (sb, mb) =
  if sa = 0 then (sb, mb)
  else if sb = 0 then (sa, ma)
  else if sa = sb then (sa, Nat.add ma mb)
  else if Nat.compare ma mb >= 0 then ref_norm (sa, Nat.sub ma mb)
  else (sb, Nat.sub mb ma)

let ref_mul (sa, ma) (sb, mb) = ref_norm (sa * sb, Nat.mul ma mb)

let ref_ediv_rem (sa, ma) (sb, mb) =
  let q, r = Nat.divmod ma mb in
  if sa >= 0 || Nat.is_zero r then (ref_norm (sa * sb, q), ref_norm (1, r))
  else (ref_norm (-sb, Nat.add q Nat.one), ref_norm (1, Nat.sub mb r))

let ref_compare (sa, ma) (sb, mb) =
  if sa <> sb then compare sa sb
  else if sa >= 0 then Nat.compare ma mb
  else Nat.compare mb ma

(* [z] must be the reference value [r], in canonical form: structurally equal
   to the same value parsed from its decimal string. *)
let check_zint name r z =
  let expect = ref_to_string r in
  Alcotest.(check string) name expect (Zint.to_string z);
  Alcotest.(check bool) (name ^ ": canonical") true (z = Zint.of_string expect)

let check_zint_pair (a, b) =
  let za = ref_to_zint a and zb = ref_to_zint b in
  let name = Printf.sprintf "(%s, %s)" (ref_to_string a) (ref_to_string b) in
  check_zint (name ^ " add") (ref_add a b) (Zint.add za zb);
  check_zint (name ^ " sub") (ref_add a (ref_norm (-fst b, snd b))) (Zint.sub za zb);
  check_zint (name ^ " mul") (ref_mul a b) (Zint.mul za zb);
  check_zint (name ^ " gcd") (ref_norm (1, Nat.gcd (snd a) (snd b))) (Zint.gcd za zb);
  Alcotest.(check int) (name ^ " compare") (ref_compare a b) (Zint.compare za zb);
  if fst b = 0 then
    Alcotest.check_raises (name ^ " ediv_rem") Division_by_zero (fun () ->
        ignore (Zint.ediv_rem za zb))
  else begin
    let rq, rr = ref_ediv_rem a b and q, r = Zint.ediv_rem za zb in
    check_zint (name ^ " quotient") rq q;
    check_zint (name ^ " remainder") rr r
  end

let check_zint_unary ((s, m) as a) =
  let z = ref_to_zint a and name = ref_to_string a in
  Alcotest.(check (option int)) (name ^ " to_int")
    (Option.map (fun i -> s * i) (Nat.to_int m))
    (Zint.to_int z);
  Alcotest.(check (float 0.0)) (name ^ " to_float")
    (float_of_int s *. Nat.to_float m)
    (Zint.to_float z);
  Alcotest.(check int) (name ^ " sign") s (Zint.sign z);
  check_zint (name ^ " of_string") a (Zint.of_string (Zint.to_string z));
  check_nat (name ^ " abs_nat") m (Zint.abs_nat z)

let zint_boundaries =
  let p k = Nat.shift_left Nat.one k in
  let mags =
    [ Nat.zero; Nat.one; p 24; p 31; Nat.sub (p 31) Nat.one; p 48; Nat.of_int max_int;
      p 62; Nat.add (p 62) Nat.one; p 63; p 70; Nat.mul (p 40) (Nat.of_int 3) ]
  in
  List.concat_map (fun m -> List.map ref_norm [ (1, m); (-1, m) ]) mags

let test_zint_boundaries () =
  List.iter check_zint_unary zint_boundaries;
  List.iter
    (fun a -> List.iter (fun b -> check_zint_pair (a, b)) zint_boundaries)
    zint_boundaries

let test_zint_random_sweep () =
  let rng = Random.State.make [| 2024; 62 |] in
  (* Magnitudes up to 80 bits, skewed towards the 62-bit boundary. *)
  let gen () =
    let bits =
      match Random.State.int rng 4 with
      | 0 -> 62
      | 1 -> 63
      | 2 -> 31
      | _ -> Random.State.int rng 81
    in
    let m = ref Nat.zero in
    for _ = 1 to (bits + 29) / 30 do
      m := Nat.add (Nat.shift_left !m 30) (Nat.of_int (Random.State.bits rng))
    done;
    let m = Nat.shift_right !m (max 0 (Nat.bits !m - bits)) in
    ref_norm ((if Random.State.bool rng then 1 else -1), m)
  in
  for _ = 1 to 3000 do
    let a = gen () and b = gen () in
    check_zint_unary a;
    check_zint_pair (a, b)
  done

let test_zint_canonical () =
  let z = Zint.of_int in
  let big = Zint.add (z max_int) Zint.one in
  Alcotest.(check (option int)) "max_int + 1 is not an int" None (Zint.to_int big);
  Alcotest.(check bool) "(max_int + 1) - 1 = max_int, structurally" true
    (Zint.sub big Zint.one = z max_int);
  Alcotest.check zint "(max_int + 1) - 1 equal" (z max_int) (Zint.sub big Zint.one);
  let wide = Zint.mul (z max_int) (z 6) in
  Alcotest.(check bool) "quotient back in range is small" true
    (fst (Zint.ediv_rem wide (z 6)) = z max_int);
  Alcotest.(check bool) "gcd back in range is small" true (Zint.gcd wide (z 4) = z 2);
  Alcotest.(check bool) "product with zero is small" true (Zint.mul wide Zint.zero = Zint.zero);
  Alcotest.(check bool) "-0 parses to zero" true (Zint.of_string "-0" = Zint.zero)

let test_min_int () =
  let m = Zint.of_int min_int in
  Alcotest.(check string) "of_int min_int" (string_of_int min_int) (Zint.to_string m);
  Alcotest.check zint "min_int + 1" (Zint.of_int (min_int + 1)) (Zint.add m Zint.one);
  Alcotest.check zint "(min_int + 1) - 1" m (Zint.sub (Zint.of_int (min_int + 1)) Zint.one);
  Alcotest.(check bool) "min_int + 1 is small again" true
    (Zint.add m Zint.one = Zint.of_int (min_int + 1));
  Alcotest.(check string) "-min_int" "4611686018427387904" (Zint.to_string (Zint.neg m));
  Alcotest.(check string) "Rat.of_ints min_int 1" (string_of_int min_int)
    (Rat.to_string (Rat.of_ints min_int 1));
  Alcotest.(check string) "Rat.of_ints 1 min_int" "-1/4611686018427387904"
    (Rat.to_string (Rat.of_ints 1 min_int));
  check_rat "Rat.of_ints min_int min_int" Rat.one (Rat.of_ints min_int min_int)

(* --- Rat unit tests --- *)

let test_rat_normalization () =
  check_rat "6/4 = 3/2" (Rat.of_ints 3 2) (Rat.of_ints 6 4);
  check_rat "-6/-4 = 3/2" (Rat.of_ints 3 2) (Rat.of_ints (-6) (-4));
  check_rat "6/-4 = -3/2" (Rat.of_ints (-3) 2) (Rat.of_ints 6 (-4));
  Alcotest.(check string) "print" "-3/2" (Rat.to_string (Rat.of_ints 6 (-4)));
  Alcotest.(check string) "print int" "5" (Rat.to_string (Rat.of_ints 10 2))

let test_rat_arith () =
  let q = Rat.of_ints in
  check_rat "1/2 + 1/3" (q 5 6) (Rat.add (q 1 2) (q 1 3));
  check_rat "1/2 - 1/3" (q 1 6) (Rat.sub (q 1 2) (q 1 3));
  check_rat "2/3 * 3/4" (q 1 2) (Rat.mul (q 2 3) (q 3 4));
  check_rat "(2/3) / (4/3)" (q 1 2) (Rat.div (q 2 3) (q 4 3));
  check_rat "inv" (q 3 2) (Rat.inv (q 2 3));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Rat.div Rat.one Rat.zero))

let test_rat_compare () =
  let q = Rat.of_ints in
  Alcotest.(check bool) "1/3 < 1/2" true Rat.(q 1 3 < q 1 2);
  Alcotest.(check bool) "-1/2 < 1/3" true Rat.(q (-1) 2 < q 1 3);
  check_rat "min" (q 1 3) (Rat.min (q 1 3) (q 1 2));
  check_rat "max" (q 1 2) (Rat.max (q 1 3) (q 1 2))

let test_rat_float () =
  check_rat "of_float_exact 0.5" (Rat.of_ints 1 2) (Rat.of_float_exact 0.5);
  check_rat "of_float_exact 0.375" (Rat.of_ints 3 8) (Rat.of_float_exact 0.375);
  Alcotest.(check (float 1e-12)) "to_float" 0.6 (Rat.to_float (Rat.of_ints 3 5));
  check_rat "approx 1/3" (Rat.of_ints 1 3) (Rat.of_float_approx (1.0 /. 3.0));
  check_rat "approx 710/113" (Rat.of_ints 710 113)
    (Rat.of_float_approx (710.0 /. 113.0));
  check_rat "approx neg" (Rat.of_ints (-1) 7) (Rat.of_float_approx (-1.0 /. 7.0));
  check_rat "approx int" (Rat.of_int 42) (Rat.of_float_approx 42.0)

let test_rat_common_denominator () =
  let q = Rat.of_ints in
  let d = Rat.common_denominator [ q 1 2; q 1 3; q 5 6 ] in
  Alcotest.check zint "lcm(2,3,6)" (Zint.of_int 6) d;
  Alcotest.(check int) "scale 1/2 by 6" 3 (Rat.scale_to_int (q 1 2) d);
  Alcotest.(check int) "scale 5/6 by 6" 5 (Rat.scale_to_int (q 5 6) d)

(* --- properties --- *)

let gen_nat =
  QCheck.Gen.(
    map
      (fun parts ->
        List.fold_left
          (fun acc p -> Nat.add (Nat.mul acc (Nat.of_int 1000000)) (Nat.of_int p))
          Nat.zero parts)
      (list_size (int_range 1 6) (int_bound 999999)))

let arb_nat = QCheck.make ~print:Nat.to_string gen_nat

let arb_rat =
  QCheck.make
    ~print:Rat.to_string
    QCheck.Gen.(
      map2
        (fun n d -> Rat.of_ints n (1 + d))
        (int_range (-10000) 10000)
        (int_bound 9999))

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let nat_props =
  [
    prop "add commutative" 200 (QCheck.pair arb_nat arb_nat) (fun (a, b) ->
        Nat.equal (Nat.add a b) (Nat.add b a));
    prop "mul commutative" 200 (QCheck.pair arb_nat arb_nat) (fun (a, b) ->
        Nat.equal (Nat.mul a b) (Nat.mul b a));
    prop "mul distributes" 200 (QCheck.triple arb_nat arb_nat arb_nat) (fun (a, b, c) ->
        Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)));
    prop "divmod reconstructs" 200 (QCheck.pair arb_nat arb_nat) (fun (a, b) ->
        QCheck.assume (not (Nat.is_zero b));
        let q, r = Nat.divmod a b in
        Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0);
    prop "string roundtrip" 200 arb_nat (fun a ->
        Nat.equal a (Nat.of_string (Nat.to_string a)));
    prop "gcd divides both" 200 (QCheck.pair arb_nat arb_nat) (fun (a, b) ->
        QCheck.assume (not (Nat.is_zero a) && not (Nat.is_zero b));
        let g = Nat.gcd a b in
        Nat.is_zero (Nat.rem a g) && Nat.is_zero (Nat.rem b g));
    prop "shift inverse" 200 (QCheck.pair arb_nat (QCheck.int_bound 100)) (fun (a, k) ->
        Nat.equal a (Nat.shift_right (Nat.shift_left a k) k));
  ]

let rat_props =
  [
    prop "field: add assoc" 300 (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
        Rat.equal (Rat.add (Rat.add a b) c) (Rat.add a (Rat.add b c)));
    prop "field: mul assoc" 300 (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
        Rat.equal (Rat.mul (Rat.mul a b) c) (Rat.mul a (Rat.mul b c)));
    prop "field: distributivity" 300 (QCheck.triple arb_rat arb_rat arb_rat)
      (fun (a, b, c) ->
        Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)));
    prop "field: add inverse" 300 arb_rat (fun a ->
        Rat.is_zero (Rat.add a (Rat.neg a)));
    prop "field: mul inverse" 300 arb_rat (fun a ->
        QCheck.assume (not (Rat.is_zero a));
        Rat.equal Rat.one (Rat.mul a (Rat.inv a)));
    prop "sub then add" 300 (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
        Rat.equal a (Rat.add (Rat.sub a b) b));
    prop "compare antisymmetric" 300 (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
        Rat.compare a b = -Rat.compare b a);
    prop "to_float monotone" 300 (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
        if Rat.(a < b) then Rat.to_float a <= Rat.to_float b else true);
    prop "string roundtrip" 300 arb_rat (fun a ->
        Rat.equal a (Rat.of_string (Rat.to_string a)));
    prop "float approx exact for small fractions" 300 arb_rat (fun a ->
        (* denominators <= 10^4 are recovered exactly from a double *)
        Rat.equal a (Rat.of_float_approx (Rat.to_float a)));
  ]

let suite =
  [
    ("nat: int roundtrip", `Quick, test_nat_roundtrip);
    ("nat: add/sub", `Quick, test_nat_add_sub);
    ("nat: mul", `Quick, test_nat_mul);
    ("nat: divmod", `Quick, test_nat_divmod);
    ("nat: gcd/lcm", `Quick, test_nat_gcd);
    ("nat: pow/shift/bits", `Quick, test_nat_pow_shift);
    ("nat: strings", `Quick, test_nat_string);
    ("zint: arith", `Quick, test_zint_arith);
    ("zint: euclidean division", `Quick, test_zint_ediv);
    ("zint: boundary values vs Nat reference", `Quick, test_zint_boundaries);
    ("zint: seeded random sweep vs Nat reference", `Quick, test_zint_random_sweep);
    ("zint: canonical form", `Quick, test_zint_canonical);
    ("zint: min_int is total", `Quick, test_min_int);
    ("rat: normalization", `Quick, test_rat_normalization);
    ("rat: arith", `Quick, test_rat_arith);
    ("rat: compare", `Quick, test_rat_compare);
    ("rat: float conversions", `Quick, test_rat_float);
    ("rat: common denominator", `Quick, test_rat_common_denominator);
  ]
  @ nat_props @ rat_props
