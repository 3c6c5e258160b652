(** Arbitrary-precision signed integers, layered over {!Nat}.

    A value whose magnitude fits an OCaml [int] (|v| <= [max_int]) is held
    as a native int, and arithmetic on such values runs in native
    instructions with overflow checks. Larger values ([min_int] included,
    whose magnitude is 2{^62}) are held in sign-magnitude form over {!Nat}.
    An overflowing result moves to the {!Nat} form, and a result that
    shrinks back into range returns to the native form. The form is
    canonical: a value that fits is always native, so structural equality
    agrees with {!equal}. Hashes and polymorphic ordering of a [t] are not
    part of the interface; use {!equal} and {!compare}. *)

type t

val zero : t
val one : t
val minus_one : t

val of_int : int -> t
val to_int : t -> int option
val to_float : t -> float

(** [of_nat n] embeds a natural number. *)
val of_nat : Nat.t -> t

(** Magnitude as a natural number. *)
val abs_nat : t -> Nat.t

(** [sign n] is [-1], [0] or [1]. *)
val sign : t -> int

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** Euclidean division: [ediv_rem a b = (q, r)] with [a = q*b + r] and
    [0 <= r < |b|]. Raises [Division_by_zero] when [b] is zero. *)
val ediv_rem : t -> t -> t * t

(** Greatest common divisor of magnitudes; always non-negative. *)
val gcd : t -> t -> t

val of_string : string -> t
val to_string : t -> string
val pp : Format.formatter -> t -> unit
