(** Arbitrary-precision natural numbers.

    Values are immutable. The representation is a little-endian array of
    base-[2^24] digits with no leading zero digit; the number zero is the
    empty array. This module is the foundation of {!Zint} and {!Rat}, which
    the exact simplex engine and the weighted edge-colouring decomposition
    rely on for overflow-free arithmetic. *)

type t

val zero : t
val one : t
val two : t

(** [of_int n] converts a non-negative [int]. Raises [Invalid_argument] on
    negative input. *)
val of_int : int -> t

(** [to_int n] returns [Some i] when [n] fits in an OCaml [int]. *)
val to_int : t -> int option

val to_float : t -> float

val is_zero : t -> bool
val equal : t -> t -> bool

(** Total order; [compare a b] is negative, zero or positive as [a < b],
    [a = b] or [a > b]. *)
val compare : t -> t -> int

val add : t -> t -> t

(** [sub a b] is [a - b]. Raises [Invalid_argument] when [b > a]. *)
val sub : t -> t -> t

val mul : t -> t -> t

(** [divmod a b] is [(a / b, a mod b)] with [a = q*b + r] and [0 <= r < b].
    Raises [Division_by_zero] when [b] is zero. *)
val divmod : t -> t -> t * t

val rem : t -> t -> t

(** Greatest common divisor; [gcd zero x = x]. *)
val gcd : t -> t -> t

(** Least common multiple; [lcm zero x = zero]. *)
val lcm : t -> t -> t

(** [pow b e] is [b] raised to the non-negative exponent [e]. *)
val pow : t -> int -> t

(** Number of significant bits; [bits zero = 0]. *)
val bits : t -> int

(** [shift_left n k] multiplies by [2^k]. *)
val shift_left : t -> int -> t

(** [shift_right n k] divides by [2^k], rounding toward zero. *)
val shift_right : t -> int -> t

(** Decimal string conversion. [of_string] accepts an optional run of ASCII
    digits and raises [Invalid_argument] on anything else. *)
val of_string : string -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit
