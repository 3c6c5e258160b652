(** Exact rational arithmetic.

    Values are kept normalized: the denominator is positive and coprime with
    the numerator; zero is represented as [0/1]. Rationals carry the exact
    link weights, LP coefficients and schedule periods throughout the
    library, so that the weighted König decomposition and the exact simplex
    never suffer rounding drift. *)

type t

val zero : t
val one : t
val minus_one : t

(** [make num den] is the normalized rational [num/den].
    Raises [Division_by_zero] when [den] is zero. *)
val make : Zint.t -> Zint.t -> t

(** [of_ints n d] is [n/d] from machine integers. *)
val of_ints : int -> int -> t

val of_int : int -> t
val num : t -> Zint.t
val den : t -> Zint.t

(** Exact conversion of a finite float (dyadic rational). Raises
    [Invalid_argument] on NaN or infinities. *)
val of_float_exact : float -> t

(** [of_float_approx ?max_den x] is the best rational approximation of [x]
    with denominator at most [max_den] (default [10^9]), computed by
    continued fractions. Used to lift float LP solutions back to exact
    arithmetic before schedule reconstruction. *)
val of_float_approx : ?max_den:int -> float -> t

val to_float : t -> float

(** [sign q] is [-1], [0] or [1]. *)
val sign : t -> int

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [div a b]. Raises [Division_by_zero] when [b] is zero. *)
val div : t -> t -> t

(** [inv a] is [1/a]. Raises [Division_by_zero] when [a] is zero. *)
val inv : t -> t

(** Infix aliases, for formula-heavy code. *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

(** Least common multiple of the denominators of a list; [one] on the empty
    list. Scaling by this value turns the list into integers. *)
val common_denominator : t list -> Zint.t

(** [scale_to_int q m] is [q * m], which must be an integer; returns it as an
    [int]. Raises [Invalid_argument] when not integral or out of range. *)
val scale_to_int : t -> Zint.t -> int

(** [to_string q] prints ["n/d"], or just ["n"] when [d = 1]. [of_string]
    parses both forms. *)
val of_string : string -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit
