(** Arbitrary-precision natural numbers.

    Values are immutable. The representation uses base-[2^31] limbs stored
    little-endian in an [int array] with no leading zero limbs, so every
    mathematical natural has exactly one representation. All operations are
    exact. This module is the foundation of the {!Bigfloat} shadow
    arithmetic that replaces MPFR in this reproduction. [isqrt] is
    Zimmermann's Karatsuba square root and equals the Newton loop kept
    in {!Reference} on every input; [horner_div] and [sum_div] are the
    fixed-point steps under the series kernels of {!Bigfloat_math},
    whose [exp], [log] and other series results are bit-identical to
    [Bigfloat_math.Reference]. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative [int]. Raises [Invalid_argument] on
    negative input. *)

val to_int_opt : t -> int option
(** [to_int_opt n] is [Some i] when [n] fits in a non-negative OCaml [int]. *)

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val add : t -> t -> t
val sub : t -> t -> t
(** [sub a b] requires [a >= b]; raises [Invalid_argument] otherwise. *)

val mul : t -> t -> t
val mul_int : t -> int -> t
(** [mul_int a k] multiplies by a small non-negative int. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b]. Raises
    [Division_by_zero] when [b] is zero. *)

val quot_exact : t -> t -> t * bool
(** [quot_exact a b] is [(q, r = 0)] for [(q, r) = divmod a b], without
    materializing [r]: {!Bigfloat.div} only needs its sticky bit. Raises
    [Division_by_zero] when [b] is zero. *)

val divmod_int : t -> int -> t * int
(** [divmod_int a k] divides by a small positive int. *)

val horner_div : alternating:bool -> shift:int -> t array -> int array -> t -> t
(** [horner_div ~alternating ~shift ps ds t] runs the Horner steps
    [t <- p_i + t / ds.(i)] ([-] when [alternating]) with
    [p_i = ps.(i) / 2^shift], for [i] from the last index of [ds] down to
    0, with [0 < ds.(i) < 2^31], and returns the final [t]. Runs of steps
    whose divisors multiply below [2^31] are evaluated exactly and
    floored once, so the result is within one unit per step of the exact
    nested value. When [alternating], every step's exact value must be
    non-negative. *)

val sum_div : alternating:bool -> shift:int -> t array -> int array -> t -> t
(** [sum_div ~alternating ~shift ps ds t] is
    [t + sum_i s_i p_i / ds.(i)] over the indices of [ds], with
    [p_i = ps.(i) / 2^shift], [0 < ds.(i) < 2^31] and [s_i = 1], or
    [(-1)^i] when [alternating], floored once per run of divisors that
    multiply below [2^31]: within one unit per term of the exact sum.
    When [alternating], [p_i / ds.(i)] must not increase with [i] and
    the sum must be non-negative. *)

val divshift_int : t -> int -> int -> t * int
(** [divshift_int a s k] is [divmod_int (shift_left a s) k] in one pass,
    without materializing the shifted dividend. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val add_shifted : t -> int -> t -> t
(** [add_shifted a s b] is [a*2^s + b] ([s >= 0]), fusing the alignment
    shift of floating-point addition into the add: one pass, one
    allocation. *)

val sub_shifted : t -> int -> t -> t
(** [sub_shifted a s b] is [a*2^s - b]; requires [a*2^s >= b] and
    [s >= 0], raising [Invalid_argument] otherwise. *)

val bit_length : t -> int
(** [bit_length n] is the position of the highest set bit plus one; 0 for
    zero. *)

val testbit : t -> int -> bool
(** [testbit n i] is bit [i] (little-endian) of [n]. *)

val any_bit_below : t -> int -> bool
(** [any_bit_below n i] is true when some bit strictly below position [i]
    is set. O(1) on odd values. *)

val extract_int : t -> int -> int -> int
(** [extract_int n lo len] is bits [\[lo, lo + len)] of [n] as an [int],
    for [0 <= len <= 62]; one pass over at most three limbs, no
    allocation. *)

val mul_round : prec:int -> t -> t -> (t * int) option
(** [mul_round ~prec a b] computes [a*b] rounded to nearest at [prec]
    significant bits via a short product, returning [Some (mant, shift)]
    with [round(a*b) = mant * 2^shift]. Requires both operands odd
    (ties are then impossible and the sticky bit is always set, exactly
    the contract of {!Bigfloat}'s canonical mantissas); returns [None]
    when the operands are small, even, or the short product cannot
    prove the rounding — callers fall back to the exact product. The
    returned rounding is always identical to rounding the exact
    product. *)

val is_even : t -> bool

val canonical : t -> bool
(** No zero top limb: the representation invariant that [equal] and
    [compare] rely on. Every operation's result satisfies it; exposed
    for tests. *)

val trailing_zeros : t -> int
(** Number of low zero bits; raises [Invalid_argument] on zero. *)

val isqrt : t -> t
(** [isqrt n] is the integer square root, the largest [s] with [s*s <= n]. *)

val sqrt_rem : t -> t * t
(** [sqrt_rem n] is [(isqrt n, n - isqrt n * isqrt n)], by Zimmermann's
    Karatsuba square root seeded from a float root below 60 bits. *)

val pow_int : t -> int -> t
(** [pow_int b e] is [b] raised to the non-negative power [e]. *)

val of_string : string -> t
(** Parse a decimal string of digits. *)

val to_string : t -> string
(** Render in decimal. *)

val to_float : t -> float
(** Nearest [float] (round to nearest even); may be [infinity]. *)

val pp : Format.formatter -> t -> unit

(** For tests only. *)
module Reference : sig
  val isqrt : t -> t
  (** Newton's iteration from [2^ceil(bl/2)] at full width, the loop
      [isqrt] replaced; equal to [isqrt] on every input. *)
end
