(** Transcendental functions on {!Bigfloat} values.

    Every function takes a target precision [prec] and returns a result
    faithful to within a few ulps at that precision (computed internally
    with 32 or more guard bits; see DESIGN.md for the precision contract).
    Results are not correctly rounded. [exp], [expm1], [log], [log1p],
    [atan], [sin], [cos] and [tan] run a fast fixed-point kernel, but
    their results are bit-identical to rounding the term-by-term series
    in {!Reference} (DESIGN.md decision 19); [log2], [log10], [exp2],
    [pow], [sinh], [cosh], [tanh], [cbrt], [atan2], [asin] and [acos]
    go through them.
    Together with {!Bigfloat} this covers the libm surface that Herbgrind
    wraps (paper section 5.4): the shadow real execution calls these to get
    the exact result of client math-library calls.

    Special values follow C99/IEEE-754 conventions (e.g. [log 0 = -inf],
    [atan2 0 0 = 0], [pow 0 0 = 1]). *)

val pi : prec:int -> Bigfloat.t
val ln2 : prec:int -> Bigfloat.t
val exp : prec:int -> Bigfloat.t -> Bigfloat.t
val expm1 : prec:int -> Bigfloat.t -> Bigfloat.t
val exp2 : prec:int -> Bigfloat.t -> Bigfloat.t
val log : prec:int -> Bigfloat.t -> Bigfloat.t
val log1p : prec:int -> Bigfloat.t -> Bigfloat.t
val log2 : prec:int -> Bigfloat.t -> Bigfloat.t
val log10 : prec:int -> Bigfloat.t -> Bigfloat.t
val sin : prec:int -> Bigfloat.t -> Bigfloat.t
val cos : prec:int -> Bigfloat.t -> Bigfloat.t
val tan : prec:int -> Bigfloat.t -> Bigfloat.t
val asin : prec:int -> Bigfloat.t -> Bigfloat.t
val acos : prec:int -> Bigfloat.t -> Bigfloat.t
val atan : prec:int -> Bigfloat.t -> Bigfloat.t
val atan2 : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t
val sinh : prec:int -> Bigfloat.t -> Bigfloat.t
val cosh : prec:int -> Bigfloat.t -> Bigfloat.t
val tanh : prec:int -> Bigfloat.t -> Bigfloat.t
val pow : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t
val cbrt : prec:int -> Bigfloat.t -> Bigfloat.t
val hypot : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t

val fma : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t
(** Correctly rounded [x*y + z] with a single rounding. *)

val fmod : Bigfloat.t -> Bigfloat.t -> Bigfloat.t
(** Exact C [fmod] (remainder of truncating division). *)

val copysign : Bigfloat.t -> Bigfloat.t -> Bigfloat.t
val fdim : prec:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t

(** For tests only: the term-by-term series that define [exp], [expm1],
    [log], [log1p], [atan], [sin], [cos] and [tan]. *)
module Reference : sig
  val sin : prec:int -> Bigfloat.t -> Bigfloat.t
  val cos : prec:int -> Bigfloat.t -> Bigfloat.t
  val tan : prec:int -> Bigfloat.t -> Bigfloat.t
  val exp : prec:int -> Bigfloat.t -> Bigfloat.t
  val expm1 : prec:int -> Bigfloat.t -> Bigfloat.t
  val log : prec:int -> Bigfloat.t -> Bigfloat.t
  val log1p : prec:int -> Bigfloat.t -> Bigfloat.t
  val atan : prec:int -> Bigfloat.t -> Bigfloat.t
  (** The same reduction and series as the functions of the same name,
      without the fast kernel. *)

  val sin_series : wp:int -> Bigfloat.t -> Bigfloat.t
  val cos_series : wp:int -> Bigfloat.t -> Bigfloat.t
  (** The trig series for a reduced argument, with [|r| < 1], at working
      precision [wp]. *)

  val exp_series : wp:int -> Bigfloat.t -> Bigfloat.t
  (** [exp r] for the reduced argument, [|r| < 1/2]. *)

  val expm1_series : wp:int -> Bigfloat.t -> Bigfloat.t
  (** [exp x - 1] for [|x| < 1/4]. *)

  val atanh2_series : wp:int -> Bigfloat.t -> Bigfloat.t
  (** [2 atanh z] for [|z| < 1/2]. *)

  val atan_series : wp:int -> Bigfloat.t -> Bigfloat.t
  (** [atan z] for the reduced argument, [|z| < 1/256]. *)

  val series_bound :
    [ `Sin | `Cos | `Exp | `Expm1 | `Atanh2 | `Atan ] ->
    wp:int -> Bigfloat.t -> Bigfloat.t -> Bigfloat.t
  (** [series_bound s ~wp r v] is the error bound eps_old that the fast
      kernel assumes for series [s] at [wp] on argument [r], given [v]
      within a small relative error of the series' true value. *)

  val fallbacks : [ `Trig | `Exp | `Log | `Atan ] -> int
  (** How many calls in this process each kernel could not decide, so
      that they ran the reference: [`Trig] counts [sin], [cos] and [tan],
      [`Exp] counts [exp] and [expm1], [`Log] counts [log] and [log1p],
      [`Atan] counts [atan] (and through it [atan2], [asin] and
      [acos]). *)
end
