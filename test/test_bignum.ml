(* Tests for the bignum substrate: naturals, integers, and the MPFR-style
   Bigfloat. The sharpest oracle available is IEEE hardware itself: a
   Bigfloat operation at precision 53 on double inputs must reproduce the
   hardware double result bit for bit (outside the subnormal/overflow
   range). *)

module N = Bignum.Natural
module Z = Bignum.Bigint
module B = Bignum.Bigfloat
module M = Bignum.Bigfloat_math

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------- Natural ---------- *)

let nat_of_int_roundtrip () =
  List.iter
    (fun n -> check (Alcotest.option Alcotest.int) "roundtrip" (Some n)
        (N.to_int_opt (N.of_int n)))
    [ 0; 1; 2; 42; 1 lsl 30; (1 lsl 31) - 1; 1 lsl 31; 1 lsl 61; max_int ]

let nat_add_sub_small () =
  for _ = 1 to 200 do
    let a = Random.int 1_000_000_000 and b = Random.int 1_000_000_000 in
    checki "add" (a + b) (Option.get (N.to_int_opt (N.add (N.of_int a) (N.of_int b))));
    let hi, lo = if a >= b then (a, b) else (b, a) in
    checki "sub" (hi - lo)
      (Option.get (N.to_int_opt (N.sub (N.of_int hi) (N.of_int lo))))
  done

let nat_mul_small () =
  for _ = 1 to 200 do
    let a = Random.int 1_000_000 and b = Random.int 1_000_000 in
    checki "mul" (a * b) (Option.get (N.to_int_opt (N.mul (N.of_int a) (N.of_int b))))
  done

let random_nat bits =
  let limbs = (bits + 30) / 31 in
  let rec build acc i =
    if i = 0 then acc
    else
      build (N.add (N.shift_left acc 31) (N.of_int (Random.full_int (1 lsl 31)))) (i - 1)
  in
  build N.zero limbs

let nat_divmod_property () =
  for _ = 1 to 200 do
    let a = random_nat (1 + Random.int 600) in
    let b = random_nat (1 + Random.int 300) in
    if not (N.is_zero b) then begin
      let q, r = N.divmod a b in
      checkb "r < b" true (N.compare r b < 0);
      checkb "a = q*b + r" true (N.equal a (N.add (N.mul q b) r))
    end
  done

let nat_string_roundtrip () =
  for _ = 1 to 50 do
    let a = random_nat (1 + Random.int 400) in
    checkb "string roundtrip" true (N.equal a (N.of_string (N.to_string a)))
  done;
  checks "zero" "0" (N.to_string N.zero);
  checks "big"
    "340282366920938463463374607431768211456"
    (N.to_string (N.pow_int N.two 128))

(* [isqrt] against its definition and against the Newton loop it
   replaced, with [sqrt_rem]'s remainder checked too. The seeded values
   run up to 4,000 bits (a 1000-bit [Bigfloat.sqrt] feeds ~2,004-bit
   operands) and down to the <= 60-bit float-seeded base case; the
   structured ones sit where a root is exact or one off: powers of two,
   s^2, s^2 - 1 and s^2 + 2s = (s+1)^2 - 1. *)
let nat_isqrt () =
  let st = Random.State.make [| 0x5eed |] in
  let random_bits bits =
    let limbs = (bits + 30) / 31 in
    let rec build acc i =
      if i = 0 then acc
      else
        build
          (N.add (N.shift_left acc 31) (N.of_int (Random.State.full_int st (1 lsl 31))))
          (i - 1)
    in
    N.shift_right (build N.zero limbs) ((limbs * 31) - bits)
  in
  let check_root what a =
    let s, r = N.sqrt_rem a in
    let fail () = Alcotest.failf "isqrt of %s (%s)" (N.to_string a) what in
    if N.compare (N.mul s s) a > 0 then fail ();
    let s1 = N.add s N.one in
    if N.compare (N.mul s1 s1) a <= 0 then fail ();
    if not (N.equal r (N.sub a (N.mul s s))) then fail ();
    if not (N.equal (N.isqrt a) s) then fail ();
    if not (N.equal (N.Reference.isqrt a) s) then fail ()
  in
  for _ = 1 to 150 do
    check_root "random" (random_bits (1 + Random.State.int st 4000))
  done;
  for _ = 1 to 300 do
    check_root "small" (random_bits (1 + Random.State.int st 100))
  done;
  for e = 0 to 4000 do
    if e < 200 || e mod 37 = 0 then check_root "power of two" (N.shift_left N.one e)
  done;
  List.iter
    (fun bits ->
      let s = random_bits bits in
      let s = if N.is_zero s then N.one else s in
      let sq = N.mul s s in
      check_root "s^2" sq;
      check_root "s^2 - 1" (N.sub sq N.one);
      check_root "s^2 + 2s" (N.add sq (N.shift_left s 1));
      let p = N.shift_left N.one bits in
      check_root "(2^k)^2 - 1" (N.sub (N.mul p p) N.one))
    (List.init 60 (fun i -> 1 + i) @ List.init 40 (fun _ -> 1 + Random.State.int st 2000));
  check_root "zero" N.zero;
  check_root "one" N.one

(* [horner_div] and [sum_div] against exact rational arithmetic, on the
   shapes the series kernels feed them: decreasing operands (the powers
   x^i 2^w, read shifted), small divisors whose runs share one division,
   and an initial t no larger than the last operand. Each must land
   within one unit per step of the exact value. *)
let nat_series_steps () =
  let st = Random.State.make [| 0x5e7 |] in
  for _ = 1 to 200 do
    let n = 1 + Random.State.int st 24 and shift = Random.State.int st 70 in
    let bits = 40 + Random.State.int st 400 in
    let ps = Array.make (n + 1) N.zero in
    ps.(0) <- N.shift_left N.one bits;
    for i = 1 to n do
      (* p_i = p_(i-1) x, x < 1/2 *)
      ps.(i) <- N.shift_right (N.mul ps.(i - 1) (N.of_int (1 + Random.State.int st (1 lsl 29)))) 31
    done;
    let small = Random.State.bool st in
    let ds = Array.init n (fun i -> if small then i + 1 else 1 + Random.State.int st 5000) in
    let p i = N.shift_right ps.(i) shift in
    let within what got num den =
      (* |got - num/den| < n, i.e. |got den - num| < n den *)
      let gd = N.mul got den in
      let diff = if N.compare gd num >= 0 then N.sub gd num else N.sub num gd in
      if N.compare diff (N.mul_int den n) >= 0 then
        Alcotest.failf "%s: %s vs exact %s / %s" what (N.to_string got) (N.to_string num)
          (N.to_string den)
    in
    List.iter
      (fun alternating ->
        (* T_i = p_i +- T_(i+1) / d_i from T_n = p_n, as num / den *)
        let num = ref (p n) and den = ref N.one in
        for i = n - 1 downto 0 do
          let scaled = N.mul (N.mul (p i) !den) (N.of_int ds.(i)) in
          num := if alternating then N.sub scaled !num else N.add scaled !num;
          den := N.mul_int !den ds.(i)
        done;
        within "horner_div" (N.horner_div ~alternating ~shift ps ds (p n)) !num !den;
        (* p_n + sum_i s_i p_i / (2i+1) *)
        let ds = Array.init n (fun i -> (2 * i) + 1) in
        let den = Array.fold_left N.mul_int N.one ds in
        let pos = ref (N.mul (p n) den) and neg = ref N.zero in
        Array.iteri
          (fun i d ->
            let term = N.mul (p i) (fst (N.divmod den (N.of_int d))) in
            if alternating && i land 1 = 1 then neg := N.add !neg term
            else pos := N.add !pos term)
          ds;
        within "sum_div" (N.sum_div ~alternating ~shift ps ds (p n)) (N.sub !pos !neg) den)
      [ false; true ]
  done

let nat_karatsuba_matches () =
  (* Large operands exercise the Karatsuba path; compare against a
     sum-of-shifts reference computed with add/shift only. *)
  for _ = 1 to 10 do
    let a = random_nat 2200 and b = random_nat 2500 in
    let reference =
      let acc = ref N.zero in
      for i = 0 to N.bit_length b - 1 do
        if N.testbit b i then acc := N.add !acc (N.shift_left a i)
      done;
      !acc
    in
    checkb "karatsuba = reference" true (N.equal (N.mul a b) reference)
  done

let nat_shifts () =
  for _ = 1 to 100 do
    let a = random_nat (1 + Random.int 300) in
    let k = Random.int 200 in
    checkb "shift roundtrip" true
      (N.equal a (N.shift_right (N.shift_left a k) k));
    checki "bitlen shift" (N.bit_length a + k)
      (if N.is_zero a then 0 else N.bit_length (N.shift_left a k))
  done

let nat_to_float () =
  check (Alcotest.float 0.0) "2^70" (ldexp 1.0 70)
    (N.to_float (N.pow_int N.two 70));
  check (Alcotest.float 0.0) "exact small" 123456789.0
    (N.to_float (N.of_int 123456789));
  (* 2^64 + 1 rounds down to 2^64 under nearest-even *)
  check (Alcotest.float 0.0) "round to even" (ldexp 1.0 64)
    (N.to_float (N.add (N.pow_int N.two 64) N.one))

(* ---------- Bigint ---------- *)

let int_arith () =
  for _ = 1 to 300 do
    let a = Random.int 2_000_000 - 1_000_000
    and b = Random.int 2_000_000 - 1_000_000 in
    let za = Z.of_int a and zb = Z.of_int b in
    checki "add" (a + b) (Option.get (Z.to_int_opt (Z.add za zb)));
    checki "sub" (a - b) (Option.get (Z.to_int_opt (Z.sub za zb)));
    checki "mul" (a * b) (Option.get (Z.to_int_opt (Z.mul za zb)));
    if b <> 0 then begin
      let q, r = Z.divmod za zb in
      checki "quot" (a / b) (Option.get (Z.to_int_opt q));
      checki "rem" (a mod b) (Option.get (Z.to_int_opt r))
    end
  done

let int_compare_sign () =
  checki "sign neg" (-1) (Z.sign (Z.of_int (-5)));
  checki "sign zero" 0 (Z.sign Z.zero);
  checkb "compare" true (Z.compare (Z.of_int (-10)) (Z.of_int (-2)) < 0);
  checks "to_string" "-12345" (Z.to_string (Z.of_int (-12345)))

(* ---------- Bigfloat ---------- *)

let float_roundtrip () =
  let cases =
    [ 0.0; -0.0; 1.0; -1.5; 0.1; 1e300; 1e-300; 4e-320; Float.max_float;
      Float.min_float; ldexp 1.0 (-1074); Float.pi; 1.0 /. 3.0 ]
  in
  List.iter
    (fun f ->
      let b = B.of_float f in
      checkb (Printf.sprintf "roundtrip %h" f) true
        (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float (B.to_float b))))
    cases;
  checkb "inf" true (B.to_float (B.of_float infinity) = infinity);
  checkb "nan" true (Float.is_nan (B.to_float (B.of_float Float.nan)))

let random_double () =
  (* random finite double spanning a wide exponent range *)
  let m = Random.float 2.0 -. 1.0 in
  let e = Random.int 600 - 300 in
  ldexp m e

let hardware_oracle_binop name bf ff =
  for _ = 1 to 500 do
    let a = random_double () and b = random_double () in
    let expected = ff a b in
    let got = B.to_float (bf ~prec:53 (B.of_float a) (B.of_float b)) in
    if Float.is_nan expected then checkb (name ^ " nan") true (Float.is_nan got)
    else if Float.abs expected >= ldexp 1.0 (-1021)
            && Float.abs expected < infinity then
      checkb
        (Printf.sprintf "%s %h %h -> %h vs %h" name a b expected got)
        true
        (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got))
  done

let bf_add_matches_hardware () = hardware_oracle_binop "add" B.add ( +. )
let bf_sub_matches_hardware () = hardware_oracle_binop "sub" B.sub ( -. )
let bf_mul_matches_hardware () = hardware_oracle_binop "mul" B.mul ( *. )
let bf_div_matches_hardware () = hardware_oracle_binop "div" B.div ( /. )

let bf_sqrt_matches_hardware () =
  for _ = 1 to 500 do
    let a = Float.abs (random_double ()) in
    let expected = Float.sqrt a in
    let got = B.to_float (B.sqrt ~prec:53 (B.of_float a)) in
    checkb
      (Printf.sprintf "sqrt %h -> %h vs %h" a expected got)
      true
      (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got))
  done

let bf_extended_precision_catches_cancellation () =
  (* (x + 1) - x at high precision is exactly 1 even when doubles fail *)
  let x = B.of_float 1e16 in
  let prec = 200 in
  let s = B.add ~prec x B.one in
  let d = B.sub ~prec s x in
  checkb "(1e16 + 1) - 1e16 = 1 in 200 bits" true (B.equal d B.one);
  (* while in 53 bits it is 0 or 2 but not 1 *)
  let s53 = B.add ~prec:53 x B.one in
  let d53 = B.sub ~prec:53 s53 x in
  checkb "not 1 in 53 bits" false (B.equal d53 B.one)

let bf_compare () =
  checkb "lt" true (B.lt (B.of_float 1.0) (B.of_float 2.0));
  checkb "zeros equal" true (B.equal B.zero B.neg_zero);
  checkb "neg inf least" true (B.lt B.neg_inf (B.of_float (-1e308)));
  checkb "nan incomparable" true (B.cmp B.nan B.one = None);
  for _ = 1 to 300 do
    let a = random_double () and b = random_double () in
    let expected = Stdlib.compare a b in
    match B.cmp (B.of_float a) (B.of_float b) with
    | Some c -> checki "cmp sign" expected c
    | None -> Alcotest.fail "unexpected nan"
  done

let bf_decimal_parse () =
  checkb "0.5" true (B.equal (B.of_decimal_string ~prec:53 "0.5") B.half);
  checkb "0.1 rounds like float" true
    (B.to_float (B.of_decimal_string ~prec:53 "0.1") = 0.1);
  checkb "-12345.67e-8 like float" true
    (B.to_float (B.of_decimal_string ~prec:53 "-12345.67e-8") = -12345.67e-8);
  checkb "1e300" true
    (B.to_float (B.of_decimal_string ~prec:53 "1e300") = 1e300);
  checkb "inf" true (B.of_decimal_string ~prec:53 "inf" = B.pos_inf);
  checkb "nan" true (B.is_nan (B.of_decimal_string ~prec:53 "nan"))

let bf_decimal_print () =
  checks "half" "0.5" (B.to_decimal_string ~digits:5 B.half);
  checks "neg" "-2" (B.to_decimal_string ~digits:5 (B.of_float (-2.0)));
  let pi_str = B.to_decimal_string ~digits:10 (B.of_float Float.pi) in
  checkb ("pi prints " ^ pi_str) true
    (String.length pi_str >= 10 && String.sub pi_str 0 6 = "3.1415")

let bf_floor_ceil () =
  let f25 = B.of_float 2.5 and fm25 = B.of_float (-2.5) in
  checkb "floor 2.5" true (B.equal (B.floor f25) B.two);
  checkb "ceil 2.5" true (B.equal (B.ceil f25) (B.of_int 3));
  checkb "floor -2.5" true (B.equal (B.floor fm25) (B.of_int (-3)));
  checkb "ceil -2.5" true (B.equal (B.ceil fm25) (B.of_int (-2)));
  checkb "round 2.5 away" true (B.equal (B.round_to_int f25) (B.of_int 3));
  checkb "round -2.5 away" true (B.equal (B.round_to_int fm25) (B.of_int (-3)));
  checkb "trunc -2.7" true (B.equal (B.trunc (B.of_float (-2.7))) (B.of_int (-2)))

let bf_subnormal_to_float () =
  (* value between two subnormals rounds to the nearest one *)
  let tiny = B.mul_2exp B.one (-1074) in
  checkb "min subnormal" true (B.to_float tiny = ldexp 1.0 (-1074));
  let halftiny = B.mul_2exp B.one (-1075) in
  checkb "half of min rounds to even (0)" true (B.to_float halftiny = 0.0);
  let three_q = B.mul ~prec:60 (B.of_float 1.5) halftiny in
  checkb "0.75 * min rounds up" true (B.to_float three_q = ldexp 1.0 (-1074))

(* ---------- Bigfloat_math vs libm (1-2 ulp tolerance) ---------- *)

let ulps_apart a b =
  if a = b then 0L
  else begin
    let ord f =
      let bits = Int64.bits_of_float f in
      if Int64.compare bits 0L >= 0 then bits
      else Int64.sub Int64.min_int bits
    in
    Int64.abs (Int64.sub (ord a) (ord b))
  end

let close name expected got =
  if Float.is_nan expected then checkb (name ^ " nan") true (Float.is_nan got)
  else
    checkb
      (Printf.sprintf "%s: %h vs %h (%Ld ulps)" name expected got
         (ulps_apart expected got))
      true
      (Int64.compare (ulps_apart expected got) 2L <= 0)

let math_unop name bf ff inputs =
  List.iter
    (fun x -> close (Printf.sprintf "%s(%h)" name x) (ff x)
        (B.to_float (bf ~prec:53 (B.of_float x))))
    inputs

let standard_inputs =
  [ 0.5; 1.0; 2.0; -0.5; -1.0; 0.001; -0.001; 10.0; -10.0; 100.0; 0.9999;
    1.0001; 3.14159; -2.71828; 1e-10; -1e-10; 55.5; 0.25 ]

let math_exp () =
  math_unop "exp" M.exp Stdlib.exp (standard_inputs @ [ 700.0; -700.0 ]);
  checkb "exp -inf" true (B.to_float (M.exp ~prec:53 B.neg_inf) = 0.0);
  checkb "exp overflow" true (B.to_float (M.exp ~prec:53 (B.of_float 1e10)) = infinity)

let math_log () =
  math_unop "log" M.log Stdlib.log
    [ 0.5; 1.0; 2.0; 10.0; 1e-300; 1e300; 0.9999999; 1.0000001; 3.0 ];
  checkb "log 0" true (B.to_float (M.log ~prec:53 B.zero) = neg_infinity);
  checkb "log neg" true (B.is_nan (M.log ~prec:53 B.minus_one))

let math_trig () =
  let inputs = standard_inputs @ [ 1e8; -1e8; 1.5707963267948966; 3.141592653589793 ] in
  math_unop "sin" M.sin Stdlib.sin inputs;
  math_unop "cos" M.cos Stdlib.cos inputs;
  math_unop "tan" M.tan Stdlib.tan inputs

(* ---------- fast trig kernel vs the reference series ---------- *)

(* [sin], [cos] and [tan] must return exactly what the term-by-term
   reference series returns, at every precision the analyses use and on
   the arguments where the kernel is most likely to slip: full-width
   mantissas, tiny values, near multiples of pi/2 and both sides of the
   reduction's 0.78/0.79 shortcut. *)

let kernel_precs = [ 53; 128; 256; 1000; 2000 ]
let exact = max_int / 16

let magnitude = function
  | B.Fin f -> f.B.exp + N.bit_length f.B.mant
  | _ -> invalid_arg "magnitude"

(* A random odd mantissa of exactly [bits] bits. *)
let random_mant st bits =
  let rec go acc left =
    if left <= 0 then acc
    else begin
      let k = min 30 left in
      let chunk = Random.State.bits st land ((1 lsl k) - 1) in
      go (N.add (N.shift_left acc k) (N.of_int chunk)) (left - k)
    end
  in
  let m = go N.one (bits - 1) in
  if N.is_even m then N.add m N.one else m

(* A full-width [prec]-bit value with |x| in [2^(e-1), 2^e). *)
let random_full st ~prec e =
  B.make ~neg:(Random.State.bool st) ~mant:(random_mant st prec) ~exp:(e - prec)

(* [x] moved by [j] units in the last of [prec] places. *)
let ulps_away ~prec x j =
  let step = B.mul_2exp (B.of_int j) (magnitude x - prec) in
  B.round ~prec (B.add ~prec:exact x step)

let trig_arguments st ~prec =
  let full = List.init 60 (fun _ -> random_full st ~prec (Random.State.int st 6 - 3)) in
  let tiny =
    List.init 30 (fun _ ->
        let k = 1 + Random.State.int st 600 in
        if Random.State.bool st then B.mul_2exp B.one (-k)
        else random_full st ~prec (-k))
  in
  let half_pi = B.mul_2exp (M.pi ~prec:(prec + 96)) (-1) in
  let near_pole =
    List.concat_map
      (fun _ ->
        let k = 1 + Random.State.int st 63_661_977 in
        let c = B.round ~prec (B.mul ~prec:(prec + 96) (B.of_int k) half_pi) in
        let d = B.of_float (float_of_int k *. Float.pi /. 2.0) in
        [ c; ulps_away ~prec c (-1); ulps_away ~prec c 2; d ])
      (List.init 10 Fun.id)
  in
  let shortcut =
    List.init 20 (fun _ ->
        let lo = B.of_float 0.77 in
        let x = random_full st ~prec 0 in
        B.add ~prec lo (B.mul_2exp (B.abs x) (-5)))
    @ List.concat_map
        (fun f ->
          let x = B.of_float f in
          [ x; B.neg x; ulps_away ~prec x 1; ulps_away ~prec x (-1) ])
        [ 0.78; 0.79 ]
  in
  (B.zero :: B.neg_zero :: full) @ tiny @ near_pole @ shortcut

let trig_kernel_identity () =
  let st = Random.State.make [| 0x7419 |] in
  let before = M.Reference.fallbacks `Trig in
  let calls = ref 0 in
  List.iter
    (fun prec ->
      List.iter
        (fun x ->
          List.iter
            (fun (name, fast, reference) ->
              incr calls;
              let got = fast ~prec x and want = reference ~prec x in
              if not (B.equal got want && B.is_negative got = B.is_negative want)
              then
                Alcotest.failf "%s at prec %d differs from the reference at %s"
                  name prec
                  (B.to_decimal_string ~digits:40 x))
            [ ("sin", M.sin, M.Reference.sin); ("cos", M.cos, M.Reference.cos);
              ("tan", M.tan, M.Reference.tan) ])
        (trig_arguments st ~prec))
    kernel_precs;
  let fell = M.Reference.fallbacks `Trig - before in
  Printf.printf "trig kernel: %d calls, %d fell back to the reference\n" !calls fell;
  checkb "kernel accepted on at least 99.9% of arguments" true
    (fell * 1000 <= !calls)

(* x = 2^-60 (1 + 2^-53) is the midpoint between two 53-bit neighbours,
   and sin x and tan x lie within x^3/2 of it, far inside the kernel's
   error interval, so the kernel cannot decide the rounding: the
   reference must run, and its answer (x rounded to even) be returned. *)
let trig_kernel_fallback () =
  let x = B.make ~neg:false ~mant:(N.add (N.shift_left N.one 53) N.one) ~exp:(-113) in
  List.iter
    (fun (name, fast, reference) ->
      let before = M.Reference.fallbacks `Trig in
      let got = fast ~prec:53 x in
      checki (name ^ " fell back") (before + 1) (M.Reference.fallbacks `Trig);
      checkb (name ^ " = reference") true (B.equal got (reference ~prec:53 x)))
    [ ("sin", M.sin, M.Reference.sin); ("tan", M.tan, M.Reference.tan) ]

(* The identity proof assumes the reference series is within eps_old of
   the true value. Measure it against the same series 256 bits wider, on
   reduced arguments, and demand a 16x margin: a looser stop rule or a
   lost rounding in the series fails here. wp = prec + 32 is the
   library's working precision. *)
let trig_reference_bound () =
  let st = Random.State.make [| 0xb0d |] in
  List.iter
    (fun prec ->
      let wp = prec + 32 in
      let args =
        List.init 40 (fun _ ->
            B.mul ~prec:wp (B.of_float 0.7854)
              (B.make ~neg:(Random.State.bool st)
                 ~mant:(random_mant st wp) ~exp:(-wp)))
        @ List.init 10 (fun _ -> random_full st ~prec:wp (-Random.State.int st 300))
      in
      List.iter
        (fun r ->
          List.iter
            (fun (cos, series) ->
              let v = series ~wp r and truth = series ~wp:(wp + 256) r in
              let err = B.abs (B.sub ~prec:exact v truth) in
              let bound =
                M.Reference.series_bound (if cos then `Cos else `Sin) ~wp r truth
              in
              if B.gt (B.mul_2exp err 4) bound then
                Alcotest.failf "%s series at prec %d: error %s > eps_old/16 = %s at r = %s"
                  (if cos then "cos" else "sin") prec
                  (B.to_decimal_string err)
                  (B.to_decimal_string (B.mul_2exp bound (-4)))
                  (B.to_decimal_string ~digits:30 r))
            [ (false, M.Reference.sin_series); (true, M.Reference.cos_series) ])
        args)
    kernel_precs

(* ---------- exp/log kernels vs the reference series ---------- *)

(* [exp], [expm1], [log], [log1p] and [atan] must return exactly what
   their term-by-term reference series return. The arguments aim at the
   kernels' edges: full-width mantissas, tiny values, values near 1 and
   either side of [log]'s 0.70 / 1.5 switch to the ln 2 split, near
   (k + 1/2) ln 2 where [exp]'s reduction flips k (so |r| ~ ln2 / 2),
   near k ln 2 (so r is tiny), and powers of two (z = 0 in [log]). *)

let exp_arguments st ~prec =
  let l2 = M.ln2 ~prec:(prec + 96) in
  let full = List.init 16 (fun _ -> random_full st ~prec (Random.State.int st 6 - 3)) in
  let wide = List.init 6 (fun _ -> random_full st ~prec (2 + Random.State.int st 8)) in
  let tiny =
    List.init 8 (fun _ ->
        let k = 1 + Random.State.int st 600 in
        if Random.State.bool st then B.mul_2exp B.one (-k) else random_full st ~prec (-k))
  in
  let near_ln2 =
    List.concat_map
      (fun _ ->
        let k = Random.State.int st 2000 - 1000 in
        let half = B.round ~prec (B.mul ~prec:(prec + 96) (B.of_float (float_of_int k +. 0.5)) l2) in
        let whole = B.round ~prec (B.mul ~prec:(prec + 96) (B.of_int k) l2) in
        [ half; ulps_away ~prec half 1; ulps_away ~prec half (-1); whole ])
      (List.init 4 Fun.id)
  in
  full @ wide @ tiny @ near_ln2

let log_arguments st ~prec =
  let dec s = B.of_decimal_string ~prec s in
  let positive = List.init 16 (fun _ -> B.abs (random_full st ~prec (Random.State.int st 40 - 20))) in
  let near_one =
    List.init 8 (fun _ ->
        let k = 1 + Random.State.int st 300 in
        let d = random_full st ~prec (-k) in
        B.round ~prec (B.add ~prec:exact B.one d))
  in
  let edges =
    List.concat_map
      (fun c -> [ c; ulps_away ~prec c 1; ulps_away ~prec c (-1) ])
      [ dec "0.70"; dec "1.5"; B.one ]
  in
  let powers = [ B.two; B.half; B.mul_2exp B.one 1000; B.mul_2exp B.one (-1000) ] in
  positive @ near_one @ edges @ powers

(* arguments of [atan]: both sides of 1 (where it switches to 1/x), of
   2^-9 (where it stops halving the angle), tiny and huge values *)
let atan_arguments st ~prec =
  let full = List.init 10 (fun _ -> random_full st ~prec (Random.State.int st 8 - 4)) in
  let edges =
    List.concat_map
      (fun c -> [ c; ulps_away ~prec c 1; ulps_away ~prec c (-1) ])
      [ B.one; B.mul_2exp B.one (-9) ]
  in
  let far = List.init 4 (fun _ -> random_full st ~prec (if Random.State.bool st then -200 else 200)) in
  full @ edges @ far

(* arguments of [expm1] and [log1p]: mostly in their small-argument
   series range |x| < 1/4, some beyond it *)
let small_arguments st ~prec =
  List.init 12 (fun _ -> random_full st ~prec (-2 - Random.State.int st 4))
  @ List.init 6 (fun _ -> random_full st ~prec (-Random.State.int st 300))
  @ List.init 4 (fun _ -> B.abs (random_full st ~prec (Random.State.int st 4)))

let exp_log_kernel_identity () =
  let st = Random.State.make [| 0xe4b |] in
  let kinds = [ (`Exp, "exp/expm1"); (`Log, "log/log1p"); (`Atan, "atan") ] in
  let before = List.map (fun (k, name) -> (k, name, M.Reference.fallbacks k)) kinds in
  let calls = Hashtbl.create 2 in
  List.iter
    (fun prec ->
      let exp_args = exp_arguments st ~prec and small = small_arguments st ~prec in
      let log_args = log_arguments st ~prec and atan_args = atan_arguments st ~prec in
      List.iter
        (fun (name, kind, fast, reference, args) ->
          List.iter
            (fun x ->
              Hashtbl.replace calls kind (1 + Option.value ~default:0 (Hashtbl.find_opt calls kind));
              let got = fast ~prec x and want = reference ~prec x in
              if not (B.equal got want && B.is_negative got = B.is_negative want)
              then
                Alcotest.failf "%s at prec %d differs from the reference at %s" name
                  prec (B.to_decimal_string ~digits:40 x))
            args)
        [
          ("exp", `Exp, M.exp, M.Reference.exp, exp_args);
          ("expm1", `Exp, M.expm1, M.Reference.expm1, small);
          ("log", `Log, M.log, M.Reference.log, log_args);
          ("log1p", `Log, M.log1p, M.Reference.log1p, small);
          ("atan", `Atan, M.atan, M.Reference.atan, atan_args);
        ])
    kernel_precs;
  List.iter
    (fun (kind, name, b) ->
      let n = Hashtbl.find calls kind and fell = M.Reference.fallbacks kind - b in
      Printf.printf "%s kernel: %d calls, %d fell back to the reference\n" name n fell;
      checkb (name ^ " kernel accepted on at least 99.9% of arguments") true
        (fell * 1000 <= n))
    before

(* Each case puts the true result within ~2^-50 relative of a rounding
   midpoint at 53 bits, far inside the kernel's error interval, so the
   kernel cannot decide: the reference must run and its answer be
   returned. exp (2^-53) = 1 + 2^-53 + 2^-107..., log1p of the midpoint
   x = 2^-100 (1 + 2^-53) is x - x^2/2..., and the inverse function of a
   53-bit midpoint m rounded to 400 bits maps back to m within 2^-390:
   expm1 (log1p m), log (exp m) on both of [log]'s paths, and atan (tan m)
   on both sides of 1. (expm1 of the tiny midpoint would not do: its
   working precision grows with -mag x, which shrinks E below x^2/2.) *)
let exp_log_kernel_fallback () =
  let mid53 x = B.make ~neg:false ~mant:(N.add (N.shift_left N.one 53) N.one) ~exp:x in
  let exp_of m = B.round ~prec:400 (M.exp ~prec:420 m) in
  let tan_of m = B.round ~prec:400 (M.tan ~prec:420 m) in
  List.iter
    (fun (name, kind, fast, reference, x) ->
      let before = M.Reference.fallbacks kind in
      let got = fast ~prec:53 x in
      checki (name ^ " fell back") (before + 1) (M.Reference.fallbacks kind);
      checkb (name ^ " = reference") true (B.equal got (reference ~prec:53 x)))
    [
      ("exp", `Exp, M.exp, M.Reference.exp, B.mul_2exp B.one (-53));
      ("expm1", `Exp, M.expm1, M.Reference.expm1,
        B.round ~prec:400 (M.log1p ~prec:420 (mid53 (-56))));
      ("log1p", `Log, M.log1p, M.Reference.log1p, mid53 (-153));
      ("log", `Log, M.log, M.Reference.log, exp_of (mid53 (-51)));
      ("log near 1", `Log, M.log, M.Reference.log, exp_of (mid53 (-56)));
      ("atan", `Atan, M.atan, M.Reference.atan, tan_of (mid53 (-54)));
      ("atan of x > 1", `Atan, M.atan, M.Reference.atan, tan_of (mid53 (-53)));
    ]

(* The identity proof assumes each reference series is within eps_old of
   the true value. Measure it against the same series 256 bits wider on
   full-width arguments up to each series' largest reduced argument and
   on smaller ones below 2^emax, and demand a 16x margin. *)
let exp_log_reference_bound () =
  let st = Random.State.make [| 0xe7b |] in
  List.iter
    (fun prec ->
      let wp = prec + 32 in
      let scaled c =
        B.mul ~prec:wp (B.of_float c)
          (B.make ~neg:(Random.State.bool st) ~mant:(random_mant st wp) ~exp:(-wp))
      in
      let args c emax =
        List.init 15 (fun _ -> scaled c)
        @ List.init 5 (fun _ -> random_full st ~prec:wp (emax - Random.State.int st 300))
      in
      List.iter
        (fun (name, series, kind, range, emax) ->
          List.iter
            (fun r ->
              let v = series ~wp r and truth = series ~wp:(wp + 256) r in
              let err = B.abs (B.sub ~prec:exact v truth) in
              let bound = M.Reference.series_bound kind ~wp r truth in
              if B.gt (B.mul_2exp err 4) bound then
                Alcotest.failf "%s series at prec %d: error %s > eps_old/16 = %s at r = %s"
                  name prec (B.to_decimal_string err)
                  (B.to_decimal_string (B.mul_2exp bound (-4)))
                  (B.to_decimal_string ~digits:30 r))
            (args range emax))
        [
          ("exp", M.Reference.exp_series, `Exp, 0.35, -1);
          ("expm1", M.Reference.expm1_series, `Expm1, 0.25, -2);
          ("atanh2", M.Reference.atanh2_series, `Atanh2, 0.34, -1);
          ("atan", M.Reference.atan_series, `Atan, 0.0031, -9);
        ])
    kernel_precs

let math_inverse_trig () =
  let inputs = [ 0.5; -0.5; 0.999; -0.999; 0.001; 1.0; -1.0; 0.0 ] in
  math_unop "asin" M.asin Stdlib.asin inputs;
  math_unop "acos" M.acos Stdlib.acos inputs;
  math_unop "atan" M.atan Stdlib.atan (standard_inputs @ [ 1e10; -1e10 ])

let math_atan2 () =
  List.iter
    (fun (y, x) ->
      close
        (Printf.sprintf "atan2(%h,%h)" y x)
        (Stdlib.atan2 y x)
        (B.to_float (M.atan2 ~prec:53 (B.of_float y) (B.of_float x))))
    [ (1.0, 1.0); (1.0, -1.0); (-1.0, 1.0); (-1.0, -1.0); (0.0, 1.0);
      (0.0, -1.0); (1.0, 0.0); (-1.0, 0.0); (3.0, 4.0); (-5.0, 12.0) ]

let math_hyperbolic () =
  math_unop "sinh" M.sinh Stdlib.sinh standard_inputs;
  math_unop "cosh" M.cosh Stdlib.cosh standard_inputs;
  math_unop "tanh" M.tanh Stdlib.tanh standard_inputs

let math_pow () =
  List.iter
    (fun (x, y) ->
      close
        (Printf.sprintf "pow(%h,%h)" x y)
        (Float.pow x y)
        (B.to_float (M.pow ~prec:53 (B.of_float x) (B.of_float y))))
    [ (2.0, 10.0); (2.0, 0.5); (10.0, -3.0); (1.5, 300.0); (0.5, 0.5);
      (-2.0, 3.0); (-2.0, 2.0); (7.0, 0.0); (0.0, 0.0); (0.0, 3.0);
      (1.0, Float.nan); (2.0, 1000.0); (1.0000001, 1e7) ]

let math_misc () =
  math_unop "cbrt" M.cbrt Float.cbrt [ 8.0; -8.0; 27.0; 2.0; 1e12; -0.001 ];
  math_unop "log2" M.log2 Float.log2 [ 8.0; 3.0; 1e10; 0.25 ];
  math_unop "log10" M.log10 Float.log10 [ 1000.0; 3.0; 1e-5 ];
  math_unop "expm1" M.expm1 Float.expm1 [ 1e-10; -1e-10; 0.5; -0.5; 3.0 ];
  math_unop "log1p" M.log1p Float.log1p [ 1e-10; -1e-10; 0.5; -0.5; 3.0 ];
  List.iter
    (fun (x, y) ->
      close
        (Printf.sprintf "hypot(%h,%h)" x y)
        (Float.hypot x y)
        (B.to_float (M.hypot ~prec:53 (B.of_float x) (B.of_float y))))
    [ (3.0, 4.0); (1e200, 1e200); (1e-200, 1e-200); (0.0, -5.0) ];
  List.iter
    (fun (x, y) ->
      let expected = Float.rem x y in
      let got = B.to_float (M.fmod (B.of_float x) (B.of_float y)) in
      checkb (Printf.sprintf "fmod(%h,%h): %h vs %h" x y expected got) true
        (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got)))
    [ (7.5, 2.0); (-7.5, 2.0); (7.5, -2.0); (1e300, 7.0); (0.1, 0.03) ]

let math_fma () =
  List.iter
    (fun (x, y, z) ->
      let expected = Float.fma x y z in
      let got =
        B.to_float (M.fma ~prec:53 (B.of_float x) (B.of_float y) (B.of_float z))
      in
      checkb (Printf.sprintf "fma(%h,%h,%h)" x y z) true
        (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got)))
    [ (1.0, 1.0, 1.0); (1e16, 1e16, -1e32); (0.1, 0.1, -0.01); (3.0, 4.0, 5.0) ]

let math_pi_ln2 () =
  checkb "pi at 53" true (B.to_float (M.pi ~prec:53) = Float.pi);
  close "ln2" (Stdlib.log 2.0) (B.to_float (M.ln2 ~prec:53));
  (* higher precision is consistent: rounding pi@2000 to 53 gives pi *)
  checkb "pi 2000 -> 53" true
    (B.to_float (B.round ~prec:53 (M.pi ~prec:2000)) = Float.pi)

(* qcheck properties *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"bigfloat add commutes" ~count:300
      (pair (float_range (-1e10) 1e10) (float_range (-1e10) 1e10))
      (fun (a, b) ->
        B.equal
          (B.add ~prec:200 (B.of_float a) (B.of_float b))
          (B.add ~prec:200 (B.of_float b) (B.of_float a)));
    Test.make ~name:"bigfloat mul by inverse near one" ~count:200
      (float_range 0.001 1000.0) (fun a ->
        let x = B.of_float a in
        let inv = B.div ~prec:200 B.one x in
        let p = B.mul ~prec:200 x inv in
        (* within 2^-195 of 1 *)
        let d = B.abs (B.sub ~prec:200 p B.one) in
        B.lt d (B.mul_2exp B.one (-190)));
    Test.make ~name:"natural add assoc" ~count:200
      (triple (int_bound 1_000_000) (int_bound 1_000_000) (int_bound 1_000_000))
      (fun (a, b, c) ->
        N.equal
          (N.add (N.of_int a) (N.add (N.of_int b) (N.of_int c)))
          (N.add (N.add (N.of_int a) (N.of_int b)) (N.of_int c)));
    Test.make ~name:"bigfloat exp/log roundtrip" ~count:60
      (float_range 0.01 100.0) (fun a ->
        let x = B.of_float a in
        let r = M.exp ~prec:200 (M.log ~prec:260 x) in
        let d = B.abs (B.sub ~prec:200 r x) in
        B.is_zero d || B.lt (B.div ~prec:60 d x) (B.mul_2exp B.one (-180)));
  ]

(* ---------- exact-size results and the remainder-free quotient ---------- *)

(* Naturals of exactly [limbs] limbs whose limbs are drawn to hit carry
   and correction boundaries: all ones, zero, one, or random. The top
   limb is drawn from the same mix, kept nonzero. *)
let boundary_nat st limbs =
  let limb () =
    match Random.State.int st 4 with
    | 0 -> (1 lsl 31) - 1
    | 1 -> 0
    | 2 -> 1
    | _ -> Random.State.full_int st (1 lsl 31)
  in
  let acc = ref N.zero in
  for i = 1 to limbs do
    let l = limb () in
    let l = if i = 1 && l = 0 then 1 else l in
    acc := N.add_shifted !acc 31 (N.of_int l)
  done;
  !acc

(* [quot_exact] against [divmod]: divisors of 2 to 40 limbs (Knuth's
   path) and of one limb, dividends up to 80 limbs, with exact
   quotients (a = q b), off-by-one remainders (a = q b +- 1) and a < b. *)
let nat_quot_exact () =
  let st = Random.State.make [| 0xd1f |] in
  let exact = ref 0 in
  for i = 1 to 3000 do
    let bl = if i mod 10 = 0 then 1 else 2 + Random.State.int st 39 in
    let b = boundary_nat st bl in
    let a =
      match i mod 4 with
      | 0 -> N.mul (boundary_nat st (1 + Random.State.int st 40)) b
      | 1 ->
          N.add (N.mul (boundary_nat st (1 + Random.State.int st 40)) b) N.one
      | 2 ->
          N.sub (N.mul (boundary_nat st (1 + Random.State.int st 40)) b) N.one
      | _ -> boundary_nat st (1 + Random.State.int st 80)
    in
    let q, r = N.divmod a b in
    let q', z = N.quot_exact a b in
    if z then incr exact;
    checkb "quotient" true (N.equal q q');
    checkb "remainder is zero" (N.is_zero r) z;
    checkb "canonical quotient" true (N.canonical q')
  done;
  checkb "exact quotients exercised" true (!exact >= 700);
  checkb "zero dividend" true (snd (N.quot_exact N.zero (N.of_int 3)));
  Alcotest.check_raises "zero divisor" Division_by_zero (fun () ->
      ignore (N.quot_exact N.one N.zero))

(* [add], [mul_int] and [divmod_int] size their results from the top
   limbs; every result must still be canonical (no zero top limb, which
   [compare] and [equal] rely on) and arithmetically right. *)
let nat_exact_size_canonical () =
  let st = Random.State.make [| 0xca4 |] in
  let ks = [| 1; 2; 3; 7; (1 lsl 30) - 1; 1 lsl 30; (1 lsl 31) - 1 |] in
  for _ = 1 to 3000 do
    let a = boundary_nat st (Random.State.int st 12) in
    let b = boundary_nat st (Random.State.int st 12) in
    let k =
      if Random.State.bool st then ks.(Random.State.int st (Array.length ks))
      else 1 + Random.State.full_int st ((1 lsl 31) - 1)
    in
    let s = N.add a b in
    checkb "add canonical" true (N.canonical s);
    checkb "add commutes" true (N.equal s (N.add b a));
    checkb "add inverts" true (N.equal (N.sub s b) a);
    let p = N.mul_int a k in
    checkb "mul_int canonical" true (N.canonical p);
    let q, r = N.divmod_int p k in
    checkb "divmod_int canonical" true (N.canonical q);
    checkb "mul_int then divmod_int" true (N.equal q a && r = 0);
    let q, r = N.divmod_int a k in
    checkb "divmod_int canonical" true (N.canonical q);
    checkb "a = q k + r" true (N.equal a (N.add (N.mul_int q k) (N.of_int r)));
    checkb "r < k" true (r >= 0 && r < k)
  done

(* ---------- Bigfloat.to_float against an exact oracle ----------

   For d = to_float x, exact Bigfloat arithmetic checks that x is no
   closer to either neighbour of d than to d, and that a tie went to
   the even one. Above max_float the neighbour is 2^1024, standing in
   for infinity: d is infinite exactly when |x| >= 2^1024 - 2^970. *)

(* every operand below spans fewer than 7,000 bits, so subtractions at
   this precision are exact *)
let exact_prec = 20_000

let check_nearest what x =
  let d = B.to_float x in
  checkb (what ^ ": sign") (B.is_negative x) (Float.sign_bit d);
  let ax = B.abs x and ad = Float.abs d in
  let overflow =
    B.sub ~prec:exact_prec (B.mul_2exp B.one 1024) (B.mul_2exp B.one 970)
  in
  if ad = Float.infinity then
    checkb (what ^ ": overflow") true (B.ge ax overflow)
  else begin
    let dist y = B.abs (B.sub ~prec:exact_prec ax y) in
    let d0 = dist (B.of_float ad) in
    let even = Int64.logand (Int64.bits_of_float ad) 1L = 0L in
    let neighbour y =
      match B.cmp d0 (dist y) with
      | Some c when c < 0 -> ()
      | Some 0 -> checkb (what ^ ": tie to even") true even
      | _ -> Alcotest.failf "%s: %h is not the nearest double" what d
    in
    if ad > 0.0 then neighbour (B.of_float (Float.pred ad));
    neighbour
      (if ad = Float.max_float then B.mul_2exp B.one 1024
       else B.of_float (Float.succ ad))
  end

let bf_to_float_oracle () =
  let st = Random.State.make [| 0x70f |] in
  (* a mantissa of exactly [bits] bits *)
  let mant bits =
    if bits = 1 then N.one
    else begin
      let r = boundary_nat st (2 + ((bits - 1) / 31)) in
      N.add_shifted N.one (bits - 1)
        (N.shift_right r (N.bit_length r - (bits - 1)))
    end
  in
  (* x = m 2^(mag - bits m), of magnitude [mag] *)
  let at ~neg m mag = B.make ~neg ~mant:m ~exp:(mag - N.bit_length m) in
  let sign () = Random.State.bool st in
  let n = ref 0 in
  let check what x =
    incr n;
    check_nearest what x
  in
  (* seeded mantissas of 1 to 4,000 bits across the whole range *)
  for _ = 1 to 3000 do
    let bits = 1 + Random.State.int st 4000 in
    let mag = -1100 + Random.State.int st 2130 in
    check "random" (at ~neg:(sign ()) (mant bits) mag)
  done;
  (* exact ties and ties one unit off, at many drop widths: the kept
     part [keep] sits at quantum 2^q, then a half and +-1 at the bottom *)
  let drops = List.init 200 (fun i -> i + 1) @ List.init 100 (fun _ -> 1 + Random.State.int st 4000) in
  List.iter
    (fun drop ->
      let keep, q =
        match Random.State.int st 3 with
        | 0 -> (mant (1 + Random.State.int st 52), -1074)
        | _ ->
            (mant 53, -1074 + Random.State.int st (971 + 1074 + 1))
      in
      let tie = N.add_shifted keep 1 N.one in
      let scaled = N.shift_left tie (drop - 1) in
      let neg = sign () in
      let x m = B.make ~neg ~mant:m ~exp:(q - drop) in
      check "tie" (x scaled);
      if drop >= 2 then begin
        check "tie + 1" (x (N.add scaled N.one));
        check "tie - 1" (x (N.sub scaled N.one))
      end)
    drops;
  (* the overflow threshold 2^1024 - 2^970 and its neighbourhood *)
  let thr = N.sub (N.shift_left N.one 54) N.one in
  List.iter
    (fun neg ->
      let x m e = B.make ~neg ~mant:m ~exp:e in
      check "max_float tie" (x thr 970);
      check "below max tie" (x (N.sub (N.shift_left thr 100) N.one) 870);
      check "above max tie" (x (N.add (N.shift_left thr 100) N.one) 870);
      check "2^1024" (x N.one 1024))
    [ false; true ];
  (* magnitudes 1023 to 1026, where overflow decides *)
  for _ = 1 to 400 do
    let mag = 1023 + Random.State.int st 4 in
    check "overflow range" (at ~neg:(sign ()) (mant (1 + Random.State.int st 300)) mag)
  done;
  (* the subnormal range and the 2^-1074 edge *)
  for _ = 1 to 1500 do
    let mag = -1090 + Random.State.int st 70 in
    check "subnormal" (at ~neg:(sign ()) (mant (1 + Random.State.int st 200)) mag)
  done;
  List.iter
    (fun (m, e) ->
      check "edge" (B.make ~neg:false ~mant:m ~exp:e);
      check "edge" (B.make ~neg:true ~mant:m ~exp:e))
    [
      (N.one, -1074); (N.one, -1075); (N.one, -1076); (N.one, -1081);
      (N.of_int 3, -1075); (N.of_int 5, -1076); (N.of_int 3, -1076);
      (N.add_shifted N.one 125 N.one, -1200);
      (N.sub (N.shift_left N.one 125) N.one, -1200);
      (N.sub (N.shift_left N.one 53) N.one, -1075);
      (N.sub (N.shift_left N.one 54) N.one, -1076);
    ];
  checkb "cases run" true (!n > 5000)

let () =
  Random.init 0x5eed;
  Alcotest.run "bignum"
    [
      ( "natural",
        [
          Alcotest.test_case "of_int roundtrip" `Quick nat_of_int_roundtrip;
          Alcotest.test_case "add/sub small" `Quick nat_add_sub_small;
          Alcotest.test_case "mul small" `Quick nat_mul_small;
          Alcotest.test_case "divmod property" `Quick nat_divmod_property;
          Alcotest.test_case "string roundtrip" `Quick nat_string_roundtrip;
          Alcotest.test_case "isqrt" `Quick nat_isqrt;
          Alcotest.test_case "series steps" `Quick nat_series_steps;
          Alcotest.test_case "karatsuba matches" `Quick nat_karatsuba_matches;
          Alcotest.test_case "shifts" `Quick nat_shifts;
          Alcotest.test_case "to_float" `Quick nat_to_float;
          Alcotest.test_case "quot_exact = divmod" `Quick nat_quot_exact;
          Alcotest.test_case "exact-size results canonical" `Quick
            nat_exact_size_canonical;
        ] );
      ( "bigint",
        [
          Alcotest.test_case "arith vs int" `Quick int_arith;
          Alcotest.test_case "compare/sign" `Quick int_compare_sign;
        ] );
      ( "bigfloat",
        [
          Alcotest.test_case "float roundtrip" `Quick float_roundtrip;
          Alcotest.test_case "add = hardware" `Quick bf_add_matches_hardware;
          Alcotest.test_case "sub = hardware" `Quick bf_sub_matches_hardware;
          Alcotest.test_case "mul = hardware" `Quick bf_mul_matches_hardware;
          Alcotest.test_case "div = hardware" `Quick bf_div_matches_hardware;
          Alcotest.test_case "sqrt = hardware" `Quick bf_sqrt_matches_hardware;
          Alcotest.test_case "high precision beats cancellation" `Quick
            bf_extended_precision_catches_cancellation;
          Alcotest.test_case "compare" `Quick bf_compare;
          Alcotest.test_case "decimal parse" `Quick bf_decimal_parse;
          Alcotest.test_case "decimal print" `Quick bf_decimal_print;
          Alcotest.test_case "floor/ceil/round/trunc" `Quick bf_floor_ceil;
          Alcotest.test_case "subnormal conversion" `Quick bf_subnormal_to_float;
          Alcotest.test_case "to_float = nearest (exact oracle)" `Quick
            bf_to_float_oracle;
        ] );
      ( "bigfloat_math",
        [
          Alcotest.test_case "exp" `Quick math_exp;
          Alcotest.test_case "log" `Quick math_log;
          Alcotest.test_case "trig" `Quick math_trig;
          Alcotest.test_case "trig kernel = reference" `Quick trig_kernel_identity;
          Alcotest.test_case "trig kernel fallback" `Quick trig_kernel_fallback;
          Alcotest.test_case "trig reference bound" `Quick trig_reference_bound;
          Alcotest.test_case "exp/log/atan kernel = reference" `Quick
            exp_log_kernel_identity;
          Alcotest.test_case "exp/log/atan kernel fallback" `Quick exp_log_kernel_fallback;
          Alcotest.test_case "exp/log/atan reference bound" `Quick exp_log_reference_bound;
          Alcotest.test_case "inverse trig" `Quick math_inverse_trig;
          Alcotest.test_case "atan2" `Quick math_atan2;
          Alcotest.test_case "hyperbolic" `Quick math_hyperbolic;
          Alcotest.test_case "pow" `Quick math_pow;
          Alcotest.test_case "misc" `Quick math_misc;
          Alcotest.test_case "fma" `Quick math_fma;
          Alcotest.test_case "pi and ln2" `Quick math_pi_ln2;
        ] );
      ( "properties",
        (* seeded per-test so `dune runtest` is deterministic; set
           QCHECK_SEED to explore a different stream *)
        List.mapi
          (fun i t ->
            let base =
              try int_of_string (Sys.getenv "QCHECK_SEED") with _ -> 0x5eed
            in
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| base; i |])
              t)
          qcheck_tests );
    ]
