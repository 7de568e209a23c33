module N = Natural
module B = Bigfloat

let guard = 32

(* ---------- cached constants ---------- *)

(* atan(1/k) scaled by 2^wp, by the Gregory series in integer arithmetic:
   sum_i (-1)^i / ((2i+1) k^(2i+1)). Error below one unit of the scaling. *)
let atan_inv_scaled ~wp k =
  let k2 = k * k in
  if k2 >= 1 lsl 31 then invalid_arg "atan_inv_scaled: k too large";
  let term = ref (fst (N.divmod_int (N.shift_left N.one wp) k)) in
  let acc = ref N.zero in
  let i = ref 0 in
  let negate = ref false in
  while not (N.is_zero !term) do
    let t, _ = N.divmod_int !term (2 * !i + 1) in
    acc := (if !negate then N.sub !acc t else N.add !acc t);
    term := fst (N.divmod_int !term k2);
    negate := not !negate;
    incr i
  done;
  !acc

(* The constant cache is shared process-wide state reachable from every
   shadow-real execution, so it must survive concurrent domains
   (fpgrind.fleet runs analyses in parallel). A mutex guards the table;
   holding it across [compute] also means a constant is computed once
   rather than racing duplicates. Values are immutable, so readers never
   see a partial entry. *)
let const_cache : (string * int, B.t) Hashtbl.t = Hashtbl.create 16
let const_cache_lock = Mutex.create ()

let cached name prec compute =
  (* Compute at the next power-of-two precision at least [prec] so repeated
     nearby precisions share one entry. *)
  let bucket =
    let p = ref 64 in
    while !p < prec do
      p := !p * 2
    done;
    !p
  in
  let key = (name, bucket) in
  Mutex.lock const_cache_lock;
  let v =
    match Hashtbl.find_opt const_cache key with
    | Some v -> v
    | None -> (
        match compute bucket with
        | v ->
            Hashtbl.add const_cache key v;
            v
        | exception e ->
            Mutex.unlock const_cache_lock;
            raise e)
  in
  Mutex.unlock const_cache_lock;
  B.round ~prec v

(* Machin: pi = 16 atan(1/5) - 4 atan(1/239). *)
let pi ~prec =
  cached "pi" (prec + guard) (fun wp ->
      let a = atan_inv_scaled ~wp:(wp + 8) 5 in
      let b = atan_inv_scaled ~wp:(wp + 8) 239 in
      let scaled = N.sub (N.mul_int a 16) (N.mul_int b 4) in
      B.round ~prec:wp (B.make ~neg:false ~mant:scaled ~exp:(-(wp + 8))))

(* ln 2 = sum_{i>=1} 1 / (i 2^i), in integer arithmetic scaled by 2^wp. *)
let ln2 ~prec =
  cached "ln2" (prec + guard) (fun wp ->
      let wpx = wp + 16 in
      let acc = ref N.zero in
      for i = 1 to wpx do
        let t, _ = N.divmod_int (N.shift_left N.one (wpx - i)) i in
        acc := N.add !acc t
      done;
      B.round ~prec:wp (B.make ~neg:false ~mant:!acc ~exp:(-wpx)))

(* ---------- series helpers ---------- *)

(* magnitude: position of the leading bit (value in [2^(m-1), 2^m));
   min_int for zero, max_int for specials *)
let magnitude t =
  match t with
  | B.Fin f -> f.B.exp + N.bit_length f.B.mant
  | B.Zero _ -> min_int
  | B.Nan | B.Inf _ -> max_int

(* ---------- the reference series ----------

   These term-by-term sums at working precision wp define the results of
   exp, expm1, log, log1p and atan (sin and cos below): the fast kernel
   returns only what these would give. Each stops at the first term
   below 2^(mag acc - wp - 4). *)

(* exp(r) for |r| <= 0.4, Taylor at precision wp. *)
let exp_series ~wp r =
  let acc = ref B.one and term = ref B.one and i = ref 1 in
  let continue = ref true in
  while !continue do
    term := B.div_int ~prec:wp (B.mul ~prec:wp !term r) !i;
    if B.is_zero !term || magnitude !term < magnitude !acc - wp - 4 then
      continue := false
    else begin
      acc := B.add ~prec:wp !acc !term;
      incr i
    end
  done;
  !acc

(* expm1(x) = sum_{i>=1} x^i / i! for |x| < 1/4: no cancellation. *)
let expm1_series ~wp x =
  let acc = ref x and term = ref x and i = ref 2 in
  let continue = ref true in
  while !continue do
    term := B.div_int ~prec:wp (B.mul ~prec:wp !term x) !i;
    if B.is_zero !term || magnitude !term < magnitude !acc - wp - 4 then
      continue := false
    else begin
      acc := B.add ~prec:wp !acc !term;
      incr i
    end
  done;
  !acc

(* 2 atanh(z) = 2 (z + z^3/3 + z^5/5 + ...) at precision wp. *)
let atanh2_series ~wp z =
  let z2 = B.mul ~prec:wp z z in
  let acc = ref z and term = ref z and i = ref 1 in
  let continue = ref true in
  while !continue do
    term := B.mul ~prec:wp !term z2;
    let t = B.div_int ~prec:wp !term (2 * !i + 1) in
    if B.is_zero t || magnitude t < magnitude !acc - wp - 4 then
      continue := false
    else begin
      acc := B.add ~prec:wp !acc t;
      incr i
    end
  done;
  B.mul_2exp !acc 1

(* atan(z) = z - z^3/3 + z^5/5 - ... for |z| <= tan (pi/1024) or
   |z| < 2^-9, at precision wp. *)
let atan_series ~wp z =
  let z2 = B.mul ~prec:wp z z in
  let acc = ref z and term = ref z and i = ref 1 in
  let continue = ref true in
  while !continue do
    term := B.neg (B.mul ~prec:wp !term z2);
    let t = B.div_int ~prec:wp !term ((2 * !i) + 1) in
    if B.is_zero t || magnitude t < magnitude !acc - wp - 4 then
      continue := false
    else begin
      acc := B.add ~prec:wp !acc t;
      incr i
    end
  done;
  !acc

(* ---------- the fast kernel ----------

   The kernel sums the same functions of the same reduced argument in
   fixed point by rectangular splitting, in about 2 sqrt(n) full
   multiplies instead of n, with a proven error bound eps_new; eps_old
   bounds the reference series' error. Every value within
   E >= eps_new + eps_old of the kernel's result v maps to one result
   under the reference's operations after the series, or the kernel
   declines: those operations are monotone, so the reference value,
   which lies in [v - E, v + E], maps to the same result. Declined cases
   run the reference. DESIGN.md decision 19 derives both bounds. *)

(* Bits the kernel carries beyond wp: they make eps_new negligible next to
   eps_old, and make the reference stop no later than the kernel does. *)
let kernel_extra = 24

(* Terms per block for [sums] sums of n terms at width w over shared
   powers: each block costs one full multiply per sum plus per-block
   work linear in w, and the powers x^2..x^m cost m - 1 multiplies, so
   m near sqrt (sums n (1 + 320/w)) balances the two. *)
let block_size ~sums ~w n =
  max 2
    (int_of_float
       (Float.sqrt (float_of_int (sums * n) *. (1.0 +. (320.0 /. float_of_int w)))))

(* Term k of each series is term k-1 times x / d k, over x = r^2 for
   sin r / r (d_sin) and cos r (d_cos), and over x = |r| for exp r
   (d_exp) and expm1 r / r (d_expm1). *)
let d_sin k = 2 * k * ((2 * k) + 1)
let d_cos k = ((2 * k) - 1) * 2 * k
let d_exp k = k
let d_expm1 k = k + 1

(* |r|^p 2^w in [xw, xw + 1) for p = 1 or 2, and log2 of an upper
   bound on |r|^p. *)
let fixed_power ~w ~p (fr : B.fin) =
  let e = (p * fr.B.exp) + w in
  let m = if p = 2 then N.mul fr.B.mant fr.B.mant else fr.B.mant in
  let xw = if e >= 0 then N.shift_left m e else N.shift_right m (-e) in
  let s = max 0 (N.bit_length xw - 53) in
  (* xw + 1 <= (top + 1) 2^s, and top + 1 <= 2^53 is exact as a float *)
  let top = N.to_float (N.shift_right xw s) in
  (xw, Float.log2 (top +. 1.0) +. float_of_int (s - w) +. 1e-9)

(* lg.(k) >= log2 (x^k / (d 1 ... d k)), given log2 x <= lx, for k up
   to the least n with lg.(n) <= -(w+1): the sum keeps terms 0 .. n-1. *)
let term_logs ~d ~w ~lx =
  let target = -.float_of_int (w + 1) -. 0.01 in
  let rec go k lg acc =
    if lg <= target then Array.of_list (List.rev (lg :: acc))
    else go (k + 1) (lg +. lx -. Float.log2 (float_of_int (d (k + 1)))) (lg :: acc)
  in
  go 0 0.0 []

(* pw.(i) = x^i 2^w, each rounded down from the one before. *)
let powers ~w xw count =
  let pw = Array.make (count + 1) (N.shift_left N.one w) in
  for i = 1 to count do
    pw.(i) <- (if i = 1 then xw else N.shift_right (N.mul pw.(i - 1) xw) w)
  done;
  pw

(* Rectangular splitting over blocks of m terms, from the top block
   down. [block j s t] sums block j's terms at scale 2^(w-s) onto t, the
   block above joined by one multiply by x^m ([None] for the top block).
   Block j's total reaches the sum scaled by at most 2^(lg j), so it
   works s_j bits coarser, with 2^(s_j + lg j) <= 2^-slack. *)
let blocks ~w ~m ~n ~lg ~block pw =
  let top = (n - 1) / m in
  let slack = 4 + N.bit_length (N.of_int (top + 1)) in
  let acc = ref N.zero and acc_s = ref 0 in
  for j = top downto 0 do
    let s = max 0 (int_of_float (Float.floor (-.lg j -. 0.01)) - slack) in
    let t =
      if j = top then None
      else Some (N.shift_right (N.mul (N.shift_right pw.(m) s) !acc) (w - !acc_s))
    in
    acc := block j s t;
    acc_s := s
  done;
  !acc

(* The sum of terms 0 .. n-1 (n = length lg - 1), scaled by 2^w, with
   signs alternating or all positive: Horner over the nested form
   T_k = 1 -+ x T_(k+1) / d (k+1), T_n = 0. Within block j, t holds
   x^i T_(jm+i), so a step is t <- x^i -+ t / d (jm+i+1), which never
   goes negative because t <= x^(i+1) <= x^i when the signs alternate;
   [Natural.horner_div] floors once per run of steps. T_(jm) reaches the
   sum scaled by term jm. *)
let fixed_sum ~d ~alternating ~w ~m ~lg pw =
  let n = Array.length lg - 1 in
  blocks ~w ~m ~n ~lg:(fun j -> lg.(j * m)) pw ~block:(fun j s t ->
      let hi = min m (n - 1 - (j * m)) in
      let t = match t with Some t -> t | None -> N.shift_right pw.(hi) s in
      N.horner_div ~alternating ~shift:s pw
        (Array.init hi (fun i -> d ((j * m) + i + 1)))
        t)

(* The least n with log2 (y^n / (2n+1)) <= -(w+1), given log2 y <= ly:
   atanh z / z and atan z / z keep terms 0 .. n-1. *)
let odd_terms ~w ~ly =
  let target = -.float_of_int (w + 1) -. 0.01 in
  let rec go n =
    if (float_of_int n *. ly) -. Float.log2 (float_of_int ((2 * n) + 1)) <= target
    then n
    else go (n + 1)
  in
  go 1

(* sum_(i<n) (-+y)^i / (2i+1), scaled by 2^w. No Horner nesting: term i
   is y^i over its own odd divisor, so a block sums its powers, each
   divided once ([Natural.sum_div] floors once per run of divisors); the
   join adds because m is even when the signs alternate. Block j's total
   reaches the sum scaled by y^(jm). *)
let odd_sum ~alternating ~w ~ly ~n ~m pw =
  blocks ~w ~m ~n ~lg:(fun j -> float_of_int (j * m) *. ly) pw ~block:(fun j s t ->
      let hi = min m (n - (j * m)) in
      N.sum_div ~alternating ~shift:s pw
        (Array.init hi (fun i -> (2 * ((j * m) + i)) + 1))
        (Option.value t ~default:N.zero))

let exact = max_int / 16
let pow2 e = B.make ~neg:false ~mant:N.one ~exp:e
let fixed ~w m = B.make ~neg:false ~mant:m ~exp:(-w)

(* The exponent of eps_old for a reference result near v: the series'
   relative error is below 2 (n + 4) 2^-wp, with n an upper bound on the
   reference's additions; tan's quotient of two series triples it
   (k_old 4 rather than 2). *)
let old_exp ~k_old ~wp ~n v =
  magnitude v - wp + k_old + N.bit_length (N.of_int (n + 4))

(* [finish v], the reference's operations after its series applied to
   the kernel's v, when it is the same at both ends of [v - E, v + E];
   otherwise [None]. [finish] must be monotone. The kernel's relative
   error is below 2^(rho - w), so eps_new = 2^(mag v + 1 + rho - w), and
   E = 2^(max (eps_old, eps_new) exponents + 1) covers their sum. *)
let accept ~finish ~k_old ~rho ~wp ~w ~n v =
  let eps = pow2 (1 + max (old_exp ~k_old ~wp ~n v) (magnitude v + 1 + rho - w)) in
  let lo = finish (B.sub ~prec:exact v eps) in
  if B.equal lo (finish (B.add ~prec:exact v eps)) then Some lo else None

(* Calls each kernel could not decide, so that they ran the reference. *)
let trig_fallbacks = Atomic.make 0
let exp_fallbacks = Atomic.make 0
let log_fallbacks = Atomic.make 0
let atan_fallbacks = Atomic.make 0

(* The kernel's answer when [use_kernel] and it can prove it, else the
   reference's. *)
let decide ~use_kernel counter fast reference =
  match if use_kernel then fast () else None with
  | Some v -> v
  | None ->
      if use_kernel then Atomic.incr counter;
      reference ()

(* One Taylor series over |r| < 1/2 in fixed point, alternating when
   r < 0: exp r = sum_k r^k / k! (d_exp), or, with [expm1],
   expm1 r = r sum_k r^k / (k+1)! (d_expm1) for |r| < 1/4. The reference
   makes fewer than n additions. *)
let taylor_fast ~expm1 ~wp ~finish r =
  match r with
  | B.Fin fr when magnitude r <= if expm1 then -2 else -1 ->
      let w = wp + kernel_extra in
      let xw, lx = fixed_power ~w ~p:1 fr in
      let d = if expm1 then d_expm1 else d_exp in
      let lg = term_logs ~d ~w ~lx in
      let n = Array.length lg - 1 in
      let m = block_size ~sums:1 ~w n in
      let pw = powers ~w xw (min m (n - 1)) in
      let v = fixed ~w (fixed_sum ~d ~alternating:fr.B.neg ~w ~m ~lg pw) in
      let v = if expm1 then B.mul ~prec:w r v else v in
      accept ~finish ~k_old:2 ~rho:6 ~wp ~w ~n v
  | _ -> None

(* 2 atanh z = 2 z sum_i y^i / (2i+1), or, when [alternating],
   atan z = z sum_i (-y)^i / (2i+1), with y = z^2, for |z| < 1/2. The
   reference makes fewer than n additions. The sum's error grows with
   the block length m: its relative error is below 4m 2^-w. *)
let odd_fast ~alternating ~wp ~finish z =
  match z with
  | B.Fin fz when magnitude z <= -1 ->
      let w = wp + kernel_extra in
      let yw, ly = fixed_power ~w ~p:2 fz in
      let n = odd_terms ~w ~ly in
      let m = block_size ~sums:1 ~w n in
      let m = if alternating then m + (m land 1) else m in
      let pw = powers ~w yw (min m (n - 1)) in
      let v = B.mul ~prec:w z (fixed ~w (odd_sum ~alternating ~w ~ly ~n ~m pw)) in
      let v = if alternating then v else B.mul_2exp v 1 in
      accept ~finish ~k_old:2 ~rho:(2 + N.bit_length (N.of_int m)) ~wp ~w ~n v
  | _ -> None

(* ---------- exp and log ---------- *)

let exp_with ~use_kernel ~prec x =
  match x with
  | B.Nan -> B.Nan
  | B.Inf false -> B.Inf false
  | B.Inf true -> B.zero
  | B.Zero _ -> B.one
  | B.Fin _ ->
      let wp = prec + guard in
      if magnitude x < -(prec + 8) then
        (* 1 + x already rounds correctly at this precision *)
        B.add ~prec B.one x
      else begin
        let xf = B.to_float x in
        let kf = Float.round (xf /. 0.6931471805599453) in
        if Float.abs kf > 1e9 then
          (if kf > 0.0 then B.Inf false else B.zero)
        else begin
          let k = int_of_float kf in
          let kbits = if k = 0 then 0 else 64 in
          let l2 = ln2 ~prec:(wp + kbits) in
          let r =
            B.sub ~prec:(wp + kbits) x (B.mul ~prec:(wp + kbits) (B.of_int k) l2)
          in
          let finish s = B.round ~prec (B.mul_2exp s k) in
          decide ~use_kernel exp_fallbacks
            (fun () -> taylor_fast ~expm1:false ~wp ~finish r)
            (fun () -> finish (exp_series ~wp r))
        end
      end

(* [log] sums 2 atanh((x-1)/(x+1)) directly inside (0.70, 1.5). *)
let near_one_lo = B.of_decimal_string ~prec:64 "0.70"
let near_one_hi = B.of_decimal_string ~prec:64 "1.5"

(* The result [finish (atanh2_series ~wp z)]. A zero z (x a power of
   two) sums nothing and needs no kernel. *)
let atanh2_with ~use_kernel ~wp ~finish z =
  if B.is_zero z then finish (atanh2_series ~wp z)
  else
    decide ~use_kernel log_fallbacks
      (fun () -> odd_fast ~alternating:false ~wp ~finish z)
      (fun () -> finish (atanh2_series ~wp z))

let log_with ~use_kernel ~prec x =
  match x with
  | B.Nan -> B.Nan
  | B.Inf false -> B.Inf false
  | B.Inf true -> B.Nan
  | B.Zero _ -> B.Inf true
  | B.Fin f when f.B.neg -> B.Nan
  | B.Fin _ ->
      if B.equal x B.one then B.zero
      else begin
        let wp = prec + guard in
        (* Near 1, avoid the e*ln2 split entirely (cancellation). *)
        let near_one = B.gt x near_one_lo && B.lt x near_one_hi in
        if near_one then begin
          (* When x = 1 + eps the leading term of 2 atanh((x-1)/(x+1)) has
             magnitude eps, so ask for enough working precision. *)
          let d = B.sub ~prec:wp x B.one in
          let extra = max 0 (-magnitude d) + 8 in
          let wp = wp + extra in
          let z =
            B.div ~prec:wp (B.sub ~prec:wp x B.one) (B.add ~prec:wp x B.one)
          in
          atanh2_with ~use_kernel ~wp ~finish:(B.round ~prec) z
        end
        else begin
          let b = magnitude x in
          (* m in [1, 2) *)
          let m = B.mul_2exp x (1 - b) in
          let z =
            B.div ~prec:wp (B.sub ~prec:wp m B.one) (B.add ~prec:wp m B.one)
          in
          let l2 = ln2 ~prec:wp in
          let e = B.mul ~prec:wp (B.of_int (b - 1)) l2 in
          atanh2_with ~use_kernel ~wp
            ~finish:(fun lnm -> B.round ~prec (B.add ~prec:wp e lnm))
            z
        end
      end

let log1p_with ~use_kernel ~prec x =
  match x with
  | B.Nan -> B.Nan
  | B.Inf false -> B.Inf false
  | B.Inf true -> B.Nan
  | B.Zero _ -> x
  | B.Fin _ ->
      if B.le x B.minus_one then
        if B.equal x B.minus_one then B.Inf true else B.Nan
      else if magnitude x < -2 then begin
        (* ln(1+x) = 2 atanh(x / (x+2)): no cancellation for small x *)
        let wp = prec + guard in
        let z = B.div ~prec:wp x (B.add ~prec:wp x B.two) in
        atanh2_with ~use_kernel ~wp ~finish:(B.round ~prec) z
      end
      else begin
        let wp = prec + guard in
        log_with ~use_kernel ~prec (B.add ~prec:wp B.one x)
      end

let expm1_with ~use_kernel ~prec x =
  match x with
  | B.Nan -> B.Nan
  | B.Inf false -> B.Inf false
  | B.Inf true -> B.minus_one
  | B.Zero _ -> x
  | B.Fin _ ->
      if magnitude x < -1 then begin
        let wp = prec + guard + max 0 (-magnitude x) in
        decide ~use_kernel exp_fallbacks
          (fun () -> taylor_fast ~expm1:true ~wp ~finish:(B.round ~prec) x)
          (fun () -> B.round ~prec (expm1_series ~wp x))
      end
      else begin
        let wp = prec + guard in
        B.sub ~prec (exp_with ~use_kernel ~prec:wp x) B.one
      end

let exp = exp_with ~use_kernel:true
let log = log_with ~use_kernel:true
let log1p = log1p_with ~use_kernel:true
let expm1 = expm1_with ~use_kernel:true

let log2 ~prec x =
  let wp = prec + guard in
  let l = log ~prec:wp x in
  match l with
  | B.Nan | B.Inf _ -> l
  | B.Zero _ | B.Fin _ -> B.div ~prec l (ln2 ~prec:wp)

let log10 ~prec x =
  let wp = prec + guard in
  let l = log ~prec:wp x in
  match l with
  | B.Nan | B.Inf _ -> l
  | _ -> B.div ~prec l (log ~prec:wp (B.of_int 10))

let exp2 ~prec x =
  match x with
  | B.Fin _ when B.is_integer x -> begin
      match B.to_bigint x with
      | Some bi -> begin
          match Bigint.to_int_opt bi with
          | Some k when abs k < 1 lsl 30 -> B.mul_2exp B.one k
          | _ -> if B.is_negative x then B.zero else B.Inf false
        end
      | None -> assert false
    end
  | _ ->
      let wp = prec + guard in
      exp ~prec (B.mul ~prec:wp x (ln2 ~prec:wp))

(* sin(r) and cos(r) Taylor series for |r| <= pi/4 + small slack, term by
   term at precision wp. These define the trig results: the fast kernel
   below returns only what rounding these would return. *)
let sin_series ~wp r =
  let r2 = B.mul ~prec:wp r r in
  let acc = ref r and term = ref r and k = ref 1 in
  let continue = ref true in
  while !continue do
    term :=
      B.neg
        (B.div_int ~prec:wp
           (B.mul ~prec:wp !term r2)
           ((2 * !k) * ((2 * !k) + 1)));
    if B.is_zero !term || magnitude !term < magnitude !acc - wp - 4 then
      continue := false
    else begin
      acc := B.add ~prec:wp !acc !term;
      incr k
    end
  done;
  !acc

let cos_series ~wp r =
  let r2 = B.mul ~prec:wp r r in
  let acc = ref B.one and term = ref B.one and k = ref 1 in
  let continue = ref true in
  while !continue do
    term :=
      B.neg
        (B.div_int ~prec:wp
           (B.mul ~prec:wp !term r2)
           (((2 * !k) - 1) * (2 * !k)));
    if B.is_zero !term || magnitude !term < magnitude !acc - wp - 4 then
      continue := false
    else begin
      acc := B.add ~prec:wp !acc !term;
      incr k
    end
  done;
  !acc

(* Reduce x modulo pi/2: returns (quadrant mod 4, remainder) with
   |remainder| <= pi/4 (up to rounding), both at precision wp. Uses a Ziv
   retry so the remainder keeps wp significant bits even near multiples of
   pi/2. *)
let trig_reduce ~wp x =
  let xmag = max 0 (magnitude x) in
  if xmag > 8192 then None
  else begin
    let p0 = wp + xmag + guard in
    let rec attempt extra tries =
      let p = wp + xmag + extra in
      let halfpi = B.mul_2exp (pi ~prec:p) (-1) in
      let q = B.round_to_int (B.div ~prec:p x halfpi) in
      let r = B.sub ~prec:p x (B.mul ~prec:p q halfpi) in
      if
        tries < 3
        && (not (B.is_zero r))
        && magnitude r < magnitude x - xmag - extra + (2 * guard)
        && not (B.is_zero q)
      then attempt (extra + max 64 (2 * extra)) (tries + 1)
      else begin
        let qmod =
          match B.to_bigint q with
          | Some bi -> begin
              let m =
                Bigint.divmod bi (Bigint.of_int 4) |> snd |> Bigint.to_int_opt
              in
              match m with Some v -> ((v mod 4) + 4) mod 4 | None -> 0
            end
          | None -> 0
        in
        Some (qmod, r)
      end
    in
    (* The first Ziv attempt's outcome is often decidable from a float
       approximation of |x| alone, letting us skip a full multi-precision
       divide/multiply/subtract round.  Both shortcuts below reproduce the
       loop's behaviour exactly; anything unprovable falls through to the
       plain recursion.

       Case A, |x| <= 0.78: the attempt-0 quotient x/halfpi is correctly
       rounded, and |x|/(pi/2) <= 0.78*(1+2^-52)/1.5707... < 0.497, so it
       rounds to the integer q = 0.  Then r = round_p0(x), which is x
       itself whenever x carries at most p0 significant bits, and q = 0
       forbids a retry: attempt 0 returns (0, x).

       Case B, |x| >= 0.79 (including to_float overflow to infinity):
       the quotient is >= 0.79*(1-2^-52)/1.5708/(1+2^-p) > 0.502, so
       q <> 0.  Here magnitude x >= 0, hence xmag = magnitude x and the
       retry threshold at extra = guard is 2*guard - guard = guard = 32;
       any nonzero remainder has |r| <~ pi/4 and magnitude <= 1 < 32, so
       attempt 0 retries iff r <> 0.  And r <> 0 is guaranteed when x has
       fewer significant bits than pi at precision p0: r = 0 would need
       x = q * halfpi_p0 exactly, whose canonical mantissa (q' * pi_mant
       for the odd part q' of q, both odd) is at least as wide as
       pi_p0's.  In that case attempt 0 always retries, so we start the
       recursion directly at its successor (extra = 3*guard, tries = 1). *)
    let ax = Float.abs (B.to_float x) in
    if ax <= 0.78 && B.precision_of x <= p0 then Some (0, x)
    else if
      ax >= 0.79 && B.precision_of x < B.precision_of (pi ~prec:p0)
    then attempt (guard + max 64 (2 * guard)) 1
    else attempt guard 0
  end

(* ---------- sin, cos, tan ----------

   Both ways of evaluating share [trig_reduce]'s (q, r). The reference
   rounds [sin_series]/[cos_series] at wp = prec + guard bits to prec. *)

type trig = Sin | Cos | Tan

(* The reference value before the final rounding. cos x = sin (x + pi/2)
   moves the quadrant by one. *)
let reference_reduced kind ~wp q r =
  match kind with
  | Sin | Cos ->
      let q = if kind = Cos then (q + 1) land 3 else q in
      let v = if q land 1 = 0 then sin_series ~wp r else cos_series ~wp r in
      if q >= 2 then B.neg v else v
  | Tan ->
      let s = sin_series ~wp r and c = cos_series ~wp r in
      if q land 1 = 0 then B.div ~prec:wp s c else B.neg (B.div ~prec:wp c s)

(* The kernel's value of [reference_reduced kind ~wp q r] rounded to prec,
   or [None] when it cannot prove that rounding. Both bounds assume
   |r| < 1. *)
let trig_fast kind ~prec ~wp q r =
  match r with
  | B.Fin fr when magnitude r <= 0 ->
      let w = wp + kernel_extra in
      let yw, ly = fixed_power ~w ~p:2 fr in
      let q = if kind = Cos then (q + 1) land 3 else q in
      let logs ~d needed = if needed then term_logs ~d ~w ~lx:ly else [| 0.0 |] in
      let lg_sin = logs ~d:d_sin (kind = Tan || q land 1 = 0)
      and lg_cos = logs ~d:d_cos (kind = Tan || q land 1 = 1) in
      let n = max (Array.length lg_sin) (Array.length lg_cos) - 1 in
      if d_sin n >= 1 lsl 31 then None
      else begin
        let m = block_size ~sums:(if kind = Tan then 2 else 1) ~w n in
        let pw = powers ~w yw (min m (n - 1)) in
        let sum ~d lg = fixed ~w (fixed_sum ~d ~alternating:true ~w ~m ~lg pw) in
        let s () = B.mul ~prec:w r (sum ~d:d_sin lg_sin) in
        let c () = sum ~d:d_cos lg_cos in
        let v, k_old =
          match kind with
          | Sin | Cos ->
              let v = if q land 1 = 0 then s () else c () in
              ((if q >= 2 then B.neg v else v), 2)
          | Tan ->
              let s = s () and c = c () in
              ( (if q land 1 = 0 then B.div ~prec:w s c
                 else B.neg (B.div ~prec:w c s)),
                4 )
        in
        accept ~finish:(B.round ~prec) ~k_old ~rho:6 ~wp ~w ~n v
      end
  | _ -> None

let trig kind ~use_kernel ~prec x =
  match x with
  | B.Nan | B.Inf _ -> B.Nan
  | B.Zero _ -> if kind = Cos then B.one else x
  | B.Fin _ -> begin
      let wp = prec + guard in
      match trig_reduce ~wp x with
      | None ->
          let f =
            match kind with Sin -> Stdlib.sin | Cos -> Stdlib.cos | Tan -> Stdlib.tan
          in
          B.of_float (f (B.to_float x))
      | Some (q, r) ->
          decide ~use_kernel trig_fallbacks
            (fun () -> trig_fast kind ~prec ~wp q r)
            (fun () -> B.round ~prec (reference_reduced kind ~wp q r))
    end

let sin = trig Sin ~use_kernel:true
let cos = trig Cos ~use_kernel:true
let tan = trig Tan ~use_kernel:true

(* atan for finite x via 8 angle-halving reductions then the Gregory
   series. *)
let atan_with ~use_kernel ~prec x =
  match x with
  | B.Nan -> B.Nan
  | B.Inf n ->
      let h = B.mul_2exp (pi ~prec) (-1) in
      if n then B.neg h else h
  | B.Zero _ -> x
  | B.Fin f ->
      let wp = prec + guard in
      let ax = B.abs x in
      let big = B.gt ax B.one in
      let y = if big then B.div ~prec:wp B.one ax else ax in
      (* halve the angle 8 times: y <- y / (1 + sqrt(1+y^2)) *)
      let reductions = if magnitude y < -8 then 0 else 8 in
      let z = ref y in
      for _ = 1 to reductions do
        let s =
          B.sqrt ~prec:wp (B.add ~prec:wp B.one (B.mul ~prec:wp !z !z))
        in
        z := B.div ~prec:wp !z (B.add ~prec:wp B.one s)
      done;
      let half_pi = if big then B.mul_2exp (pi ~prec:wp) (-1) else B.zero in
      let finish a =
        let angle = B.mul_2exp a reductions in
        let angle = if big then B.sub ~prec:wp half_pi angle else angle in
        B.round ~prec (if f.B.neg then B.neg angle else angle)
      in
      decide ~use_kernel atan_fallbacks
        (fun () -> odd_fast ~alternating:true ~wp ~finish !z)
        (fun () -> finish (atan_series ~wp !z))

let atan = atan_with ~use_kernel:true

module Reference = struct
  let sin = trig Sin ~use_kernel:false
  let cos = trig Cos ~use_kernel:false
  let tan = trig Tan ~use_kernel:false
  let exp = exp_with ~use_kernel:false
  let log = log_with ~use_kernel:false
  let log1p = log1p_with ~use_kernel:false
  let expm1 = expm1_with ~use_kernel:false
  let atan = atan_with ~use_kernel:false
  let sin_series = sin_series
  let cos_series = cos_series
  let exp_series = exp_series
  let expm1_series = expm1_series
  let atanh2_series = atanh2_series
  let atan_series = atan_series

  (* the kernel's bound on the reference's additions for this r *)
  let series_bound series ~wp r v =
    match r with
    | B.Fin fr ->
        let w = wp + kernel_extra in
        let _, lx = fixed_power ~w ~p:1 fr and _, ly = fixed_power ~w ~p:2 fr in
        let terms d lx = Array.length (term_logs ~d ~w ~lx) - 1 in
        let n =
          match series with
          | `Sin -> terms d_sin ly
          | `Cos -> terms d_cos ly
          | `Exp -> terms d_exp lx
          | `Expm1 -> terms d_expm1 lx
          | `Atanh2 | `Atan -> odd_terms ~w ~ly
        in
        pow2 (old_exp ~k_old:2 ~wp ~n v)
    | _ -> invalid_arg "Bigfloat_math.Reference.series_bound"

  let fallbacks = function
    | `Trig -> Atomic.get trig_fallbacks
    | `Exp -> Atomic.get exp_fallbacks
    | `Log -> Atomic.get log_fallbacks
    | `Atan -> Atomic.get atan_fallbacks
end

let atan2 ~prec y x =
  match (y, x) with
  | B.Nan, _ | _, B.Nan -> B.Nan
  | B.Zero ny, B.Zero nx ->
      (* C99: atan2(+-0, +0) = +-0; atan2(+-0, -0) = +-pi *)
      if nx then
        let p = pi ~prec in
        if ny then B.neg p else p
      else B.Zero ny
  | B.Zero ny, _ when not (B.is_negative x) -> B.Zero ny
  | B.Zero ny, _ ->
      let p = pi ~prec in
      if ny then B.neg p else p
  | _, B.Zero _ ->
      let h = B.mul_2exp (pi ~prec) (-1) in
      if B.is_negative y then B.neg h else h
  | B.Inf ny, B.Inf nx ->
      let wp = prec + guard in
      let q = B.mul_2exp (pi ~prec:wp) (-2) in
      let v = if nx then B.mul ~prec:wp (B.of_int 3) q else q in
      B.round ~prec (if ny then B.neg v else v)
  | B.Inf ny, _ ->
      let h = B.mul_2exp (pi ~prec) (-1) in
      if ny then B.neg h else h
  | _, B.Inf nx ->
      if nx then begin
        let p = pi ~prec in
        if B.is_negative y then B.neg p else p
      end
      else B.Zero (B.is_negative y)
  | B.Fin _, B.Fin fx ->
      let wp = prec + guard in
      let base = atan ~prec:wp (B.div ~prec:wp y x) in
      if not fx.B.neg then B.round ~prec base
      else begin
        let p = pi ~prec:wp in
        let v =
          if B.is_negative y then B.sub ~prec:wp base p
          else B.add ~prec:wp base p
        in
        B.round ~prec v
      end

let asin ~prec x =
  match x with
  | B.Nan | B.Inf _ -> B.Nan
  | B.Zero _ -> x
  | B.Fin f ->
      let ax = B.abs x in
      if B.gt ax B.one then B.Nan
      else if B.equal ax B.one then begin
        let h = B.mul_2exp (pi ~prec) (-1) in
        if f.B.neg then B.neg h else h
      end
      else begin
        let wp = prec + guard in
        let c =
          B.sqrt ~prec:wp (B.sub ~prec:wp B.one (B.mul ~prec:wp x x))
        in
        atan2 ~prec x c
      end

let acos ~prec x =
  match x with
  | B.Nan | B.Inf _ -> B.Nan
  | B.Zero _ -> B.mul_2exp (pi ~prec) (-1)
  | B.Fin f ->
      let ax = B.abs x in
      if B.gt ax B.one then B.Nan
      else if B.equal ax B.one then
        if f.B.neg then pi ~prec else B.zero
      else begin
        let wp = prec + guard in
        let s =
          B.sqrt ~prec:wp (B.sub ~prec:wp B.one (B.mul ~prec:wp x x))
        in
        atan2 ~prec s x
      end

let sinh ~prec x =
  match x with
  | B.Nan | B.Inf _ | B.Zero _ -> x
  | B.Fin _ ->
      if magnitude x < -1 then begin
        (* Taylor: x + x^3/3! + ... avoids exp cancellation near zero *)
        let wp = prec + guard in
        let x2 = B.mul ~prec:wp x x in
        let acc = ref x and term = ref x and k = ref 1 in
        let continue = ref true in
        while !continue do
          term :=
            B.div_int ~prec:wp
              (B.mul ~prec:wp !term x2)
              ((2 * !k) * ((2 * !k) + 1));
          if B.is_zero !term || magnitude !term < magnitude !acc - wp - 4 then
            continue := false
          else begin
            acc := B.add ~prec:wp !acc !term;
            incr k
          end
        done;
        B.round ~prec !acc
      end
      else begin
        let wp = prec + guard in
        let e = exp ~prec:wp x and en = exp ~prec:wp (B.neg x) in
        B.round ~prec (B.mul_2exp (B.sub ~prec:wp e en) (-1))
      end

let cosh ~prec x =
  match x with
  | B.Nan -> B.Nan
  | B.Inf _ -> B.Inf false
  | B.Zero _ -> B.one
  | B.Fin _ ->
      let wp = prec + guard in
      let e = exp ~prec:wp x and en = exp ~prec:wp (B.neg x) in
      B.round ~prec (B.mul_2exp (B.add ~prec:wp e en) (-1))

let tanh ~prec x =
  match x with
  | B.Nan | B.Zero _ -> x
  | B.Inf n -> if n then B.minus_one else B.one
  | B.Fin _ ->
      let wp = prec + guard in
      B.round ~prec (B.div ~prec:wp (sinh ~prec:wp x) (cosh ~prec:wp x))

(* x^k for an int k by repeated squaring, rounding each step at wp. *)
let pow_int_bf ~wp x k =
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then B.mul ~prec:wp acc b else acc in
      go acc (B.mul ~prec:wp b b) (e lsr 1)
    end
  in
  if k >= 0 then go B.one x k
  else B.div ~prec:wp B.one (go B.one x (-k))

let pow ~prec x y =
  match (x, y) with
  | _, B.Zero _ -> B.one (* pow(x, 0) = 1 even for nan per C99 *)
  | _, _ when B.equal x B.one -> B.one (* pow(1, y) = 1 even for nan *)
  | B.Nan, _ | _, B.Nan -> B.Nan
  | _, B.Inf ny -> begin
      let ax = B.abs x in
      match B.cmp ax B.one with
      | Some 0 -> B.one
      | Some c ->
          if (c > 0) = not ny then B.Inf false else B.zero
      | None -> B.Nan
    end
  | B.Inf nx, _ ->
      let y_odd_int =
        B.is_integer y
        && (match B.to_bigint y with
           | Some bi -> (match Bigint.to_int_opt bi with
               | Some i -> i land 1 = 1
               | None -> false)
           | None -> false)
      in
      if B.is_negative y then B.Zero (nx && y_odd_int)
      else if nx && y_odd_int then B.Inf true
      else B.Inf false
  | B.Zero nz, _ ->
      let y_odd_int =
        B.is_integer y
        && (match B.to_bigint y with
           | Some bi -> (match Bigint.to_int_opt bi with
               | Some i -> i land 1 = 1
               | None -> false)
           | None -> false)
      in
      if B.is_negative y then B.Inf (nz && y_odd_int)
      else B.Zero (nz && y_odd_int)
  | B.Fin fx, B.Fin _ ->
      let wp = prec + guard in
      let int_exp =
        if B.is_integer y then
          match B.to_bigint y with
          | Some bi -> Bigint.to_int_opt bi
          | None -> None
        else None
      in
      begin
        match int_exp with
        | Some k when abs k <= 1 lsl 22 ->
            B.round ~prec (pow_int_bf ~wp:(wp + 16) x k)
        | _ ->
            if fx.B.neg then B.Nan
            else begin
              (* relative error of exp(y ln x) scales with |y ln x| *)
              let est = Float.abs (B.to_float y *. Stdlib.log (B.to_float x)) in
              let extra =
                if Float.is_nan est || est < 2.0 then 8
                else min 1024 (8 + int_of_float (Float.log2 est))
              in
              let wp2 = wp + extra in
              exp ~prec (B.mul ~prec:wp2 y (log ~prec:wp2 x))
            end
      end

let cbrt ~prec x =
  match x with
  | B.Nan | B.Inf _ | B.Zero _ -> x
  | B.Fin f ->
      let wp = prec + guard in
      let ax = B.abs x in
      let r = exp ~prec:wp (B.div ~prec:wp (log ~prec:wp ax) (B.of_int 3)) in
      (* one Newton step sharpens the exp/log route: r <- (2r + a/r^2)/3 *)
      let r =
        B.div ~prec:wp
          (B.add ~prec:wp (B.mul ~prec:wp B.two r)
             (B.div ~prec:wp ax (B.mul ~prec:wp r r)))
          (B.of_int 3)
      in
      B.round ~prec (if f.B.neg then B.neg r else r)

let hypot ~prec x y =
  match (x, y) with
  | B.Nan, _ | _, B.Nan ->
      if B.is_inf x || B.is_inf y then B.Inf false else B.Nan
  | B.Inf _, _ | _, B.Inf _ -> B.Inf false
  | _ ->
      let wp = prec + guard in
      B.sqrt ~prec
        (B.add ~prec:wp (B.mul ~prec:wp x x) (B.mul ~prec:wp y y))

let fma ~prec x y z =
  let p = B.mul ~prec:exact x y in
  B.add ~prec p z

let fmod x y =
  match (x, y) with
  | B.Nan, _ | _, B.Nan | B.Inf _, _ | _, B.Zero _ -> B.Nan
  | B.Zero _, _ -> x
  | B.Fin _, B.Inf _ -> x
  | B.Fin fx, B.Fin fy ->
      (* exact: align mantissas at a common exponent and take the integer
         remainder *)
      let e = min fx.B.exp fy.B.exp in
      let xm = N.shift_left fx.B.mant (fx.B.exp - e) in
      let ym = N.shift_left fy.B.mant (fy.B.exp - e) in
      let _, r = N.divmod xm ym in
      if N.is_zero r then B.Zero fx.B.neg
      else B.make ~neg:fx.B.neg ~mant:r ~exp:e

let copysign x s =
  let n = B.is_negative s in
  if B.is_negative x = n then x else B.neg x

let fdim ~prec x y =
  match (x, y) with
  | B.Nan, _ | _, B.Nan -> B.Nan
  | _ -> if B.gt x y then B.sub ~prec x y else B.zero
