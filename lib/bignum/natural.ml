(* Base-2^31 little-endian limbs, no leading zeros. Products of two limbs
   fit in OCaml's 63-bit native int, which keeps multiplication and Knuth
   division free of overflow checks. *)

type t = int array

let base_bits = 31
let base = 1 lsl base_bits
let limb_mask = base - 1

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero (a : t) = Array.length a = 0

(* Strip leading (high-index) zero limbs to restore canonical form. *)
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Natural.of_int: negative";
  if n = 0 then zero
  else if n < base then [| n |]
  else
    normalize
      [|
        n land limb_mask;
        (n lsr base_bits) land limb_mask;
        n lsr (2 * base_bits);
      |]

let to_int_opt (a : t) =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some (a.(0) lor (a.(1) lsl base_bits))
  | 3 when a.(2) <= 1 ->
      (* limb 2 contributes bit 62, the last usable bit of a 63-bit int *)
      let hi = a.(2) lsl (2 * base_bits) in
      if hi < 0 then None
      else Some (a.(0) lor (a.(1) lsl base_bits) lor hi)
  | _ -> None

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

(* The results below are allocated at their exact size whenever the top
   limbs decide it, so most cost one allocation and no [normalize] copy.
   Only a top limb that sits exactly on the boundary (a sum of base - 1,
   a product whose carry-in decides the spill) gets the spare limb and
   the copy. *)

let add (a : t) (b : t) : t =
  let a, b = if Array.length a >= Array.length b then (a, b) else (b, a) in
  let la = Array.length a and lb = Array.length b in
  if lb = 0 then a
  else begin
    (* the carry into limb la is 1 when the top sum reaches base, 0
       below base - 1, and decided by the lower limbs at base - 1 *)
    let top = a.(la - 1) + if lb = la then b.(la - 1) else 0 in
    let lr = if top >= base - 1 then la + 1 else la in
    let r = Array.make lr 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let s =
        Array.unsafe_get a i
        + (if i < lb then Array.unsafe_get b i else 0)
        + !carry
      in
      Array.unsafe_set r i (s land limb_mask);
      carry := s lsr base_bits
    done;
    if lr > la then r.(la) <- !carry;
    if top = base - 1 then normalize r else r
  end

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Natural.sub: underflow";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d =
      Array.unsafe_get a i
      - (if i < lb then Array.unsafe_get b i else 0)
      - !borrow
    in
    if d < 0 then begin
      Array.unsafe_set r i (d + base);
      borrow := 1
    end
    else begin
      Array.unsafe_set r i d;
      borrow := 0
    end
  done;
  normalize r

let mul_int (a : t) (k : int) : t =
  if k < 0 then invalid_arg "Natural.mul_int: negative";
  if k = 0 || is_zero a then zero
  else if k < base then begin
    let la = Array.length a in
    (* the spill into limb la is (a_top * k + c) / base for a carry-in
       c < k: certain when a_top * k alone reaches base, impossible when
       a_top * k + k - 1 stays below it *)
    let lo = a.(la - 1) * k in
    let lr = if lo + k - 1 >= base then la + 1 else la in
    let r = Array.make lr 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (Array.unsafe_get a i * k) + !carry in
      Array.unsafe_set r i (p land limb_mask);
      carry := p lsr base_bits
    done;
    if lr > la then r.(la) <- !carry;
    if lr > la && lo < base then normalize r else r
  end
  else invalid_arg "Natural.mul_int: factor too large"

let mul_school (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = Array.unsafe_get a i in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let p =
            (ai * Array.unsafe_get b j) + Array.unsafe_get r (i + j) + !carry
          in
          Array.unsafe_set r (i + j) (p land limb_mask);
          carry := p lsr base_bits
        done;
        (* The final carry fits in one limb: ai*b(j) <= (B-1)^2 and the
           running sum stays below B^2. *)
        Array.unsafe_set r (i + lb) (Array.unsafe_get r (i + lb) + !carry)
      end
    done;
    normalize r
  end

(* Below this limb count Karatsuba's split/recombine allocations cost
   more than the ~25% of limb products they save; 1000-bit operands (34
   limbs) land in schoolbook, which profiles ~2x faster there. *)
let karatsuba_threshold = 72

let split_at (a : t) (k : int) : t * t =
  let la = Array.length a in
  if la <= k then (a, zero)
  else (normalize (Array.sub a 0 k), Array.sub a k (la - k))

let shift_limbs (a : t) (k : int) : t =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if la = 1 then mul_int b a.(0)
  else if lb = 1 then mul_int a b.(0)
  else if min la lb < karatsuba_threshold then mul_school a b
  else begin
    (* Karatsuba: split both operands at half the larger length. *)
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split_at a k and b0, b1 = split_at b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add (add z0 (shift_limbs z1 k)) (shift_limbs z2 (2 * k))
  end


let bit_length_raw (a : int array) (la : int) =
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let bits = ref 0 in
    let v = ref top in
    while !v > 0 do
      incr bits;
      v := !v lsr 1
    done;
    ((la - 1) * base_bits) + !bits
  end

let bit_length (a : t) = bit_length_raw a (Array.length a)

let testbit (a : t) (i : int) =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

(* Is any bit strictly below position [i] set? Scans from the bottom, so
   for odd values (canonical Bigfloat mantissas) it answers in O(1). *)
let any_bit_below (a : t) (i : int) =
  if i <= 0 || is_zero a then false
  else begin
    let limb = i / base_bits and off = i mod base_bits in
    let la = Array.length a in
    let full = min limb la in
    let rec scan k = k < full && (a.(k) <> 0 || scan (k + 1)) in
    scan 0
    || (off > 0 && limb < la && a.(limb) land ((1 lsl off) - 1) <> 0)
  end

(* Are all bits in [lo, hi) set? (false for an empty range) *)
let all_ones_between (a : t) (lo : int) (hi : int) =
  lo < hi
  &&
  let rec go i = i >= hi || (testbit a i && go (i + 1)) in
  go lo

let is_even (a : t) = is_zero a || a.(0) land 1 = 0
let canonical (a : t) = is_zero a || a.(Array.length a - 1) <> 0

let shift_left (a : t) (n : int) : t =
  if n < 0 then invalid_arg "Natural.shift_left: negative";
  if n = 0 || is_zero a then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (Array.unsafe_get a i lsl bits) lor !carry in
        Array.unsafe_set r (i + limbs) (v land limb_mask);
        carry := v lsr base_bits
      done;
      r.(la + limbs) <- !carry
    end;
    normalize r
  end

let shift_right (a : t) (n : int) : t =
  if n < 0 then invalid_arg "Natural.shift_right: negative";
  if n = 0 || is_zero a then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      if bits = 0 then Array.blit a limbs r 0 lr
      else
        for i = 0 to lr - 1 do
          let lo = Array.unsafe_get a (i + limbs) lsr bits in
          let hi =
            if i + limbs + 1 < la then
              (Array.unsafe_get a (i + limbs + 1) lsl (base_bits - bits))
              land limb_mask
            else 0
          in
          Array.unsafe_set r i (lo lor hi)
        done;
      normalize r
    end
  end

(* Bigfloat addition aligns operands by shifting the higher-exponent one
   left before a full-width add or sub.  Fusing the shift into the
   add/sub writes the shifted operand straight into the result buffer —
   one allocation and one pass instead of three — which matters in series
   evaluation where the alignment gap grows with every term. *)
let write_shifted (a : t) (limbs : int) (bits : int) (r : int array) =
  let la = Array.length a in
  if bits = 0 then Array.blit a 0 r limbs la
  else begin
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (Array.unsafe_get a i lsl bits) lor !carry in
      Array.unsafe_set r (i + limbs) (v land limb_mask);
      carry := v lsr base_bits
    done;
    r.(la + limbs) <- !carry
  end

(* [add_shifted a s b] = a*2^s + b. *)
let add_shifted (a : t) (s : int) (b : t) : t =
  if s < 0 then invalid_arg "Natural.add_shifted: negative shift";
  if s = 0 then add a b
  else if is_zero a then b
  else if is_zero b then shift_left a s
  else begin
    let limbs = s / base_bits and bits = s mod base_bits in
    let la = Array.length a and lb = Array.length b in
    let lr = 1 + max (la + limbs + 1) lb in
    let r = Array.make lr 0 in
    write_shifted a limbs bits r;
    let carry = ref 0 and i = ref 0 in
    while !i < lb || !carry <> 0 do
      let v =
        Array.unsafe_get r !i
        + (if !i < lb then Array.unsafe_get b !i else 0)
        + !carry
      in
      Array.unsafe_set r !i (v land limb_mask);
      carry := v lsr base_bits;
      incr i
    done;
    normalize r
  end

(* [sub_shifted a s b] = a*2^s - b; requires a*2^s >= b. *)
let sub_shifted (a : t) (s : int) (b : t) : t =
  if s < 0 then invalid_arg "Natural.sub_shifted: negative shift";
  if s = 0 then sub a b
  else if is_zero b then shift_left a s
  else begin
    let limbs = s / base_bits and bits = s mod base_bits in
    let la = Array.length a and lb = Array.length b in
    let lr = la + limbs + 1 in
    if is_zero a || lb > lr then
      invalid_arg "Natural.sub_shifted: negative result";
    let r = Array.make lr 0 in
    write_shifted a limbs bits r;
    let borrow = ref 0 and i = ref 0 in
    while (!i < lb || !borrow <> 0) && !i < lr do
      let v =
        Array.unsafe_get r !i
        - (if !i < lb then Array.unsafe_get b !i else 0)
        - !borrow
      in
      if v < 0 then begin
        Array.unsafe_set r !i (v + base);
        borrow := 1
      end
      else begin
        Array.unsafe_set r !i v;
        borrow := 0
      end;
      incr i
    done;
    if !borrow <> 0 then invalid_arg "Natural.sub_shifted: negative result";
    normalize r
  end

(* Short-product multiply-and-round for odd operands.

   [mul_round ~prec a b] rounds a*b to [prec] significant bits (round to
   nearest) and returns [Some (mant, shift)] with
   round(a*b) = mant * 2^shift, or [None] when the caller must fall back
   to the exact product.

   Soundness argument. Both operands are odd (canonical Bigfloat
   mantissas), so the product P is odd: the bits discarded by rounding
   always contain a set bit below the round bit, the tie case is
   impossible, and round-to-nearest reduces to "add the round bit".
   The short product keeps only the partial products a_i*b_j with
   i+j >= off and computes S with P = S*B^off + E where
   0 <= E < off*B^(off+1), i.e. E < 2^44*B^off for off <= 8192. Adding E
   to S*B^off can change bits at positions >= off*31+45 only through a
   carry chain of consecutive set bits, so if some bit of S in the
   window [45, round-bit) is clear, the round bit and everything above
   it are exact. The all-ones window (probability ~2^-window per call)
   falls back to the exact product. *)
let mul_round ~prec (a : t) (b : t) : (t * int) option =
  let la = Array.length a and lb = Array.length b in
  if la < 6 || lb < 6 || prec <= 0 then None
  else if a.(0) land 1 = 0 || b.(0) land 1 = 0 then None
  else begin
    let bl_min = bit_length a + bit_length b - 1 in
    let drop_min = bl_min - prec in
    (* the round bit must sit comfortably above the uncertain window *)
    let off = (drop_min - 1 - 96) / base_bits in
    if off < 2 || off > 8192 then None
    else begin
      let lr = la + lb - off in
      let r = Array.make lr 0 in
      (* Column-major (Comba) accumulation over exactly the pairs with
         [i + j >= off] — the same partial products as a row walk, so
         the truncated sum is bit-identical, but the carry chain runs
         once per column instead of once per product. A column of up to
         [la] products can overflow 63 bits, so each product is split
         into its low and high limb halves and the two are summed
         separately (each bounded by [la * 2^31], comfortably in
         range). *)
      let carry = ref 0 and hi_prev = ref 0 in
      for c = off to la + lb - 2 do
        let i0 = if c - lb + 1 > 0 then c - lb + 1 else 0 in
        let i1 = if c < la - 1 then c else la - 1 in
        (* two independent accumulator pairs halve the add-latency chain;
           products pipeline through the multiplier either way *)
        let lo = ref 0 and hi = ref 0 in
        let lo' = ref 0 and hi' = ref 0 in
        let i = ref i0 in
        while !i + 1 <= i1 do
          let p = Array.unsafe_get a !i * Array.unsafe_get b (c - !i) in
          let q =
            Array.unsafe_get a (!i + 1) * Array.unsafe_get b (c - !i - 1)
          in
          lo := !lo + (p land limb_mask);
          hi := !hi + (p lsr base_bits);
          lo' := !lo' + (q land limb_mask);
          hi' := !hi' + (q lsr base_bits);
          i := !i + 2
        done;
        if !i = i1 then begin
          let p = Array.unsafe_get a !i * Array.unsafe_get b (c - !i) in
          lo := !lo + (p land limb_mask);
          hi := !hi + (p lsr base_bits)
        end;
        let s = !carry + !hi_prev + !lo + !lo' in
        Array.unsafe_set r (c - off) (s land limb_mask);
        carry := s lsr base_bits;
        hi_prev := !hi + !hi'
      done;
      Array.unsafe_set r (lr - 1) (!carry + !hi_prev);
      let s = normalize r in
      let bl_s = bit_length s in
      (* round-bit position within S *)
      let rb_pos = bl_s - prec - 1 in
      if rb_pos < 64 then None
      else if all_ones_between s 45 rb_pos then None
      else begin
        let rb = testbit s rb_pos in
        let keep = shift_right s (rb_pos + 1) in
        let mant = if rb then add keep one else keep in
        Some (mant, bl_s + (off * base_bits) - prec)
      end
    end
  end

let trailing_zeros (a : t) =
  if is_zero a then invalid_arg "Natural.trailing_zeros: zero";
  let i = ref 0 in
  while a.(!i) = 0 do
    incr i
  done;
  let v = ref a.(!i) and b = ref 0 in
  while !v land 1 = 0 do
    incr b;
    v := !v lsr 1
  done;
  (!i * base_bits) + !b

(* Writes the limbs of [floor (b / k)] into [q.(0 .. length b - 1)] and
   returns the remainder, for 0 < k < 2^31. One float reciprocal-multiply
   per limb instead of two hardware integer divides (or one float divide,
   whose ~15-cycle latency sits on the loop's serial rem chain).
   cur < k*2^31, so the true quotient fits 31 bits; the estimate's
   relative error — three roundings at ~2^-53 each — is under 2^-50,
   hence off by at most 1 after truncation, and a single fixup in each
   direction restores exactness. *)
let check_divisor k =
  if k <= 0 then invalid_arg "Natural.divmod_int: non-positive divisor";
  if k >= base then invalid_arg "Natural.divmod_int: divisor too large"

(* [quot_into]'s loop over limbs [top] down to 0 of [b], entering with
   remainder [rem0 < k] *)
let quot_range (q : int array) (b : t) (k : int) (top : int) (rem0 : int) :
    int =
  let rem = ref rem0 in
  let ik = 1.0 /. float_of_int k in
  for i = top downto 0 do
    let cur = (!rem lsl base_bits) lor Array.unsafe_get b i in
    let qi = int_of_float (float_of_int cur *. ik) in
    let r = cur - (qi * k) in
    let qi = if r < 0 then qi - 1 else if r >= k then qi + 1 else qi in
    let r = if r < 0 then r + k else if r >= k then r - k else r in
    Array.unsafe_set q i qi;
    rem := r
  done;
  !rem

let quot_into (q : int array) (b : t) (k : int) : int =
  check_divisor k;
  quot_range q b k (Array.length b - 1) 0

(* The quotient's top limb is zero exactly when a's is below k, and the
   limb under it is then nonzero (a_top >= 1 makes cur >= base > k), so
   the quotient is allocated at its exact size. *)
let divmod_int (a : t) (k : int) : t * int =
  check_divisor k;
  let la = Array.length a in
  if la = 0 then (zero, 0)
  else begin
    let skip = a.(la - 1) < k in
    let top = if skip then la - 2 else la - 1 in
    let q = Array.make (top + 1) 0 in
    let rem = quot_range q a k top (if skip then a.(la - 1) else 0) in
    (q, rem)
  end

(* ---------- in-place fixed-point series steps ----------

   The fast series kernels in [Bigfloat_math] spend their time in steps
   t <- p +- floor (t / d) with a small d. Dividing by a small int is
   bound by the latency of the serial remainder chain, while adding a
   multiple of p is not, so consecutive steps whose divisors multiply
   below 2^31 share one division: their nested exact value times the
   divisors' product D is a sum of the p's times partial products of the
   divisors, plus t. Buffers carry three spare limbs for the factor D
   and the carries, and are updated in place. *)

(* buf += (p >> s) * c for c < 2^31, reading the shifted limbs on the
   fly; a limb product plus a limb and a carry stays within max_int *)
let mac (buf : int array) (p : t) (s : int) (c : int) =
  let sw = s / base_bits and sb = s mod base_bits in
  let lp = Array.length p in
  let carry = ref 0 in
  for i = 0 to lp - sw - 1 do
    let j = i + sw in
    let limb =
      if sb = 0 then Array.unsafe_get p j
      else
        (Array.unsafe_get p j lsr sb)
        lor
        if j + 1 < lp then
          (Array.unsafe_get p (j + 1) lsl (base_bits - sb)) land limb_mask
        else 0
    in
    let v = Array.unsafe_get buf i + (limb * c) + !carry in
    Array.unsafe_set buf i (v land limb_mask);
    carry := v lsr base_bits
  done;
  let i = ref (max 0 (lp - sw)) in
  while !carry <> 0 do
    let v = buf.(!i) + !carry in
    buf.(!i) <- v land limb_mask;
    carry := v lsr base_bits;
    incr i
  done

(* a -= b, requires a >= b *)
let sub_in_place (a : int array) (b : int array) =
  let borrow = ref 0 in
  for i = 0 to Array.length a - 1 do
    let v = Array.unsafe_get a i - Array.unsafe_get b i - !borrow in
    if v < 0 then begin
      Array.unsafe_set a i (v + base);
      borrow := 1
    end
    else begin
      Array.unsafe_set a i v;
      borrow := 0
    end
  done

(* a += b *)
let add_in_place (a : int array) (b : int array) =
  let carry = ref 0 in
  for i = 0 to Array.length a - 1 do
    let v = Array.unsafe_get a i + Array.unsafe_get b i + !carry in
    Array.unsafe_set a i (v land limb_mask);
    carry := v lsr base_bits
  done

(* The longest run of divisors ds.(lo .. hi) ending (step = -1) or
   starting (step = 1) at [i] whose product stays below 2^31: returns
   the far end and the product. *)
let group (ds : int array) i step =
  let d = ref ds.(i) and e = ref i in
  while
    !e + step >= 0 && !e + step < Array.length ds && !d * ds.(!e + step) < base
  do
    e := !e + step;
    d := !d * ds.(!e)
  done;
  (!e, !d)

(* A zeroed buffer wide enough for t and for each of the first [n]
   terms times a factor below 2^31, holding t. *)
let buffer_for (ps : t array) n (t : t) =
  let len = ref (Array.length t) in
  for i = 0 to n - 1 do
    len := max !len (Array.length ps.(i))
  done;
  let buf = Array.make (!len + 3) 0 in
  Array.blit t 0 buf 0 (Array.length t);
  buf

let horner_div ~alternating ~shift (ps : t array) (ds : int array) (t : t) : t =
  let pos = ref (buffer_for ps (Array.length ds) t) in
  let len = Array.length !pos in
  let neg = ref (if alternating then Array.make len 0 else [||]) in
  let i = ref (Array.length ds - 1) in
  while !i >= 0 do
    let lo, d = group ds !i (-1) in
    (* p_q enters with sign (-1)^(q - lo) and coefficient
       ds.(q) ... ds.(i); t with sign (-1)^(i - lo + 1) and coefficient 1 *)
    if alternating && (!i - lo) land 1 = 0 then begin
      let tmp = !pos in
      pos := !neg;
      neg := tmp
    end;
    let c = ref 1 in
    for q = !i downto lo do
      c := !c * ds.(q);
      mac (if alternating && (q - lo) land 1 = 1 then !neg else !pos) ps.(q) shift !c
    done;
    if alternating then begin
      sub_in_place !pos !neg;
      Array.fill !neg 0 len 0
    end;
    ignore (quot_into !pos !pos d);
    i := lo - 1
  done;
  normalize !pos

let sum_div ~alternating ~shift (ps : t array) (ds : int array) (t : t) : t =
  let pos = buffer_for ps (Array.length ds) t in
  let len = Array.length pos in
  let fresh () = if alternating then Array.make len 0 else [||] in
  let neg = fresh () and run = Array.make len 0 and run_neg = fresh () in
  let i = ref 0 in
  while !i < Array.length ds do
    let hi, d = group ds !i 1 in
    (* term q has sign (-1)^q when [alternating]; the terms decrease, so
       a run's sum has the sign of its first term: sum its magnitude and
       file it with the positive or the negative terms *)
    Array.fill run 0 len 0;
    if alternating then Array.fill run_neg 0 len 0;
    for q = !i to hi do
      let odd = alternating && (q - !i) land 1 = 1 in
      mac (if odd then run_neg else run) ps.(q) shift (d / ds.(q))
    done;
    if alternating then sub_in_place run run_neg;
    ignore (quot_into run run d);
    add_in_place (if alternating && !i land 1 = 1 then neg else pos) run;
    i := hi + 1
  done;
  if alternating then sub_in_place pos neg;
  normalize pos

(* [divmod_int (shift_left a s) k], fused: the shifted limbs are
   produced on the fly inside the division pass, so the scaled dividend
   is never materialized. [Bigfloat.div_int] divides a full-precision
   mantissa by a machine integer once per series term, where the
   general path's temporaries dominate the profile. *)
let divshift_int (a : t) (s : int) (k : int) : t * int =
  if s < 0 then invalid_arg "Natural.divshift_int: negative shift";
  if k <= 0 then invalid_arg "Natural.divshift_int: non-positive divisor";
  if k >= base then invalid_arg "Natural.divshift_int: divisor too large";
  let n = Array.length a in
  if n = 0 then (zero, 0)
  else begin
    let sw = s / base_bits and sb = s mod base_bits in
    (* one limb of headroom for the sub-limb shift's spill *)
    let nt = n + sw + if sb = 0 then 0 else 1 in
    let q = Array.make nt 0 in
    let ik = 1.0 /. float_of_int k in
    let rem = ref 0 in
    for i = nt - 1 downto 0 do
      let j = i - sw in
      let limb =
        if sb = 0 then (if j >= 0 && j < n then Array.unsafe_get a j else 0)
        else begin
          let hi = if j >= 0 && j < n then Array.unsafe_get a j lsl sb else 0
          and lo =
            if j >= 1 then Array.unsafe_get a (j - 1) lsr (base_bits - sb)
            else 0
          in
          (hi lor lo) land limb_mask
        end
      in
      (* same reciprocal-multiply quotient step as [divmod_int] *)
      let cur = (!rem lsl base_bits) lor limb in
      let qi = int_of_float (float_of_int cur *. ik) in
      let r = cur - (qi * k) in
      let qi = if r < 0 then qi - 1 else if r >= k then qi + 1 else qi in
      let r = if r < 0 then r + k else if r >= k then r - k else r in
      Array.unsafe_set q i qi;
      rem := r
    done;
    (normalize q, !rem)
  end

(* Knuth algorithm D (TAOCP vol. 2, 4.3.1). Divisor normalized so its top
   limb has the high bit set, which bounds the qhat correction loop.
   Returns the quotient, and the remainder shifted left by [shift] in
   limbs [0, n) of the returned window; callers that only test the
   remainder for zero never shift it back. Requires a >= b and at least
   two limbs in b. *)
let knuth (a : t) (b : t) : t * int array * int =
  let n = Array.length b in
  let shift = base_bits - (bit_length b - ((n - 1) * base_bits)) in
  let v = shift_left b shift in
  assert (Array.length v = n);
  (* u is a << shift, written in place, plus one extra high limb for the
     running remainder window *)
  let la = Array.length a in
  let u = Array.make (la + 2) 0 in
  write_shifted a 0 shift u;
  let m = (if u.(la) <> 0 then la + 1 else la) - n in
  let q = Array.make (m + 1) 0 in
  let vtop = v.(n - 1) in
  let vsec = if n >= 2 then v.(n - 2) else 0 in
  for j = m downto 0 do
    let num = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    if !qhat >= base then begin
      qhat := base - 1;
      rhat := num - ((base - 1) * vtop)
    end;
    (* n >= 2 always holds here: single-limb divisors use divmod_int. *)
    while
      !rhat < base && !qhat * vsec > (!rhat lsl base_bits) lor u.(j + n - 2)
    do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* multiply-subtract u[j..j+n] -= qhat * v *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * Array.unsafe_get v i) + !carry in
      carry := p lsr base_bits;
      let d = Array.unsafe_get u (i + j) - (p land limb_mask) - !borrow in
      if d < 0 then begin
        Array.unsafe_set u (i + j) (d + base);
        borrow := 1
      end
      else begin
        Array.unsafe_set u (i + j) d;
        borrow := 0
      end
    done;
    let d = u.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add back one copy of v *)
      u.(j + n) <- d + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s = u.(i + j) + v.(i) + !c in
        u.(i + j) <- s land limb_mask;
        c := s lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !c) land limb_mask
    end
    else u.(j + n) <- d;
    q.(j) <- !qhat
  done;
  (normalize q, u, shift)

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_int a b.(0) in
    (q, of_int r)
  end
  else begin
    let q, u, shift = knuth a b in
    (q, shift_right (normalize (Array.sub u 0 (Array.length b))) shift)
  end

let quot_exact (a : t) (b : t) : t * bool =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, is_zero a)
  else if Array.length b = 1 then begin
    let q, r = divmod_int a b.(0) in
    (q, r = 0)
  end
  else begin
    let q, u, _ = knuth a b in
    let rec zero_below i = i < 0 || (u.(i) = 0 && zero_below (i - 1)) in
    (q, zero_below (Array.length b - 1))
  end

(* [(a lsr lo) mod 2^len], in one allocation. *)
let extract (a : t) (lo : int) (len : int) : t =
  let limbs = lo / base_bits and bits = lo mod base_bits in
  let la = Array.length a in
  if limbs >= la || len <= 0 then zero
  else begin
    let lr = min (la - limbs) ((len + base_bits - 1) / base_bits) in
    let r = Array.make lr 0 in
    for i = 0 to lr - 1 do
      let j = i + limbs in
      let hi =
        if bits > 0 && j + 1 < la then
          (Array.unsafe_get a (j + 1) lsl (base_bits - bits)) land limb_mask
        else 0
      in
      Array.unsafe_set r i ((Array.unsafe_get a j lsr bits) lor hi)
    done;
    let top = len - ((lr - 1) * base_bits) in
    if top < base_bits then r.(lr - 1) <- r.(lr - 1) land ((1 lsl top) - 1);
    normalize r
  end

(* Bits [lo, lo + len) of a as an int, for len <= 62. *)
let extract_int (a : t) (lo : int) (len : int) : int =
  let la = Array.length a in
  let acc = ref 0 in
  for i = lo / base_bits to min (la - 1) ((lo + len - 1) / base_bits) do
    let off = (i * base_bits) - lo in
    let v = Array.unsafe_get a i in
    acc := !acc lor (if off < 0 then v lsr (-off) else v lsl off)
  done;
  !acc land ((1 lsl len) - 1)

(* Floor square root of an int n below 2^60, from a float seed that is a
   proven overestimate by at most one. With s = floor (sqrt n) < 2^30:
   float rounding and [Float.sqrt] are monotone and n >= s^2, so the
   seed is at least fl (sqrt (fl (s^2))). That is s itself: a power of
   two squares exactly, and otherwise fl (s^2) = s^2 (1 + d) with
   |d| <= 2^-53 puts the root within s 2^-54 (1 + 2^-55) < 2^(e-53) of s
   (2^e <= s < 2^(e+1)), inside half the gap below s. From above, the
   root is below (s + 1)(1 + 2^-53), under s + 2, so truncation lands on
   s or s + 1 and one integer check settles it. *)
let isqrt_small (n : int) : int =
  let s = int_of_float (Float.sqrt (float_of_int n)) in
  if s * s > n then s - 1 else s

(* Zimmermann's Karatsuba square root ("Karatsuba Square Root", INRIA
   RR-3805, 1999; Brent and Zimmermann, Modern Computer Arithmetic,
   algorithm SqrtRem): (s, r) with s = floor (sqrt n) and r = n - s^2.

   Split n = T b^2 + a1 b + a0 with b = 2^l and a1, a0 < b, and take the
   root (s', r') of the top part T. With q, u the quotient and remainder
   of r' b + a1 by 2 s', s = s' b + q satisfies n = s^2 + r exactly for
   r = u b + a0 - q^2. Since u < 2 s', r <= 2s - 1 - 2q - q^2 < 2s + 1,
   so s >= floor (sqrt n). When T >= b^2 / 4 (s' >= b/2, so q <= b and
   q^2 <= 2 s' b), r >= -(2s - 1): at most one step s - 1, r + 2s - 1
   corrects it. l = floor ((bl + 1) / 4) keeps T at least 2l - 1 bits
   wide, so each level does one division and one square at half width
   where Newton's loop divides at full width; the remainder, which
   [Bigfloat.sqrt] needs for its sticky bit, comes free. Up to 120 bits
   the same step runs in native ints over the float-seeded root of a
   top part below 2^60: r' b + a1 < 2^61, s < 2^60 and q^2 <= 2^60. *)
let rec sqrt_rem (n : t) : t * t =
  let bl = bit_length n in
  let l = (bl + 1) / 4 in
  if bl <= 60 then begin
    let v = extract_int n 0 bl in
    let s = isqrt_small v in
    (of_int s, of_int (v - (s * s)))
  end
  else if bl <= 120 then begin
    let top = extract_int n (2 * l) (bl - (2 * l)) in
    let s1 = isqrt_small top in
    let r1 = top - (s1 * s1) in
    let num = (r1 lsl l) lor extract_int n l l in
    let q = num / (2 * s1) and u = num mod (2 * s1) in
    let s = (s1 lsl l) + q in
    let r = (u lsl l) + extract_int n 0 l - (q * q) in
    if r >= 0 then (of_int s, of_int r)
    else (of_int (s - 1), of_int (r + (2 * s) - 1))
  end
  else begin
    let s1, r1 = sqrt_rem (shift_right n (2 * l)) in
    let q, u = divmod (add_shifted r1 l (extract n l l)) (shift_left s1 1) in
    let s = add_shifted s1 l q in
    let pos = add_shifted u l (extract n 0 l) and q2 = mul q q in
    if compare pos q2 >= 0 then (s, sub pos q2)
    else (sub s one, sub (add pos (sub (shift_left s 1) one)) q2)
  end

let isqrt (a : t) : t = fst (sqrt_rem a)

module Reference = struct
  (* Newton from the overestimate 2^ceil(bl/2), dividing at full width
     every step; from above it converges monotonically to floor (sqrt). *)
  let isqrt (a : t) : t =
    if is_zero a then zero
    else begin
      let bl = bit_length a in
      let x = ref (shift_left one ((bl + 1) / 2)) in
      let continue = ref true in
      while !continue do
        let q, _ = divmod a !x in
        let next = shift_right (add !x q) 1 in
        if compare next !x < 0 then x := next else continue := false
      done;
      !x
    end
end

let pow_int (b : t) (e : int) : t =
  if e < 0 then invalid_arg "Natural.pow_int: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

let of_string (s : string) : t =
  if s = "" then invalid_arg "Natural.of_string: empty";
  let acc = ref zero in
  String.iter
    (fun c ->
      if c < '0' || c > '9' then invalid_arg "Natural.of_string: bad digit";
      acc := add (mul_int !acc 10) (of_int (Char.code c - Char.code '0')))
    s;
  !acc

let to_string (a : t) =
  if is_zero a then "0"
  else begin
    let chunks = ref [] in
    let cur = ref a in
    while not (is_zero !cur) do
      let q, r = divmod_int !cur 1_000_000_000 in
      chunks := r :: !chunks;
      cur := q
    done;
    match !chunks with
    | [] -> "0"
    | first :: rest ->
        let buf = Buffer.create 32 in
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
        Buffer.contents buf
  end

let to_float (a : t) =
  let bl = bit_length a in
  if bl = 0 then 0.0
  else if bl <= 53 then begin
    match to_int_opt a with
    | Some i -> float_of_int i
    | None -> assert false
  end
  else begin
    (* Keep 54 bits plus a sticky bit, then round to nearest even. *)
    let sh = bl - 54 in
    let top = shift_right a sh in
    let sticky = compare (shift_left top sh) a <> 0 in
    let i =
      match to_int_opt top with Some i -> i | None -> assert false
    in
    let round_bit = i land 1 = 1 in
    let keep = i lsr 1 in
    let rounded =
      if round_bit && (sticky || keep land 1 = 1) then keep + 1 else keep
    in
    ldexp (float_of_int rounded) (sh + 1)
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)
