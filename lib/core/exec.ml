(* The instrumented VEX executor: the analogue of running the client
   binary under Valgrind with the Herbgrind tool loaded. The stepping
   loop, memory, frames, shadow tables and fast paths are the shadow
   block executor [Vex.Shadow_exec]; this module is its Herbgrind
   domain: the three shadow executions of paper section 4 (reals,
   influences, expressions), the spot bookkeeping, libm wrapping,
   bit-trick recognition and compensation detection.

   Concrete trace nodes are materialized only when the compiled program
   can reach a trace consumer; otherwise every creation site keeps the
   logical node count with [Trace.phantom]. *)

open Vex.Shadow_exec
module B = Bignum.Bigfloat
module IntSet = Shadow.IntSet

type op_info = {
  o_id : int;
  o_loc : Vex.Ir.loc;
  o_name : string;
  o_agg : Antiunify.agg;
  mutable o_count : int;
  mutable o_local_err_sum : float;
  mutable o_local_err_max : float;
  mutable o_out_err_sum : float;
  mutable o_out_err_max : float;
}

type spot_kind = Spot_output | Spot_branch | Spot_convert

type spot_info = {
  s_id : int;
  s_loc : Vex.Ir.loc;
  s_kind : spot_kind;
  mutable s_total : int;
  mutable s_incorrect : int;  (* for branches/conversions *)
  mutable s_err_sum : float;  (* for outputs *)
  mutable s_err_max : float;
  mutable s_infl : IntSet.t;
}

type stats = {
  mutable blocks_run : int;
  mutable stmts_run : int;
  mutable stmts_executed : int;
  mutable stmts_instrumented : int;
  mutable fp_ops : int;
  mutable compensations : int;
}

type result = {
  r_ops : (int, op_info) Hashtbl.t;
  r_spots : (int, spot_info) Hashtbl.t;
  r_outputs : Vex.Machine.output list;
  r_stats : stats;
}

(* the domain's per-run state *)
type state = {
  cfg : Config.t;
  (* the lazy-trace materialization verdict for this run: expressions are
     enabled and the compiled program contains a trace consumer *)
  traces : bool;
  ops : (int, op_info) Hashtbl.t;
  spots : (int, spot_info) Hashtbl.t;
  mutable fp_ops : int;
  mutable compensations : int;
}

(* ---------- spot and op tables ---------- *)

let op_entry st id loc name =
  match Hashtbl.find_opt st.ops id with
  | Some o -> o
  | None ->
      let o =
        {
          o_id = id;
          o_loc = loc;
          o_name = name;
          o_agg = Antiunify.create ~equiv_depth:st.cfg.Config.equiv_depth;
          o_count = 0;
          o_local_err_sum = 0.0;
          o_local_err_max = 0.0;
          o_out_err_sum = 0.0;
          o_out_err_max = 0.0;
        }
      in
      Hashtbl.replace st.ops id o;
      o

let spot_entry st id loc kind =
  match Hashtbl.find_opt st.spots id with
  | Some s -> s
  | None ->
      let s =
        {
          s_id = id;
          s_loc = loc;
          s_kind = kind;
          s_total = 0;
          s_incorrect = 0;
          s_err_sum = 0.0;
          s_err_max = 0.0;
          s_infl = IntSet.empty;
        }
      in
      Hashtbl.replace st.spots id s;
      s

(* ---------- error metrics ---------- *)

(* [near] is the exact value already rounded to a double (a shadow's
   [near] field) *)
let out_error st (client : float) (near : float) ~single =
  if not st.cfg.Config.enable_reals then 0.0
  else if single then
    Ieee.Single.bits_of_error client (Ieee.Single.of_double near)
  else Ieee.bits_of_error client near

(* ---------- the float operation core ----------

   [do_op] implements one shadowed floating-point operation: computes the
   exact result, the local error (paper 4.3), influence taint with
   compensation detection (5.4), the concrete trace node, and folds the
   trace into the op's aggregation (6.3). *)

let arg_shadow st ~single (v : float) (sl : Shadow.slot) : Shadow.t =
  match sl with
  | SVal s -> s
  | SNone | SBool _ | SVec _ -> Shadow.fresh_leaf ~single ~traces:st.traces v

let do_op st ~stmt_id ~loc ~name ~single ~(client : float)
    ~(client_fn : float array -> float) ~(real_fn : B.t array -> B.t)
    (args : (float * Shadow.slot) array) : Shadow.slot =
  st.fp_ops <- st.fp_ops + 1;
  let cfg = st.cfg in
  let shadows = Array.map (fun (v, sl) -> arg_shadow st ~single v sl) args in
  let real =
    if cfg.Config.enable_reals then
      real_fn (Array.map (fun s -> s.Shadow.real) shadows)
    else B.of_float client
  in
  let near = B.to_float real in
  (* local error: round the exact inputs to floats, run the op in client
     arithmetic, compare with the rounded exact result *)
  let local_err =
    if not cfg.Config.enable_reals then 0.0
    else begin
      let round f = if single then Ieee.Single.of_double f else f in
      let rounded_args = Array.map (fun s -> round s.Shadow.near) shadows in
      let r_f = client_fn rounded_args in
      let r_r = round near in
      if single then Ieee.Single.bits_of_error r_f r_r
      else Ieee.bits_of_error r_f r_r
    end
  in
  (* influences *)
  let infl =
    if not cfg.Config.enable_influences then IntSet.empty
    else begin
      let union_all =
        Array.fold_left
          (fun acc s -> IntSet.union acc s.Shadow.infl)
          IntSet.empty shadows
      in
      let compensating_passthrough () =
        (* an add/sub that returns one argument exactly in the reals, where
           the output is more accurate than the passed-through argument *)
        if
          (not cfg.Config.detect_compensation)
          || (name <> "+" && name <> "-")
          || Array.length shadows <> 2
          || not cfg.Config.enable_reals
        then None
        else begin
          let check i =
            let s = shadows.(i) in
            if B.equal real s.Shadow.real then begin
              let arg_err =
                out_error st (Shadow.client_value s) s.Shadow.near ~single
              in
              let out_err = out_error st client near ~single in
              if out_err < arg_err then Some s else None
            end
            else None
          in
          match check 0 with Some s -> Some s | None -> check 1
        end
      in
      match compensating_passthrough () with
      | Some passthrough ->
          (* Influence from the compensating term is dropped (paper 5.4).
             When the compensated result is itself accurate, the
             passed-through argument's taint is dropped too: its error has
             been repaired, so improving the tainting operation can no
             longer reduce output error. This is what keeps Triangle's 225
             compensated computations out of the report (section 7). *)
          st.compensations <- st.compensations + 1;
          if out_error st client near ~single <= cfg.Config.error_threshold
          then IntSet.empty
          else passthrough.Shadow.infl
      | None ->
          if local_err > cfg.Config.error_threshold then
            IntSet.add stmt_id union_all
          else union_all
    end
  in
  (* trace; the node key hashes the exact result for equivalence
     inference. With expressions off the eager executor built a bare
     value leaf here; that leaf had no consumer, so it is phantom-counted
     instead. *)
  let trace =
    if cfg.Config.enable_expressions then
      Some
        (Trace.node ~max_depth:cfg.Config.max_trace_depth ~key:(B.hash real)
           name
           (Array.map Shadow.trace_of shadows)
           client)
    else begin
      Trace.phantom ();
      None
    end
  in
  (* aggregate *)
  if cfg.Config.enable_expressions then begin
    let o = op_entry st stmt_id loc name in
    (match trace with Some tr -> Antiunify.add o.o_agg tr | None -> ());
    o.o_count <- o.o_count + 1;
    o.o_local_err_sum <- o.o_local_err_sum +. local_err;
    if local_err > o.o_local_err_max then o.o_local_err_max <- local_err;
    let oe = out_error st client near ~single in
    o.o_out_err_sum <- o.o_out_err_sum +. oe;
    if oe > o.o_out_err_max then o.o_out_err_max <- oe
  end
  else if cfg.Config.enable_reals then begin
    (* still track error statistics even without expressions *)
    let o = op_entry st stmt_id loc name in
    o.o_count <- o.o_count + 1;
    o.o_local_err_sum <- o.o_local_err_sum +. local_err;
    if local_err > o.o_local_err_max then o.o_local_err_max <- local_err
  end;
  SVal { Shadow.real; near; value = client; trace; infl; single }

(* comparison of two shadowed floats in the reals *)
let do_cmp st ~(client : bool) (cmp : B.t -> B.t -> bool) (a : float)
    (ash : Shadow.slot) (b : float) (bsh : Shadow.slot) : Shadow.slot =
  if not st.cfg.Config.enable_reals then SNone
  else begin
    let sa = arg_shadow st ~single:false a ash in
    let sb = arg_shadow st ~single:false b bsh in
    let shadow_b = cmp sa.Shadow.real sb.Shadow.real in
    let binfl =
      if st.cfg.Config.enable_influences then
        IntSet.union sa.Shadow.infl sb.Shadow.infl
      else IntSet.empty
    in
    SBool { Shadow.client_b = client; shadow_b; binfl }
  end

(* neg and fabs, as float ops or as gcc's sign-mask bit tricks (paper
   5.4): the shadow keeps its provenance; with expressions on it gets a
   trace node over the client result, else the old trace rides along *)
let sign_op st name (f : B.t -> B.t) (s : Shadow.t) (result : Vex.Value.t) :
    Shadow.slot =
  let real = f s.Shadow.real in
  if st.cfg.Config.enable_expressions then begin
    let client =
      match result with
      | Vex.Value.VF64 f | Vex.Value.VF32 f -> f
      | Vex.Value.VI64 bits -> Int64.float_of_bits bits
      | _ -> 0.0
    in
    let trace =
      Some
        (Trace.node ~max_depth:st.cfg.Config.max_trace_depth
           ~key:(B.hash real) name
           [| Shadow.trace_of s |]
           client)
    in
    SVal { s with Shadow.real; near = B.to_float real; value = client; trace }
  end
  else SVal { s with Shadow.real; near = B.to_float real }

(* SIMD packed float ops: one shadow op per lane, same pc *)
let simd2 st ~loc ~stmt_id name ffn rfn av ash bv bsh result : Shadow.slot =
  let a0, a1 = Vex.Value.v128_f64_lanes (Vex.Value.as_v128 av) in
  let b0, b1 = Vex.Value.v128_f64_lanes (Vex.Value.as_v128 bv) in
  let r0, r1 = Vex.Value.v128_f64_lanes (Vex.Value.as_v128 result) in
  let lane i a b r =
    do_op st ~stmt_id ~loc ~name ~single:false ~client:r
      ~client_fn:(fun x -> ffn x.(0) x.(1))
      ~real_fn:(fun x -> rfn x.(0) x.(1))
      [| (a, lane_slot ash 2 i); (b, lane_slot bsh 2 i) |]
  in
  SVec [| lane 0 a0 b0 r0; lane 1 a1 b1 r1 |]

let simd4 st ~loc ~stmt_id name ffn rfn av ash bv bsh result : Shadow.slot =
  let a0, a1, a2, a3 = Vex.Value.v128_f32_lanes (Vex.Value.as_v128 av) in
  let b0, b1, b2, b3 = Vex.Value.v128_f32_lanes (Vex.Value.as_v128 bv) in
  let r0, r1, r2, r3 = Vex.Value.v128_f32_lanes (Vex.Value.as_v128 result) in
  let lane i a b r =
    do_op st ~stmt_id ~loc ~name ~single:true ~client:r
      ~client_fn:(fun x -> ffn x.(0) x.(1))
      ~real_fn:(fun x -> rfn x.(0) x.(1))
      [| (a, lane_slot ash 4 i); (b, lane_slot bsh 4 i) |]
  in
  SVec [| lane 0 a0 b0 r0; lane 1 a1 b1 r1; lane 2 a2 b2 r2; lane 3 a3 b3 r3 |]

let float_of_value = function
  | Vex.Value.VF64 f | Vex.Value.VF32 f -> f
  | v -> Vex.Value.type_error "expected float" v

(* ---------- spots ---------- *)

let record_branch st ~loc ~stmt_id (sb : Shadow.sbool) =
  let sp = spot_entry st stmt_id loc Spot_branch in
  sp.s_total <- sp.s_total + 1;
  if sb.Shadow.client_b <> sb.Shadow.shadow_b then begin
    sp.s_incorrect <- sp.s_incorrect + 1;
    if st.cfg.Config.enable_influences then
      sp.s_infl <- IntSet.union sp.s_infl sb.Shadow.binfl
  end

let record_conversion st ~loc ~stmt_id ~(agree : bool) (infl : IntSet.t) =
  let sp = spot_entry st stmt_id loc Spot_convert in
  sp.s_total <- sp.s_total + 1;
  if not agree then begin
    sp.s_incorrect <- sp.s_incorrect + 1;
    if st.cfg.Config.enable_influences then
      sp.s_infl <- IntSet.union sp.s_infl infl
  end

let record_output st ~loc ~stmt_id (v : Vex.Value.t) (sh : Shadow.slot) =
  let sp = spot_entry st stmt_id loc Spot_output in
  sp.s_total <- sp.s_total + 1;
  match (v, sh) with
  | (Vex.Value.VF64 f | Vex.Value.VF32 f), SVal s ->
      (* a NaN output is conservatively reported at full error, even when
         the shadow real is NaN too (the paper's Gram-Schmidt
         division-by-zero finding, section 7) *)
      let err =
        if Float.is_nan f && st.cfg.Config.enable_reals then 64.0
        else out_error st f s.Shadow.near ~single:s.Shadow.single
      in
      sp.s_err_sum <- sp.s_err_sum +. err;
      if err > sp.s_err_max then sp.s_err_max <- err;
      if err > st.cfg.Config.error_threshold && st.cfg.Config.enable_influences
      then sp.s_infl <- IntSet.union sp.s_infl s.Shadow.infl
  | _ -> ()

(* ---------- shadowed operations ---------- *)

let prec st = st.cfg.Config.precision

let shadow_unop st ~loc ~stmt_id (op : Vex.Ir.unop) (av : Vex.Value.t)
    (ash : Shadow.slot) (result : Vex.Value.t) : Shadow.slot =
  let p = prec st in
  match op with
  (* float compute ops *)
  | Vex.Ir.SqrtF64 ->
      do_op st ~stmt_id ~loc ~name:"sqrt" ~single:false
        ~client:(Vex.Value.as_f64 result)
        ~client_fn:(fun a -> Float.sqrt a.(0))
        ~real_fn:(fun a -> B.sqrt ~prec:p a.(0))
        [| (Vex.Value.as_f64 av, ash) |]
  | Vex.Ir.SqrtF32 ->
      do_op st ~stmt_id ~loc ~name:"sqrt" ~single:true
        ~client:(Vex.Value.as_f32 result)
        ~client_fn:(fun a -> Ieee.Single.sqrt a.(0))
        ~real_fn:(fun a -> B.sqrt ~prec:p a.(0))
        [| (Vex.Value.as_f32 av, ash) |]
  | Vex.Ir.NegF64 | Vex.Ir.NegF32 -> begin
      match ash with SVal s -> sign_op st "neg" B.neg s result | _ -> SNone
    end
  | Vex.Ir.AbsF64 | Vex.Ir.AbsF32 -> begin
      match ash with SVal s -> sign_op st "fabs" B.abs s result | _ -> SNone
    end
  (* precision conversions: same value, new grid; no trace node (6.1) *)
  | Vex.Ir.F32toF64 -> begin
      match ash with
      | SVal s -> SVal { s with Shadow.single = false }
      | _ -> SNone
    end
  | Vex.Ir.F64toF32 -> begin
      match ash with SVal s -> SVal { s with Shadow.single = true } | _ -> SNone
    end
  (* int -> float: exact provenance *)
  | Vex.Ir.I64toF64 | Vex.Ir.I64toF32 ->
      let single = op = Vex.Ir.I64toF32 in
      let real =
        B.of_bigint (Bignum.Bigint.of_int (Int64.to_int (Vex.Value.as_i64 av)))
      in
      let client =
        if single then Vex.Value.as_f32 result else Vex.Value.as_f64 result
      in
      let trace =
        if st.traces then Some (Trace.leaf ~key:(B.hash real) client)
        else begin
          Trace.phantom ();
          None
        end
      in
      SVal
        {
          Shadow.real;
          near = B.to_float real;
          value = client;
          trace;
          infl = IntSet.empty;
          single;
        }
  (* float -> int: a conversion spot *)
  | Vex.Ir.F64toI64tz | Vex.Ir.F32toI64tz | Vex.Ir.F64toI64rn -> begin
      (match ash with
      | SVal s when st.cfg.Config.enable_reals ->
          let shadow_int =
            let r =
              match op with
              | Vex.Ir.F64toI64rn -> B.round_to_int s.Shadow.real
              | _ -> B.trunc s.Shadow.real
            in
            match B.to_bigint r with
            | Some bi -> Bignum.Bigint.to_int_opt bi
            | None -> None
          in
          let client_int = Int64.to_int (Vex.Value.as_i64 result) in
          let agree =
            match shadow_int with Some i -> i = client_int | None -> false
          in
          record_conversion st ~loc ~stmt_id ~agree s.Shadow.infl
      | _ -> ());
      SNone
    end
  (* bit reinterpretation: the shadow rides along *)
  | Vex.Ir.ReinterpF64asI64 | Vex.Ir.ReinterpI64asF64 | Vex.Ir.ReinterpF32asI32
  | Vex.Ir.ReinterpI32asF32 ->
      ash
  (* vector lane extraction *)
  | Vex.Ir.V128to64 -> lane_slot ash 2 0
  | Vex.Ir.V128HIto64 -> lane_slot ash 2 1
  | Vex.Ir.Sqrt64Fx2 ->
      let a0, a1 = Vex.Value.v128_f64_lanes (Vex.Value.as_v128 av) in
      let r0, r1 = Vex.Value.v128_f64_lanes (Vex.Value.as_v128 result) in
      let lane i arg_v res_v =
        do_op st ~stmt_id ~loc ~name:"sqrt" ~single:false ~client:res_v
          ~client_fn:(fun a -> Float.sqrt a.(0))
          ~real_fn:(fun a -> B.sqrt ~prec:p a.(0))
          [| (arg_v, lane_slot ash 2 i) |]
      in
      SVec [| lane 0 a0 r0; lane 1 a1 r1 |]
  (* pure integer ops: no shadow, except that Not1 must preserve
     comparison shadows so negated guards track *)
  | Vex.Ir.Not1 | Vex.Ir.Neg64 | Vex.Ir.Not64 | Vex.Ir.I32toI64s
  | Vex.Ir.I32toI64u | Vex.Ir.I64toI32 -> (
      match (op, ash) with
      | Vex.Ir.Not1, SBool sb ->
          SBool
            {
              sb with
              Shadow.client_b = not sb.Shadow.client_b;
              shadow_b = not sb.Shadow.shadow_b;
            }
      | _ -> SNone)

let shadow_binop st ~loc ~stmt_id (op : Vex.Ir.binop) (av : Vex.Value.t)
    (ash : Shadow.slot) (bv : Vex.Value.t) (bsh : Shadow.slot)
    (result : Vex.Value.t) : Shadow.slot =
  let p = prec st in
  let f64_op name client_fn real_fn =
    do_op st ~stmt_id ~loc ~name ~single:false
      ~client:(Vex.Value.as_f64 result) ~client_fn ~real_fn
      [| (Vex.Value.as_f64 av, ash); (Vex.Value.as_f64 bv, bsh) |]
  in
  let f32_op name client_fn real_fn =
    do_op st ~stmt_id ~loc ~name ~single:true
      ~client:(Vex.Value.as_f32 result) ~client_fn ~real_fn
      [| (Vex.Value.as_f32 av, ash); (Vex.Value.as_f32 bv, bsh) |]
  in
  let cmp_op cmp =
    do_cmp st ~client:(Vex.Value.as_bool result) cmp (float_of_value av) ash
      (float_of_value bv) bsh
  in
  (* gcc bit tricks: XOR with the sign mask is negation, AND with the abs
     mask is fabs (paper 5.4) *)
  let bit_trick mask name f =
    match (ash, bsh, av, bv) with
    | SVal s, SNone, _, Vex.Value.VI64 m when Int64.equal m mask ->
        sign_op st name f s result
    | SNone, SVal s, Vex.Value.VI64 m, _ when Int64.equal m mask ->
        sign_op st name f s result
    | _ -> SNone
  in
  match op with
  | Vex.Ir.AddF64 ->
      f64_op "+" (fun x -> x.(0) +. x.(1)) (fun x -> B.add ~prec:p x.(0) x.(1))
  | Vex.Ir.SubF64 ->
      f64_op "-" (fun x -> x.(0) -. x.(1)) (fun x -> B.sub ~prec:p x.(0) x.(1))
  | Vex.Ir.MulF64 ->
      f64_op "*" (fun x -> x.(0) *. x.(1)) (fun x -> B.mul ~prec:p x.(0) x.(1))
  | Vex.Ir.DivF64 ->
      f64_op "/" (fun x -> x.(0) /. x.(1)) (fun x -> B.div ~prec:p x.(0) x.(1))
  | Vex.Ir.MinF64 ->
      f64_op "fmin" (fun x -> Float.min x.(0) x.(1)) (fun x -> B.min2 x.(0) x.(1))
  | Vex.Ir.MaxF64 ->
      f64_op "fmax" (fun x -> Float.max x.(0) x.(1)) (fun x -> B.max2 x.(0) x.(1))
  | Vex.Ir.AddF32 ->
      f32_op "+"
        (fun x -> Ieee.Single.add x.(0) x.(1))
        (fun x -> B.add ~prec:p x.(0) x.(1))
  | Vex.Ir.SubF32 ->
      f32_op "-"
        (fun x -> Ieee.Single.sub x.(0) x.(1))
        (fun x -> B.sub ~prec:p x.(0) x.(1))
  | Vex.Ir.MulF32 ->
      f32_op "*"
        (fun x -> Ieee.Single.mul x.(0) x.(1))
        (fun x -> B.mul ~prec:p x.(0) x.(1))
  | Vex.Ir.DivF32 ->
      f32_op "/"
        (fun x -> Ieee.Single.div x.(0) x.(1))
        (fun x -> B.div ~prec:p x.(0) x.(1))
  | Vex.Ir.CmpEQF64 | Vex.Ir.CmpEQF32 -> cmp_op B.equal
  | Vex.Ir.CmpNEF64 -> cmp_op (fun x y -> not (B.equal x y))
  | Vex.Ir.CmpLTF64 | Vex.Ir.CmpLTF32 -> cmp_op B.lt
  | Vex.Ir.CmpLEF64 | Vex.Ir.CmpLEF32 -> cmp_op B.le
  | Vex.Ir.Xor64 -> bit_trick Ieee.Bits.sign_flip_mask64 "neg" B.neg
  | Vex.Ir.And64 -> bit_trick Ieee.Bits.abs_mask64 "fabs" B.abs
  | Vex.Ir.Add64Fx2 ->
      simd2 st ~loc ~stmt_id "+" ( +. ) (B.add ~prec:p) av ash bv bsh result
  | Vex.Ir.Sub64Fx2 ->
      simd2 st ~loc ~stmt_id "-" ( -. ) (B.sub ~prec:p) av ash bv bsh result
  | Vex.Ir.Mul64Fx2 ->
      simd2 st ~loc ~stmt_id "*" ( *. ) (B.mul ~prec:p) av ash bv bsh result
  | Vex.Ir.Div64Fx2 ->
      simd2 st ~loc ~stmt_id "/" ( /. ) (B.div ~prec:p) av ash bv bsh result
  | Vex.Ir.Add32Fx4 ->
      simd4 st ~loc ~stmt_id "+" Ieee.Single.add (B.add ~prec:p) av ash bv bsh
        result
  | Vex.Ir.Sub32Fx4 ->
      simd4 st ~loc ~stmt_id "-" Ieee.Single.sub (B.sub ~prec:p) av ash bv bsh
        result
  | Vex.Ir.Mul32Fx4 ->
      simd4 st ~loc ~stmt_id "*" Ieee.Single.mul (B.mul ~prec:p) av ash bv bsh
        result
  | Vex.Ir.Div32Fx4 ->
      simd4 st ~loc ~stmt_id "/" Ieee.Single.div (B.div ~prec:p) av ash bv bsh
        result
  | Vex.Ir.I64HLtoV128 ->
      (* Binop(hi, lo): lanes are [lo; hi] *)
      SVec [| bsh; ash |]
  | Vex.Ir.XorV128 | Vex.Ir.AndV128 | Vex.Ir.OrV128 -> SNone
  (* integer ops carry no shadow *)
  | Vex.Ir.Add64 | Vex.Ir.Sub64 | Vex.Ir.Mul64 | Vex.Ir.DivS64 | Vex.Ir.ModS64
  | Vex.Ir.Or64 | Vex.Ir.Shl64 | Vex.Ir.Shr64 | Vex.Ir.Sar64 | Vex.Ir.CmpEQ64
  | Vex.Ir.CmpNE64 | Vex.Ir.CmpLT64S | Vex.Ir.CmpLE64S ->
      SNone

(* ---------- the domain and its executor ---------- *)

module Executor = Vex.Shadow_exec.Make (struct
  type v = Shadow.t
  type b = Shadow.sbool
  type t = state

  let unop = shadow_unop
  let binop = shadow_binop

  (* a harness input: a fresh shadow leaf with no provenance *)
  let input st client = SVal (Shadow.fresh_leaf ~traces:st.traces client)

  let libm st ~loc ~stmt_id name fargs shs client =
    do_op st ~stmt_id ~loc ~name ~single:false ~client
      ~client_fn:(Vex.Eval.libm_apply name)
      ~real_fn:(Vex.Eval.libm_apply_real ~prec:(prec st) name)
      (Array.mapi (fun i f -> (f, shs.(i))) fargs)

  let branch = record_branch
  let store _ ~loc:_ ~stmt_id:_ _ _ = ()
  let output = record_output
end)

let run ?mem_size ?max_steps ?inputs ?restrict ?tick (cfg : Config.t)
    (prog : Vex.Ir.prog) : result =
  let init (compiled : Vex.Compile.t) =
    {
      cfg;
      traces =
        cfg.Config.enable_expressions
        && compiled.Vex.Compile.c_traces_reachable;
      ops = Hashtbl.create 256;
      spots = Hashtbl.create 64;
      fp_ops = 0;
      compensations = 0;
    }
  in
  let o =
    Executor.run ?mem_size ?max_steps ?inputs ?restrict ?tick
      ~type_inference:cfg.Config.type_inference ~init prog
  in
  let c = o.counters and st = o.dom in
  {
    r_ops = st.ops;
    r_spots = st.spots;
    r_outputs = o.outputs;
    r_stats =
      {
        blocks_run = c.blocks_run;
        stmts_run = c.stmts_run;
        stmts_executed = c.stmts_executed;
        stmts_instrumented = c.stmts_instrumented;
        fp_ops = st.fp_ops;
        compensations = st.compensations;
      };
  }
