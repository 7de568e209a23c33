(* The NSan-style shadow domain: runs a superblock program once,
   shadowing every F32/F64 temporary, thread-state slot and memory slot
   with a double-double ({!Twofloat}) instead of the full analysis'
   Bigfloat-plus-trace-plus-influences shadow. Checks fire at the
   observable points of Courbet's NSan: memory stores of floats,
   float-to-integer casts, float comparisons that flip against the
   shadow, and program outputs.

   The stepping loop, memory, frames, shadow tables and fast paths are
   the shadow block executor [Vex.Shadow_exec], which also runs the full
   analysis ([Core.Exec]); this module supplies the shadow semantics
   and the checks. Outputs are bit-identical to
   [Vex.Machine.run]'s (the fuzz transparency oracle holds the engine to
   that). *)

open Vex.Shadow_exec
module TF = Twofloat

type check_kind = Check_store | Check_cast | Check_cmp | Check_output

let check_kind_name = function
  | Check_store -> "store"
  | Check_cast -> "cast"
  | Check_cmp -> "branch"
  | Check_output -> "output"

type finding = {
  f_id : int;  (* statement id (pc) *)
  f_loc : Vex.Ir.loc;
  f_kind : check_kind;
  mutable f_total : int;  (* times the check executed *)
  mutable f_hits : int;  (* fired: error above threshold, or a flip *)
  mutable f_bits_sum : float;
  mutable f_bits_max : float;
  mutable f_uncertain : int;
      (* flips whose margin is below dd resolution: a higher-precision
         engine may legitimately disagree (the consistency oracle skips
         these) *)
  mutable f_nonfinite_hits : int;
      (* instances where the client value itself was nan or infinite:
         kept separate so the engine-consistency oracle can tell a
         verdict about an overflow/invalid from a measured-error one *)
}

exception Fatal_finding of finding

type stats = {
  mutable blocks_run : int;
  mutable stmts_run : int;
  mutable stmts_executed : int;  (* pre-decoded statements dispatched *)
  mutable stmts_instrumented : int;
  mutable shadow_ops : int;  (* dd-shadowed floating-point operations *)
  mutable checks_run : int;
}

(* a comparison shadow: the client verdict, the dd verdict, the error in
   the compared difference, and whether the margin was below what ~106
   bits can resolve *)
type sbool = {
  client_b : bool;
  shadow_b : bool;
  cmp_bits : float;
  uncertain : bool;
}

type slot = (TF.t, sbool) Vex.Shadow_exec.slot

(* the domain's per-run state *)
type state = {
  threshold : float;
  fatal : bool;
  findings : (int, finding) Hashtbl.t;
  (* the same findings indexed [block].(stmt): check sites hit their
     entry with two array reads instead of a hash probe *)
  findings_by_stmt : finding option array array;
  mutable shadow_ops : int;
  mutable checks_run : int;
}

(* ---------- findings ---------- *)

let finding_entry st id loc kind =
  let row = st.findings_by_stmt.(Vex.Ir.stmt_id_block id) in
  let si = Vex.Ir.stmt_id_stmt id in
  match row.(si) with
  | Some f -> f
  | None ->
      let f =
        {
          f_id = id;
          f_loc = loc;
          f_kind = kind;
          f_total = 0;
          f_hits = 0;
          f_bits_sum = 0.0;
          f_bits_max = 0.0;
          f_uncertain = 0;
          f_nonfinite_hits = 0;
        }
      in
      row.(si) <- Some f;
      Hashtbl.replace st.findings id f;
      f

(* value-error checks (stores, outputs): fire above the threshold *)
let check_value st ~stmt_id ~loc ~kind ~(bits : float) =
  st.checks_run <- st.checks_run + 1;
  let f = finding_entry st stmt_id loc kind in
  f.f_total <- f.f_total + 1;
  f.f_bits_sum <- f.f_bits_sum +. bits;
  if bits > f.f_bits_max then f.f_bits_max <- bits;
  if bits > st.threshold then begin
    f.f_hits <- f.f_hits + 1;
    if st.fatal then raise (Fatal_finding f)
  end

(* flip checks (casts, comparisons): fire when the verdicts disagree *)
let check_flip st ~stmt_id ~loc ~kind ~(flip : bool) ~(bits : float)
    ~(uncertain : bool) =
  st.checks_run <- st.checks_run + 1;
  let f = finding_entry st stmt_id loc kind in
  f.f_total <- f.f_total + 1;
  if flip then begin
    f.f_hits <- f.f_hits + 1;
    f.f_bits_sum <- f.f_bits_sum +. bits;
    if bits > f.f_bits_max then f.f_bits_max <- bits;
    if uncertain then f.f_uncertain <- f.f_uncertain + 1;
    if st.fatal then raise (Fatal_finding f)
  end

(* error of a client float against its dd shadow, on the client's grid *)
let shadow_bits ~single (client : float) (sh : TF.t) =
  let rf = TF.to_float sh in
  if single then Ieee.Single.bits_of_error client (Ieee.Single.of_double rf)
  else Ieee.bits_of_error client rf

(* ---------- shadow plumbing ---------- *)

let sf_of (v : float) (sl : slot) : TF.t =
  match sl with SVal d -> d | SNone | SBool _ | SVec _ -> TF.of_float v

(* ---------- shadowed operations ---------- *)

let float_of_value = function
  | Vex.Value.VF64 f | Vex.Value.VF32 f -> f
  | v -> Vex.Value.type_error "expected float" v

(* margin below which a dd comparison verdict is not trustworthy against
   an arbitrarily precise engine *)
let cmp_uncertainty_rel = 0x1p-88

let do_cmp st (dd_cmp : TF.t -> TF.t -> bool) ~(client : bool)
    (a_f : float) (ash : slot) (b_f : float) (bsh : slot) : slot =
  st.shadow_ops <- st.shadow_ops + 1;
  let ad = sf_of a_f ash and bd = sf_of b_f bsh in
  let shadow_b = dd_cmp ad bd in
  let diff = TF.sub ad bd in
  let cmp_bits = Ieee.bits_of_error (a_f -. b_f) (TF.to_float diff) in
  let scale = Float.max (Float.abs (TF.to_float ad)) (Float.abs (TF.to_float bd)) in
  let uncertain =
    (not (TF.is_finite ad && TF.is_finite bd))
    || Float.abs (TF.to_float diff) <= scale *. cmp_uncertainty_rel
  in
  SBool { client_b = client; shadow_b; cmp_bits; uncertain }

let record_branch st ~loc ~stmt_id (sb : sbool) =
  check_flip st ~stmt_id ~loc ~kind:Check_cmp
    ~flip:(sb.client_b <> sb.shadow_b)
    ~bits:sb.cmp_bits ~uncertain:sb.uncertain

(* a float -> int cast: compare the client integer against the dd
   truncation/rounding; flag flips, with an uncertainty guard when the
   dd value sits within dd resolution of the rounding boundary *)
let do_cast st ~loc ~stmt_id ~(rn : bool) (arg_f : float) (ash : slot)
    (client_int : int64) =
  match ash with
  | SVal d ->
      let shadow_int = TF.to_int64 ~rn d in
      let flip =
        match shadow_int with
        | Some i -> not (Int64.equal i client_int)
        | None -> true
      in
      let bits =
        match shadow_int with
        | Some i ->
            Ieee.bits_of_error (Int64.to_float client_int) (Int64.to_float i)
        | None -> 64.0
      in
      let uncertain =
        (not (TF.is_finite d))
        ||
        let v = TF.to_float d in
        let frac = v -. Float.trunc v in
        let boundary_dist =
          if rn then Float.abs (Float.abs frac -. 0.5)
          else Float.min (Float.abs frac) (1.0 -. Float.abs frac)
        in
        boundary_dist <= (Float.abs v *. cmp_uncertainty_rel) +. 0x1p-200
      in
      check_flip st ~stmt_id ~loc ~kind:Check_cast ~flip ~bits ~uncertain
  | SNone | SBool _ | SVec _ ->
      (* no shadow: the cast input is exact, nothing to compare *)
      ignore arg_f

let shadow_unop st ~loc ~stmt_id (op : Vex.Ir.unop) (av : Vex.Value.t)
    (ash : slot) (result : Vex.Value.t) : slot =
  match op with
  | Vex.Ir.SqrtF64 ->
      st.shadow_ops <- st.shadow_ops + 1;
      SVal (TF.sqrt (sf_of (Vex.Value.as_f64 av) ash))
  | Vex.Ir.SqrtF32 ->
      st.shadow_ops <- st.shadow_ops + 1;
      SVal (TF.sqrt (sf_of (Vex.Value.as_f32 av) ash))
  | Vex.Ir.NegF64 | Vex.Ir.NegF32 -> begin
      match ash with SVal d -> SVal (TF.neg d) | _ -> SNone
    end
  | Vex.Ir.AbsF64 | Vex.Ir.AbsF32 -> begin
      match ash with SVal d -> SVal (TF.abs d) | _ -> SNone
    end
  (* precision conversions: the dd shadow keeps its full width *)
  | Vex.Ir.F32toF64 | Vex.Ir.F64toF32 -> ash
  (* int -> float: exact provenance *)
  | Vex.Ir.I64toF64 | Vex.Ir.I64toF32 ->
      SVal (TF.of_int64 (Vex.Value.as_i64 av))
  (* float -> int: a cast check point *)
  | Vex.Ir.F64toI64tz ->
      do_cast st ~loc ~stmt_id ~rn:false (Vex.Value.as_f64 av) ash
        (Vex.Value.as_i64 result);
      SNone
  | Vex.Ir.F64toI64rn ->
      do_cast st ~loc ~stmt_id ~rn:true (Vex.Value.as_f64 av) ash
        (Vex.Value.as_i64 result);
      SNone
  | Vex.Ir.F32toI64tz ->
      do_cast st ~loc ~stmt_id ~rn:false (Vex.Value.as_f32 av) ash
        (Vex.Value.as_i64 result);
      SNone
  (* bit reinterpretation: the shadow rides along *)
  | Vex.Ir.ReinterpF64asI64 | Vex.Ir.ReinterpI64asF64 | Vex.Ir.ReinterpF32asI32
  | Vex.Ir.ReinterpI32asF32 ->
      ash
  | Vex.Ir.V128to64 -> lane_slot ash 2 0
  | Vex.Ir.V128HIto64 -> lane_slot ash 2 1
  | Vex.Ir.Sqrt64Fx2 ->
      let a0, a1 = Vex.Value.v128_f64_lanes (Vex.Value.as_v128 av) in
      let lane i a =
        st.shadow_ops <- st.shadow_ops + 1;
        SVal (TF.sqrt (sf_of a (lane_slot ash 2 i)))
      in
      SVec [| lane 0 a0; lane 1 a1 |]
  | Vex.Ir.Not1 | Vex.Ir.Neg64 | Vex.Ir.Not64 | Vex.Ir.I32toI64s
  | Vex.Ir.I32toI64u | Vex.Ir.I64toI32 -> begin
      (* Not1 must preserve comparison shadows so negated guards track *)
      match (op, ash) with
      | Vex.Ir.Not1, SBool sb ->
          SBool { sb with client_b = not sb.client_b; shadow_b = not sb.shadow_b }
      | _ -> SNone
    end

let shadow_binop st ~loc:_ ~stmt_id:_ (op : Vex.Ir.binop) (av : Vex.Value.t)
    (ash : slot) (bv : Vex.Value.t) (bsh : slot) (result : Vex.Value.t) : slot
    =
  let f64_op dd_fn =
    st.shadow_ops <- st.shadow_ops + 1;
    SVal
      (dd_fn
         (sf_of (Vex.Value.as_f64 av) ash)
         (sf_of (Vex.Value.as_f64 bv) bsh))
  in
  let f32_op dd_fn =
    st.shadow_ops <- st.shadow_ops + 1;
    SVal
      (dd_fn
         (sf_of (Vex.Value.as_f32 av) ash)
         (sf_of (Vex.Value.as_f32 bv) bsh))
  in
  let cmp_op dd_cmp =
    do_cmp st dd_cmp
      ~client:(Vex.Value.as_bool result)
      (float_of_value av) ash (float_of_value bv) bsh
  in
  match op with
  | Vex.Ir.AddF64 -> f64_op TF.add
  | Vex.Ir.SubF64 -> f64_op TF.sub
  | Vex.Ir.MulF64 -> f64_op TF.mul
  | Vex.Ir.DivF64 -> f64_op TF.div
  | Vex.Ir.MinF64 -> f64_op TF.min2
  | Vex.Ir.MaxF64 -> f64_op TF.max2
  | Vex.Ir.AddF32 -> f32_op TF.add
  | Vex.Ir.SubF32 -> f32_op TF.sub
  | Vex.Ir.MulF32 -> f32_op TF.mul
  | Vex.Ir.DivF32 -> f32_op TF.div
  | Vex.Ir.CmpEQF64 | Vex.Ir.CmpEQF32 -> cmp_op TF.eq
  | Vex.Ir.CmpNEF64 -> cmp_op (fun x y -> not (TF.eq x y))
  | Vex.Ir.CmpLTF64 | Vex.Ir.CmpLTF32 -> cmp_op TF.lt
  | Vex.Ir.CmpLEF64 | Vex.Ir.CmpLEF32 -> cmp_op TF.le
  (* gcc bit tricks: XOR with the sign mask is negation, AND with the
     abs mask is fabs *)
  | Vex.Ir.Xor64 -> begin
      match (ash, bsh, av, bv) with
      | SVal d, SNone, _, Vex.Value.VI64 m
        when Int64.equal m Ieee.Bits.sign_flip_mask64 ->
          SVal (TF.neg d)
      | SNone, SVal d, Vex.Value.VI64 m, _
        when Int64.equal m Ieee.Bits.sign_flip_mask64 ->
          SVal (TF.neg d)
      | _ -> SNone
    end
  | Vex.Ir.And64 -> begin
      match (ash, bsh, av, bv) with
      | SVal d, SNone, _, Vex.Value.VI64 m
        when Int64.equal m Ieee.Bits.abs_mask64 ->
          SVal (TF.abs d)
      | SNone, SVal d, Vex.Value.VI64 m, _
        when Int64.equal m Ieee.Bits.abs_mask64 ->
          SVal (TF.abs d)
      | _ -> SNone
    end
  (* SIMD packed float ops: one dd op per lane *)
  | Vex.Ir.Add64Fx2 | Vex.Ir.Sub64Fx2 | Vex.Ir.Mul64Fx2 | Vex.Ir.Div64Fx2 ->
      let dd_fn =
        match op with
        | Vex.Ir.Add64Fx2 -> TF.add
        | Vex.Ir.Sub64Fx2 -> TF.sub
        | Vex.Ir.Mul64Fx2 -> TF.mul
        | _ -> TF.div
      in
      let a0, a1 = Vex.Value.v128_f64_lanes (Vex.Value.as_v128 av) in
      let b0, b1 = Vex.Value.v128_f64_lanes (Vex.Value.as_v128 bv) in
      let lane i x y =
        st.shadow_ops <- st.shadow_ops + 1;
        SVal (dd_fn (sf_of x (lane_slot ash 2 i)) (sf_of y (lane_slot bsh 2 i)))
      in
      SVec [| lane 0 a0 b0; lane 1 a1 b1 |]
  | Vex.Ir.Add32Fx4 | Vex.Ir.Sub32Fx4 | Vex.Ir.Mul32Fx4 | Vex.Ir.Div32Fx4 ->
      let dd_fn =
        match op with
        | Vex.Ir.Add32Fx4 -> TF.add
        | Vex.Ir.Sub32Fx4 -> TF.sub
        | Vex.Ir.Mul32Fx4 -> TF.mul
        | _ -> TF.div
      in
      let a0, a1, a2, a3 = Vex.Value.v128_f32_lanes (Vex.Value.as_v128 av) in
      let b0, b1, b2, b3 = Vex.Value.v128_f32_lanes (Vex.Value.as_v128 bv) in
      let lane i x y =
        st.shadow_ops <- st.shadow_ops + 1;
        SVal (dd_fn (sf_of x (lane_slot ash 4 i)) (sf_of y (lane_slot bsh 4 i)))
      in
      SVec [| lane 0 a0 b0; lane 1 a1 b1; lane 2 a2 b2; lane 3 a3 b3 |]
  | Vex.Ir.I64HLtoV128 ->
      (* Binop(hi, lo): lanes are [lo; hi] *)
      SVec [| bsh; ash |]
  | Vex.Ir.XorV128 | Vex.Ir.AndV128 | Vex.Ir.OrV128 -> SNone
  | Vex.Ir.Add64 | Vex.Ir.Sub64 | Vex.Ir.Mul64 | Vex.Ir.DivS64 | Vex.Ir.ModS64
  | Vex.Ir.Or64 | Vex.Ir.Shl64 | Vex.Ir.Shr64 | Vex.Ir.Sar64 | Vex.Ir.CmpEQ64
  | Vex.Ir.CmpNE64 | Vex.Ir.CmpLT64S | Vex.Ir.CmpLE64S ->
      SNone

(* ---------- observers ---------- *)

(* NSan's store check: how far has this value drifted by the time it is
   written back to memory? *)
let check_store st ~loc ~stmt_id (v : Vex.Value.t) (sh : slot) =
  match (v, sh) with
  | Vex.Value.VF64 f, SVal d ->
      check_value st ~stmt_id ~loc ~kind:Check_store
        ~bits:(shadow_bits ~single:false f d)
  | Vex.Value.VF32 f, SVal d ->
      check_value st ~stmt_id ~loc ~kind:Check_store
        ~bits:(shadow_bits ~single:true f d)
  | _ -> ()

let check_output st ~loc ~stmt_id (v : Vex.Value.t) (sh : slot) =
  match v with
  | Vex.Value.VF64 f | Vex.Value.VF32 f ->
      let single = match v with Vex.Value.VF32 _ -> true | _ -> false in
      (* a nan output is conservatively reported at full error even when
         the shadow is nan too, mirroring the full engine's rule *)
      let bits =
        if Float.is_nan f then 64.0 else shadow_bits ~single f (sf_of f sh)
      in
      check_value st ~stmt_id ~loc ~kind:Check_output ~bits;
      if not (Float.is_finite f) then begin
        let fe = finding_entry st stmt_id loc Check_output in
        fe.f_nonfinite_hits <- fe.f_nonfinite_hits + 1
      end
  | _ -> ()

(* ---------- the domain and its executor ---------- *)

module Executor = Vex.Shadow_exec.Make (struct
  type v = TF.t
  type b = sbool
  type t = state

  let unop = shadow_unop
  let binop = shadow_binop

  (* a harness input: an exact dd shadow of the client value *)
  let input _ client = SVal (TF.of_float client)

  let libm st ~loc:_ ~stmt_id:_ name fargs shs _client =
    st.shadow_ops <- st.shadow_ops + 1;
    SVal (TF.libm_apply name (Array.mapi (fun i f -> sf_of f shs.(i)) fargs))

  let branch = record_branch
  let store = check_store
  let output = check_output
end)

(* ---------- results ---------- *)

type result = {
  sx_findings : (int, finding) Hashtbl.t;
  sx_outputs : Vex.Machine.output list;
  sx_stats : stats;
}

let run ?mem_size ?max_steps ?inputs ?tick ?(fatal = false)
    (cfg : Core.Config.t) (prog : Vex.Ir.prog) : result =
  let init _ =
    {
      threshold = cfg.Core.Config.error_threshold;
      fatal;
      findings = Hashtbl.create 64;
      findings_by_stmt =
        Array.map
          (fun (b : Vex.Ir.block) ->
            Array.make (Array.length b.Vex.Ir.stmts) None)
          prog.Vex.Ir.blocks;
      shadow_ops = 0;
      checks_run = 0;
    }
  in
  let o =
    Executor.run ?mem_size ?max_steps ?inputs ?tick
      ~type_inference:cfg.Core.Config.type_inference ~init prog
  in
  let c = o.counters and st = o.dom in
  {
    sx_findings = st.findings;
    sx_outputs = o.outputs;
    sx_stats =
      {
        blocks_run = c.blocks_run;
        stmts_run = c.stmts_run;
        stmts_executed = c.stmts_executed;
        stmts_instrumented = c.stmts_instrumented;
        shadow_ops = st.shadow_ops;
        checks_run = st.checks_run;
      };
  }

let outputs r = r.sx_outputs

let findings r =
  Hashtbl.fold (fun _ f acc -> f :: acc) r.sx_findings []
  |> List.sort (fun a b ->
         match compare b.f_bits_max a.f_bits_max with
         | 0 -> compare a.f_id b.f_id
         | c -> c)
