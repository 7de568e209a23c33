(* Tests for the VEX substrate: value encoding, operator semantics, the
   machine (memory, thread state, calls via indirect jumps, SIMD), and the
   superblock type inference. *)

open Vex

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ---------- value byte encoding ---------- *)

let byte_roundtrips () =
  let buf = Bytes.make 32 '\000' in
  let cases =
    [
      (Value.VI64 0x1122334455667788L, Ir.I64);
      (Value.VI64 (-1L), Ir.I64);
      (Value.VI32 0x7FEEDDCCl, Ir.I32);
      (Value.VF64 3.14159, Ir.F64);
      (Value.VF64 (-0.0), Ir.F64);
      (Value.VF32 1.5, Ir.F32);
      (Value.VV128 (0xDEADBEEFL, 0xCAFEBABEL), Ir.V128);
      (Value.VBool true, Ir.I1);
    ]
  in
  List.iter
    (fun (v, ty) ->
      Value.write_bytes buf 8 v;
      let v' = Value.read_bytes buf 8 ty in
      checkb (Value.to_string v) true (v = v'))
    cases

let f32_lane_roundtrip () =
  let v = Value.v128_of_f32_lanes (1.0, -2.5, 3.25, 0.125) in
  match v with
  | Value.VV128 (lo, hi) ->
      let a, b, c, d = Value.v128_f32_lanes (lo, hi) in
      checkb "lanes" true (a = 1.0 && b = -2.5 && c = 3.25 && d = 0.125)
  | _ -> Alcotest.fail "not a vector"

(* ---------- operator semantics ---------- *)

let integer_ops () =
  let i64 x = Value.VI64 (Int64.of_int x) in
  let cases =
    [
      (Ir.Add64, 7, 5, 12);
      (Ir.Sub64, 7, 5, 2);
      (Ir.Mul64, -3, 5, -15);
      (Ir.DivS64, 17, 5, 3);
      (Ir.ModS64, 17, 5, 2);
      (Ir.ModS64, -17, 5, -2);
      (Ir.And64, 0b1100, 0b1010, 0b1000);
      (Ir.Or64, 0b1100, 0b1010, 0b1110);
      (Ir.Xor64, 0b1100, 0b1010, 0b0110);
      (Ir.Shl64, 3, 4, 48);
      (Ir.Sar64, -16, 2, -4);
    ]
  in
  List.iter
    (fun (op, a, b, expected) ->
      checki (Ir.binop_to_string op) expected
        (Int64.to_int (Value.as_i64 (Eval.eval_binop op (i64 a) (i64 b)))))
    cases;
  checkb "div by zero raises" true
    (try
       ignore (Eval.eval_binop Ir.DivS64 (i64 1) (i64 0));
       false
     with Division_by_zero -> true)

let float_compare_ops () =
  let f x = Value.VF64 x in
  checkb "lt" true (Value.as_bool (Eval.eval_binop Ir.CmpLTF64 (f 1.0) (f 2.0)));
  checkb "nan lt" false
    (Value.as_bool (Eval.eval_binop Ir.CmpLTF64 (f Float.nan) (f 2.0)));
  checkb "nan eq" false
    (Value.as_bool (Eval.eval_binop Ir.CmpEQF64 (f Float.nan) (f Float.nan)));
  checkb "nan ne" true
    (Value.as_bool (Eval.eval_binop Ir.CmpNEF64 (f Float.nan) (f Float.nan)))

let simd_semantics () =
  let pack a b = Value.v128_of_f64_lanes (a, b) in
  let v = Eval.eval_binop Ir.Mul64Fx2 (pack 2.0 3.0) (pack 5.0 7.0) in
  let a, b = Value.v128_f64_lanes (Value.as_v128 v) in
  checkb "mul lanes" true (a = 10.0 && b = 21.0);
  let s = Eval.eval_unop Ir.Sqrt64Fx2 (pack 16.0 25.0) in
  let a, b = Value.v128_f64_lanes (Value.as_v128 s) in
  checkb "sqrt lanes" true (a = 4.0 && b = 5.0)

let reinterp_roundtrip () =
  let v = Value.VF64 (-123.456) in
  let bits = Eval.eval_unop Ir.ReinterpF64asI64 v in
  let back = Eval.eval_unop Ir.ReinterpI64asF64 bits in
  checkb "roundtrip" true (Value.as_f64 back = -123.456);
  (* XOR with the sign mask is negation *)
  let flipped =
    Eval.eval_binop Ir.Xor64 bits (Value.VI64 Ieee.Bits.sign_flip_mask64)
  in
  let negated = Eval.eval_unop Ir.ReinterpI64asF64 flipped in
  checkb "bit negation" true (Value.as_f64 negated = 123.456)

let conversions () =
  checki "trunc" 3
    (Int64.to_int (Value.as_i64 (Eval.eval_unop Ir.F64toI64tz (Value.VF64 3.99))));
  checki "trunc neg" (-3)
    (Int64.to_int (Value.as_i64 (Eval.eval_unop Ir.F64toI64tz (Value.VF64 (-3.99)))));
  checki "round" 4
    (Int64.to_int (Value.as_i64 (Eval.eval_unop Ir.F64toI64rn (Value.VF64 3.6))));
  checkb "i64 to f64" true
    (Value.as_f64 (Eval.eval_unop Ir.I64toF64 (Value.VI64 42L)) = 42.0)

(* ---------- machine-level programs ---------- *)

let hand_built_program () =
  (* two blocks: entry computes, stores to memory, jumps; second loads and
     prints *)
  let open Ir in
  let b1 = Builder.create "entry" in
  let t = Builder.new_temp b1 F64 in
  Builder.emit b1 (WrTmp (t, Binop (MulF64, Const (CF64 6.0), Const (CF64 7.0))));
  Builder.emit b1 (Store (Const (CI64 128L), RdTmp t));
  let block1 = Builder.finish b1 (Goto "next") in
  let b2 = Builder.create "next" in
  let t2 = Builder.new_temp b2 F64 in
  Builder.emit b2 (WrTmp (t2, Load (F64, Const (CI64 128L))));
  Builder.emit b2 (Out (OutFloat, RdTmp t2));
  let block2 = Builder.finish b2 Halt in
  let prog = make_prog [ block1; block2 ] in
  let st = Machine.run prog in
  Alcotest.(check (list (float 0.0))) "42" [ 42.0 ] (Machine.output_floats st)

let indirect_jump () =
  (* call-like control: push a return index via LabelAddr, jump, return *)
  let open Ir in
  let b1 = Builder.create "entry" in
  Builder.emit b1 (Store (Const (CI64 64L), LabelAddr "after"));
  let block1 = Builder.finish b1 (Goto "callee") in
  let b2 = Builder.create "callee" in
  Builder.emit b2 (Put (16, Const (CF64 99.0)));
  let t = Builder.new_temp b2 I64 in
  Builder.emit b2 (WrTmp (t, Load (I64, Const (CI64 64L))));
  let block2 = Builder.finish b2 (IndirectGoto (RdTmp t)) in
  let b3 = Builder.create "after" in
  let t2 = Builder.new_temp b3 F64 in
  Builder.emit b3 (WrTmp (t2, Get (16, F64)));
  Builder.emit b3 (Out (OutFloat, RdTmp t2));
  let block3 = Builder.finish b3 Halt in
  let prog = make_prog [ block1; block2; block3 ] in
  let st = Machine.run prog in
  Alcotest.(check (list (float 0.0))) "returned" [ 99.0 ] (Machine.output_floats st)

(* every engine raises the same client error *)
let engines ?max_steps () : (string * (Ir.prog -> unit)) list =
  let cfg = Core.Config.default in
  [
    ("machine", fun p -> ignore (Machine.run ?max_steps p));
    ("full", fun p -> ignore (Core.Exec.run ?max_steps cfg p));
    ("sanitize", fun p -> ignore (Sanitize.Sexec.run ?max_steps cfg p));
  ]

let raises_client_error name run prog =
  checkb name true
    (try
       run prog;
       false
     with Machine.Client_error _ -> true)

let out_of_bounds_memory () =
  let open Ir in
  let b1 = Builder.create "entry" in
  Builder.emit b1 (Store (Const (CI64 (-8L)), Const (CF64 1.0)));
  let prog = make_prog [ Builder.finish b1 Halt ] in
  List.iter
    (fun (engine, run) ->
      raises_client_error (engine ^ ": negative address rejected") run prog)
    (engines ())

let step_budget () =
  let open Ir in
  let b1 = Builder.create "entry" in
  let prog = make_prog [ Builder.finish b1 (Goto "entry") ] in
  List.iter
    (fun (engine, run) ->
      raises_client_error (engine ^ ": infinite loop stopped") run prog)
    (engines ~max_steps:100 ())

(* ---------- shadow table ---------- *)

let shadowtbl_hit () =
  let t = Shadowtbl.create 8192 0 in
  Shadowtbl.set t 16 8 1;
  Shadowtbl.set t 24 4 2;
  checki "exact address and size" 1 (Shadowtbl.get t 16 8);
  checki "neighbour intact" 2 (Shadowtbl.get t 24 4);
  checki "empty cell misses" 0 (Shadowtbl.get t 32 8);
  checki "untouched page misses" 0 (Shadowtbl.get t 6000 8)

let shadowtbl_overlap_kills () =
  let t = Shadowtbl.create 8192 0 in
  Shadowtbl.set t 16 8 1;
  Shadowtbl.set t 20 4 2;
  checki "inner write kills the covering entry" 0 (Shadowtbl.get t 16 8);
  checki "inner write recorded" 2 (Shadowtbl.get t 20 4);
  Shadowtbl.clear_range t 18 4;
  checki "clear kills what it overlaps" 0 (Shadowtbl.get t 20 4);
  (* 4 KiB pages: an entry at 4092 reaches into the second page *)
  Shadowtbl.set t 4092 8 3;
  Shadowtbl.set t 4096 4 4;
  checki "write on the next page kills the straddling entry" 0
    (Shadowtbl.get t 4092 8);
  Shadowtbl.set t 4092 8 5;
  checki "straddling write kills the next page's entry" 0
    (Shadowtbl.get t 4096 4);
  checki "straddling entry recorded" 5 (Shadowtbl.get t 4092 8)

let shadowtbl_size_mismatch () =
  let t = Shadowtbl.create 8192 0 in
  Shadowtbl.set t 16 8 1;
  checki "narrower read misses" 0 (Shadowtbl.get t 16 4);
  checki "wider read misses" 0 (Shadowtbl.get t 16 16);
  checki "entry survives the misses" 1 (Shadowtbl.get t 16 8)

let shadowtbl_unaligned () =
  let t = Shadowtbl.create 8192 0 in
  Shadowtbl.set t 18 8 1;
  checki "unaligned set records nothing" 0 (Shadowtbl.get t 18 8);
  Shadowtbl.set t 16 8 2;
  checki "unaligned read misses" 0 (Shadowtbl.get t 17 8);
  Shadowtbl.set t 22 4 3;
  checki "unaligned write still kills what it overlaps" 0
    (Shadowtbl.get t 16 8)

(* ---------- type inference ---------- *)

let infer_block stmts temp_tys =
  let b =
    {
      Ir.label = "b";
      temp_tys = Array.of_list temp_tys;
      stmts = Array.of_list stmts;
      next = Ir.Halt;
    }
  in
  let prog = Ir.make_prog ~entry:"b" [ b ] in
  Typeinfer.infer prog

let type_inference_skips_integer_code () =
  let open Ir in
  let info =
    infer_block
      [
        WrTmp (0, Binop (Add64, Const (CI64 1L), Const (CI64 2L)));
        WrTmp (1, Binop (Mul64, RdTmp 0, Const (CI64 3L)));
        Exit (Binop (CmpLT64S, RdTmp 1, Const (CI64 10L)), "b");
      ]
      [ I64; I64 ]
  in
  checkb "int add skipped" true (Typeinfer.action info ~block:0 ~stmt:0 = Typeinfer.Skip);
  checkb "int mul skipped" true (Typeinfer.action info ~block:0 ~stmt:1 = Typeinfer.Skip);
  checkb "int-guarded exit skipped" true
    (Typeinfer.action info ~block:0 ~stmt:2 = Typeinfer.Skip)

let type_inference_instruments_floats () =
  let open Ir in
  let info =
    infer_block
      [
        WrTmp (0, Binop (AddF64, Const (CF64 1.0), Const (CF64 2.0)));
        Exit (Binop (CmpLTF64, RdTmp 0, Const (CF64 10.0)), "b");
      ]
      [ F64 ]
  in
  checkb "float add full" true (Typeinfer.action info ~block:0 ~stmt:0 = Typeinfer.Full);
  checkb "float-guarded exit full" true
    (Typeinfer.action info ~block:0 ~stmt:1 = Typeinfer.Full)

let type_inference_conservative_on_storage () =
  let open Ir in
  (* an I64 loaded from memory could carry a shadowed float *)
  let info =
    infer_block
      [
        WrTmp (0, Load (I64, Const (CI64 64L)));
        Store (Const (CI64 128L), RdTmp 0);
      ]
      [ I64 ]
  in
  checkb "unknown load instrumented" true
    (Typeinfer.action info ~block:0 ~stmt:0 = Typeinfer.Full);
  checkb "store of unknown instrumented" true
    (Typeinfer.action info ~block:0 ~stmt:1 = Typeinfer.Full)

let type_inference_clear_action () =
  let open Ir in
  let info =
    infer_block
      [
        WrTmp (0, Binop (Add64, Const (CI64 1L), Const (CI64 2L)));
        Store (Const (CI64 128L), RdTmp 0);
      ]
      [ I64 ]
  in
  checkb "store of known int is clear" true
    (Typeinfer.action info ~block:0 ~stmt:1 = Typeinfer.Clear)

let type_inference_xor_trick_conservative () =
  let open Ir in
  (* XOR of a reinterpreted float is NOT known non-float *)
  let info =
    infer_block
      [
        WrTmp (0, Unop (ReinterpF64asI64, Const (CF64 1.5)));
        WrTmp (1, Binop (Xor64, RdTmp 0, Const (CI64 Int64.min_int)));
      ]
      [ I64; I64 ]
  in
  checkb "xor of float bits instrumented" true
    (Typeinfer.action info ~block:0 ~stmt:1 = Typeinfer.Full)

(* qcheck: semantics of eval on integer ops matches Int64 reference *)
let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"Add64/Sub64/Mul64 match Int64" ~count:300
      (pair int int)
      (fun (a, b) ->
        let va = Value.VI64 (Int64.of_int a) and vb = Value.VI64 (Int64.of_int b) in
        Value.as_i64 (Eval.eval_binop Ir.Add64 va vb)
        = Int64.add (Int64.of_int a) (Int64.of_int b)
        && Value.as_i64 (Eval.eval_binop Ir.Sub64 va vb)
           = Int64.sub (Int64.of_int a) (Int64.of_int b)
        && Value.as_i64 (Eval.eval_binop Ir.Mul64 va vb)
           = Int64.mul (Int64.of_int a) (Int64.of_int b));
    Test.make ~name:"F64 ops match OCaml floats" ~count:300
      (pair (float_bound_exclusive 1e15) (float_bound_exclusive 1e15))
      (fun (a, b) ->
        Value.as_f64 (Eval.eval_binop Ir.AddF64 (Value.VF64 a) (Value.VF64 b))
        = a +. b
        && Value.as_f64 (Eval.eval_binop Ir.MulF64 (Value.VF64 a) (Value.VF64 b))
           = a *. b);
    Test.make ~name:"SIMD F64 lanes act independently" ~count:200
      (pair (pair float float) (pair float float))
      (fun ((a0, a1), (b0, b1)) ->
        let v =
          Eval.eval_binop Ir.Add64Fx2
            (Value.v128_of_f64_lanes (a0, a1))
            (Value.v128_of_f64_lanes (b0, b1))
        in
        let r0, r1 = Value.v128_f64_lanes (Value.as_v128 v) in
        let eq x y =
          Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        in
        eq r0 (a0 +. b0) && eq r1 (a1 +. b1));
  ]

let () =
  Alcotest.run "vex"
    [
      ( "values",
        [
          Alcotest.test_case "byte roundtrips" `Quick byte_roundtrips;
          Alcotest.test_case "f32 lanes" `Quick f32_lane_roundtrip;
        ] );
      ( "eval",
        [
          Alcotest.test_case "integer ops" `Quick integer_ops;
          Alcotest.test_case "float compares" `Quick float_compare_ops;
          Alcotest.test_case "SIMD" `Quick simd_semantics;
          Alcotest.test_case "reinterpretation" `Quick reinterp_roundtrip;
          Alcotest.test_case "conversions" `Quick conversions;
        ] );
      ( "machine",
        [
          Alcotest.test_case "hand-built program" `Quick hand_built_program;
          Alcotest.test_case "indirect jump" `Quick indirect_jump;
          Alcotest.test_case "bounds checking" `Quick out_of_bounds_memory;
          Alcotest.test_case "step budget" `Quick step_budget;
        ] );
      ( "shadowtbl",
        [
          Alcotest.test_case "exact hit" `Quick shadowtbl_hit;
          Alcotest.test_case "overlap kills" `Quick shadowtbl_overlap_kills;
          Alcotest.test_case "size mismatch misses" `Quick
            shadowtbl_size_mismatch;
          Alcotest.test_case "unaligned never hits" `Quick shadowtbl_unaligned;
        ] );
      ( "typeinfer",
        [
          Alcotest.test_case "skips integer code" `Quick
            type_inference_skips_integer_code;
          Alcotest.test_case "instruments floats" `Quick
            type_inference_instruments_floats;
          Alcotest.test_case "conservative on storage" `Quick
            type_inference_conservative_on_storage;
          Alcotest.test_case "clear action" `Quick type_inference_clear_action;
          Alcotest.test_case "xor trick conservative" `Quick
            type_inference_xor_trick_conservative;
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
