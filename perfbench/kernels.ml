(* The kernel sheet: bechamel ns/op of the shadow-arithmetic kernels —
   [Bigfloat]/[Bigfloat_math] at 1000 bits (the full engine's default)
   and 256 bits (regime inference), and [Twofloat] (the sanitizer).
   Operands carry full-precision mantissas, so no operation takes a
   short-operand fast path. *)

module B = Bignum.Bigfloat
module M = Bignum.Bigfloat_math
module T = Sanitize.Twofloat

let big_ops prec =
  let x = B.div ~prec (B.of_int 7) (B.of_int 10) in
  let y = B.sqrt ~prec B.two in
  [
    ("add", fun () -> ignore (Sys.opaque_identity (B.add ~prec x y)));
    ("mul", fun () -> ignore (Sys.opaque_identity (B.mul ~prec x y)));
    ("div", fun () -> ignore (Sys.opaque_identity (B.div ~prec x y)));
    ("sqrt", fun () -> ignore (Sys.opaque_identity (B.sqrt ~prec y)));
    ("sin", fun () -> ignore (Sys.opaque_identity (M.sin ~prec x)));
    ("exp", fun () -> ignore (Sys.opaque_identity (M.exp ~prec x)));
    ("log", fun () -> ignore (Sys.opaque_identity (M.log ~prec y)));
  ]

let twofloat_ops () =
  let a = T.div (T.of_float 1.0) (T.of_float 3.0) in
  let b = T.sqrt (T.of_float 2.0) in
  let c = T.div (T.of_float 2.0) (T.of_float 7.0) in
  [
    ("add", fun () -> ignore (Sys.opaque_identity (T.add a b)));
    ("mul", fun () -> ignore (Sys.opaque_identity (T.mul a b)));
    ("div", fun () -> ignore (Sys.opaque_identity (T.div a b)));
    ("sqrt", fun () -> ignore (Sys.opaque_identity (T.sqrt b)));
    ("fma", fun () -> ignore (Sys.opaque_identity (T.fma a b c)));
  ]

(* ns per call of [f], by OLS over bechamel's samples *)
let ns_per_op name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.12) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ r acc ->
      match Analyze.OLS.estimates r with Some [ est ] -> est | _ -> acc)
    res 0.0

let sheet () : (string * float) list =
  List.concat_map
    (fun prec ->
      List.map
        (fun (op, f) ->
          let name = Printf.sprintf "bignum.%s_%d_ns" op prec in
          (name, ns_per_op name f))
        (big_ops prec))
    [ 1000; 256 ]
  @ List.map
      (fun (op, f) ->
        let name = Printf.sprintf "sanitize.twofloat_%s_ns" op in
        (name, ns_per_op name f))
      (twofloat_ops ())
