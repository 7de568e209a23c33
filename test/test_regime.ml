(* fpgrind.regime — sampler determinism, threshold-search correctness
   on a hand-built two-regime synthetic, branched-emitter round-trips,
   soundness re-validation of the PR 7 overfit trio at the official
   configuration, and a pinned error table. Everything here is keyed by
   explicit seeds; a failure means regime inference stopped being a
   pure function of (bench, seed, knobs). *)

module Suite = Fpcore.Suite

let bench name = Suite.find name

(* the swept zero-UNSOUND configuration (see Regime.official_points) *)
let infer_official b =
  Regime.infer ~points:Regime.official_points ~depth:Regime.official_depth
    ~opts:Regime.official_options ~seed:42 b

(* ---------- sampler ---------- *)

let test_sampler_determinism () =
  let b = bench "quadratic-full" in
  let fp seed =
    Regime.Sampler.fingerprint (Regime.Sampler.context ~seed ~n:24 b)
  in
  Alcotest.(check string) "same seed, byte-identical context" (fp 42) (fp 42);
  Alcotest.(check bool) "different seed, different context" true (fp 42 <> fp 43);
  (* the resample stream is disjoint from the search stream *)
  Alcotest.(check bool)
    "resample seed yields a disjoint context" true
    (fp 42 <> fp (Regime.Sampler.resample_seed 42));
  (* every point binds every argument, in core order *)
  let core = Suite.core_of b in
  List.iter
    (fun pt ->
      Alcotest.(check (list string))
        "point binds the core's arguments" core.Fpcore.Ast.args
        (List.map fst pt))
    (Regime.Sampler.context ~seed:7 ~n:5 b)

(* ---------- threshold search on a synthetic ---------- *)

(* Two candidates over x = 1..8: candidate 0 is accurate on the low
   half, candidate 1 on the high half. The DP must cut exactly once, at
   the midpoint between x=4 and x=5, and assign low-range-first. *)
let test_search_two_regimes () =
  let xs = Array.init 8 (fun i -> float_of_int (i + 1)) in
  let errors =
    [|
      Array.init 8 (fun i -> if i < 4 then 0.1 else 20.0);
      Array.init 8 (fun i -> if i < 4 then 20.0 else 0.1);
    |]
  in
  match Regime.Search.search ~vars:[ ("x", xs) ] ~errors () with
  | None -> Alcotest.fail "search missed an obvious two-regime structure"
  | Some s ->
      Alcotest.(check string) "split variable" "x" s.Regime.Search.s_var;
      Alcotest.(check (list (float 1e-9)))
        "threshold at the midpoint of the crossover" [ 4.5 ]
        s.Regime.Search.s_thresholds;
      Alcotest.(check (list int))
        "candidates low-range-first" [ 0; 1 ] s.Regime.Search.s_cands

let test_search_no_split_when_one_wins () =
  let xs = Array.init 8 (fun i -> float_of_int (i + 1)) in
  let errors = [| Array.make 8 0.1; Array.make 8 5.0 |] in
  Alcotest.(check bool)
    "uniformly-dominant candidate yields no split" true
    (Regime.Search.search ~vars:[ ("x", xs) ] ~errors () = None)

(* the MDL penalty must be able to veto a split that buys less than its
   charge: same crossover shape, gap shrunk until the branch cannot pay *)
let test_search_penalty_vetoes_marginal_split () =
  let xs = Array.init 8 (fun i -> float_of_int (i + 1)) in
  let errors =
    [|
      Array.init 8 (fun i -> if i < 4 then 1.0 else 1.2);
      Array.init 8 (fun i -> if i < 4 then 1.2 else 1.0);
    |]
  in
  (* gain of splitting = 0.2 bits * 4 points = 0.8 bits total *)
  let cheap = { Regime.Search.default_options with penalty_bits = 0.01 } in
  let steep = { Regime.Search.default_options with penalty_bits = 0.5 } in
  Alcotest.(check bool)
    "cheap penalty takes the split" true
    (Regime.Search.search ~opts:cheap ~vars:[ ("x", xs) ] ~errors () <> None);
  Alcotest.(check bool)
    "steep penalty vetoes it" true
    (Regime.Search.search ~opts:steep ~vars:[ ("x", xs) ] ~errors () = None)

(* ---------- emitter round-trips ---------- *)

let test_branched_roundtrip () =
  let b = bench "quadratic-full" in
  let r = infer_official b in
  Alcotest.(check string)
    "quadratic-full ships the branched fix" "branched" r.Regime.re_selected;
  Alcotest.(check bool)
    "at least two regimes" true
    (Regime.selected_regimes r.Regime.re_selected r.Regime.re_regimes >= 2);
  (* FPCore: render -> parse -> render is a fixpoint *)
  let args = r.Regime.re_args in
  let src = Regime.Emit.render_core ~args r.Regime.re_fix in
  let core = Fpcore.Parse.parse_core src in
  Alcotest.(check string)
    "FPCore branched fix re-renders identically" src
    (Regime.Emit.render_core ~args:core.Fpcore.Ast.args core.Fpcore.Ast.body);
  (* MiniC: the emitted program compiles *)
  let mc = Regime.Emit.minic_program ~args r.Regime.re_fix in
  (match Minic.compile ~file:"regime-fix.mc" mc with
  | (_ : Vex.Ir.prog) -> ()
  | exception Minic.Compile_error msg ->
      Alcotest.failf "emitted MiniC does not compile: %s" msg);
  (* the branch structure the fleet carries matches the report *)
  List.iter
    (fun (v, _) ->
      Alcotest.(check (option string))
        "threshold variable is the split variable" r.Regime.re_var (Some v))
    (Regime.thresholds r)

(* ---------- soundness of the overfit trio ---------- *)

(* rigid-body1, kepler2 and delta4 are the PR 7 soundiness overfits:
   single-rewrite improve ships fixes for them that lose on a resample.
   At the official configuration regime selection must retire all three
   — ship a genuinely-better fix or fall back to the original — and the
   disjoint-context soundness report must come back clean. *)
let test_overfit_trio_sound () =
  List.iter
    (fun name ->
      let r = infer_official (bench name) in
      Alcotest.(check bool)
        (name ^ " sound on resample") true
        r.Regime.re_soundness.Rewrite.Soundness.r_sound;
      Alcotest.(check bool)
        (name ^ " never regresses the resampled mean") true
        (match r.Regime.re_selected with
        | "original" -> r.Regime.re_fix = r.Regime.re_original
        | "single" -> r.Regime.re_act_single <= r.Regime.re_act_before
        | "branched" -> r.Regime.re_act_branched <= r.Regime.re_act_before
        | s -> Alcotest.failf "unknown selection %s" s))
    [ "rigid-body1"; "kepler2"; "delta4" ]

(* ---------- pinned error table ---------- *)

(* Byte-level pin of one report. If this fails because the table format
   changed on purpose, update the pin; if it fails with the same format
   but different numbers, regime inference lost determinism. *)
let expected_table =
  "regime intro-example (seed 42, 24+24+48 points): no branch (single \
   candidate wins)\n\
  \  branch                        predicted     actual   srch   rsmp\n\
  \  (all)                              0.25       0.25     24     48\n\
  \  expr                          predicted   validate     actual\n\
  \  original                          12.93      14.49      14.92\n\
  \  single                             0.25       0.29       0.25\n\
  \  branched                           0.25       0.29       0.25\n\
  \  selected: single (by validation context)\n\
  \  spots above threshold:\n\
  \    (- (sqrt (+ x 1)) (sqrt x)) mean 12.93 max 26.22 (24 pts)\n\
  \  fix: (FPCore (x) (/ 1 (+ (sqrt (+ x 1)) (sqrt x))))\n\
  \  sound on resample"

let test_error_table_pin () =
  let r = Regime.infer ~seed:42 (bench "intro-example") in
  Alcotest.(check string) "pinned table" expected_table (Regime.table r)

(* Byte-level pin of the whole official sweep: [Regime.to_json] of every
   straight-line benchmark at seed 42, as `fpgrind improve --sweep
   --regimes --points 96 --depth 4 --penalty 0.05 --seed 42 --json -`
   prints it minus "wall_s". Every score is a mean over 256-bit shadow
   evaluations, so a Bigfloat kernel that changed one rounding moves a
   line here; test/regen_pins.ml says how to regenerate the file. *)
let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_sweep_pin () =
  let want = read_lines "data/regime_sweep_seed42.jsonl" in
  let benches = List.filter (fun b -> b.Suite.group = `Straight) Suite.all in
  Alcotest.(check int) "one line per program" (List.length want) (List.length benches);
  List.iter2
    (fun w b ->
      let got = Json.to_string (Regime.to_json (infer_official b)) in
      if got <> w then
        Alcotest.failf "%s diverges from the pinned sweep\nwant: %s\ngot:  %s"
          b.Suite.name w got)
    want benches

let () =
  Alcotest.run "regime"
    [
      ( "sampler",
        [ Alcotest.test_case "determinism" `Quick test_sampler_determinism ] );
      ( "search",
        [
          Alcotest.test_case "two-regime synthetic" `Quick
            test_search_two_regimes;
          Alcotest.test_case "no split when one wins" `Quick
            test_search_no_split_when_one_wins;
          Alcotest.test_case "penalty vetoes marginal split" `Quick
            test_search_penalty_vetoes_marginal_split;
        ] );
      ( "emit",
        [
          Alcotest.test_case "branched round-trips" `Quick
            test_branched_roundtrip;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "overfit trio revalidates" `Quick
            test_overfit_trio_sound;
        ] );
      ( "table",
        [
          Alcotest.test_case "pinned error table" `Quick test_error_table_pin;
          Alcotest.test_case "pinned seed-42 sweep" `Quick test_sweep_pin;
        ] );
    ]
