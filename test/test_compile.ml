(* Differential pinning for the compiled executor.

   The compiled-block refactor (pre-decoded superblocks, arena shadows,
   lazy traces) must be invisible in every analysis record: this suite
   replays the whole vendored FPBench suite plus a 500-program seed-42
   fuzz slice through all three engines and compares the results byte
   for byte against records committed from the pre-refactor
   tree-walking interpreter (test/data/, emitted at commit bb231c2).

   Canonical form: the Store's JSON with timing ("wall_s") and the
   compiled-executor additive fields ("stmts_executed",
   "traces_materialized") scrubbed — everything the interpreter also
   produced must match exactly; only the new observability fields and
   the clock are allowed to differ. *)

let rec scrub (j : Json.t) : Json.t =
  match j with
  | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if
               k = "wall_s" || k = "stmts_executed"
               || k = "traces_materialized"
             then None
             else Some (k, scrub v))
           kvs)
  | Json.Arr xs -> Json.Arr (List.map scrub xs)
  | x -> x

let canon (o : Fleet.outcome) : string =
  Json.to_string (scrub (Fleet.Store.outcome_to_json o))

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

let engines =
  [
    ("full", Core.Config.Full);
    ("sanitize", Core.Config.Sanitize);
    ("tiered", Core.Config.Tiered);
  ]

(* ---------- the 82-benchmark suite, pinned per engine ---------- *)

let suite_identity (tag, engine) () =
  let cfg = { Core.Config.default with Core.Config.engine } in
  let jobs = Fpcore.Suite.enumerate ~iterations:16 ~seed:1 () in
  let specs = List.map (Fleet.bench_spec ~cfg) jobs in
  let outcomes = Fleet.run ~jobs:4 specs in
  let got = List.map canon outcomes in
  let want = read_lines ("data/compile_suite_" ^ tag ^ ".jsonl") in
  Alcotest.(check int)
    "record count" (List.length want) (List.length got);
  List.iteri
    (fun i (w, g) ->
      if w <> g then
        Alcotest.failf
          "engine %s, record %d diverges from the pre-refactor \
           interpreter\nwant: %s\ngot:  %s"
          tag i w g)
    (List.combine want got)

(* ---------- ablation configurations of the full engine ----------

   The default configuration runs every analysis, so the suite pins
   never take [Core.Exec.do_op]'s branches for expressions off, reals
   off, or classic anti-unification at a shallow equivalence depth.
   These pins (emitted before the per-op bookkeeping was made cheap; see
   regen_pins.ml) cover them over the 72 straight-line programs. The
   group is named "flags", not "ablation": alcotest pads every test name
   to the longest group name, and a longer one would truncate the
   "suite" names differently. *)

let ablations =
  let d = Core.Config.default in
  [
    ("no_expressions", { d with Core.Config.enable_expressions = false });
    ("no_reals", { d with Core.Config.enable_reals = false });
    ( "classic_depth2",
      { d with Core.Config.classic_antiunify = true; equiv_depth = 2 } );
  ]

let ablation_identity (tag, cfg) () =
  let jobs = Fpcore.Suite.enumerate ~iterations:4 ~seed:1 ~group:`Straight () in
  let outcomes = Fleet.run ~jobs:4 (List.map (Fleet.bench_spec ~cfg) jobs) in
  let got = List.map canon outcomes in
  let want = read_lines ("data/ablation_" ^ tag ^ ".jsonl") in
  Alcotest.(check int) "record count" (List.length want) (List.length got);
  List.iteri
    (fun i (w, g) ->
      if w <> g then
        Alcotest.failf "ablation %s, record %d diverges\nwant: %s\ngot:  %s"
          tag i w g)
    (List.combine want got)

(* ---------- 500 seed-42 fuzz programs, digest-pinned ---------- *)

let max_steps = 2_000_000
let tick () = ()

let fuzz_payload engine ~name prog inputs : Fleet.payload =
  let cfg = { Core.Config.default with Core.Config.engine } in
  Fleet.analyze_prog ~cfg ~max_steps ~inputs ~tick ~name ~group:"fuzz" prog

let fuzz_digest (tag, engine) ~name prog inputs : string =
  match fuzz_payload engine ~name prog inputs with
  | p ->
      let o =
        {
          Fleet.o_name = name;
          o_group = "fuzz";
          o_key = "";
          o_engine = tag;
          o_status = Fleet.Done;
          o_wall_s = 0.0;
          o_payload = Some p;
        }
      in
      Digest.to_hex (Digest.string (canon o))
  | exception exn ->
      Digest.to_hex (Digest.string (tag ^ ":exn:" ^ Printexc.to_string exn))

let fuzz_line i : string =
  let ast, inputs = Fuzz.Campaign.generate ~seed:42 i in
  let src = Fuzz.Printer.program ast in
  let name = Printf.sprintf "fuzz-%04d" i in
  match Minic.compile ~file:(name ^ ".mc") src with
  | prog ->
      String.concat " "
        (name
        :: List.map
             (fun e -> fst e ^ ":" ^ fuzz_digest e ~name prog inputs)
             engines)
  | exception Minic.Compile_error e ->
      name ^ " compile-error:" ^ Digest.to_hex (Digest.string e)

let fuzz_identity () =
  let want = Array.of_list (read_lines "data/compile_fuzz_seed42.txt") in
  Alcotest.(check int) "slice size" 500 (Array.length want);
  let bad = ref [] in
  for i = Array.length want - 1 downto 0 do
    let got = fuzz_line i in
    if got <> want.(i) then
      bad :=
        Printf.sprintf "program %d:\nwant: %s\ngot:  %s" i want.(i) got
        :: !bad
  done;
  match !bad with
  | [] -> ()
  | l ->
      Alcotest.failf
        "%d of %d seed-42 programs diverge from the pre-refactor \
         interpreter\n%s"
        (List.length l) (Array.length want)
        (String.concat "\n" l)

(* ---------- the compile cache across suite passes ---------- *)

(* Two passes over the same specs in one process: the second must decode
   no new superblock, since every program is served from the
   compiled-block cache, and must reproduce the first pass's records. *)
let second_pass_cached () =
  let cfg = { Core.Config.default with Core.Config.precision = 128 } in
  let names =
    [
      "intro-example"; "nmse-3-1"; "verhulst"; "midpoint-naive";
      "logistic-map"; "newton-sqrt";
    ]
  in
  let specs =
    List.map (Fleet.bench_spec ~cfg)
      (Fpcore.Suite.enumerate ~iterations:4 ~seed:1 ~names ())
  in
  let modulo_wall o =
    match Fleet.Store.outcome_to_json o with
    | Json.Obj kvs ->
        Json.to_string (Json.Obj (List.remove_assoc "wall_s" kvs))
    | j -> Json.to_string j
  in
  let pass () =
    let records = List.map modulo_wall (Fleet.run ~jobs:2 specs) in
    ( records,
      Vex.Compile.blocks_compiled_total (),
      Vex.Compile.cache_hits_total () )
  in
  let first, compiled1, hits1 = pass () in
  let second, compiled2, hits2 = pass () in
  Alcotest.(check int) "no block decoded twice" compiled1 compiled2;
  Alcotest.(check bool) "second pass hits the cache" true (hits2 > hits1);
  Alcotest.(check (list string)) "records equal modulo wall_s" first second

let () =
  Alcotest.run "compile"
    [
      ( "suite",
        List.map
          (fun e ->
            Alcotest.test_case
              (fst e ^ " engine, 82 benchmarks byte-identical")
              `Quick (suite_identity e))
          engines );
      ( "flags",
        List.map
          (fun e ->
            Alcotest.test_case
              (fst e ^ ", 72 straight-line programs byte-identical")
              `Quick (ablation_identity e))
          ablations );
      ( "fuzz",
        [
          Alcotest.test_case "500 seed-42 programs, three engines" `Quick
            fuzz_identity;
        ] );
      ( "cache",
        [
          Alcotest.test_case "second suite pass served from the cache" `Quick
            second_pass_cached;
        ] );
    ]
