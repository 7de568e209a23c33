(* Regenerates the test/data compiled-executor suite pins after a
   deliberate suite extension:

     dune exec test/regen_pins.exe -- test/data

   Canonical form must match test_compile.ml exactly: the Store's JSON
   with "wall_s", "stmts_executed" and "traces_materialized" scrubbed.
   Run from the repository root; diff the result before committing —
   a suite extension may only *append/insert* records, never change
   existing ones.

   The regime-sweep pin (test/data/regime_sweep_seed42.jsonl, checked by
   test_regime.ml) is the CLI's seed-42 sweep with "wall_s" dropped from
   each line:

     dune exec bin/fpgrind_cli.exe -- improve --sweep --regimes \
       --points 96 --depth 4 --penalty 0.05 --seed 42 --json - 2>/dev/null \
       | sed -E 's/,"wall_s":[^,}]*\}$/}/' > test/data/regime_sweep_seed42.jsonl

   It pins 256-bit shadow arithmetic, so regenerate it only for a
   deliberate change to regime inference or rewriting, never to absorb
   a Bigfloat kernel change.

   The same command also writes the ablation pins
   (test/data/ablation_<tag>.jsonl, checked by test_compile.ml): the
   full engine over the 72 straight-line programs at 4 iterations in
   three configurations that take the [Core.Exec.do_op] branches the
   default configuration never reaches (no expressions, no reals,
   classic anti-unification at equivalence depth 2). *)

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

let engines =
  [
    ("full", Core.Config.Full);
    ("sanitize", Core.Config.Sanitize);
    ("tiered", Core.Config.Tiered);
  ]

(* the ablation configurations, shared with test_compile.ml's copy *)
let ablations =
  let d = Core.Config.default in
  [
    ("no_expressions", { d with Core.Config.enable_expressions = false });
    ("no_reals", { d with Core.Config.enable_reals = false });
    ( "classic_depth2",
      { d with Core.Config.classic_antiunify = true; equiv_depth = 2 } );
  ]

let write_pins path outcomes =
  let oc = open_out path in
  List.iter
    (fun o ->
      output_string oc (canon o);
      output_char oc '\n')
    outcomes;
  close_out oc;
  Printf.printf "%s: %d records\n%!" path (List.length outcomes)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/data" in
  List.iter
    (fun (tag, engine) ->
      let cfg = { Core.Config.default with Core.Config.engine } in
      let jobs = Fpcore.Suite.enumerate ~iterations:16 ~seed:1 () in
      let specs = List.map (Fleet.bench_spec ~cfg) jobs in
      let outcomes = Fleet.run ~jobs:4 specs in
      write_pins
        (Filename.concat dir ("compile_suite_" ^ tag ^ ".jsonl"))
        outcomes)
    engines;
  List.iter
    (fun (tag, cfg) ->
      let jobs =
        Fpcore.Suite.enumerate ~iterations:4 ~seed:1 ~group:`Straight ()
      in
      let outcomes = Fleet.run ~jobs:4 (List.map (Fleet.bench_spec ~cfg) jobs) in
      write_pins (Filename.concat dir ("ablation_" ^ tag ^ ".jsonl")) outcomes)
    ablations
