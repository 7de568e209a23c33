(* perfbench — the repository's benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH

   Runs one workload (suite-full, suite-triage, serve-mixed,
   regime-sweep) for about S seconds, checks every output it produced,
   and prints, as comment lines, the environment stamp and the
   workload's own end-to-end metrics with units and sample counts. The
   last line of standard output is one JSON object: correct, attempted,
   failed, and the metrics — with --trace 0 the end-to-end set every
   workload shares, with --trace 1 the per-layer set, measured by a
   traced run that follows the untraced one and wraps every layer call
   in a span. Spans and the full result are written under
   .perfbench_work/. Exit code 1 on any correctness mismatch, 2 on bad
   arguments. *)

(* The per-layer metrics, in print order, with units. A traced run
   reports every one; a layer its workload does not exercise reads 0. *)
let layers =
  [
    ("fpcore.to_minic_s", "s"); ("minic.compile_s", "s");
    ("minic.vex_stmts", "count"); ("vex.compile_s", "s");
    ("vex.cblocks", "count"); ("vex.native_s", "s");
    ("vex.cache_hit_ratio", "ratio"); ("core.exec_s", "s");
    ("core.report_s", "s"); ("core.fp_ops", "count");
    ("core.ns_per_fp_op", "ns"); ("core.trace_nodes", "count");
    ("core.trace_materialized_ratio", "ratio"); ("core.overhead_x", "x");
  ]
  @ List.concat_map
      (fun prec ->
        List.map
          (fun op -> (Printf.sprintf "bignum.%s_%d_ns" op prec, "ns"))
          [ "add"; "mul"; "div"; "sqrt"; "sin"; "exp"; "log" ])
      [ 1000; 256 ]
  @ [
      ("sanitize.exec_s", "s"); ("sanitize.shadow_ops", "count");
      ("sanitize.overhead_x", "x");
    ]
  @ List.map
      (fun op -> (Printf.sprintf "sanitize.twofloat_%s_ns" op, "ns"))
      [ "add"; "mul"; "div"; "sqrt"; "fma" ]
  @ [
      ("tiered.pass1_s", "s"); ("tiered.plan_s", "s"); ("tiered.slice_s", "s");
      ("tiered.pass2_s", "s"); ("tiered.escalated", "count");
      ("tiered.slice_stmts", "count"); ("tiered.escalation_ratio", "ratio");
      ("fleet.job_p50_ms", "ms"); ("fleet.job_p88_ms", "ms");
      ("fleet.top_job_share", "ratio"); ("fleet.parallel_efficiency_j2", "ratio");
      ("regime.infer_s", "s"); ("regime.infer_p88_ms", "ms");
      ("regime.search_points", "count"); ("regime.branched", "count");
      ("regime.unsound", "count");
      ("serve.cache_hit_ratio", "ratio"); ("serve.server_p50_ms", "ms");
      ("serve.job_p99_ms", "ms"); ("serve.rejected", "count");
      ("shard.restarts", "count"); ("loadgen.send_lag_p99_ms", "ms");
      ("trace.overhead_pct", "%");
    ]

let workloads = [ "suite-full"; "suite-triage"; "serve-mixed"; "regime-sweep" ]

let default_seed = function
  | "suite-full" | "suite-triage" -> Suite_w.pin_seed
  | _ -> 42

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--cli PATH]";
  prerr_endline ("workloads: " ^ String.concat ", " workloads);
  exit 2

module J = Fleet.Json

(* JSON has no non-finite numbers; a metric that came out non-finite is
   reported as 0 with a warning *)
let num v = J.Num (if Float.is_finite v then v else 0.0)

let json_metrics ms =
  J.Obj
    (List.map
       (fun (name, v, unit) -> (name, J.Obj [ ("value", num v); ("unit", J.Str unit) ]))
       ms)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 in
  let trace = ref false and cli = ref "_build/default/bin/fpgrind_cli.exe" in
  let dir = ".perfbench_work" in
  let rec args = function
    | "--workload" :: w :: rest -> workload := w; args rest
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with Some v -> seed := Some v | None -> usage ());
        args rest
    | "--seconds" :: s :: rest ->
        (match float_of_string_opt s with Some v when v > 0.0 -> seconds := v | _ -> usage ());
        args rest
    | "--trace" :: t :: rest -> trace := t = "1"; args rest
    | "--cli" :: c :: rest -> cli := c; args rest
    | [] -> ()
    | _ -> usage ()
  in
  args (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then usage ();
  let seed = Option.value ~default:(default_seed !workload) !seed in
  let seconds = !seconds and trace = !trace in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let env = Util.env_stamp () in
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%d\n" !workload seed
    seconds (if trace then 1 else 0);
  Printf.printf "# env %s\n%!"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ J.to_string (J.Str v)) env));
  let r =
    match !workload with
    | "suite-full" -> Suite_w.run ~kind:`Full ~seed ~seconds ~trace
    | "suite-triage" -> Suite_w.run ~kind:`Triage ~seed ~seconds ~trace
    | "serve-mixed" -> Serve_w.run ~cli:!cli ~dir ~seed ~seconds ~trace
    | _ -> Sweep_w.run ~seed ~seconds ~trace
  in
  let kernels = if trace then Kernels.sheet () else [] in
  let layer_values =
    if not trace then []
    else
      let given = r.Outcome.layers @ kernels in
      List.map
        (fun (name, unit) ->
          (name, Option.value ~default:0.0 (List.assoc_opt name given), unit))
        layers
  in
  let show v = J.to_string (num v) in
  List.iter
    (fun (m : Outcome.metric) ->
      Printf.printf "# %s = %s %s (n=%d)\n" m.Outcome.name (show m.Outcome.value) m.Outcome.unit
        m.Outcome.n)
    r.Outcome.named;
  List.iter (fun (name, v, unit) -> Printf.printf "# layer %s = %s %s\n" name (show v) unit) layer_values;
  if trace then Printf.printf "# spans recorded = %d\n" (List.length r.Outcome.spans);
  let metrics =
    if trace then layer_values
    else List.map (fun (m : Outcome.metric) -> (m.Outcome.name, m.Outcome.value, m.Outcome.unit)) r.Outcome.e2e
  in
  let nonfinite =
    List.filter_map
      (fun (name, v, _) -> if Float.is_finite v then None else Some (name ^ " is not finite"))
      metrics
  in
  List.iter (fun w -> prerr_endline ("perfbench: warning: " ^ w)) (r.Outcome.warnings @ nonfinite);
  List.iter (fun p -> prerr_endline ("perfbench: MISMATCH: " ^ p)) r.Outcome.problems;
  let correct = r.Outcome.problems = [] in
  let tag = Printf.sprintf "%s-s%d-t%d" !workload seed (if trace then 1 else 0) in
  if trace then Span.write (Filename.concat dir ("spans-" ^ tag ^ ".jsonl")) r.Outcome.spans;
  let named = List.map (fun (m : Outcome.metric) -> (m.Outcome.name, m.Outcome.value, m.Outcome.unit)) r.Outcome.named in
  let oc = open_out (Filename.concat dir ("result-" ^ tag ^ ".json")) in
  output_string oc
    (J.to_string
       (J.Obj
          [
            ("workload", J.Str !workload);
            ("seed", J.Num (float_of_int seed));
            ("env", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) env));
            ("named", json_metrics named);
            ("metrics", json_metrics metrics);
            ("problems", J.Arr (List.map (fun p -> J.Str p) r.Outcome.problems));
          ]));
  output_char oc '\n';
  close_out oc;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Num (float_of_int r.Outcome.attempted));
            ("failed", J.Num (float_of_int r.Outcome.failed));
            ("metrics", json_metrics metrics);
          ]));
  exit (if correct then 0 else 1)
