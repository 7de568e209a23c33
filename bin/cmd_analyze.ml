(* analyze: one program under any engine, report plus run statistics.
   [run_program] is shared with sanitize. *)

open Cmdliner

let run_sanitizer ~cfg ~fatal ~all_checks ~inputs prog : int =
  match
    Sanitize.Sexec.run ~max_steps:1_000_000_000 ~inputs ~fatal cfg prog
  with
  | r ->
      let rep = Sanitize.Report.build ~report_all:all_checks r in
      print_string (Sanitize.Report.to_string rep);
      let st = r.Sanitize.Sexec.sx_stats in
      Printf.printf
        "\n--- statistics ---\n\
         superblocks run:          %d\n\
         statements run:           %d\n\
         statements instrumented:  %d\n\
         shadowed ops:             %d\n\
         checks run:               %d\n"
        st.Sanitize.Sexec.blocks_run st.Sanitize.Sexec.stmts_run
        st.Sanitize.Sexec.stmts_instrumented st.Sanitize.Sexec.shadow_ops
        st.Sanitize.Sexec.checks_run;
      0
  | exception Sanitize.Sexec.Fatal_finding f ->
      Printf.printf "FATAL: %s\n" (Sanitize.Report.finding_to_string f);
      2

let run_tiered ~cfg ~inputs prog : int =
  let r = Tiered.analyze ~cfg ~max_steps:1_000_000_000 ~inputs prog in
  print_string (Tiered.report_string r);
  let sst = r.Tiered.t_san.Sanitize.Sexec.sx_stats in
  Printf.printf
    "\n--- statistics ---\n\
     triage superblocks run:   %d\n\
     triage checks run:        %d\n\
     escalation seeds:         %d\n\
     slice statements:         %d\n"
    sst.Sanitize.Sexec.blocks_run sst.Sanitize.Sexec.checks_run
    (List.length r.Tiered.t_seeds)
    r.Tiered.t_slice_stmts;
  (match r.Tiered.t_full with
  | None -> Printf.printf "escalation:               none\n"
  | Some full ->
      let st = full.Core.Analysis.raw.Core.Exec.r_stats in
      Printf.printf
        "escalated fp ops:         %d\n\
         escalated compensations:  %d\n"
        st.Core.Exec.fp_ops st.Core.Exec.compensations);
  0

let run_full ~cfg ~inputs prog : int =
  let r = Core.Analysis.analyze ~cfg ~max_steps:1_000_000_000 ~inputs prog in
  print_string (Core.Analysis.report_string r);
  let st = r.Core.Analysis.raw.Core.Exec.r_stats in
  Printf.printf
    "\n--- statistics ---\n\
     superblocks run:          %d\n\
     statements run:           %d\n\
     statements instrumented:  %d\n\
     floating-point ops:       %d\n\
     compensations detected:   %d\n"
    st.Core.Exec.blocks_run st.Core.Exec.stmts_run
    st.Core.Exec.stmts_instrumented st.Core.Exec.fp_ops
    st.Core.Exec.compensations;
  0

(* [load] is a {!Common.program_term} loader; call inside a guard *)
let run_program ~cfg ~fatal ~all_checks load : int =
  let prog, inputs = load () in
  match cfg.Core.Config.engine with
  | Core.Config.Sanitize -> run_sanitizer ~cfg ~fatal ~all_checks ~inputs prog
  | Core.Config.Tiered -> run_tiered ~cfg ~inputs prog
  | Core.Config.Full -> run_full ~cfg ~inputs prog

let depth_arg =
  Arg.(
    value & opt int Core.Config.default.Core.Config.equiv_depth
    & info [ "equiv-depth" ] ~docv:"D"
        ~doc:"Depth of exact value-equivalence tracking (paper default 5).")

let no_reals_arg =
  Arg.(value & flag & info [ "no-reals" ] ~doc:"Disable the shadow real execution.")

let no_exprs_arg =
  Arg.(value & flag & info [ "no-expressions" ] ~doc:"Disable expression building.")

let no_typeinfer_arg =
  Arg.(
    value & flag
    & info [ "no-type-inference" ] ~doc:"Disable superblock type inference.")

let classic_arg =
  Arg.(
    value & flag
    & info [ "classic-antiunify" ]
        ~doc:"Use classical most-specific generalization (no internal pruning).")

let all_spots_arg =
  Arg.(
    value & flag
    & info [ "all-spots" ] ~doc:"Report spots with no observed error too.")

let run load precision threshold depth no_reals no_exprs no_ti classic
    all_spots engine =
  let cfg =
    {
      Core.Config.default with
      Core.Config.precision;
      error_threshold = threshold;
      equiv_depth = depth;
      enable_reals = not no_reals;
      enable_expressions = not no_exprs;
      type_inference = not no_ti;
      classic_antiunify = classic;
      report_all_spots = all_spots;
      engine;
    }
  in
  Common.guard (fun () ->
      run_program ~cfg ~fatal:false ~all_checks:all_spots load)

let cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Run a program under the full Herbgrind analysis (or, with --engine \
          sanitize / --engine tiered, the NSan-style sanitizer or the \
          two-pass tiered engine) and print the report.")
    Term.(
      const run $ Common.program_term $ Common.precision_arg
      $ Common.threshold_arg $ depth_arg $ no_reals_arg $ no_exprs_arg
      $ no_typeinfer_arg $ classic_arg $ all_spots_arg $ Common.engine_arg ())
