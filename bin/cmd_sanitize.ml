(* sanitize: the NSan-style dual-precision engine, alone or tiered *)

open Cmdliner

let fatal_arg =
  Arg.(
    value & flag
    & info [ "fatal" ]
        ~doc:
          "Stop at the first firing check (exit 2) instead of resuming and \
           aggregating findings.")

let all_checks_arg =
  Arg.(
    value & flag
    & info [ "all-checks" ]
        ~doc:"Report every check point, including ones that never fired.")

let run load threshold fatal all_checks engine =
  let cfg =
    { Core.Config.default with Core.Config.error_threshold = threshold; engine }
  in
  Common.guard (fun () ->
      if engine = Core.Config.Tiered && (fatal || all_checks) then
        failwith "--fatal and --all-checks apply to the sanitize engine only";
      Cmd_analyze.run_program ~cfg ~fatal ~all_checks load)

let cmd =
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:
         "Run a program under the NSan-style dual-precision shadow \
          sanitizer: every float is shadowed by a double-double, and checks \
          fire at stores, float-to-int casts, flipped comparisons and \
          outputs.")
    Term.(
      const run $ Common.program_term $ Common.threshold_arg $ fatal_arg
      $ all_checks_arg
      $ Common.engine_arg
          ~engines:Core.Config.[ Sanitize; Tiered ]
          ~default:Core.Config.Sanitize
          ~doc:
            "$(b,sanitize) (the default) runs the dual-precision sanitizer \
             alone; $(b,tiered) escalates its findings to the full analysis."
          ())
