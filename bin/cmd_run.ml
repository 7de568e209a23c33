(* run: a program on the bare machine, no instrumentation *)

open Cmdliner

let run load =
  Common.guard (fun () ->
      let prog, inputs = load () in
      let st = Vex.Machine.run ~max_steps:1_000_000_000 ~inputs prog in
      List.iter
        (fun (o : Vex.Machine.output) ->
          Printf.printf "%s\n" (Vex.Value.to_string o.Vex.Machine.value))
        (Vex.Machine.outputs st);
      0)

let cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a program natively (no instrumentation) and print its outputs.")
    Term.(const run $ Common.program_term)
