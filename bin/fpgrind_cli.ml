(* fpgrind: command-line driver for the Herbgrind reproduction.

     fpgrind analyze prog.mc --inputs 1.0,2.0 --precision 1000
     fpgrind analyze bench:nmse-3-1 --iterations 16
     fpgrind run prog.mc
     fpgrind suite -j 4 --timeout 30 --json results.jsonl
     fpgrind validate results.jsonl
     fpgrind list-benchmarks
     fpgrind improve "(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))" --lo 1e8 --hi 1e15

   Each subcommand lives in its own Cmd_* module; flags that two or more
   of them share are in Common. *)

open Cmdliner

let () =
  let doc = "find root causes of floating-point error (Herbgrind reproduction)" in
  let info = Cmd.info "fpgrind" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            Cmd_analyze.cmd; Cmd_sanitize.cmd; Cmd_run.cmd; Cmd_suite.cmd;
            Cmd_validate.cmd; Cmd_list.cmd; Cmd_improve.cmd; Cmd_fuzz.cmd;
            Cmd_campaign.cmd; Cmd_serve.cmd; Cmd_client.cmd; Cmd_loadgen.cmd;
          ]))
