(* list-benchmarks: the vendored FPBench suite *)

open Cmdliner

let run () =
  List.iter
    (fun (b : Fpcore.Suite.bench) ->
      Printf.printf "%-24s %s\n" b.Fpcore.Suite.name
        (match b.Fpcore.Suite.group with
        | `Straight -> "straight-line"
        | `Loop -> "looping"))
    Fpcore.Suite.all;
  0

let cmd =
  Cmd.v
    (Cmd.info "list-benchmarks" ~doc:"List the vendored FPBench suite.")
    Term.(const run $ const ())
