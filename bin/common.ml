(* What two or more subcommands share: every flag they have in common
   (each defined once here, with ~default/~doc where the subcommands
   differ), program loading, and the one error handler. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let bench_name s =
  if String.length s > 6 && String.sub s 0 6 = "bench:" then
    Some (String.sub s 6 (String.length s - 6))
  else None

let load_program ~wrap_libm ~vectorize ~iterations path : Vex.Ir.prog * float array =
  if Filename.check_suffix path ".fpcore" then begin
    let core = Fpcore.Parse.parse_core (read_file path) in
    let prog = Fpcore.Compile.compile ~wrap_libm ~n_inputs:iterations core in
    (prog, [||])
  end
  else
    match bench_name path with
    | Some name ->
        let bench = Fpcore.Suite.find name in
        let core = Fpcore.Suite.core_of bench in
        let prog =
          Fpcore.Compile.compile ~wrap_libm ~n_inputs:iterations ~name core
        in
        let inputs = Fpcore.Suite.inputs_for bench ~n:iterations in
        (prog, inputs)
    | None -> (Minic.compile_file ~wrap_libm ~vectorize path, [||])

(* Runs a subcommand body; an error the libraries document becomes
   "error: ..." on stderr and exit 1. Anything else is a bug and is left
   to Cmdliner. *)
let guard (f : unit -> int) : int =
  let fail msg =
    Printf.eprintf "error: %s\n" msg;
    1
  in
  try f () with
  | Minic.Compile_error msg
  | Fpcore.Parse.Error msg
  | Fpcore.Sexp.Parse_error msg
  | Json.Parse_error msg
  | Serve.Http.Error (_, msg)
  | Campaign.Runner.Resume_mismatch msg
  | Sys_error msg
  | Failure msg
  | Invalid_argument msg ->
      fail msg
  | Unix.Unix_error (e, fn, _) -> fail (fn ^ ": " ^ Unix.error_message e)

(* ---------- program and analysis flags ---------- *)

let path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"PROGRAM"
        ~doc:
          "A MiniC source file (.mc), an FPCore file (.fpcore), or \
           bench:NAME for a suite benchmark.")

let inputs_arg =
  Arg.(
    value & opt (list float) []
    & info [ "inputs" ] ~docv:"FLOATS"
        ~doc:"Comma-separated values returned by the __arg builtin.")

let iterations_arg ?(default = 16)
    ?(doc = "Input tuples to run for FPCore programs.") () =
  Arg.(value & opt int default & info [ "iterations" ] ~docv:"N" ~doc)

let precision_arg =
  Arg.(
    value & opt int Core.Config.default.Core.Config.precision
    & info [ "precision" ] ~docv:"BITS" ~doc:"Shadow real precision in bits.")

let threshold_arg =
  Arg.(
    value & opt float Core.Config.default.Core.Config.error_threshold
    & info [ "threshold" ] ~docv:"BITS"
        ~doc:"Bits of local error that taint an operation.")

let vectorize_arg =
  Arg.(
    value & flag
    & info [ "vectorize" ]
        ~doc:"Auto-vectorize elementwise double loops to SSE operations.")

let no_wrap_arg =
  Arg.(
    value & flag
    & info [ "no-wrap-libm" ]
        ~doc:
          "Compile math calls to the MiniC math library instead of \
           intercepted library calls (section 8.2 ablation).")

(* PROGRAM and the flags that say how to load and feed it; the loader
   runs when the subcommand calls it, inside its [guard] *)
let program_term =
  let load path inputs iterations vectorize no_wrap () =
    let prog, bench_inputs =
      load_program ~wrap_libm:(not no_wrap) ~vectorize ~iterations path
    in
    (prog, if inputs <> [] then Array.of_list inputs else bench_inputs)
  in
  Term.(
    const load $ path_arg $ inputs_arg $ iterations_arg () $ vectorize_arg
    $ no_wrap_arg)

(* ---------- engine ---------- *)

let engine_enum engines =
  Arg.enum (List.map (fun e -> (Core.Config.engine_name e, e)) engines)

let all_engines = Core.Config.[ Full; Sanitize; Tiered ]

let engine_info doc = Arg.info [ "engine" ] ~docv:"ENGINE" ~doc

let engine_arg ?(engines = all_engines) ?(default = Core.Config.Full)
    ?(doc =
      "Analysis engine: $(b,full) is the Herbgrind-style shadow-real \
       analysis; $(b,sanitize) is the fast NSan-style double-double \
       sanitizer; $(b,tiered) triages with the sanitizer and escalates only \
       the flagged slices to the full analysis.") () =
  Arg.(value & opt (engine_enum engines) default & engine_info doc)

let engine_opt_arg ~doc =
  Arg.(value & opt (some (engine_enum all_engines)) None & engine_info doc)

(* ---------- run control ---------- *)

let seed_arg ~default ~doc =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"N" ~doc)

let iters_arg ~default ~doc =
  Arg.(value & opt int default & info [ "iters" ] ~docv:"N" ~doc)

let jobs_arg ~doc =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let timeout_arg ~doc =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)

let quiet_arg ~doc = Arg.(value & flag & info [ "quiet" ] ~doc)

let json_arg ~doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

(* campaign writes the findings feed (a path with a default), serve
   reads one (optional) *)
let findings_arg ~doc file_conv default =
  Arg.(value & opt file_conv default & info [ "findings" ] ~docv:"FILE" ~doc)

(* ---------- network ---------- *)

let host_arg ~doc =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let port_arg ~doc =
  Arg.(value & opt int 8080 & info [ "port" ] ~docv:"PORT" ~doc)
