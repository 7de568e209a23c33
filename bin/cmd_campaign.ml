(* campaign: the long-running, resumable fuzz campaign *)

open Cmdliner

let state_arg =
  Arg.(
    value & opt string "campaign.state.json"
    & info [ "state" ] ~docv:"FILE"
        ~doc:
          "Checkpoint file. If it exists and matches this campaign's \
           config fingerprint, the campaign resumes from the recorded \
           stream index; a mismatched file is refused.")

let soundiness_every_arg =
  Arg.(
    value & opt int 0
    & info [ "soundiness-every" ] ~docv:"N"
        ~doc:
          "Make every Nth stream index a soundiness check over the \
           benchmark suite (0 disables the soundiness slice).")

let regimes_every_arg =
  Arg.(
    value & opt int 0
    & info [ "regimes-every" ] ~docv:"N"
        ~doc:
          "Make every Nth stream index a regime-inference task over the \
           straight-line suite; fixes and unsound candidates land in the \
           findings feed with a regime_candidate verdict (0 disables the \
           regime slice; soundiness wins when both slices hit one index).")

let checkpoint_every_arg =
  Arg.(
    value & opt int 50
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Checkpoint the state file every N completed tasks.")

let no_shrink_arg =
  Arg.(
    value & flag
    & info [ "no-shrink" ] ~doc:"Skip corpus minimization of divergent programs.")

let run seed iters state_path findings_path soundiness_every regimes_every
    checkpoint_every no_shrink quiet =
  let cfg =
    {
      (Campaign.Runner.default_config ~state_path ~findings_path) with
      Campaign.Runner.cfg_seed = seed;
      cfg_iters = iters;
      cfg_soundness_every = soundiness_every;
      cfg_regimes_every = regimes_every;
      cfg_checkpoint_every = max 1 checkpoint_every;
      cfg_shrink = not no_shrink;
    }
  in
  (* SIGINT/SIGTERM request a stop; the loop finishes the task in
     flight, appends its findings, checkpoints, and exits 3 so a
     supervisor can tell "interrupted, resume me" from "done". *)
  let stop = ref false in
  let on_signal _ = stop := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  let on_progress st =
    if not quiet then Printf.eprintf "%s\n%!" (Campaign.Runner.summary_line st)
  in
  Common.guard @@ fun () ->
  match Campaign.Runner.run ~should_stop:(fun () -> !stop) ~on_progress cfg with
  | Campaign.Runner.Completed st ->
      Printf.printf "%s\n" (Campaign.Runner.summary_line st);
      0
  | Campaign.Runner.Interrupted st ->
      Printf.printf "interrupted; %s\n" (Campaign.Runner.summary_line st);
      3

let cmd =
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a long-running, resumable fuzz campaign: differential + \
          engine-consistency oracles over seeded random programs, an \
          optional soundiness slice over the benchmark suite, periodic \
          checkpoints, and an append-only findings JSONL feed. SIGINT or \
          SIGTERM checkpoints and exits 3; rerunning with the same flags \
          resumes and the merged findings feed is byte-identical to an \
          uninterrupted run.")
    Term.(
      const run
      $ Common.seed_arg ~default:42 ~doc:"Campaign seed."
      $ Common.iters_arg ~default:2000 ~doc:"Stream length (total tasks)."
      $ state_arg
      $ Common.findings_arg Arg.string "findings.jsonl"
          ~doc:
            "Append-only findings feed (JSON lines). Serve it live with \
             $(b,fpgrind serve --findings) $(docv)."
      $ soundiness_every_arg $ regimes_every_arg $ checkpoint_every_arg
      $ no_shrink_arg
      $ Common.quiet_arg ~doc:"Suppress progress lines.")
