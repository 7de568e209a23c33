(* fuzz: differential campaigns over seeded random programs, or the
   soundiness oracle over the suite *)

open Cmdliner

let corpus_arg =
  Arg.(
    value & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "Replay every .mc reproducer in $(docv) before the campaign, \
           and write newly shrunken counterexamples there.")

let consistency_arg =
  Arg.(
    value & flag
    & info [ "consistency" ]
        ~doc:
          "Run the engine-consistency oracle on every program (sanitizer \
           findings vs full-analysis spots), not just the deep slice.")

let tiered_consistency_arg =
  Arg.(
    value & flag
    & info [ "tiered-consistency" ]
        ~doc:
          "Run the tiered-consistency oracle on every program: every \
           spot the tiered engine reports must be bit-identical to the \
           full engine's record for it, and its outputs must match.")

let soundiness_arg =
  Arg.(
    value & flag
    & info [ "soundiness" ]
        ~doc:
          "Run the soundiness oracle instead of the differential \
           campaign: iteration i runs Rewrite.Improve on suite \
           benchmark (i mod 82) over a seeded search context and \
           asserts the accepted rewrite is error-non-increasing on a \
           disjoint resampled context. Violations print an actual-vs-\
           predicted error table and exit nonzero.")

let soundiness ~seed ~iters ~quiet =
  let benches = Fpcore.Suite.all in
  let nbench = List.length benches in
  let violations = ref 0 in
  for i = 0 to iters - 1 do
    let bench = List.nth benches (i mod nbench) in
    let r = Rewrite.Soundness.check_bench ~seed:((seed * 1_000_003) + i) bench in
    if not r.Rewrite.Soundness.r_sound then begin
      incr violations;
      print_endline (Rewrite.Soundness.table r)
    end
    else if not quiet then
      Printf.eprintf "[%3d/%3d] sound    %s\n%!" (i + 1) iters
        bench.Fpcore.Suite.name
  done;
  Printf.printf "fuzz: seed %d, %d soundiness checks, %d violations\n" seed
    iters !violations;
  if !violations > 0 then 1 else 0

let differential ~seed ~iters ~jobs ~timeout ~corpus ~quiet ~checks =
  let bad = ref false in
  (* replay the corpus first: every past counterexample must stay fixed *)
  (match corpus with
  | Some dir when Sys.file_exists dir ->
      List.iter
        (fun (file, result) ->
          match result with
          | Fuzz.Oracle.Pass ->
              if not quiet then Printf.eprintf "replay %-40s ok\n%!" file
          | Fuzz.Oracle.Skip why ->
              if not quiet then
                Printf.eprintf "replay %-40s skip (%s)\n%!" file why
          | Fuzz.Oracle.Fail d ->
              bad := true;
              Printf.printf "replay %s: DIVERGENT (%s) %s\n" file
                d.Fuzz.Oracle.d_oracle d.Fuzz.Oracle.d_detail)
        (Fuzz.Campaign.replay_dir dir)
  | Some dir -> Printf.eprintf "warning: corpus dir %s does not exist\n" dir
  | None -> ());
  if iters > 0 then begin
    let on_progress =
      if quiet then None
      else
        Some
          (fun (p : Fleet.progress) ->
            Printf.eprintf "[%3d/%3d] %-8s %s\n%!" p.Fleet.pr_done
              p.Fleet.pr_total
              (Fleet.Store.status_to_string p.Fleet.pr_last.Fleet.o_status)
              p.Fleet.pr_last.Fleet.o_name)
    in
    let t =
      Fuzz.Campaign.run ~checks ~jobs ?timeout ?on_progress ~seed ~iters ()
    in
    let failures = Fuzz.Campaign.failed t in
    let skips = List.length (Fuzz.Campaign.skipped t) in
    Printf.printf "fuzz: seed %d, %d programs, %d divergent%s\n" seed iters
      (List.length failures)
      (if skips = 0 then ""
       else Printf.sprintf ", %d skipped (step budget)" skips);
    List.iter
      (fun (e : Fuzz.Campaign.entry) ->
        bad := true;
        match e.Fuzz.Campaign.e_status with
        | Fuzz.Campaign.Error msg ->
            Printf.printf "program %d: ERROR %s\n" e.Fuzz.Campaign.e_index msg
        | Fuzz.Campaign.Divergent d0 -> begin
            Printf.printf "program %d: DIVERGENT (%s) %s\n"
              e.Fuzz.Campaign.e_index d0.Fuzz.Oracle.d_oracle
              d0.Fuzz.Oracle.d_detail;
            (* shrink to a minimal reproducer *)
            match
              Fuzz.Campaign.shrink_entry ~checks ~seed e.Fuzz.Campaign.e_index
            with
            | Some (small, inputs, d) ->
                let src = Fuzz.Printer.program small in
                (match corpus with
                | Some dir when Sys.file_exists dir ->
                    let path =
                      Fuzz.Campaign.save_repro ~dir ~seed
                        ~index:e.Fuzz.Campaign.e_index ~d ~inputs src
                    in
                    Printf.printf "  reproducer written to %s\n" path
                | _ -> ());
                print_string
                  (String.concat "\n"
                     (List.map (fun l -> "  | " ^ l)
                        (String.split_on_char '\n' src)));
                print_newline ()
            | None ->
                Printf.printf "  (divergence did not reproduce on re-run)\n"
          end
        | Fuzz.Campaign.Passed | Fuzz.Campaign.Skipped _ -> ())
      failures
  end;
  if !bad then 1 else 0

let run seed iters jobs timeout corpus quiet consistency tiered_consistency
    soundiness_flag =
  Common.guard @@ fun () ->
  if soundiness_flag then soundiness ~seed ~iters ~quiet
  else
    let checks =
      {
        Fuzz.Oracle.default_checks with
        Fuzz.Oracle.c_consistency = consistency;
        c_tiered = tiered_consistency;
      }
    in
    differential ~seed ~iters ~jobs ~timeout ~corpus ~quiet ~checks

let cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate seeded random MiniC programs and \
          check the reference evaluator, the VEX machine and the \
          instrumented analysis agree bit-for-bit; shrink and record any \
          counterexample. With --soundiness, check Rewrite.Improve results \
          on resampled point contexts instead.")
    Term.(
      const run
      $ Common.seed_arg ~default:42 ~doc:"Campaign seed."
      $ Common.iters_arg ~default:1000
          ~doc:
            "Programs to generate and check. 0 skips generation (useful \
             with --corpus to replay only)."
      $ Common.jobs_arg
          ~doc:
            "Worker domains. The transcript is identical for any value: \
             program i depends only on (seed, i)."
      $ Common.timeout_arg ~doc:"Per-chunk wall-clock deadline."
      $ corpus_arg
      $ Common.quiet_arg ~doc:"Suppress progress lines."
      $ consistency_arg $ tiered_consistency_arg $ soundiness_arg)
