(* suite: batch analysis of FPBench programs over the fleet *)

open Cmdliner

let names_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"NAME"
        ~doc:
          "Benchmarks to analyze (default: the whole vendored FPBench \
           suite).")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Re-analyze every benchmark even if --json holds results.")

let group_arg =
  Arg.(
    value & opt (some (enum [ ("straight", `Straight); ("loop", `Loop) ])) None
    & info [ "group" ] ~docv:"GROUP"
        ~doc:"Restrict to one benchmark group (straight|loop).")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ] ~doc:"Exit nonzero if any job failed or timed out.")

let dir_arg =
  Arg.(
    value & opt_all string []
    & info [ "dir" ] ~docv:"DIR"
        ~doc:
          "Ingest an external corpus: every .fpcore file (FPCore form \
           stream) and .json file (Herbie-style datafile) in $(docv) \
           becomes a suite job. Malformed inputs become structured \
           failed records, not crashes. Repeatable.")

let datafile_arg =
  Arg.(
    value & opt_all string []
    & info [ "datafile" ] ~docv:"FILE"
        ~doc:
          "Ingest a Herbie-style JSON datafile: each test entry's FPCore \
           input becomes a suite job. Repeatable.")

let run names jobs timeout iterations precision threshold json_path no_cache
    group seed quiet strict engine dirs datafiles =
  let cfg =
    {
      Core.Config.default with
      Core.Config.precision;
      error_threshold = threshold;
      engine;
    }
  in
  Common.guard @@ fun () ->
  (* external corpora replace the vendored suite unless benchmarks
     are also named explicitly *)
  let vendored =
    if (dirs = [] && datafiles = []) || names <> [] then
      Fpcore.Suite.enumerate ~iterations ~seed ~names ?group ()
    else []
  in
  let loaded =
    Fpcore.Suite.dedup_loaded
      (Fpcore.Suite.merge_loaded
         (List.map Fpcore.Suite.load_path dirs
         @ List.map Fpcore.Suite.load_datafile datafiles))
  in
  let engine_name = Core.Config.engine_name engine in
  let failed_specs =
    List.map
      (fun (e : Fpcore.Suite.load_error) ->
        {
          Fleet.sp_name = e.Fpcore.Suite.le_name;
          sp_group = "ingest";
          sp_key = "";
          sp_engine = engine_name;
          sp_work =
            (fun ~tick:_ ->
              failwith
                (Printf.sprintf "%s: %s" e.Fpcore.Suite.le_file
                   e.Fpcore.Suite.le_reason));
        })
      loaded.Fpcore.Suite.l_failures
  in
  let specs =
    List.map (Fleet.bench_spec ~cfg)
      (vendored @ Fpcore.Suite.jobs_of_loaded ~iterations ~seed loaded)
    @ failed_specs
  in
  let cache =
    match json_path with
    | Some path when not no_cache -> (
        try Some (Fleet.Store.cache_of_file path)
        with Json.Parse_error msg ->
          failwith
            (Printf.sprintf
               "corrupt results store (%s); pass --no-cache or delete the file"
               msg))
    | _ -> None
  in
  let on_progress =
    if quiet then None
    else
      Some
        (fun (p : Fleet.progress) ->
          Printf.eprintf "[%3d/%3d] %-8s %-24s %6.2fs\n%!" p.Fleet.pr_done
            p.Fleet.pr_total
            (Fleet.Store.status_to_string p.Fleet.pr_last.Fleet.o_status)
            p.Fleet.pr_last.Fleet.o_name p.Fleet.pr_last.Fleet.o_wall_s)
  in
  let outcomes = Fleet.run ~jobs ?timeout ?cache ?on_progress specs in
  Option.iter (fun path -> Fleet.Store.save path outcomes) json_path;
  print_string (Fleet.Store.summary_table outcomes);
  let bad =
    List.exists
      (fun (o : Fleet.outcome) ->
        match o.Fleet.o_status with
        | Fleet.Failed _ | Fleet.Timed_out -> true
        | Fleet.Done | Fleet.Cached -> false)
      outcomes
  in
  if strict && bad then 1 else 0

let cmd =
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Batch-analyze FPBench benchmarks on a parallel, fault-isolated \
          worker pool, with JSONL results and caching.")
    Term.(
      const run $ names_arg
      $ Common.jobs_arg ~doc:"Worker domains to run jobs on."
      $ Common.timeout_arg
          ~doc:
            "Per-job wall-clock deadline; an overrunning job is marked \
             timeout instead of stalling the fleet."
      $ Common.iterations_arg () $ Common.precision_arg $ Common.threshold_arg
      $ Common.json_arg
          ~doc:
            "Write per-benchmark results as JSON lines to $(docv). If the \
             file already exists it also serves as a result cache: jobs \
             whose content hash (source, sampling, config) is unchanged \
             are skipped."
      $ no_cache_arg $ group_arg
      $ Common.seed_arg ~default:1 ~doc:"Input sampling seed."
      $ Common.quiet_arg ~doc:"Suppress per-job progress lines."
      $ strict_arg $ Common.engine_arg () $ dir_arg $ datafile_arg)
