(* validate: check a JSONL results store written by suite --json *)

open Cmdliner

let path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"A JSONL results file written by suite --json.")

let run path expect_engine =
  Common.guard @@ fun () ->
  let outcomes, skipped = Fleet.Store.load_lenient path in
  let count pred = List.length (List.filter pred outcomes) in
  let ok = count (fun (o : Fleet.outcome) -> o.Fleet.o_status = Fleet.Done) in
  let cached =
    count (fun (o : Fleet.outcome) -> o.Fleet.o_status = Fleet.Cached)
  in
  let timeout =
    count (fun (o : Fleet.outcome) -> o.Fleet.o_status = Fleet.Timed_out)
  in
  let failed =
    count (fun (o : Fleet.outcome) ->
        match o.Fleet.o_status with Fleet.Failed _ -> true | _ -> false)
  in
  Printf.printf "%s: %d record%s (%d ok, %d cached, %d failed, %d timeout%s)\n"
    path (List.length outcomes)
    (if List.length outcomes = 1 then "" else "s")
    ok cached failed timeout
    (if skipped = 0 then ""
     else Printf.sprintf ", %d truncated record skipped" skipped);
  let engines =
    List.sort_uniq compare
      (List.map (fun (o : Fleet.outcome) -> o.Fleet.o_engine) outcomes)
  in
  let engines =
    List.filter (fun e -> e = "full") engines
    @ List.filter (fun e -> e <> "full") engines
  in
  if engines <> [] then
    Printf.printf "engines: %s\n"
      (String.concat ", "
         (List.map
            (fun e ->
              Printf.sprintf "%s %d" e
                (count (fun (o : Fleet.outcome) -> o.Fleet.o_engine = e)))
            engines));
  (* records from an engine this binary does not know are always
     invalid: they cannot be compared against anything *)
  let unknown =
    List.filter
      (fun (o : Fleet.outcome) ->
        Core.Config.engine_of_name o.Fleet.o_engine = None)
      outcomes
  in
  List.iter
    (fun (o : Fleet.outcome) ->
      Printf.eprintf "error: record %s has unknown engine %S\n" o.Fleet.o_name
        o.Fleet.o_engine)
    unknown;
  let mismatched =
    match expect_engine with
    | None -> []
    | Some want ->
        let want = Core.Config.engine_name want in
        let mismatched =
          List.filter
            (fun (o : Fleet.outcome) -> o.Fleet.o_engine <> want)
            outcomes
        in
        List.iter
          (fun (o : Fleet.outcome) ->
            Printf.eprintf
              "error: record %s came from the %s engine, expected %s\n"
              o.Fleet.o_name o.Fleet.o_engine want)
          mismatched;
        mismatched
  in
  if failed > 0 || timeout > 0 || skipped > 0 || mismatched <> [] || unknown <> []
  then begin
    Printf.eprintf
      "error: store has %d failed, %d timeout, %d truncated, %d \
       engine-mismatched record(s)\n"
      failed timeout skipped
      (List.length mismatched + List.length unknown);
    1
  end
  else 0

let cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Parse a JSONL results store, report per-status counts, and exit \
          nonzero if any record is failed, timed out, engine-mismatched, or \
          invalid.")
    Term.(
      const run $ path_arg
      $ Common.engine_opt_arg
          ~doc:
            "Require every record to come from this engine (full, sanitize \
             or tiered); any other record fails validation.")
