(* improve: rewrite search, optionally with regime inference *)

open Cmdliner

(* "bench:NAME" resolves to a suite benchmark with its sampling ranges;
   raw FPCore source gets a synthetic bench whose every variable samples
   [lo, hi] independently (log-uniformly when positive). Both paths draw
   the point context from the suite's seeded xorshift stream — the old
   diagonal sampling (every variable at the same value per point)
   amounted to scoring candidates on a single representative axis and
   was exactly the overfit the soundiness oracle kept flagging. *)
let bench_of ~lo ~hi (src : string) : Fpcore.Suite.bench =
  match Common.bench_name src with
  | Some name -> Fpcore.Suite.find name
  | None ->
      let core = Fpcore.Parse.parse_core src in
      Regime.Sampler.bench_of_ranges ~name:"<request>" ~src
        (List.map (fun v -> (v, lo, hi)) core.Fpcore.Ast.args)

let expr_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FPCORE"
        ~doc:
          "An FPCore expression to improve, or bench:NAME for a suite \
           benchmark (sampled over its own input ranges). Unused with \
           --sweep.")

let lo_arg =
  Arg.(value & opt float 1.0 & info [ "lo" ] ~doc:"Sample range low end.")

let hi_arg =
  Arg.(value & opt float 1e9 & info [ "hi" ] ~doc:"Sample range high end.")

let points_arg =
  Arg.(
    value & opt int 24
    & info [ "points" ] ~docv:"N" ~doc:"Points per sampled context.")

let beam_arg =
  Arg.(value & opt int 8 & info [ "beam" ] ~docv:"N" ~doc:"Beam width.")

let depth_arg =
  Arg.(value & opt int 3 & info [ "depth" ] ~docv:"N" ~doc:"Rewrite depth.")

let regimes_arg =
  Arg.(
    value & flag
    & info [ "regimes" ]
        ~doc:
          "Infer input regimes: branch between beam candidates along a \
           single-variable threshold when that lowers total predicted \
           error past an MDL penalty, then re-validate the branched fix \
           on a disjoint resampled context. Prints the actual-vs-\
           predicted error table; exits 1 if the fix is unsound.")

let penalty_arg =
  Arg.(
    value & opt float 0.5
    & info [ "penalty" ] ~docv:"BITS"
        ~doc:"MDL penalty per context point per extra regime.")

let sweep_arg =
  Arg.(
    value & flag
    & info [ "sweep" ]
        ~doc:
          "Run --regimes over every straight-line suite benchmark \
           (ignoring FPCORE), one JSON line per benchmark on --json.")

let minic_arg =
  Arg.(
    value & flag
    & info [ "minic" ] ~doc:"Also print the branched fix as MiniC.")

let run src lo hi seed points beam depth regimes penalty sweep json minic =
  let opts =
    { Regime.Search.default_options with Regime.Search.penalty_bits = penalty }
  in
  let json_out lines =
    match json with
    | None -> ()
    | Some "-" -> List.iter print_endline lines
    | Some path ->
        let oc = open_out path in
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        close_out oc
  in
  let with_wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let report_line (r : Regime.report) wall =
    match Regime.to_json r with
    | Json.Obj kvs ->
        Json.to_string (Json.Obj (kvs @ [ ("wall_s", Json.Num wall) ]))
    | j -> Json.to_string j
  in
  Common.guard @@ fun () ->
  if sweep then begin
    let benches =
      List.filter (fun b -> b.Fpcore.Suite.group = `Straight) Fpcore.Suite.all
    in
    let lines =
      List.map
        (fun b ->
          let r, wall =
            with_wall (fun () -> Regime.infer ~beam ~depth ~points ~seed ~opts b)
          in
          let act_after =
            match r.Regime.re_selected with
            | "branched" -> r.Regime.re_act_branched
            | "single" -> r.Regime.re_act_single
            | _ -> r.Regime.re_act_before
          in
          Printf.eprintf "%-20s %d regimes  %-8s  %s -> %s bits on resample%s\n%!"
            b.Fpcore.Suite.name
            (Regime.selected_regimes r.Regime.re_selected r.Regime.re_regimes)
            r.Regime.re_selected
            (Rewrite.Soundness.fmt_bits r.Regime.re_act_before)
            (Rewrite.Soundness.fmt_bits act_after)
            (if r.Regime.re_soundness.Rewrite.Soundness.r_sound then ""
             else "  UNSOUND");
          report_line r wall)
        benches
    in
    json_out lines;
    0
  end
  else begin
    let src =
      match src with
      | Some s -> s
      | None -> failwith "FPCORE argument required without --sweep"
    in
    let bench = bench_of ~lo ~hi src in
    if regimes then begin
      let r, wall =
        with_wall (fun () -> Regime.infer ~beam ~depth ~points ~seed ~opts bench)
      in
      print_endline (Regime.table r);
      if minic then begin
        match Regime.Emit.minic_program ~args:r.Regime.re_args r.Regime.re_fix with
        | src -> Printf.printf "--- minic ---\n%s" src
        | exception Regime.Emit.Unsupported what ->
            Printf.printf "--- minic: unsupported (%s) ---\n" what
      end;
      json_out [ report_line r wall ];
      if r.Regime.re_soundness.Rewrite.Soundness.r_sound then 0 else 1
    end
    else begin
      let core = Fpcore.Suite.core_of bench in
      let samples = Regime.Sampler.context ~seed ~n:points bench in
      let r = Rewrite.Improve.improve ~beam ~depth core.Fpcore.Ast.body samples in
      Printf.printf "error before: %.2f bits\nerror after:  %.2f bits\n"
        r.Rewrite.Improve.error_before r.Rewrite.Improve.error_after;
      Printf.printf "improved: %s\n"
        (Regime.Emit.render_core ~args:core.Fpcore.Ast.args
           r.Rewrite.Improve.improved);
      0
    end
  end

let cmd =
  Cmd.v
    (Cmd.info "improve"
       ~doc:
         "Search for a more accurate equivalent of an FPCore expression, \
          optionally with regime inference (--regimes).")
    Term.(
      const run $ expr_arg $ lo_arg $ hi_arg
      $ Common.seed_arg ~default:42 ~doc:"Context seed."
      $ points_arg $ beam_arg $ depth_arg $ regimes_arg $ penalty_arg
      $ sweep_arg
      $ Common.json_arg
          ~doc:"Write the regime report(s) as JSON(L) to $(docv); - is stdout."
      $ minic_arg)
