(* regime-sweep: [Regime.infer] over the 72 straight-line programs at the
   official configuration (points 96, depth 4, penalty 0.05; Bigfloat at
   256 bits), repeated for the timed window.

   The timed passes use the official seed, 42, at every run seed: the
   search's cost moves with its sample points, so seeded timed passes
   would make run-to-run spread a property of the seed. The run's seed
   drives one more, untimed pass, whose throughput is printed and whose
   reports are checked too.

   [Regime.infer] is a pure function of (benchmark, seed, knobs): every
   timed pass must reproduce the first pass's reports byte for byte, and
   the first benchmarks of the seeded pass must reproduce when re-run.
   The official configuration is documented to ship zero UNSOUND fixes
   on the seed-42 sweep, so there an unsound fix is a failure; the
   seeded pass's count is printed, not failed (the soundness verdict is
   a statistical test the configuration was tuned against at 42). *)

module S = Fpcore.Suite

let official_seed = 42
let benches () = List.filter (fun b -> b.S.group = `Straight) S.all |> Array.of_list

let infer ~seed b =
  Regime.infer ~points:Regime.official_points ~depth:Regime.official_depth
    ~opts:Regime.official_options ~seed b

type pass = {
  reports : (Regime.report, string) result array;
  walls : float array;  (* per benchmark *)
  work_s : float;  (* all inferences *)
  factor : float;  (* reference seconds per second over this pass *)
}

let run_pass ~seed bs : pass =
  let walls = Array.make (Array.length bs) 0.0 in
  Calib.reset ();
  let reports =
    Array.mapi
      (fun i b ->
        Calib.slice ();
        let r, dt =
          Util.time (fun () ->
              Span.with_span ~req:i "regime.infer" (fun () ->
                  match infer ~seed b with
                  | r -> Ok r
                  | exception e -> Error (Printexc.to_string e)))
        in
        walls.(i) <- dt;
        r)
      bs
  in
  { reports; walls; work_s = Util.sum (Array.to_list walls); factor = snd (Calib.window ()) }

(* what a run does before its first inference: parse every benchmark and
   sample its search context; raw and reference seconds *)
let setup_once ~seed bs =
  Calib.reset ();
  let work = ref 0.0 in
  Span.with_span "setup" (fun () ->
      Array.iter
        (fun b ->
          Calib.slice ();
          work :=
            !work
            +. snd
                 (Util.time (fun () ->
                      ignore (S.core_of b);
                      ignore (Regime.Sampler.context ~seed ~n:Regime.official_points b))))
        bs);
  (!work, !work *. snd (Calib.window ()))

let render = function
  | Ok r -> Fleet.Json.to_string (Regime.to_json r)
  | Error e -> "error: " ^ e

let unsound p =
  Array.fold_left
    (fun a -> function
      | Ok r when not r.Regime.re_soundness.Rewrite.Soundness.r_sound -> a + 1
      | _ -> a)
    0 p.reports

let run ~seed ~seconds ~trace : Outcome.t =
  let bs = benches () in
  let n = Array.length bs in
  let setups = List.init 5 (fun _ -> setup_once ~seed:official_seed bs) in
  let setup_raw = Util.median (List.map fst setups) in
  let setup_s = Util.median (List.map snd setups) in
  let rss = ref 0.0 in
  let passes =
    Util.repeat_for ~seconds ~min:2 (fun i ->
        let p = run_pass ~seed:official_seed bs in
        if i = 0 then rss := Util.peak_rss_mb (Unix.getpid ());
        p)
  in
  let traced =
    if not trace then []
    else begin
      Span.enabled := true;
      let ps =
        Util.repeat_for ~seconds:(seconds /. 2.0) ~min:1 (fun _ ->
            ignore (setup_once ~seed:official_seed bs);
            let p = run_pass ~seed:official_seed bs in
            (p, Span.take ()))
      in
      Span.enabled := false;
      ps
    end
  in
  (* correctness *)
  let problems = ref [] and wrong = ref 0 in
  let problem s =
    problems := s :: !problems;
    incr wrong
  in
  let first = Array.map render (List.hd passes).reports in
  List.iter
    (fun p ->
      Array.iteri
        (fun i r ->
          match r with
          | Error e -> problem (Printf.sprintf "%s: %s" bs.(i).S.name e)
          | Ok _ ->
              if render r <> first.(i) then
                problem
                  (Printf.sprintf "%s: report differs between passes" bs.(i).S.name))
        p.reports)
    (passes @ List.map fst traced);
  let unsound_n = unsound (List.hd passes) in
  if unsound_n > 0 then
    problem (Printf.sprintf "%d unsound fixes at the official seed" unsound_n);
  (* the seeded pass *)
  let sp = run_pass ~seed bs in
  let recheck = 8 in
  Array.iteri
    (fun i r ->
      match r with
      | Error e -> problem (Printf.sprintf "%s at seed %d: %s" bs.(i).S.name seed e)
      | Ok _ when i < recheck ->
          if render (Ok (infer ~seed bs.(i))) <> render r then
            problem (Printf.sprintf "%s at seed %d: report differs when re-run" bs.(i).S.name seed)
      | Ok _ -> ())
    sp.reports;
  (* figures *)
  let walls = List.map (fun p -> p.work_s) passes in
  let thr = float_of_int n /. Util.median walls in
  let ref_thr =
    float_of_int n
    /. Util.median (List.map (fun p -> p.work_s *. p.factor) passes)
  in
  let rss = !rss in
  let attempted = n * (List.length passes + List.length traced + 1) in
  let failed = !wrong in
  let layers, spans =
    if not trace then ([], [])
    else begin
      let all_spans = List.concat_map snd traced in
      let self name =
        Util.median
          (List.map (fun (_, sp) -> Span.self_of (Span.self_times sp) name) traced)
      in
      let p0 = List.hd passes in
      let count f = float_of_int (Array.fold_left (fun a r -> match r with Ok r -> a + f r | Error _ -> a) 0 p0.reports) in
      let tw = List.map (fun (p, _) -> p.work_s *. p.factor) traced in
      let walls = List.map (fun p -> p.work_s *. p.factor) passes in
      ( [
          ("regime.infer_s", self "regime.infer");
          ("regime.infer_p88_ms",
            1000.0 *. Util.quantile 0.88 (Span.durations "regime.infer" all_spans));
          ("regime.search_points", count (fun r -> r.Regime.re_search_points));
          ("regime.branched", count (fun r -> if r.Regime.re_selected = "branched" then 1 else 0));
          ("regime.unsound", float_of_int unsound_n);
          ( "trace.overhead_pct",
            100.0 *. (Util.median tw -. Util.median walls) /. Util.median walls );
        ],
        all_spans )
    end
  in
  {
    Outcome.attempted;
    failed;
    problems = List.rev !problems;
    warnings = [];
    e2e =
      [
        Outcome.metric ~n:5 "setup_s" "s" setup_s;
        Outcome.metric "peak_rss_mb" "MB" rss;
        Outcome.metric ~n:(List.length walls) "throughput_per_s" "1/s" ref_thr;
      ];
    named =
      [
        Outcome.metric ~n:5 "setup_s" "s" setup_raw;
        Outcome.metric ~n:attempted "failed_frac" "ratio"
          (float_of_int failed /. float_of_int (max 1 attempted));
        Outcome.metric "peak_rss_mb" "MB" rss;
        Outcome.metric ~n:(List.length walls) "sweep_programs_per_s" "programs/s" thr;
        Outcome.metric ~n:n "unsound_fixes" "count" (float_of_int unsound_n);
        Outcome.metric ~n "sweep_programs_per_s_seeded" "programs/s" (float_of_int n /. sp.work_s);
        Outcome.metric ~n "unsound_fixes_seeded" "count" (float_of_int (unsound sp));
      ]
      @ [
          Outcome.metric ~n:(List.length passes) "calib_factor" "x"
            (Util.median (List.map (fun p -> p.factor) passes));
        ];
    layers;
    spans;
  }
