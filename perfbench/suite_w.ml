(* The suite workloads: the 85 vendored FPBench programs, 16 inputs each,
   through [Fleet.run].

   suite-full   full engine: a pass at -j 1, one at -j 2, then -j 1 again
   suite-triage sanitize engine then tiered engine, at -j 1, repeated

   Each job does what [Fleet.bench_spec] does — parse, MiniC codegen,
   analysis, payload — through the same public calls, and also keeps
   the client outputs so they can be checked against [Vex.Machine.run].
   In the traced run the analysis is split into its layers (codegen,
   [Minic.compile], [Vex.Compile.get], [Core.Exec.run],
   [Core.Report.build]; the tiered engine into [Sanitize.Sexec.run],
   [Tiered.plan], [Vex.Slice.compute] and [Core.Analysis.analyze
   ~restrict]) with a span around each call, and its records must equal
   the untraced ones.

   The timed passes run every program at the pins' inputs (seed 1), so
   their work is the same at every seed: under the tiered engine the
   escalated set, and with it the pass's cost, moves by a fifth from one
   input seed to the next, which would bury any change worth detecting.
   The run's seed drives an untimed correctness pass instead: the 72
   straight-line programs at inputs drawn from the seed, under each of
   the workload's engines, checked like the timed passes. *)

module S = Fpcore.Suite

let iterations = 16
let pin_seed = 1
let max_steps = 200_000_000

(* the timed work, in the pins' order *)
let timed_jobs () : S.job array =
  Array.of_list (S.enumerate ~iterations ~seed:pin_seed ())

(* the seeded correctness pass *)
let seeded_jobs ~seed : S.job array =
  Array.of_list (S.enumerate ~iterations ~seed ~group:`Straight ())

let pinned (j : S.job) = j.S.job_seed = pin_seed
let cfg_of engine = { Core.Config.default with Core.Config.engine }
let engine_name = Core.Config.engine_name

(* ---------- one job ---------- *)

type side = {
  mutable outputs : Vex.Machine.output list;
  mutable entries : string list;  (* tiered pass-2 report entries *)
  mutable wall_s : float;
}

let inputs_of (j : S.job) =
  S.inputs_for ~seed:j.S.job_seed j.S.job_bench ~n:iterations

let codegen ~traced (b : S.bench) core =
  let name = b.S.name in
  if not traced then Fpcore.Compile.compile ~n_inputs:iterations ~name core
  else
    let src =
      Span.with_span "fpcore.to_minic" (fun () ->
          Fpcore.Compile.to_minic ~n_inputs:iterations core)
    in
    Span.with_span "minic.compile" (fun () ->
        Minic.compile ~file:(Fpcore.Compile.sanitize name ^ ".mc") src)

let full_result ~traced ~cfg ~inputs ~tick prog =
  if not traced then Core.Analysis.analyze ~cfg ~max_steps ~inputs ~tick prog
  else begin
    ignore
      (Span.with_span "vex.compile" (fun () ->
           Vex.Compile.get ~type_inference:cfg.Core.Config.type_inference prog));
    let raw =
      Span.with_span "core.exec" (fun () ->
          Core.Exec.run ~max_steps ~inputs ~tick cfg prog)
    in
    let report =
      Span.with_span "core.report" (fun () -> Core.Report.build ~cfg raw)
    in
    { Core.Analysis.raw; report; cfg }
  end

(* [Tiered.analyze] from its public parts *)
let tiered_result ~traced ~cfg ~inputs ~tick prog : Tiered.result =
  if not traced then Tiered.analyze ~cfg ~max_steps ~inputs ~tick prog
  else
    let san =
      Span.with_span "tiered.pass1" (fun () ->
          Sanitize.Sexec.run ~max_steps ~inputs ~tick cfg prog)
    in
    let seeds = Span.with_span "tiered.plan" (fun () -> Tiered.plan san) in
    match seeds with
    | [] ->
        {
          Tiered.t_san = san;
          t_full = None;
          t_seeds = [];
          t_slice_stmts = 0;
          t_cfg = cfg;
        }
    | _ ->
        let slice =
          Span.with_span "tiered.slice" (fun () ->
              Vex.Slice.compute prog ~seeds)
        in
        let full =
          Span.with_span "tiered.pass2" (fun () ->
              Core.Analysis.analyze ~cfg ~max_steps ~inputs
                ~restrict:(Vex.Slice.contains slice) ~tick prog)
        in
        {
          Tiered.t_san = san;
          t_full = Some full;
          t_seeds = seeds;
          t_slice_stmts = Vex.Slice.size slice;
          t_cfg = cfg;
        }

let spec ~traced ~engine ~req (side : side) (j : S.job) : Fleet.spec =
  let cfg = cfg_of engine in
  let b = j.S.job_bench in
  let name = b.S.name and group = Fleet.group_name b in
  let work ~tick =
    Calib.slice ();
    (* traced passes keep calibration out of the layers' spans *)
    let tick =
      if traced then tick
      else fun () ->
        tick ();
        Calib.tick ()
    in
    let t0 = Util.now_s () and c0 = Calib.domain_s () in
    let p =
      Span.with_span ~req "fleet.job" (fun () ->
          let core = S.core_of b in
          let inputs = inputs_of j in
          let prog = codegen ~traced b core in
          let nodes0 = Core.Trace.created_in_domain () in
          let mat0 = Core.Trace.materialized_in_domain () in
          match engine with
          | Core.Config.Full ->
              let r = full_result ~traced ~cfg ~inputs ~tick prog in
              side.outputs <- r.Core.Analysis.raw.Core.Exec.r_outputs;
              Fleet.payload_for ~name ~group ~nodes0 ~mat0 r
          | Core.Config.Sanitize ->
              let r =
                Span.with_span "sanitize.exec" (fun () ->
                    Sanitize.Sexec.run ~max_steps ~inputs ~tick cfg prog)
              in
              side.outputs <- Sanitize.Sexec.outputs r;
              Fleet.san_payload_for ~name ~group r
          | Core.Config.Tiered ->
              let r = tiered_result ~traced ~cfg ~inputs ~tick prog in
              side.outputs <- Tiered.outputs r;
              side.entries <-
                (match r.Tiered.t_full with
                | Some f ->
                    List.map Core.Report.entry_to_string
                      f.Core.Analysis.report.Core.Report.entries
                | None -> []);
              Fleet.tiered_payload_for ~name ~group ~nodes0 ~mat0 r)
    in
    side.wall_s <- Util.now_s () -. t0 -. (Calib.domain_s () -. c0);
    p
  in
  {
    Fleet.sp_name = name;
    sp_group = group;
    sp_key = Fleet.job_key ~cfg j;
    sp_engine = engine_name engine;
    sp_work = work;
  }

(* ---------- passes ---------- *)

type pass = {
  id : int;  (* unique within the run *)
  engine : Core.Config.engine;
  domains : int;
  outcomes : Fleet.outcome array;
  sides : side array;
  work_s : float;  (* wall time minus the calibration slices *)
  factor : float;  (* reference seconds per second over this pass *)
}

(* Each pass runs on a freshly spawned domain. The shadow engines keep
   per-domain state — a libm memo keyed by exact arguments, a scratch
   memory buffer — so a second pass over the same inputs on the same
   domain would find every libm result memoized (pendulum drops from
   about 3 s to 0.3 s), which no one-shot `fpgrind suite` run sees. *)
let pass_ids = Atomic.make 0

let run_pass ~traced ~engine ~domains (js : S.job array) : pass =
  let sides =
    Array.map (fun _ -> { outputs = []; entries = []; wall_s = 0.0 }) js
  in
  let specs =
    List.init (Array.length js) (fun i ->
        spec ~traced ~engine ~req:i sides.(i) js.(i))
  in
  Calib.reset ();
  let outcomes, wall_s =
    Domain.join
      (Domain.spawn (fun () ->
           Util.time (fun () ->
               Span.with_span "fleet.run" (fun () -> Fleet.run ~jobs:domains specs))))
  in
  let calib_s, factor = Calib.window () in
  let work_s = wall_s -. (calib_s /. float_of_int domains) in
  {
    id = Atomic.fetch_and_add pass_ids 1;
    engine;
    domains;
    outcomes = Array.of_list outcomes;
    sides;
    work_s;
    factor;
  }

(* Parse, codegen and compile every program: what a run does before its
   first analysis. [Vex.Compile.compile] bypasses the cache so every
   repetition does the full work; [fill] then primes the cache. Returns
   the programs and the set-up time in reference seconds (a calibration
   slice runs before each program, outside the timed part). *)
let setup_once ~traced (js : S.job array) : Vex.Ir.prog array * float * float =
  Calib.reset ();
  let work = ref 0.0 in
  let progs =
    Span.with_span "setup" (fun () ->
        Array.map
          (fun (j : S.job) ->
            Calib.slice ();
            let b = j.S.job_bench in
            let prog, dt =
              Util.time (fun () ->
                  let prog = codegen ~traced b (S.core_of b) in
                  ignore
                    (Span.with_span "vex.compile" (fun () ->
                         Vex.Compile.compile ~type_inference:true prog));
                  prog)
            in
            work := !work +. dt;
            prog)
          js)
  in
  (progs, !work, !work *. snd (Calib.window ()))

let fill progs =
  Array.iter (fun p -> ignore (Vex.Compile.get ~type_inference:true p)) progs

let native ~req prog inputs =
  Span.with_span ~req "vex.native" (fun () ->
      Vex.Machine.outputs (Vex.Machine.run ~max_steps ~inputs prog))

(* ---------- correctness ---------- *)

let rec scrub drop (j : Fleet.Json.t) : Fleet.Json.t =
  match j with
  | Fleet.Json.Obj kvs ->
      Fleet.Json.Obj
        (List.filter_map
           (fun (k, v) -> if List.mem k drop then None else Some (k, scrub drop v))
           kvs)
  | Fleet.Json.Arr xs -> Fleet.Json.Arr (List.map (scrub drop) xs)
  | x -> x

(* the pins' canonical form: timing and dispatch counters scrubbed *)
let pin_drop = [ "wall_s"; "stmts_executed"; "traces_materialized" ]
let canon_json j = Fleet.Json.to_string (scrub pin_drop j)
let canon (o : Fleet.outcome) = canon_json (Fleet.Store.outcome_to_json o)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      Some (Array.of_list (go []))

(* the pinned records of one engine, by benchmark name *)
let pins engine : (string, string) Hashtbl.t option =
  match
    read_lines
      (Printf.sprintf "test/data/compile_suite_%s.jsonl" (engine_name engine))
  with
  | None -> None
  | Some lines ->
      let t = Hashtbl.create 97 in
      Array.iter
        (fun l -> Hashtbl.replace t (Fleet.Json.get_str "name" (Fleet.Json.of_string l)) l)
        lines;
      Some t

(* Mismatches, and the jobs they concern: a job counts once among the
   failed however many of its checks fail. *)
type checks = { mutable problems : string list; bad : (string, unit) Hashtbl.t }

let problem c ~job fmt =
  Printf.ksprintf
    (fun s ->
      c.problems <- s :: c.problems;
      Hashtbl.replace c.bad job ())
    fmt

let same_outputs (a : Vex.Machine.output list) (b : Vex.Machine.output list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Vex.Machine.output) (y : Vex.Machine.output) ->
         x.Vex.Machine.stmt_id = y.Vex.Machine.stmt_id
         && x.Vex.Machine.kind = y.Vex.Machine.kind
         && compare x.Vex.Machine.value y.Vex.Machine.value = 0)
       a b

(* Every pass: every job done; records equal the pins where the inputs
   are the pins' (all at the default seed, the looping programs at every
   seed) and equal the first pass of the same engine; client outputs
   equal [Vex.Machine.run]'s. *)
let check_passes c (js : S.job array) (natives : Vex.Machine.output list array)
    (passes : pass list) =
  let firsts = Hashtbl.create 3 in
  List.iter
    (fun p ->
      let pin = pins p.engine in
      if pin = None then
        problem c ~job:"pins" "pins for the %s engine not found" (engine_name p.engine);
      let first =
        match Hashtbl.find_opt firsts p.engine with
        | Some f -> f
        | None ->
            let f = Array.map canon p.outcomes in
            Hashtbl.replace firsts p.engine f;
            f
      in
      Array.iteri
        (fun i (o : Fleet.outcome) ->
          let what =
            Printf.sprintf "%s %s -j %d" o.Fleet.o_name (engine_name p.engine)
              p.domains
          and job = Printf.sprintf "%d:%d" p.id i in
          match o.Fleet.o_status with
          | Fleet.Done ->
              let r = canon o in
              if r <> first.(i) then problem c ~job "%s: record differs between passes" what;
              (match pin with
              | Some t when pinned js.(i) ->
                  if Hashtbl.find_opt t o.Fleet.o_name <> Some r then
                    problem c ~job "%s: record differs from its pin" what
              | _ -> ());
              if not (same_outputs p.sides.(i).outputs natives.(i)) then
                problem c ~job "%s: client outputs differ from Vex.Machine.run" what
          | Fleet.Failed msg -> problem c ~job "%s: failed: %s" what msg
          | Fleet.Timed_out -> problem c ~job "%s: timed out" what
          | Fleet.Cached -> problem c ~job "%s: unexpectedly cached" what)
        p.outcomes)
    passes

(* Every spot the tiered engine reports must read exactly as in the full
   engine's record for that job: the pin where the inputs are the pins',
   else a fresh full-engine run. *)
let check_tiered_spots c (js : S.job array) (p : pass) =
  let full_pins = pins Core.Config.Full in
  Array.iteri
    (fun i (side : side) ->
      if side.entries <> [] then begin
        let name = js.(i).S.job_bench.S.name in
        let full_report =
          match Option.bind full_pins (fun t -> Hashtbl.find_opt t name) with
          | Some line when pinned js.(i) ->
              Fleet.Json.get_str "report" (Fleet.Json.of_string line)
          | _ -> (
              let spec = Fleet.bench_spec ~cfg:(cfg_of Core.Config.Full) js.(i) in
              match Fleet.run ~jobs:1 [ spec ] with
              | [ { Fleet.o_payload = Some pl; _ } ] -> pl.Fleet.p_report
              | _ -> "")
        in
        List.iter
          (fun e ->
            if not (Util.contains full_report e) then
              problem c ~job:(Printf.sprintf "%d:%d" p.id i)
                "%s: tiered spot differs from the full engine: %s" name
                (String.trim (List.hd (String.split_on_char '\n' e))))
          side.entries
      end)
    p.sides

(* ---------- the workloads ---------- *)

(* [Vex.Compile.get] calls the passes made: one per engine run, two for
   an escalated tiered job (pass 1, then pass 2 under its slice mask) *)
let compile_gets passes =
  List.fold_left
    (fun acc p ->
      Array.fold_left
        (fun a (o : Fleet.outcome) ->
          match o.Fleet.o_payload with
          | Some pl when pl.Fleet.p_metrics.Fleet.m_escalations > 0 -> a + 2
          | _ -> a + 1)
        acc p.outcomes)
    0 passes

let setup_reps = 5

let programs_per_s n passes =
  let walls = List.map (fun p -> p.work_s) passes in
  (float_of_int n /. Util.median walls, List.length walls)

let job_walls passes =
  List.concat_map (fun p -> Array.to_list (Array.map (fun (s : side) -> s.wall_s) p.sides)) passes

(* The passes of each workload: one round of [schedule], then [repeat]
   in turn. suite-full measures -j 2 once and then repeats -j 1, the
   gated configuration, so the window holds as many -j 1 passes as it
   can. *)
let schedule = function
  | `Full -> [| (Core.Config.Full, 1); (Core.Config.Full, 2) |]
  | `Triage -> [| (Core.Config.Sanitize, 1); (Core.Config.Tiered, 1) |]

let repeat = function
  | `Full -> [| (Core.Config.Full, 1) |]
  | `Triage -> schedule `Triage

let nth_pass kind i =
  let round = schedule kind and again = repeat kind in
  if i < Array.length round then round.(i)
  else again.((i - Array.length round) mod Array.length again)

let headline = function
  | `Full -> (Core.Config.Full, 1)
  | `Triage -> (Core.Config.Tiered, 1)

let select (e, d) passes =
  List.filter (fun p -> p.engine = e && p.domains = d) passes

(* Per-layer metrics from one traced round's spans. *)
let layer_metrics ~(js : S.job array) ~progs (rounds : (Span.t list * pass list) list)
    ~untraced_passes ~head_passes =
  let med f = Util.median (List.map f rounds) in
  let self name =
    med (fun (spans, _) -> Span.self_of (Span.self_times spans) name)
  in
  (* per job: analysis time over native time, geometric mean *)
  let overhead names =
    med (fun (spans, _) ->
        let by_req = Hashtbl.create 97 in
        List.iter
          (fun (sp : Span.t) ->
            if sp.Span.req >= 0 then
              let a, n =
                Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt by_req sp.Span.req)
              in
              let d = Span.duration_s sp in
              if sp.Span.name = "vex.native" then Hashtbl.replace by_req sp.Span.req (a, n +. d)
              else if List.mem sp.Span.name names then
                Hashtbl.replace by_req sp.Span.req (a +. d, n))
          spans;
        Util.geomean
          (Hashtbl.fold
             (fun _ (a, n) acc -> if a > 0.0 && n > 0.0 then (a /. n) :: acc else acc)
             by_req []))
  in
  let stmts =
    Array.fold_left
      (fun acc (p : Vex.Ir.prog) ->
        Array.fold_left
          (fun a (b : Vex.Ir.block) -> a + Array.length b.Vex.Ir.stmts)
          acc p.Vex.Ir.blocks)
      0 progs
  in
  let cblocks =
    Array.fold_left
      (fun acc p ->
        acc + Array.length (Vex.Compile.get ~type_inference:true p).Vex.Compile.cblocks)
      0 progs
  in
  let metric_sum e f =
    med (fun (_, ps) ->
        match select (e, 1) ps with
        | p :: _ ->
            Array.fold_left
              (fun a (o : Fleet.outcome) ->
                match o.Fleet.o_payload with Some pl -> a +. f pl.Fleet.p_metrics | None -> a)
              0.0 p.outcomes
        | [] -> 0.0)
  in
  let full_ops = metric_sum Core.Config.Full (fun m -> float_of_int m.Fleet.m_fp_ops) in
  let nodes = metric_sum Core.Config.Full (fun m -> float_of_int m.Fleet.m_trace_nodes) in
  let mat = metric_sum Core.Config.Full (fun m -> float_of_int m.Fleet.m_traces_materialized) in
  let san_ops = metric_sum Core.Config.Sanitize (fun m -> float_of_int m.Fleet.m_fp_ops) in
  let escalated = metric_sum Core.Config.Tiered (fun m -> float_of_int m.Fleet.m_escalations) in
  let slice_stmts = metric_sum Core.Config.Tiered (fun m -> float_of_int m.Fleet.m_slice_stmts) in
  let n = float_of_int (Array.length js) in
  (* job latencies and the longest job's share, from the untraced
     headline passes *)
  let walls = job_walls head_passes in
  let job_ms q = 1000.0 *. Util.quantile q walls in
  let top_share =
    Util.median
      (List.map
         (fun p ->
           let d = Array.to_list (Array.map (fun (s : side) -> s.wall_s) p.sides) in
           List.fold_left Float.max 0.0 d /. Util.sum d)
         head_passes)
  in
  let eff_j2 =
    match
      ( select (Core.Config.Full, 1) untraced_passes,
        select (Core.Config.Full, 2) untraced_passes )
    with
    | (_ :: _ as p1), (_ :: _ as p2) ->
        let m ps = Util.median (List.map (fun p -> p.work_s) ps) in
        m p1 /. m p2 /. 2.0
    | _ -> 0.0
  in
  let exec_s = self "core.exec" in
  [
    ("fpcore.to_minic_s", self "fpcore.to_minic");
    ("minic.compile_s", self "minic.compile");
    ("minic.vex_stmts", float_of_int stmts);
    ("vex.compile_s", self "vex.compile");
    ("vex.cblocks", float_of_int cblocks);
    ("vex.native_s", self "vex.native");
    ("core.exec_s", exec_s);
    ("core.report_s", self "core.report");
    ("core.fp_ops", full_ops);
    ("core.ns_per_fp_op", if full_ops > 0.0 then 1e9 *. exec_s /. full_ops else 0.0);
    ("core.trace_nodes", nodes);
    ("core.trace_materialized_ratio", if nodes > 0.0 then mat /. nodes else 0.0);
    ("core.overhead_x", overhead [ "core.exec"; "core.report" ]);
    ("sanitize.exec_s", self "sanitize.exec");
    ("sanitize.shadow_ops", san_ops);
    ("sanitize.overhead_x", overhead [ "sanitize.exec" ]);
    ("tiered.pass1_s", self "tiered.pass1");
    ("tiered.plan_s", self "tiered.plan");
    ("tiered.slice_s", self "tiered.slice");
    ("tiered.pass2_s", self "tiered.pass2");
    ("tiered.escalated", escalated);
    ("tiered.slice_stmts", slice_stmts);
    ("tiered.escalation_ratio", escalated /. n);
    ("fleet.job_p50_ms", job_ms 0.5);
    ("fleet.job_p88_ms", job_ms 0.88);
    ("fleet.top_job_share", top_share);
    ("fleet.parallel_efficiency_j2", eff_j2);
  ]

let run ~kind ~seed ~seconds ~trace : Outcome.t =
  let js = timed_jobs () in
  let n = Array.length js in
  (* set-up, several times; the median is the figure *)
  let setups = List.init setup_reps (fun _ -> setup_once ~traced:false js) in
  let progs = match setups with (p, _, _) :: _ -> p | [] -> [||] in
  fill progs;
  let setup_raw = Util.median (List.map (fun (_, r, _) -> r) setups) in
  let setup_s = Util.median (List.map (fun (_, _, s) -> s) setups) in
  (* the timed window *)
  let sched = schedule kind in
  let hits0 = Vex.Compile.cache_hits_total () in
  (* peak memory after one round of the schedule: fixed work, whatever
     the machine's speed *)
  let rss = ref 0.0 in
  let passes =
    Util.repeat_for ~seconds ~min:(Array.length sched) (fun i ->
        let engine, domains = nth_pass kind i in
        let p = run_pass ~traced:false ~engine ~domains js in
        if i = Array.length sched - 1 then rss := Util.peak_rss_mb (Unix.getpid ());
        p)
  in
  let hits = Vex.Compile.cache_hits_total () - hits0 in
  (* traced rounds: a traced set-up and one pass of each engine *)
  let rounds =
    if not trace then []
    else begin
      Span.enabled := true;
      let rounds =
        Util.repeat_for ~seconds:(seconds /. 2.0) ~min:1 (fun _ ->
            ignore (setup_once ~traced:true js);
            let ps =
              Array.to_list sched
              |> List.filter (fun (_, d) -> d = 1)
              |> List.map (fun (engine, domains) ->
                     run_pass ~traced:true ~engine ~domains js)
            in
            Array.iteri (fun i p -> ignore (native ~req:i p (inputs_of js.(i)))) progs;
            (Span.take (), ps))
      in
      Span.enabled := false;
      rounds
    end
  in
  (* correctness, outside the timed window *)
  let natives_of (js : S.job array) progs =
    Array.mapi
      (fun i p ->
        Vex.Machine.outputs
          (Vex.Machine.run ~max_steps ~inputs:(inputs_of js.(i)) p))
      progs
  in
  let c = { problems = []; bad = Hashtbl.create 7 } in
  let traced_passes = List.concat_map snd rounds in
  let check js progs ps =
    check_passes c js (natives_of js progs) ps;
    List.iter
      (fun p -> if p.engine = Core.Config.Tiered then check_tiered_spots c js p)
      ps
  in
  check js progs (passes @ traced_passes);
  (* the seeded pass: straight-line programs at the run's inputs *)
  let sj = seeded_jobs ~seed in
  let sprogs =
    Array.map
      (fun (j : S.job) ->
        let b = j.S.job_bench in
        Fpcore.Compile.compile ~n_inputs:iterations ~name:b.S.name (S.core_of b))
      sj
  in
  let seeded =
    Array.to_list sched
    |> List.filter (fun (_, d) -> d = 1)
    |> List.map (fun (engine, domains) -> run_pass ~traced:false ~engine ~domains sj)
  in
  check sj sprogs seeded;
  (* figures *)
  let head = headline kind in
  let head_passes = select head passes in
  let ref_thr =
    float_of_int n /. Util.median (List.map (fun p -> p.work_s *. p.factor) head_passes)
  in
  let rss = !rss in
  let all_passes = passes @ traced_passes @ seeded in
  let attempted =
    List.fold_left (fun a p -> a + Array.length p.outcomes) 0 all_passes
  in
  let failed = Hashtbl.length c.bad in
  let e2e =
    [
      Outcome.metric ~n:setup_reps "setup_s" "s" setup_s;
      Outcome.metric "peak_rss_mb" "MB" rss;
      Outcome.metric ~n:(List.length head_passes) "throughput_per_s" "1/s" ref_thr;
    ]
  in
  let rate (e, d) label =
    let r, k = programs_per_s n (select (e, d) passes) in
    Outcome.metric ~n:k label "programs/s" r
  in
  let named =
    ([ Outcome.metric ~n:setup_reps "setup_s" "s" setup_raw;
      Outcome.metric ~n:attempted "failed_frac" "ratio"
        (float_of_int failed /. float_of_int (max 1 attempted));
      Outcome.metric "peak_rss_mb" "MB" rss ]
    @
    match kind with
    | `Full ->
        [ rate (Core.Config.Full, 1) "full_programs_per_s";
          rate (Core.Config.Full, 2) "full_programs_per_s_j2" ]
    | `Triage ->
        [ rate (Core.Config.Sanitize, 1) "sanitize_programs_per_s";
          rate (Core.Config.Tiered, 1) "tiered_programs_per_s" ])
    @ [ Outcome.metric ~n:(List.length head_passes) "calib_factor" "x"
          (Util.median (List.map (fun p -> p.factor) head_passes)) ]
  in
  let layers, spans =
    if not trace then ([], [])
    else begin
      let overhead =
        (* traced minus untraced time of the headline pass, both in
           reference seconds *)
        let tp = select head traced_passes in
        let m ps = Util.median (List.map (fun p -> p.work_s *. p.factor) ps) in
        if tp = [] then 0.0 else 100.0 *. (m tp -. m head_passes) /. m head_passes
      in
      let cache = float_of_int hits /. float_of_int (compile_gets passes) in
      ( layer_metrics ~js ~progs rounds ~untraced_passes:passes ~head_passes
        @ [ ("vex.cache_hit_ratio", cache); ("trace.overhead_pct", overhead) ],
        List.concat_map fst rounds )
    end
  in
  {
    Outcome.attempted;
    failed;
    problems = List.rev c.problems;
    warnings = [];
    e2e;
    named;
    layers;
    spans;
  }
