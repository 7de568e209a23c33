(* serve-mixed: seeded open-loop load against `fpgrind serve --shards 2
   --jobs 1`, a fresh server with an empty store per trial, started on
   port 0.

   The request stream is [Loadgen.spec_of_index] at the run's seed: full
   engine, 8 iterations, mix bench=1,minic=1. Bench bodies repeat and
   become result-cache reads; MiniC bodies from the fuzz generator are
   unique, so each is an analysis plus a store append. Each phase takes
   the next unused stretch of indices, so no MiniC body is ever sent
   twice.

   Two keep-alive connections, each a thread, take request k of a phase
   when it is due (start + k/rate), whether or not earlier ones have
   finished. Latency runs from the due time, so a stall is charged to
   every request queued behind it; lateness (send time minus due time)
   is recorded too. Phases: light (100 rps), heavy (400 rps), then a
   ladder of higher rates for capacity.

   After the load, [/metrics] is scraped from both shards, the server is
   drained with SIGTERM, and outside the timed window every bench
   response is compared with the in-process [Fleet.bench_spec] record. *)

let light_rate = 100.0
let heavy_rate = 400.0
let ladder = [ 600.0; 800.0; 1000.0; 1400.0; 2000.0; 2800.0; 4000.0; 5600.0; 8000.0 ]
let conns = 2
let p99_limit_s = 0.050

let lg_config ~seed ~port =
  {
    Loadgen.default_config with
    Loadgen.lg_port = port;
    lg_conns = conns;
    lg_seed = seed;
    lg_mix = [ (1, Loadgen.Bench); (1, Loadgen.Minic) ];
    lg_engine = "full";
    lg_iterations = 8;
  }

let is_bench (sp : Loadgen.spec) =
  String.length sp.Loadgen.sp_body > 6 && String.sub sp.Loadgen.sp_body 0 6 = "bench:"

(* ---------- the server process ---------- *)

type server = { pid : int; port : int; store : string; log : string; out : Unix.file_descr }

let rm path = try Sys.remove path with Sys_error _ -> ()

(* Servers not yet stopped. Whatever ends the run — a failed check, an
   exception — kills and reaps them, so no process outlives it. *)
let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          List.iter
            (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
            (Util.children_of pid @ [ pid ]);
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let healthy port =
  match Serve.Client.request ~port ~meth:"GET" ~path:"/healthz" () with
  | r -> r.Serve.Client.c_status = 200
  | exception _ -> false

(* Spawn a server on an empty store; returns it and the time from spawn
   to its first 200. *)
let spawn ~cli ~dir k : server * float =
  let store = Filename.concat dir (Printf.sprintf "store-%d.jsonl" k) in
  let log = Filename.concat dir (Printf.sprintf "serve-%d.log" k) in
  List.iter rm [ store; store ^ ".status.json"; log ];
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let t0 = Util.now_s () in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--shards"; "2"; "--jobs"; "1"; "--port"; "0"; "--store"; store; "--quiet" |]
      Unix.stdin out_w err
  in
  live := pid :: !live;
  Unix.close out_w;
  Unix.close err;
  (* "fpgrind serve: listening on http://127.0.0.1:PORT (...)" *)
  let line = Buffer.create 128 in
  let byte = Bytes.create 1 in
  let rec read_line () =
    match Unix.read out_r byte 0 1 with
    | 0 -> ()
    | _ when Bytes.get byte 0 = '\n' -> ()
    | _ ->
        Buffer.add_char line (Bytes.get byte 0);
        read_line ()
  in
  read_line ();
  let l = Buffer.contents line in
  let port =
    match String.rindex_opt l ':' with
    | Some i -> (
        try Scanf.sscanf (String.sub l (i + 1) (String.length l - i - 1)) "%d" Fun.id
        with _ -> 0)
    | None -> 0
  in
  let srv = { pid; port; store; log; out = out_r } in
  if port = 0 then failwith ("server did not report a port: " ^ l);
  let deadline = t0 +. 30.0 in
  while not (healthy port) do
    if Util.now_s () > deadline then failwith "server never answered /healthz";
    Thread.delay 0.002
  done;
  (srv, Util.now_s () -. t0)

(* SIGTERM, wait for the rolling drain; true iff it exited cleanly *)
let stop (srv : server) : bool =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] srv.pid in
  live := List.filter (( <> ) srv.pid) !live;
  Unix.close srv.out;
  status = Unix.WEXITED 0

let log_contains (srv : server) needle =
  match open_in srv.log with
  | exception Sys_error _ -> false
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Util.contains s needle

(* ---------- one open-loop phase ---------- *)

type phase = {
  rate : float;
  specs : Loadgen.spec array;
  latency_s : float array;
  lag_s : float array;
  status : int array;  (* -1: transport error *)
  bodies : string array;  (* bench responses only *)
  elapsed_s : float;  (* start to last completion *)
}

let run_phase ~port ~rate (specs : Loadgen.spec array) : phase =
  let n = Array.length specs in
  let latency_s = Array.make n 0.0 and lag_s = Array.make n 0.0 in
  let status = Array.make n 0 and bodies = Array.make n "" in
  let next = Atomic.make 0 in
  let parent = Span.current () in
  let start = Util.now_s () +. 0.02 in
  let worker () =
    let conn = Serve.Client.connect ~port () in
    let rec go () =
      let k = Atomic.fetch_and_add next 1 in
      if k < n then begin
        let sp = specs.(k) in
        let due = start +. (float_of_int k /. rate) in
        let now = Util.now_s () in
        if due > now then Thread.delay (due -. now);
        let t_send = Monotonic_clock.now () in
        lag_s.(k) <- (Int64.to_float t_send *. 1e-9) -. due;
        (match
           Serve.Client.request_conn conn ~meth:"POST" ~path:sp.Loadgen.sp_path
             ~body:sp.Loadgen.sp_body ()
         with
        | r ->
            status.(k) <- r.Serve.Client.c_status;
            if is_bench sp then bodies.(k) <- r.Serve.Client.c_body
        | exception _ ->
            status.(k) <- -1;
            Serve.Client.close conn);
        let t_done = Monotonic_clock.now () in
        latency_s.(k) <- (Int64.to_float t_done *. 1e-9) -. due;
        Span.record ~req:sp.Loadgen.sp_index ~parent "serve.request" t_send t_done;
        go ()
      end
    in
    go ();
    Serve.Client.close conn
  in
  let threads = List.init conns (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  { rate; specs; latency_s; lag_s; status; bodies; elapsed_s = Util.now_s () -. start }

let ok_count p = Array.fold_left (fun a s -> if s / 100 = 2 then a + 1 else a) 0 p.status
let failures p = Array.length p.status - ok_count p
let ok_throughput p = float_of_int (ok_count p) /. p.elapsed_s
let lat_list p = Array.to_list p.latency_s

(* p99 within the limit (with enough samples to read it), ok throughput
   at least 95% of offered (no growing backlog), no failures *)
let meets p =
  let n = Array.length p.latency_s in
  Util.beyond 0.99 n >= 10
  && Util.quantile 0.99 (lat_list p) <= p99_limit_s
  && ok_throughput p >= 0.95 *. p.rate
  && failures p = 0

(* ---------- /metrics ---------- *)

(* "name{labels} value" lines, comments skipped *)
let parse_metrics body =
  String.split_on_char '\n' body
  |> List.filter_map (fun l ->
         if l = "" || l.[0] = '#' then None
         else
           match String.rindex_opt l ' ' with
           | None -> None
           | Some i -> (
               let key = String.sub l 0 i in
               match float_of_string_opt (String.sub l (i + 1) (String.length l - i - 1)) with
               | None -> None
               | Some v ->
                   let name, labels =
                     match String.index_opt key '{' with
                     | Some j -> (String.sub key 0 j, String.sub key j (String.length key - j))
                     | None -> (key, "")
                   in
                   Some (name, labels, v)))


let total rows ?(label = "") name =
  List.fold_left
    (fun a (n, l, v) -> if n = name && Util.contains l label then a +. v else a)
    0.0 rows

(* a gauge's largest value over the shards *)
let peak rows name =
  List.fold_left (fun a (n, _, v) -> if n = name then Float.max a v else a) 0.0 rows

(* quantile of a Prometheus histogram (summed over shards), linear within
   the bucket that holds it *)
let hist_quantile rows ?(label = "") name q =
  let le l =
    let key = "le=\"" in
    let rec find k =
      if k + 4 > String.length l then None
      else if String.sub l k 4 = key then
        let e = String.index_from l (k + 4) '"' in
        Some (String.sub l (k + 4) (e - k - 4))
      else find (k + 1)
    in
    find 0
  in
  let buckets = Hashtbl.create 16 in
  List.iter
    (fun (n, l, v) ->
      if n = name ^ "_bucket" && Util.contains l label then
        match le l with
        | Some b ->
            let bound = if b = "+Inf" then infinity else float_of_string b in
            Hashtbl.replace buckets bound
              (v +. Option.value ~default:0.0 (Hashtbl.find_opt buckets bound))
        | None -> ())
    rows;
  let bs = Hashtbl.fold (fun b c acc -> (b, c) :: acc) buckets [] |> List.sort compare in
  let count = match List.rev bs with (_, c) :: _ -> c | [] -> 0.0 in
  if count = 0.0 then 0.0
  else
    let target = q *. count in
    let rec go lo prev = function
      | [] -> lo
      | (b, c) :: rest ->
          if c >= target then
            if Float.is_finite b then
              lo +. ((b -. lo) *. if c > prev then (target -. prev) /. (c -. prev) else 1.0)
            else lo
          else go (if Float.is_finite b then b else lo) c rest
    in
    go 0.0 0.0 bs

(* Scrape until both shards have answered: a shard is told apart by its
   static /analyze request counts; done when they add up to [sent]. *)
let scrape ~port ~sent =
  let seen = Hashtbl.create 2 in
  let rec go tries =
    let analyzed rows = total rows ~label:"endpoint=\"/analyze\"" "fpgrind_http_requests_total" in
    let sum () = Hashtbl.fold (fun _ rows a -> a +. analyzed rows) seen 0.0 in
    if tries = 0 || sum () >= float_of_int sent then ()
    else begin
      (match
         Span.with_span "http.metrics" (fun () ->
             Serve.Client.request ~port ~meth:"GET" ~path:"/metrics" ())
       with
      | r when r.Serve.Client.c_status = 200 ->
          let rows = parse_metrics r.Serve.Client.c_body in
          let id =
            List.filter_map
              (fun (n, l, v) ->
                if n = "fpgrind_http_requests_total" && Util.contains l "endpoint=\"/analyze\""
                then Some (Printf.sprintf "%s=%g" l v)
                else None)
              rows
            |> String.concat ";"
          in
          Hashtbl.replace seen id rows
      | _ | (exception _) -> ());
      go (tries - 1)
    end
  in
  go 32;
  let rows = Hashtbl.fold (fun _ rows acc -> rows @ acc) seen [] in
  let complete =
    total rows ~label:"endpoint=\"/analyze\"" "fpgrind_http_requests_total"
    >= float_of_int sent
  in
  (rows, complete, Hashtbl.length seen)

(* ---------- a trial: fresh server, the phases, drain, checks ---------- *)

type trial = {
  light : phase;
  heavy : phase;
  steps : phase list;  (* ladder steps run, in order *)
  rows : (string * string * float) list;  (* /metrics of both shards *)
  rss_mb : float;
  problems : string list;
  wrong : int;
  warnings : string list;
}

let plan ~seed ~first n = Array.init n (fun i -> Loadgen.spec_of_index (lg_config ~seed ~port:0) (first + i))

let trial ~seed ~seconds ~(srv : server) : trial =
  let light_n = int_of_float (light_rate *. Float.max 1.0 (0.25 *. seconds)) in
  let heavy_n = max 1000 (int_of_float (heavy_rate *. 0.4 *. seconds)) in
  let step_n = 1000 in
  (* the inputs, generated before the timed window *)
  let light_specs = plan ~seed ~first:0 light_n in
  let heavy_specs = plan ~seed ~first:light_n heavy_n in
  let step_specs =
    List.mapi (fun i _ -> plan ~seed ~first:(light_n + heavy_n + (i * step_n)) step_n) ladder
  in
  let port = srv.port in
  let phase name rate specs = Span.with_span name (fun () -> run_phase ~port ~rate specs) in
  let light = phase "loadgen.light" light_rate light_specs in

  let heavy = phase "loadgen.heavy" heavy_rate heavy_specs in
  (* peak memory after fixed work, before the ladder (whose length
     depends on the machine's speed) *)
  let rss_mb =
    Util.sum (List.map Util.peak_rss_mb (srv.pid :: Util.children_of srv.pid))
  in
  let rec climb acc = function
    | [] -> List.rev acc
    | (rate, specs) :: rest ->
        let p = phase "loadgen.step" rate specs in
        if meets p then climb (p :: acc) rest else List.rev (p :: acc)
  in
  let steps = if meets heavy then climb [] (List.combine ladder step_specs) else [] in
  let phases = light :: heavy :: steps in
  let sent = List.fold_left (fun a p -> a + Array.length p.status) 0 phases in
  let rows, complete, shards_seen = scrape ~port ~sent in
  let clean = stop srv in
  (* checks, outside the timed window *)
  let problems = ref [] and wrong = ref 0 and warnings = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems; incr wrong) fmt in
  if not complete then
    warnings := Printf.sprintf "/metrics reached %d shard(s) only" shards_seen :: !warnings;
  if not clean then problem "server did not exit cleanly after SIGTERM";
  if not (log_contains srv "drained, store flushed") then problem "server did not report a clean drain";
  let restarts = peak rows "fpgrind_shard_restarts_total" in
  if restarts > 0.0 then problem "%g shard restarts" restarts;
  let corrupt = total rows "fpgrind_store_corrupt_lines_total" in
  if corrupt > 0.0 then problem "%g corrupt store lines reported" corrupt;
  (match Fleet.Store.load_lenient srv.store with
  | _, 0 -> ()
  | _, k -> problem "%d corrupt lines in the store" k
  | exception e -> problem "store unreadable: %s" (Printexc.to_string e));
  (* bench responses against the in-process record *)
  let drop = "status" :: Suite_w.pin_drop in
  let expected = Hashtbl.create 64 in
  let expect name =
    match Hashtbl.find_opt expected name with
    | Some r -> r
    | None ->
        let job = List.hd (Fpcore.Suite.enumerate ~iterations:8 ~seed:1 ~names:[ name ] ()) in
        let r =
          match Fleet.run ~jobs:1 [ Fleet.bench_spec ~cfg:(Suite_w.cfg_of Core.Config.Full) job ] with
          | [ o ] -> Fleet.Json.to_string (Suite_w.scrub drop (Fleet.Store.outcome_to_json o))
          | _ -> ""
        in
        Hashtbl.replace expected name r;
        r
  in
  List.iter
    (fun p ->
      Array.iteri
        (fun k (sp : Loadgen.spec) ->
          let st = p.status.(k) in
          if st / 100 <> 2 then problem "request %d: status %d" sp.Loadgen.sp_index st
          else if is_bench sp then begin
            let name = String.sub sp.Loadgen.sp_body 6 (String.length sp.Loadgen.sp_body - 6) in
            let got =
              try Fleet.Json.to_string (Suite_w.scrub drop (Fleet.Json.of_string p.bodies.(k)))
              with _ -> "unparsable"
            in
            if got <> expect name then
              problem "request %d (%s): response differs from Fleet.bench_spec" sp.Loadgen.sp_index name
          end)
        p.specs)
    phases;
  { light; heavy; steps; rows; rss_mb; problems = List.rev !problems; wrong = !wrong; warnings = !warnings }

let capacity s =
  let passing =
    List.filter meets (s.heavy :: s.steps) |> List.map (fun p -> p.rate)
  in
  (* the ladder stops at its first miss, so the passing rates are a prefix *)
  List.fold_left Float.max 0.0 passing

let run ~cli ~dir ~seed ~seconds ~trace : Outcome.t =
  (* set-up: spawn to first 200, three times; the last server is used *)
  let spawns = List.init 3 (fun k -> spawn ~cli ~dir k) in
  List.iteri (fun k (srv, _) -> if k < 2 then ignore (stop srv)) spawns;
  let setup_s = Util.median (List.map snd spawns) in
  let s = trial ~seed ~seconds ~srv:(fst (List.nth spawns 2)) in
  let traced =
    if not trace then None
    else begin
      let srv, _ = spawn ~cli ~dir 3 in
      Span.enabled := true;
      let t = trial ~seed ~seconds ~srv in
      Span.enabled := false;
      Some (t, Span.take ())
    end
  in
  let all = s :: (match traced with Some (t, _) -> [ t ] | None -> []) in
  let phases s = s.light :: s.heavy :: s.steps in
  let attempted =
    List.fold_left
      (fun a s -> List.fold_left (fun a p -> a + Array.length p.status) a (phases s))
      0 all
  in
  (* a refused or failed request is already one of the trial's
     problems, so [wrong] counts it once *)
  let failed = List.fold_left (fun a s -> a + s.wrong) 0 all in
  let ms q p = 1000.0 *. Util.quantile q (lat_list p) in
  let n p = Array.length p.latency_s in
  let light_tail_q = Util.tail_q (n s.light) in
  let warnings = List.concat_map (fun s -> s.warnings) all in
  let layers, spans =
    match traced with
    | None -> ([], [])
    | Some (t, spans) ->
        let rows = s.rows in
        let hits = total rows "fpgrind_cache_hits_total" in
        let misses = total rows "fpgrind_cache_misses_total" in
        ( [
            ("serve.cache_hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
            ( "serve.server_p50_ms",
              1000.0 *. hist_quantile rows ~label:"endpoint=\"/analyze\"" "fpgrind_http_request_seconds" 0.5 );
            ("serve.job_p99_ms", 1000.0 *. hist_quantile rows "fpgrind_fleet_job_seconds" 0.99);
            ("serve.rejected", total rows "fpgrind_rejected_total");
            ("shard.restarts", peak rows "fpgrind_shard_restarts_total");
            ("loadgen.send_lag_p99_ms", 1000.0 *. Util.quantile 0.99 (Array.to_list s.heavy.lag_s));
            ( "trace.overhead_pct",
              100.0 *. (ms 0.5 t.light -. ms 0.5 s.light) /. ms 0.5 s.light );
          ],
          spans )
  in
  let problems = List.concat_map (fun s -> s.problems) all in
  let light_name = Printf.sprintf "p%g_ms_light" (100.0 *. light_tail_q) in
  {
    Outcome.attempted;
    failed;
    problems;
    warnings;
    e2e =
      [
        Outcome.metric ~n:3 "setup_s" "s" setup_s;
        Outcome.metric ~n:3 "peak_rss_mb" "MB" s.rss_mb;
        Outcome.metric ~n:(n s.heavy) "throughput_per_s" "1/s" (ok_throughput s.heavy);
      ];
    named =
      [
        Outcome.metric ~n:3 "setup_s" "s" setup_s;
        Outcome.metric ~n:attempted "failed_frac" "ratio"
          (float_of_int failed /. float_of_int (max 1 attempted));
        Outcome.metric ~n:3 "peak_rss_mb" "MB" s.rss_mb;
        Outcome.metric ~n:(n s.light) "p50_ms_light" "ms" (ms 0.5 s.light);
        Outcome.metric ~n:(n s.light) light_name "ms" (ms light_tail_q s.light);
        Outcome.metric ~n:(n s.heavy) "p50_ms_heavy" "ms" (ms 0.5 s.heavy);
        Outcome.metric ~n:(n s.heavy) "p99_ms_heavy" "ms" (ms 0.99 s.heavy);
        Outcome.metric ~n:(1 + List.length s.steps) "capacity_rps" "1/s" (capacity s);
      ];
    layers;
    spans;
  }
