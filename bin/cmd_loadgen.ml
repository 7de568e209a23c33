(* loadgen: seeded open-loop load against a running fpgrind serve *)

open Cmdliner

let url_arg =
  Arg.(
    value & opt string "http://127.0.0.1:8080"
    & info [ "url" ] ~docv:"URL" ~doc:"Server base URL, $(b,http://HOST:PORT).")

let rate_arg =
  Arg.(
    value & opt float 50.0
    & info [ "rate" ] ~docv:"RPS"
        ~doc:
          "Open-loop arrival rate in requests/second. Request i is due \
           at start + i/RATE regardless of earlier completions, and its \
           latency is charged from that due time.")

let duration_arg =
  Arg.(
    value & opt float 5.0
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Seconds of offered load.")

let mix_arg =
  Arg.(
    value & opt string "bench=1,minic=1"
    & info [ "mix" ] ~docv:"SPEC"
        ~doc:
          "Weighted request mix, e.g. $(b,bench=3,minic=1): \
           $(b,bench) requests repeat suite benchmarks (cache-friendly), \
           $(b,minic) requests carry fresh generated programs \
           (cache-cold).")

let conns_arg =
  Arg.(
    value & opt int 4
    & info [ "conns" ] ~docv:"N"
        ~doc:"Concurrent keep-alive connections carrying the stream.")

(* http://HOST:PORT — no path/userinfo, this is a bench driver not a
   general HTTP client *)
let parse_url (u : string) : string * int =
  let prefix = "http://" in
  let plen = String.length prefix in
  if String.length u <= plen || String.sub u 0 plen <> prefix then
    failwith (Printf.sprintf "expected http://HOST:PORT, got %s" u);
  let rest = String.sub u plen (String.length u - plen) in
  let rest =
    if String.length rest > 0 && rest.[String.length rest - 1] = '/' then
      String.sub rest 0 (String.length rest - 1)
    else rest
  in
  match String.rindex_opt rest ':' with
  | None -> (rest, 80)
  | Some i -> (
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && host <> "" -> (host, p)
      | _ -> failwith (Printf.sprintf "bad port in %s" u))

let run url rate duration seed mix conns engine iterations json_path =
  Common.guard @@ fun () ->
  let host, port = parse_url url in
  if rate <= 0.0 then failwith "loadgen: --rate must be positive";
  if duration <= 0.0 then failwith "loadgen: --duration must be positive";
  let cfg =
    {
      Loadgen.lg_host = host;
      lg_port = port;
      lg_rate = rate;
      lg_duration = duration;
      lg_conns = max 1 conns;
      lg_seed = seed;
      lg_mix = Loadgen.mix_of_string mix;
      lg_engine = Core.Config.engine_name engine;
      lg_iterations = max 1 iterations;
    }
  in
  let report = Loadgen.run cfg in
  let j = Json.to_string (Loadgen.to_json cfg report) in
  print_endline j;
  (match json_path with
  | None -> ()
  | Some p ->
      let oc = open_out p in
      output_string oc j;
      output_char oc '\n';
      close_out oc);
  (* 503s are the server keeping its latency promise under overload;
     other 5xx (or transport failures) mean it broke *)
  if report.Loadgen.r_errors_5xx > 0 || report.Loadgen.r_conn_errors > 0 then 1
  else 0

let cmd =
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Offer seeded open-loop load to a running fpgrind serve and \
          report p50/p90/p99 latency, throughput and error rates as JSON. \
          The request stream is a pure function of --seed and --mix; \
          latency is measured from each request's scheduled arrival time, \
          so server stalls show up as queueing delay instead of silently \
          slowing the generator (no coordinated omission).")
    Term.(
      const run $ url_arg $ rate_arg $ duration_arg
      $ Common.seed_arg ~default:42
          ~doc:
            "Request-stream seed; the body of request i is a pure \
             function of (seed, i, mix), so the same seed offers the \
             same bodies regardless of timing or concurrency."
      $ mix_arg $ conns_arg
      $ Common.engine_arg ~default:Core.Config.Sanitize
          ~doc:"Analysis engine query parameter sent with every request." ()
      $ Common.iterations_arg ~default:8
          ~doc:"Sampled inputs per analysis request." ()
      $ Common.json_arg ~doc:"Also write the report JSON to $(docv).")
