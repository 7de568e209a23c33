(* serve: the HTTP analysis service, single-process or pre-forked *)

open Cmdliner

let queue_arg =
  Arg.(
    value & opt int 16
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Bounded job-queue depth. When $(docv) jobs are already \
           waiting, new work is refused with 503 and a Retry-After \
           hint instead of queueing unboundedly.")

let max_body_arg =
  Arg.(
    value & opt int Serve.Http.default_max_body
    & info [ "max-body" ] ~docv:"BYTES"
        ~doc:"Largest accepted request body; larger submissions get 413.")

let store_arg =
  Arg.(
    value & opt (some string) None
    & info [ "store" ] ~docv:"FILE"
        ~doc:
          "JSONL results store: each fresh, keyed, successful result is \
           appended to $(docv) as it completes, so a killed server keeps \
           every finished result, and results already in $(docv) (from \
           earlier runs or sibling shards) answer repeated requests from \
           cache.")

let shards_arg =
  Arg.(
    value & opt int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Pre-fork $(docv) worker processes sharing one listening \
           socket. Each shard is a full server (own pool, cache, \
           metrics); a crashed or OOM-killed shard is respawned by the \
           parent and results are shared through the --store file. 0 \
           runs the classic single-process server.")

let keep_alive_arg =
  Arg.(
    value & opt int 100
    & info [ "keep-alive-requests" ] ~docv:"N"
        ~doc:
          "Requests served per connection before it is closed \
           (Connection: close on the last response).")

let idle_timeout_arg =
  Arg.(
    value & opt float 5.0
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:"Tear down a keep-alive connection idle for $(docv).")

let rate_limit_arg =
  Arg.(
    value & opt (some float) None
    & info [ "rate-limit" ] ~docv:"RPS"
        ~doc:
          "Per-client token-bucket rate limit on POST requests, in \
           requests/second; over-limit clients get 503 with Retry-After.")

let rate_burst_arg =
  Arg.(
    value & opt int 16
    & info [ "rate-burst" ] ~docv:"N"
        ~doc:"Token-bucket capacity for --rate-limit.")

let run port host jobs queue timeout max_body store_path findings_path quiet
    shards keep_alive_requests idle_timeout rate_limit rate_burst =
  Common.guard @@ fun () ->
  let cfg =
    {
      Serve.Server.port;
      host;
      jobs;
      queue;
      timeout;
      max_body;
      store_path;
      findings_path;
      quiet;
      keep_alive_requests;
      idle_timeout;
      rate_limit;
      rate_burst;
      shard_status_path = None;
      listen_fd = None;
    }
  in
  if shards > 0 then begin
    let status_path =
      match store_path with
      | Some p -> p ^ ".status.json"
      | None -> Filename.temp_file "fpgrind-shard-status" ".json"
    in
    let shard_cfg =
      {
        (Shard.default_config ~serve:cfg ~status_path) with
        Shard.sh_shards = shards;
      }
    in
    Shard.run
      ~on_listen:(fun bound ->
        Printf.printf
          "fpgrind serve: listening on http://%s:%d (shards=%d jobs=%d \
           queue=%d)\n%!"
          host bound shards jobs queue)
      shard_cfg
  end
  else begin
    let srv = Serve.Server.create cfg in
    (* graceful shutdown: stop accepting, drain in-flight and queued
       jobs, then exit 0 *)
    let on_signal _ = Serve.Server.stop srv in
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    (* the pipe is handled inline; a dying client must not kill us *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Printf.printf
      "fpgrind serve: listening on http://%s:%d (jobs=%d queue=%d)\n%!" host
      (Serve.Server.port srv) jobs queue;
    Serve.Server.run srv;
    0
  end

let cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the HTTP analysis service: keep-alive HTTP/1.1 with POST \
          /analyze and /fuzz behind a bounded queue with 503 backpressure, \
          optional pre-forked shards (--shards) with crash respawn and a \
          shared result cache, per-client rate limiting, GET /healthz, GET \
          /findings for a campaign feed, and GET /metrics in Prometheus \
          text format.")
    Term.(
      const run
      $ Common.port_arg
          ~doc:"TCP port to listen on; 0 picks an ephemeral port (printed)."
      $ Common.host_arg ~doc:"Address to bind."
      $ Common.jobs_arg ~doc:"Worker domains for analysis jobs."
      $ queue_arg
      $ Common.timeout_arg ~doc:"Default per-request analysis deadline."
      $ max_body_arg $ store_arg
      $ Common.findings_arg
          Arg.(some string)
          None
          ~doc:
            "Campaign findings JSONL feed to serve verbatim on GET \
             /findings (typically the --findings file of a running \
             $(b,fpgrind campaign)). Also populates the \
             fpgrind_campaign_* metrics."
      $ Common.quiet_arg ~doc:"Suppress per-request log lines."
      $ shards_arg $ keep_alive_arg $ idle_timeout_arg $ rate_limit_arg
      $ rate_burst_arg)
