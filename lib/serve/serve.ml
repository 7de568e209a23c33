(* fpgrind.serve — public face of the network analysis service.

   [Serve.Server] is the HTTP/1.1 service: keep-alive connections with
   pipelined reads, bounded job queue with 503 backpressure, Fleet.Pool
   dispatch, content-hash result cache over an appended JSONL store,
   graceful drain. [Serve.Http] is the dependency-free request parser / response
   writer and per-connection session loop (testable without sockets);
   [Serve.Router] dispatches and types query parameters; [Serve.Metrics]
   is the Prometheus-format counter/gauge/histogram layer;
   [Serve.Cachefile] is the result cache, shared across shards through
   the store;
   [Serve.Ratelimit] the per-client token buckets; [Serve.Client] the
   small blocking client (one-shot and keep-alive) behind `fpgrind
   client`, `fpgrind loadgen`, and the tests. *)

module Http = Http
module Router = Router
module Metrics = Metrics
module Server = Server
module Client = Client
module Cachefile = Cachefile
module Ratelimit = Ratelimit
