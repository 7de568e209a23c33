(* fpgrind.fleet — public face of the batch-analysis engine.

   [Fleet.run] drives a list of job specs across a Domain worker pool
   with per-job deadlines and exception capture; [Fleet.bench_spec]
   builds the standard FPBench analysis job and [Fleet.analyze_prog]
   runs one program under the configured engine; [Fleet.Store]
   persists outcomes as JSONL and renders the summary table. *)

include Engine

(* kept only for the benchmark harness under perfbench/, which is
   frozen; everything else uses the json library directly *)
module Json = Json
module Store = Store
