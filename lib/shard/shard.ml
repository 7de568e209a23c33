(* fpgrind.shard — the pre-forked multi-process shard layer.

   The parent binds the listening socket once (so `--port 0` resolves
   before anything else happens), then forks N workers that inherit the
   socket fd and each run a full Serve.Server — own Fleet.Pool, own
   metrics registry, own in-memory cache — accept()ing from the shared
   socket (the kernel load-balances; the listener is non-blocking so an
   accept race between shards resolves to EAGAIN, not a stuck worker).
   Forking happens before any domain or thread is created: an OCaml 5
   runtime must not fork after spawning domains.

   Isolation is the point: an analysis that crashes or OOMs a worker
   takes down one shard's in-flight requests, nothing else. The parent
   waitpid()s, logs the death, bumps the restart count in the status
   file (each worker's /metrics reads it as fpgrind_shard_restarts_total)
   and forks a replacement against the same socket.

   Shards share results through the store, a Durable log each worker's
   Serve.Cachefile appends fresh outcomes to and tails on cache misses,
   so a result computed on shard 1 is a cache hit on shard 3 (`fpgrind
   validate` reads the file directly; nothing needs flushing on a
   crash).

   Shutdown (SIGTERM/SIGINT to the parent) is a rolling drain: workers
   are SIGTERMed and waited one at a time, each finishing its open
   connections and queued jobs before the next is asked to stop, so the
   service keeps answering on the remaining shards until the end. A
   worker that ignores the drain for [drain_grace] seconds is killed. *)

type config = {
  sh_shards : int;
  sh_serve : Serve.Server.config;  (* template for each worker *)
  sh_status_path : string;  (* parent status JSON: shards, restarts *)
  sh_drain_grace : float;  (* seconds before an undrained worker is killed *)
  sh_max_restarts : int;  (* respawn budget; crossing it shuts down *)
}

let default_config ~serve ~status_path =
  {
    sh_shards = 4;
    sh_serve = serve;
    sh_status_path = status_path;
    sh_drain_grace = 30.0;
    sh_max_restarts = 64;
  }

(* ---------- parent status file ---------- *)

(* Atomic replace, same as campaign checkpoints: a worker scraping
   mid-update sees the old status, never a torn one. *)
let write_status ~path ~shards ~restarts =
  try
    Durable.replace path
      [ Printf.sprintf "{\"shards\": %d, \"restarts\": %d}" shards restarts ]
  with Sys_error _ -> ()

(* ---------- the listening socket ---------- *)

let listen ~host ~port : Unix.file_descr * int =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 128
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  let bound =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  (fd, bound)

(* ---------- workers ---------- *)

(* The child half of a fork: build a whole server on the inherited
   socket and serve until SIGTERM. Never returns. *)
let worker_main (c : config) (listen_fd : Unix.file_descr) : 'a =
  let code =
    try
      let srv =
        Serve.Server.create
          {
            c.sh_serve with
            Serve.Server.listen_fd = Some listen_fd;
            shard_status_path = Some c.sh_status_path;
          }
      in
      let on_signal _ = Serve.Server.stop srv in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Serve.Server.run srv;
      0
    with e ->
      Printf.eprintf "fpgrind shard: worker %d died: %s\n%!" (Unix.getpid ())
        (Printexc.to_string e);
      1
  in
  exit code

let spawn (c : config) (listen_fd : Unix.file_descr) : int =
  match Unix.fork () with
  | 0 -> worker_main c listen_fd
  | pid -> pid

let describe_death status =
  match status with
  | Unix.WEXITED 0 -> "exited cleanly"
  | Unix.WEXITED n -> Printf.sprintf "exited with code %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

(* ---------- the supervisor loop ---------- *)

let run ?(on_listen = fun (_ : int) -> ()) (c : config) : int =
  if c.sh_shards < 1 then invalid_arg "Shard.run: need at least one shard";
  let listen_fd, port =
    match c.sh_serve.Serve.Server.listen_fd with
    | Some fd -> (
        ( fd,
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> c.sh_serve.Serve.Server.port ))
    | None ->
        listen ~host:c.sh_serve.Serve.Server.host
          ~port:c.sh_serve.Serve.Server.port
  in
  on_listen port;
  let stop = ref false in
  let on_signal _ = stop := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let restarts = ref 0 in
  write_status ~path:c.sh_status_path ~shards:c.sh_shards ~restarts:0;
  let pids = Array.init c.sh_shards (fun _ -> spawn c listen_fd) in
  let quiet = c.sh_serve.Serve.Server.quiet in
  if not quiet then
    Printf.eprintf "fpgrind shard: %d workers up (%s)\n%!" c.sh_shards
      (String.concat " "
         (Array.to_list (Array.map string_of_int pids)));
  (* supervise: poll for dead workers, respawn unless stopping.
     WNOHANG + sleep keeps signal delivery simple — no EINTR dance. *)
  let exit_code = ref 0 in
  while not !stop do
    (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | 0, _ -> Thread.delay 0.05
    | pid, status -> (
        match Array.find_index (fun p -> p = pid) pids with
        | None -> ()
        | Some i ->
            incr restarts;
            write_status ~path:c.sh_status_path ~shards:c.sh_shards
              ~restarts:!restarts;
            if !restarts > c.sh_max_restarts then begin
              Printf.eprintf
                "fpgrind shard: worker %d %s; restart budget (%d) exhausted, \
                 shutting down\n%!"
                pid (describe_death status) c.sh_max_restarts;
              exit_code := 1;
              stop := true
            end
            else begin
              pids.(i) <- spawn c listen_fd;
              if not quiet then
                Printf.eprintf
                  "fpgrind shard: worker %d %s; respawned as %d (restart \
                   %d)\n%!"
                  pid (describe_death status)
                  pids.(i) !restarts
            end)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Thread.delay 0.05)
  done;
  (* rolling drain: stop workers one at a time so the others keep
     serving until their turn comes *)
  Array.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      let deadline = Unix.gettimeofday () +. c.sh_drain_grace in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
            if Unix.gettimeofday () > deadline then begin
              Printf.eprintf
                "fpgrind shard: worker %d ignored drain; killing\n%!" pid;
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (try Unix.waitpid [] pid with Unix.Unix_error _ -> (0, Unix.WEXITED 0))
            end
            else begin
              Thread.delay 0.02;
              wait ()
            end
        | _, _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ())
    pids;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (* one line, --quiet or not: this is the operational signal that the
     rolling drain finished and the store (which workers append to as
     results complete) is on disk *)
  Printf.eprintf "fpgrind shard: drained, store flushed, exiting\n%!";
  !exit_code
