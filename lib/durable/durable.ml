(* See durable.mli for the protocol; this file is its only implementation. *)

let torn = Atomic.make 0
let torn_total () = Atomic.get torn

(* fcntl locks are per process and released by any close of the file,
   so a thread closing a log would drop another thread's lock on it *)
let mu = Mutex.create ()

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let with_fd path flags f =
  locked (fun () ->
      let fd = Unix.openfile path flags 0o666 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> f fd))

(* [lockf fd _ 0] covers the current offset to the end of the file and
   beyond, so callers lock before they seek *)
let rec lock fd kind =
  match Unix.lockf fd kind 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> lock fd kind
  | exception Unix.Unix_error _ -> false

(* bytes [lo, hi) of [fd]; fewer when the file is shorter *)
let pread fd lo hi =
  ignore (Unix.lseek fd lo Unix.SEEK_SET);
  let buf = Bytes.create (hi - lo) in
  let rec go got =
    if got = hi - lo then got
    else
      match Unix.read fd buf got (hi - lo - got) with
      | 0 -> got
      | k -> go (got + k)
  in
  Bytes.sub_string buf 0 (go 0)

(* everything from [off] on, read under the shared lock *)
let read_from path off =
  with_fd path [ Unix.O_RDONLY ] (fun fd ->
      ignore (lock fd Unix.F_RLOCK);
      let size = (Unix.fstat fd).Unix.st_size in
      if size <= off then "" else pread fd off size)

(* Under the exclusive lock no writer is mid-append, so bytes after the
   last newline are a dead writer's torn record. Rare, so the whole
   file is read to find that newline. *)
let repair path fd =
  let size = (Unix.fstat fd).Unix.st_size in
  if size > 0 && pread fd (size - 1) size <> "\n" then begin
    let keep =
      match String.rindex_opt (pread fd 0 size) '\n' with
      | Some i -> i + 1
      | None -> 0
    in
    Unix.ftruncate fd keep;
    Atomic.incr torn;
    Printf.eprintf
      "warning: %s: truncated a torn %d-byte record left by an interrupted \
       writer\n%!"
      path (size - keep)
  end

let append path lines =
  if lines <> [] then begin
    let data = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
    let n = String.length data in
    with_fd path [ Unix.O_RDWR; Unix.O_APPEND; Unix.O_CREAT ] (fun fd ->
        if lock fd Unix.F_LOCK then repair path fd;
        let rec go sent =
          if sent < n then
            go (sent + Unix.write_substring fd data sent (n - sent))
        in
        go 0)
  end

let read path decode =
  let data =
    try read_from path 0
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (path ^ ": " ^ Unix.error_message e))
  in
  let rec go i acc = function
    | [] -> (List.rev acc, 0)
    | [ tail ] when String.trim tail <> "" ->
        Printf.eprintf
          "warning: %s:%d: skipping torn trailing record (no newline)\n%!" path
          i;
        Atomic.incr torn;
        (List.rev acc, 1)
    | line :: rest when String.trim line = "" -> go (i + 1) acc rest
    | line :: rest -> (
        match decode line with
        | v -> go (i + 1) (v :: acc) rest
        | exception (Json.Parse_error msg | Failure msg) ->
            raise (Json.Parse_error (Printf.sprintf "%s:%d: %s" path i msg)))
  in
  go 1 [] (String.split_on_char '\n' data)

type tail = { path : string; mutable off : int; mutable bad : int }

let tail path = { path; off = 0; bad = 0 }
let skipped t = t.bad

let poll t f =
  let data = try read_from t.path t.off with Unix.Unix_error _ -> "" in
  match String.rindex_opt data '\n' with
  | None -> ()
  | Some last ->
      t.off <- t.off + last + 1;
      String.split_on_char '\n' (String.sub data 0 last)
      |> List.iter (fun line ->
             if String.trim line <> "" then
               try f line
               with Json.Parse_error _ | Failure _ ->
                 t.bad <- t.bad + 1;
                 Atomic.incr torn)

(* The temporary name is unique per process, and [mu] serializes
   replaces within one; [open_out] applies the umask as usual. *)
let replace path lines =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  locked (fun () ->
      try
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            List.iter
              (fun l ->
                output_string oc l;
                output_char oc '\n')
              lines;
            close_out oc);
        Sys.rename tmp path
      with e ->
        (try Sys.remove tmp with Sys_error _ -> ());
        raise e)
