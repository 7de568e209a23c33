(* The server's result cache: an in-memory index by content-hash key,
   optionally over a store file, a Durable log in the Fleet.Store record
   format (so `fpgrind validate` reads it directly). Every server
   process on one store, a single server or the shards of a pre-forked
   one, appends each fresh result to it as the result completes and
   tails it on cache misses, so a result computed on shard 1 is a hit on
   shard 3 and one computed before a restart is a hit after it. A
   killed server loses at most its in-flight work. *)

type t = {
  mu : Mutex.t;
  tbl : (string, Fleet.outcome) Hashtbl.t;
  log : (string * Durable.tail) option;  (* the store file, if any *)
}

let make log = { mu = Mutex.create (); tbl = Hashtbl.create 97; log }
let create (path : string) : t = make (Some (path, Durable.tail path))

(* a cache that lives and dies with the process *)
let in_memory () : t = make None

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Index the records appended since the last refresh. Caller holds
   [t.mu]. *)
let refresh_locked (t : t) : unit =
  match t.log with
  | None -> ()
  | Some (_, tail) ->
      Durable.poll tail (fun line ->
          let o = Fleet.Store.outcome_of_json (Json.of_string line) in
          if Fleet.Store.reusable o then Hashtbl.replace t.tbl o.Fleet.o_key o)

let lookup (t : t) (key : string) : Fleet.outcome option =
  if key = "" then None
  else
    with_lock t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some _ as hit -> hit
        | None ->
            refresh_locked t;
            Hashtbl.find_opt t.tbl key)

(* Only reusable results are kept, and only those keep the store
   `fpgrind validate`-clean. *)
let publish (t : t) (o : Fleet.outcome) : unit =
  if Fleet.Store.reusable o then begin
    (match t.log with
    | Some (path, _) ->
        Durable.append path
          [ Json.to_string (Fleet.Store.outcome_to_json o) ]
    | None -> ());
    with_lock t (fun () -> Hashtbl.replace t.tbl o.Fleet.o_key o)
  end

(* store lines skipped because they did not decode *)
let torn_total (t : t) : int =
  match t.log with
  | None -> 0
  | Some (_, tail) -> with_lock t (fun () -> Durable.skipped tail)
