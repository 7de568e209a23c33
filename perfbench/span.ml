(* In-memory span tracer for the traced run.

   A span records one call into a layer, made from the benchmark's own
   code: its name, start and end on the monotonic clock, the span that
   was open around it (its parent) and, on serve, the request id shared
   by the spans of one request. Each domain appends to its own buffer
   and keeps its own stack of open spans, so worker domains of a
   [Fleet.run] pass never contend. Nothing is recorded unless [enabled]
   is set, and then [with_span] costs two clock reads and one record. *)

type t = {
  id : int;
  name : string;
  parent : int;  (* -1 at the root *)
  req : int;  (* request id on serve, -1 elsewhere *)
  domain : int;
  start_ns : int64;
  mutable stop_ns : int64;
}

let enabled = ref false
let next_id = Atomic.make 0

type buffer = { mutable spans : t list; mutable stack : t list }

let buffers_mu = Mutex.create ()
let buffers : buffer list ref = ref []

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; stack = [] } in
      Mutex.lock buffers_mu;
      buffers := b :: !buffers;
      Mutex.unlock buffers_mu;
      b)

let now_ns () = Monotonic_clock.now ()

let with_span ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let b = Domain.DLS.get buffer_key in
    let parent = match b.stack with p :: _ -> p.id | [] -> -1 in
    let req = match (req, b.stack) with -1, p :: _ -> p.req | _ -> req in
    let sp =
      {
        id = Atomic.fetch_and_add next_id 1;
        name;
        parent;
        req;
        domain = (Domain.self () :> int);
        start_ns = now_ns ();
        stop_ns = 0L;
      }
    in
    b.stack <- sp :: b.stack;
    let finish () =
      sp.stop_ns <- now_ns ();
      b.stack <- List.tl b.stack;
      b.spans <- sp :: b.spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* The innermost open span of the calling domain, -1 if none. *)
let current () =
  if not !enabled then -1
  else match (Domain.DLS.get buffer_key).stack with p :: _ -> p.id | [] -> -1

(* Record an already-closed span under an explicit parent: for threads
   that share a domain (the serve load generator), which must not share
   its stack of open spans. *)
let record_mu = Mutex.create ()

let record ?(req = -1) ~parent name start_ns stop_ns =
  if !enabled then begin
    let b = Domain.DLS.get buffer_key in
    let sp =
      {
        id = Atomic.fetch_and_add next_id 1;
        name;
        parent;
        req;
        domain = (Domain.self () :> int);
        start_ns;
        stop_ns;
      }
    in
    Mutex.lock record_mu;
    b.spans <- sp :: b.spans;
    Mutex.unlock record_mu
  end

(* Every closed span recorded so far, oldest first; the buffers are
   emptied. Call only while no other domain is recording. *)
let take () : t list =
  Mutex.lock buffers_mu;
  let all = List.concat_map (fun b -> b.spans) !buffers in
  List.iter (fun b -> b.spans <- []) !buffers;
  Mutex.unlock buffers_mu;
  List.sort (fun a b -> compare a.start_ns b.start_ns) all

let duration_s sp = Int64.to_float (Int64.sub sp.stop_ns sp.start_ns) *. 1e-9

(* Self time per span name: each span's duration minus the part its
   direct children cover (children run inside their parent, on the same
   domain). *)
let self_times (spans : t list) : (string, float) Hashtbl.t =
  let child_s = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace child_s sp.parent
          (duration_s sp
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_s sp.parent)))
    spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun sp ->
      let own =
        duration_s sp
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_s sp.id)
      in
      Hashtbl.replace self sp.name
        (own +. Option.value ~default:0.0 (Hashtbl.find_opt self sp.name)))
    spans;
  self

let self_of tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

(* Durations of every span with this name, in seconds. *)
let durations name spans =
  List.filter_map
    (fun sp -> if sp.name = name then Some (duration_s sp) else None)
    spans

let write path (spans : t list) =
  let oc = open_out path in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"domain\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        sp.id sp.name sp.parent sp.req sp.domain sp.start_ns sp.stop_ns)
    spans;
  close_out oc
