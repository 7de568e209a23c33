(* Clock, order statistics, process memory and the environment stamp. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank quantile of a non-empty sample. *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = quantile 0.5 xs

(* How many samples lie above the q-quantile: a percentile is reported
   only when at least ten do. *)
let beyond q n = n - int_of_float (Float.ceil (q *. float_of_int n))

(* substring test *)
let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at k = k + n <= h && (String.sub hay k n = needle || at (k + 1)) in
  at 0

(* The highest of the usual upper percentiles that has at least ten of
   [n] samples beyond it. *)
let tail_q n =
  match List.find_opt (fun q -> beyond q n >= 10) [ 0.99; 0.95; 0.9; 0.75 ] with
  | Some q -> q
  | None -> 0.5

let sum xs = List.fold_left ( +. ) 0.0 xs

let geomean xs =
  match List.filter (fun x -> x > 0.0 && Float.is_finite x) xs with
  | [] -> 0.0
  | ys -> Float.exp (sum (List.map Float.log ys) /. float_of_int (List.length ys))

(* Repeat [f] until [seconds] have passed, at least [min] times. *)
let repeat_for ~seconds ?(min = 1) f =
  let t0 = now_s () in
  let rec go i acc =
    if i >= min && now_s () -. t0 >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* ---------- process memory ---------- *)

let status_kb ~pid field =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            let pre = field ^ ":" in
            let lp = String.length pre in
            if String.length line > lp && String.sub line 0 lp = pre then
              Scanf.sscanf (String.sub line lp (String.length line - lp))
                " %d" Fun.id
            else go ()
      in
      let v = go () in
      close_in ic;
      v

(* Peak resident set of a process, in MB (VmHWM). *)
let peak_rss_mb pid = float_of_int (status_kb ~pid "VmHWM") /. 1024.0

let children_of ppid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some pid -> (
             match open_in (Printf.sprintf "/proc/%d/stat" pid) with
             | exception Sys_error _ -> None
             | ic ->
                 let line = try input_line ic with End_of_file -> "" in
                 close_in ic;
                 (* "pid (comm) state ppid ..." — comm may hold spaces *)
                 match String.rindex_opt line ')' with
                 | None -> None
                 | Some i -> (
                     let rest = String.sub line (i + 2) (String.length line - i - 2) in
                     match String.split_on_char ' ' rest with
                     | _state :: pp :: _ when int_of_string_opt pp = Some ppid ->
                         Some pid
                     | _ -> None)))

(* ---------- environment stamp ---------- *)

let read_first_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> None
  | ic ->
      let l = try Some (input_line ic) with End_of_file -> None in
      ignore (Unix.close_process_in ic);
      l

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> "unknown"
        | l when String.length l > 10 && String.sub l 0 10 = "model name" -> (
            match String.index_opt l ':' with
            | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
            | None -> "unknown")
        | _ -> go ()
      in
      let m = go () in
      close_in ic;
      m

let env_stamp () =
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ( "git_rev",
      (* only the checkout's own history: never a repository above it *)
      if Sys.file_exists ".git" then
        Option.value ~default:"unknown"
          (read_first_line "git rev-parse --short=12 HEAD")
      else "unknown" );
    ("cpu", cpu_model ());
  ]


