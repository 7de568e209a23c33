(* The fleet's results store: one JSON object per line (JSONL), plus the
   human summary table. The JSONL file doubles as the result cache — a
   re-run loads it, and jobs whose content-hash key matches a stored
   successful result are skipped.

   Nothing order- or time-dependent goes into the comparable fields: a
   record's [summary], [report], and [metrics] depend only on the job
   itself, so stores written by `-j 1` and `-j 4` runs differ at most in
   [wall_s]. *)

let status_to_string = function
  | Engine.Done -> "ok"
  | Engine.Failed _ -> "failed"
  | Engine.Timed_out -> "timeout"
  | Engine.Cached -> "cached"

let metrics_to_json (m : Engine.metrics) : Json.t =
  Json.Obj
    [
      ("blocks", Json.Num (float_of_int m.Engine.m_blocks));
      ("stmts", Json.Num (float_of_int m.Engine.m_stmts));
      ("stmts_executed", Json.Num (float_of_int m.Engine.m_stmts_executed));
      ("fp_ops", Json.Num (float_of_int m.Engine.m_fp_ops));
      ("trace_nodes", Json.Num (float_of_int m.Engine.m_trace_nodes));
      ( "traces_materialized",
        Json.Num (float_of_int m.Engine.m_traces_materialized) );
      ("spots", Json.Num (float_of_int m.Engine.m_spots));
      ("causes", Json.Num (float_of_int m.Engine.m_causes));
      ("compensations", Json.Num (float_of_int m.Engine.m_compensations));
      ("err_max_bits", Json.Num m.Engine.m_err_max);
      ("escalations", Json.Num (float_of_int m.Engine.m_escalations));
      ("slice_stmts", Json.Num (float_of_int m.Engine.m_slice_stmts));
    ]

let metrics_of_json (v : Json.t) : Engine.metrics =
  {
    Engine.m_blocks = Json.get_int "blocks" v;
    m_stmts = Json.get_int "stmts" v;
    (* absent in stores written before the compiled executor: default 0 *)
    m_stmts_executed = Json.get_int "stmts_executed" v;
    m_fp_ops = Json.get_int "fp_ops" v;
    m_trace_nodes = Json.get_int "trace_nodes" v;
    m_traces_materialized = Json.get_int "traces_materialized" v;
    m_spots = Json.get_int "spots" v;
    m_causes = Json.get_int "causes" v;
    m_compensations = Json.get_int "compensations" v;
    m_err_max = Json.get_num "err_max_bits" v;
    (* absent in stores written before the tiered engine: default 0 *)
    m_escalations = Json.get_int "escalations" v;
    m_slice_stmts = Json.get_int "slice_stmts" v;
  }

let outcome_to_json (o : Engine.outcome) : Json.t =
  Json.Obj
    ([
       ("name", Json.Str o.Engine.o_name);
       ("group", Json.Str o.Engine.o_group);
       ("key", Json.Str o.Engine.o_key);
       ("engine", Json.Str o.Engine.o_engine);
       ("status", Json.Str (status_to_string o.Engine.o_status));
       ("wall_s", Json.Num o.Engine.o_wall_s);
     ]
    @ (match o.Engine.o_status with
      | Engine.Failed msg -> [ ("error", Json.Str msg) ]
      | _ -> [])
    @
    match o.Engine.o_payload with
    | None -> []
    | Some p -> (
        [
          ("metrics", metrics_to_json p.Engine.p_metrics);
          ("summary", Json.Str p.Engine.p_summary);
          ("report", Json.Str p.Engine.p_report);
        ]
        (* regime fields are additive: absent in records written without
           --regimes, so pre-existing stores stay byte-identical *)
        @
        match p.Engine.p_regime with
        | None -> []
        | Some rs ->
            [
              ("regimes", Json.Num (float_of_int rs.Engine.rs_regimes));
              ( "thresholds",
                Json.Arr
                  (List.map
                     (fun (var, value) ->
                       Json.Obj
                         [ ("var", Json.Str var); ("value", Json.Num value) ])
                     rs.Engine.rs_thresholds) );
              ("error_table", Json.Str rs.Engine.rs_error_table);
              ( "regime_search_points",
                Json.Num (float_of_int rs.Engine.rs_search_points) );
            ]))

let outcome_of_json (v : Json.t) : Engine.outcome =
  let status =
    match Json.get_str "status" v with
    | "ok" -> Engine.Done
    | "failed" -> Engine.Failed (Json.get_str "error" v)
    | "timeout" -> Engine.Timed_out
    | "cached" -> Engine.Cached
    | s -> failwith ("Store.outcome_of_json: unknown status " ^ s)
  in
  let payload =
    match Json.member "metrics" v with
    | None -> None
    | Some m ->
        let regime =
          match Json.member "regimes" v with
          | None -> None
          | Some _ ->
              Some
                {
                  Engine.rs_regimes = Json.get_int "regimes" v;
                  rs_thresholds =
                    (match Json.member "thresholds" v with
                    | Some (Json.Arr ts) ->
                        List.map
                          (fun t ->
                            (Json.get_str "var" t, Json.get_num "value" t))
                          ts
                    | _ -> []);
                  rs_error_table = Json.get_str "error_table" v;
                  rs_search_points =
                    (match Json.member "regime_search_points" v with
                    | Some (Json.Num n) -> int_of_float n
                    | _ -> 0);
                }
        in
        Some
          {
            Engine.p_metrics = metrics_of_json m;
            p_summary = Json.get_str "summary" v;
            p_report = Json.get_str "report" v;
            p_regime = regime;
          }
  in
  {
    Engine.o_name = Json.get_str "name" v;
    o_group = Json.get_str "group" v;
    o_key = Json.get_str "key" v;
    (* stores written before the sanitizer existed carry no engine field;
       everything in them came from the full engine *)
    o_engine =
      (match Json.member "engine" v with Some (Json.Str s) -> s | _ -> "full");
    o_status = status;
    o_wall_s = Json.get_num "wall_s" v;
    o_payload = payload;
  }

(* ---------- files ---------- *)

(* The file protocol, its torn-record policy and locking live in
   Durable; a store is a Durable log of [outcome_to_json] lines. *)

let save (path : string) (outcomes : Engine.outcome list) : unit =
  Durable.replace path
    (List.map (fun o -> Json.to_string (outcome_to_json o)) outcomes)

let corrupt_tail_total = Durable.torn_total

(* Raises [Json.Parse_error] with the offending line number on a
   malformed store, except for a torn trailing record, which is skipped.
   Returns the parsed outcomes and how many records were skipped (0 or
   1). *)
let load_lenient (path : string) : Engine.outcome list * int =
  Durable.read path (fun line -> outcome_of_json (Json.of_string line))

let load (path : string) : Engine.outcome list = fst (load_lenient path)

(* Only successful results with a nonempty key are reusable. *)
let reusable (o : Engine.outcome) : bool =
  match o.Engine.o_status with
  | Engine.Done | Engine.Cached -> o.Engine.o_key <> ""
  | Engine.Failed _ | Engine.Timed_out -> false

(* A cache over a previous store. Missing file = empty cache. *)
let cache_of_file (path : string) : string -> Engine.outcome option =
  if not (Sys.file_exists path) then fun _ -> None
  else begin
    let tbl = Hashtbl.create 97 in
    List.iter
      (fun o -> if reusable o then Hashtbl.replace tbl o.Engine.o_key o)
      (load path);
    Hashtbl.find_opt tbl
  end

(* ---------- the human summary ---------- *)

let summary_table (outcomes : Engine.outcome list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-26s %-14s %-8s %9s %10s %7s\n" "benchmark" "group"
       "status" "wall(s)" "err(bits)" "causes");
  List.iter
    (fun (o : Engine.outcome) ->
      let err, causes =
        match o.Engine.o_payload with
        | Some p ->
            ( Printf.sprintf "%10.1f" p.Engine.p_metrics.Engine.m_err_max,
              Printf.sprintf "%7d" p.Engine.p_metrics.Engine.m_causes )
        | None -> (Printf.sprintf "%10s" "-", Printf.sprintf "%7s" "-")
      in
      Buffer.add_string buf
        (Printf.sprintf "%-26s %-14s %-8s %9.2f %s %s\n" o.Engine.o_name
           o.Engine.o_group
           (status_to_string o.Engine.o_status)
           o.Engine.o_wall_s err causes))
    outcomes;
  let count pred = List.length (List.filter pred outcomes) in
  let ok = count (fun o -> o.Engine.o_status = Engine.Done) in
  let cached = count (fun o -> o.Engine.o_status = Engine.Cached) in
  let timeout = count (fun o -> o.Engine.o_status = Engine.Timed_out) in
  let failed =
    count (fun o ->
        match o.Engine.o_status with Engine.Failed _ -> true | _ -> false)
  in
  let wall =
    List.fold_left (fun acc o -> acc +. o.Engine.o_wall_s) 0.0 outcomes
  in
  Buffer.add_string buf
    (Printf.sprintf
       "%d jobs: %d ok, %d cached, %d failed, %d timeout; total wall %.2fs\n"
       (List.length outcomes) ok cached failed timeout wall);
  (* per-engine record counts, deterministic order: full first *)
  let engines =
    List.sort_uniq compare (List.map (fun o -> o.Engine.o_engine) outcomes)
  in
  let engines =
    List.filter (fun e -> e = "full") engines
    @ List.filter (fun e -> e <> "full") engines
  in
  if engines <> [] then
    Buffer.add_string buf
      (Printf.sprintf "engines: %s\n"
         (String.concat ", "
            (List.map
               (fun e ->
                 Printf.sprintf "%s %d" e
                   (count (fun o -> o.Engine.o_engine = e)))
               engines)));
  Buffer.contents buf
