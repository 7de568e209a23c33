(* client: talk to a running fpgrind serve *)

open Cmdliner

let action_arg =
  Arg.(
    required
    & pos 0
        (some
           (enum
              [
                ("analyze", `Submit "analyze"); ("sanitize", `Submit "sanitize");
                ("fuzz", `Fuzz); ("health", `Get "/healthz");
                ("metrics", `Get "/metrics"); ("findings", `Get "/findings");
              ]))
        None
    & info [] ~docv:"ACTION"
        ~doc:"One of analyze, sanitize, fuzz, health, metrics, findings.")

let target_arg =
  Arg.(
    value & pos 1 (some string) None
    & info [] ~docv:"PROGRAM"
        ~doc:
          "For analyze: a MiniC (.mc) or FPCore (.fpcore) source file, \
           or bench:NAME for a suite benchmark.")

let match_arg =
  Arg.(
    value & opt (some string) None
    & info [ "match" ] ~docv:"FILE"
        ~doc:
          "After an analyze request, assert the response equals the \
           record with the same benchmark name in the JSONL store \
           $(docv) on every field except wall_s; exit nonzero on \
           mismatch.")

let fuzz_seed_arg =
  Arg.(value & opt int 42 & info [ "fuzz-seed" ] ~docv:"N" ~doc:"Fuzz seed.")

let regimes_arg =
  Arg.(
    value & flag
    & info [ "regimes" ]
        ~doc:
          "For analyze on a bench:NAME target: ask the server to run \
           regime inference and annotate the record with the branch \
           structure (sent as the $(b,regimes=1) query parameter).")

let repeat_arg =
  Arg.(
    value & opt int 1
    & info [ "repeat" ] ~docv:"N"
        ~doc:
          "Send the request $(docv) times over a single keep-alive \
           connection; only the last response is printed (and compared \
           by --match). Useful for warming the server cache and for \
           eyeballing keep-alive behaviour.")

(* A cached record is by construction a copy of an ok record, so the
   comparison normalises "cached" to "ok"; everything else but the
   wall-time is compared strictly. *)
let strip_wall (j : Json.t) : Json.t =
  match j with
  | Json.Obj kvs ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if k = "wall_s" then None
             else if k = "status" && v = Json.Str "cached" then
               Some (k, Json.Str "ok")
             else Some (k, v))
           kvs)
  | j -> j

(* --match: the response against the same-named record of the store *)
let match_record ~store_path body =
  let resp = Json.of_string (String.trim body) in
  let got = strip_wall resp in
  let name = Json.get_str "name" resp in
  let resp_engine =
    match Json.member "engine" resp with Some (Json.Str s) -> s | _ -> "full"
  in
  let expected =
    match
      List.find_opt
        (fun (o : Fleet.outcome) -> o.Fleet.o_name = name)
        (Fleet.Store.load store_path)
    with
    | Some o ->
        (* a full-engine record says nothing about the sanitizer (and
           vice versa): comparing them would only ever report a
           meaningless mismatch *)
        if o.Fleet.o_engine <> resp_engine then
          failwith
            (Printf.sprintf
               "refusing to --match across engines: the response for %s came \
                from the %s engine but the record in %s came from the %s \
                engine"
               name resp_engine store_path o.Fleet.o_engine);
        strip_wall (Fleet.Store.outcome_to_json o)
    | None ->
        failwith (Printf.sprintf "no record named %s in %s" name store_path)
  in
  if Json.to_string got = Json.to_string expected then begin
    Printf.eprintf
      "match: response equals the stored record for %s (modulo wall_s)\n" name;
    0
  end
  else begin
    Printf.eprintf "MISMATCH for %s\n  server: %s\n  store:  %s\n" name
      (Json.to_string got) (Json.to_string expected);
    1
  end

let run action target port host inputs iterations seed precision threshold
    match_store iters fuzz_seed timeout engine regimes repeat =
  let enc = Serve.Http.percent_encode in
  let query_opt key = function
    | None -> ""
    | Some v -> "&" ^ key ^ "=" ^ enc v
  in
  let timeout_q =
    query_opt "timeout" (Option.map (Printf.sprintf "%g") timeout)
  in
  Common.guard @@ fun () ->
  (* the request is built before dialing, so argument errors never
     connect *)
  let meth, path, body =
    match action with
    | `Get path -> ("GET", path, None)
    | `Fuzz ->
        let path =
          Printf.sprintf "/fuzz?seed=%d&iters=%d%s" fuzz_seed iters timeout_q
        in
        ("POST", path, None)
    | `Submit name ->
        let target =
          match target with
          | Some t -> t
          | None ->
              failwith
                (Printf.sprintf "client %s needs a PROGRAM argument" name)
        in
        let body =
          match Common.bench_name target with
          | Some _ -> target
          | None -> Common.read_file target
        in
        let inputs =
          match inputs with
          | [] -> None
          | fs -> Some (String.concat "," (List.map (Printf.sprintf "%h") fs))
        in
        let path =
          Printf.sprintf
            "/%s?iterations=%d&seed=%d&precision=%d&threshold=%s%s%s%s%s" name
            iterations seed precision
            (enc (Printf.sprintf "%.17g" threshold))
            (query_opt "inputs" inputs) timeout_q
            (query_opt "engine" (Option.map Core.Config.engine_name engine))
            (if regimes then "&regimes=1" else "")
        in
        ("POST", path, Some body)
  in
  (* every repeat shares one keep-alive connection *)
  let conn = Serve.Client.connect ~host ~port () in
  let r = ref (Serve.Client.request_conn conn ~meth ~path ?body ()) in
  for _ = 2 to max 1 repeat do
    r := Serve.Client.request_conn conn ~meth ~path ?body ()
  done;
  Serve.Client.close conn;
  let r = !r in
  print_string r.Serve.Client.c_body;
  match (action, match_store) with
  | _ when r.Serve.Client.c_status / 100 <> 2 -> 1
  | `Submit _, Some store_path -> match_record ~store_path r.Serve.Client.c_body
  | _ -> 0

let cmd =
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running fpgrind serve: submit an analysis or fuzz \
          campaign, or fetch /healthz or /metrics.")
    Term.(
      const run $ action_arg $ target_arg
      $ Common.port_arg ~doc:"Server port."
      $ Common.host_arg ~doc:"Server address."
      $ Common.inputs_arg $ Common.iterations_arg ()
      $ Common.seed_arg ~default:1 ~doc:"Input sampling seed."
      $ Common.precision_arg $ Common.threshold_arg $ match_arg
      $ Common.iters_arg ~default:100 ~doc:"Fuzz campaign length."
      $ fuzz_seed_arg
      $ Common.timeout_arg ~doc:"Per-request analysis deadline."
      $ Common.engine_opt_arg
          ~doc:
            "Analysis engine for the analyze action: $(b,full), \
             $(b,sanitize) or $(b,tiered). Sent to the server as the \
             $(b,engine) query parameter."
      $ regimes_arg $ repeat_arg)
