(* The campaign findings feed: one JSON object per line, append-only.
   Append-only is the contract that makes resume byte-identity checkable
   — a finding for stream index [i] is a pure function of (seed, i,
   config), findings are appended in index order, so the merged feed of
   an interrupted+resumed run is byte-identical to an uninterrupted one.
   The server tails this file for `GET /findings`. *)

type finding = {
  f_index : int;  (* campaign stream index that produced it *)
  f_seed : int;
  f_kind : string;  (* "divergence" | "error" | "soundiness" | "regime" *)
  f_subject : string;  (* program digest, or benchmark name *)
  f_detail : string;  (* oracle leg + detail, or regression summary *)
  f_table : string;  (* actual-vs-predicted error table; "" when n/a *)
  f_repro : string;  (* minimized reproducer source; "" when n/a *)
  f_regime_candidate : bool option;
      (* soundiness: Some true when regime inference retires the overfit
         (its validation-gated fix is sound on resample); regime: the
         shipped fix's own soundness verdict *)
}

let to_json (f : finding) : Json.t =
  Json.Obj
    ([
       ("index", Json.Num (float_of_int f.f_index));
       ("seed", Json.Num (float_of_int f.f_seed));
       ("kind", Json.Str f.f_kind);
       ("subject", Json.Str f.f_subject);
       ("detail", Json.Str f.f_detail);
     ]
    @ (if f.f_table = "" then [] else [ ("table", Json.Str f.f_table) ])
    @ (if f.f_repro = "" then [] else [ ("repro", Json.Str f.f_repro) ])
    @
    match f.f_regime_candidate with
    | None -> []
    | Some b -> [ ("regime_candidate", Json.Bool b) ])

let to_line (f : finding) : string = Json.to_string (to_json f)

let of_json (j : Json.t) : finding =
  {
    f_index = Json.get_int "index" j;
    f_seed = Json.get_int "seed" j;
    f_kind = Json.get_str "kind" j;
    f_subject = Json.get_str "subject" j;
    f_detail = Json.get_str "detail" j;
    f_table = Json.get_str "table" j;
    f_repro = Json.get_str "repro" j;
    f_regime_candidate =
      (match Json.member "regime_candidate" j with
      | Some (Json.Bool b) -> Some b
      | _ -> None);
  }

let of_line (line : string) : finding option =
  match Json.of_string line with
  | j -> Some (of_json j)
  | exception Json.Parse_error _ -> None

(* One call is one Durable append: the feed is live for `GET /findings`
   while the campaign runs, and a crash can at worst tear the final
   record, which readers skip and the next append truncates. *)
let append ~(path : string) (fs : finding list) : unit =
  Durable.append path (List.map to_line fs)

let load (path : string) : finding list =
  if not (Sys.file_exists path) then []
  else fst (Durable.read path (fun l -> of_json (Json.of_string l)))

(* Cut the feed back to the findings of stream indices below [next],
   kept verbatim. A campaign killed between checkpoints resumes from the
   last one, and its feed may run ahead of it, torn tail included; the
   resumed run appends those findings again. *)
let truncate ~(path : string) ~(next : int) : unit =
  if Sys.file_exists path then begin
    let lines, torn =
      Durable.read path (fun l -> (Json.get_int "index" (Json.of_string l), l))
    in
    let keep = List.filter (fun (i, _) -> i < next) lines in
    if torn > 0 || List.length keep < List.length lines then
      Durable.replace path (List.map snd keep)
  end
