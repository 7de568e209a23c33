(* The accuracy improver: a beam search over rewrite rules, scoring each
   candidate by measured bits of error on sample inputs (float evaluation
   against the high-precision real evaluation). This is the reproduction's
   stand-in for Herbie (Panchekha et al. 2015), used to close the loop on
   Herbgrind's reports: the report's FPCore expression goes in, a
   more-accurate equivalent comes out (paper section 3.1). *)

module Ast = Fpcore.Ast

type sample = (string * float) list
(* one assignment of input variables *)

(* Mean measured error over the samples, with the domain errors counted
   separately: a sample where evaluation raises (sqrt of a negative, a
   log of zero under some candidate rewrite) says nothing about rounding
   error, so it must not enter the mean — scoring it as a flat 64 bits
   used to let one out-of-domain sample poison an otherwise-accurate
   candidate. A candidate with no in-domain samples at all scores
   [infinity] (it computes nothing, so it must never win the beam). *)
let error_bits_stats ?(prec = 256) (e : Ast.expr) (samples : sample list) :
    float * int * int =
  let total, valid, domain_errors =
    List.fold_left
      (fun (total, valid, domain_errors) env ->
        match
          let f = Fpcore.Eval.eval_f env e in
          let renv =
            List.map (fun (x, v) -> (x, Bignum.Bigfloat.of_float v)) env
          in
          let r = Fpcore.Eval.eval_r ~prec renv e in
          (f, r)
        with
        | f, r ->
            let err = Ieee.bits_of_error f (Bignum.Bigfloat.to_float r) in
            (total +. err, valid + 1, domain_errors)
        | exception _ -> (total, valid, domain_errors + 1))
      (0.0, 0, 0) samples
  in
  let mean =
    if valid > 0 then total /. float_of_int valid
    else if domain_errors > 0 then infinity
    else 0.0
  in
  (mean, valid, domain_errors)

let mean_error_bits ?prec (e : Ast.expr) (samples : sample list) : float =
  let mean, _, _ = error_bits_stats ?prec e samples in
  mean

(* Candidate score over the FULL point context. The bare mean silently
   drops every point where a candidate leaves the domain, so a rewrite
   that only survives on a handful of points used to be scored on that
   handful alone — single-representative-point scoring in the extreme,
   and the root of the depth-2 overfits the soundiness oracle found.
   Points the *original* already loses say nothing about the rewrite and
   stay excluded; a domain exit the candidate *introduces* counts as a
   worst-case 64 bits, so shrinking the domain can never look like an
   accuracy win. *)
let score_on_context ?(prec = 256) ~(baseline_domain_errors : int)
    (e : Ast.expr) (samples : sample list) : float =
  let mean, valid, domain_errors = error_bits_stats ~prec e samples in
  let extra = max 0 (domain_errors - baseline_domain_errors) in
  if valid = 0 || extra = 0 then mean
  else
    ((mean *. float_of_int valid) +. (64.0 *. float_of_int extra))
    /. float_of_int (valid + extra)

(* fold operations whose arguments are all literal constants *)
let rec constant_fold (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Op (f, args) -> begin
      let args = List.map constant_fold args in
      let nums =
        List.filter_map (function Ast.Num v -> Some v | _ -> None) args
      in
      if List.length nums = List.length args && args <> [] then begin
        match Fpcore.Eval.apply_f f nums with
        | v when Float.is_finite v -> Ast.Num v
        | _ | (exception _) -> Ast.Op (f, args)
      end
      else Ast.Op (f, args)
    end
  | Ast.Num _ | Ast.Var _ | Ast.Const _ -> e
  | _ -> e

(* all single-step rewrites of [e] (at any position, any rule) *)
let rewrites (rules : Rules.rule list) (e : Ast.expr) : Ast.expr list =
  let at_root e =
    List.filter_map
      (fun (r : Rules.rule) ->
        match Pattern.matches r.Rules.lhs e [] with
        | Some env -> begin
            match Pattern.instantiate r.Rules.rhs env with
            | e' -> Some e'
            | exception Invalid_argument _ -> None
          end
        | None -> None)
      rules
  in
  let rec go (e : Ast.expr) : Ast.expr list =
    let here = at_root e in
    let deeper =
      match e with
      | Ast.Op (f, args) ->
          List.concat
            (List.mapi
               (fun i _ ->
                 let arg = List.nth args i in
                 List.map
                   (fun arg' ->
                     Ast.Op (f, List.mapi (fun j a -> if j = i then arg' else a) args))
                   (go arg))
               args)
      | Ast.Num _ | Ast.Var _ | Ast.Const _ -> []
      | Ast.If _ | Ast.Let _ | Ast.LetStar _ | Ast.While _ | Ast.WhileStar _
      | Ast.Cmp _ | Ast.AndE _ | Ast.OrE _ | Ast.NotE _ ->
          []
    in
    here @ deeper
  in
  go e

type result = {
  original : Ast.expr;
  improved : Ast.expr;
  error_before : float;
  error_after : float;
  steps : string list;  (* placeholder: names not tracked through beam *)
}

let rec expr_size (e : Ast.expr) : int =
  match e with
  | Ast.Num _ | Ast.Var _ | Ast.Const _ -> 1
  | Ast.Op (_, args) -> 1 + List.fold_left (fun a e -> a + expr_size e) 0 args
  | _ -> 1000

(* The beam search: the original's mean error, and the global top-[keep]
   scored candidates (best first, the original always in the pool).
   [improve] takes the head; the regime search branches over the whole
   set, because the best expression *per input region* is rarely the
   best overall. *)
let beam_search ~beam ~depth ~prec ~keep (e : Ast.expr) (samples : sample list)
    : float * (float * Ast.expr) list =
  let e0_err, _, base_derr = error_bits_stats ~prec e samples in
  let score e' =
    score_on_context ~prec ~baseline_domain_errors:base_derr e' samples
  in
  let seen = Hashtbl.create 64 in
  let key e = Marshal.to_string e [] in
  Hashtbl.replace seen (key e) ();
  let better (a, ea) (b, eb) =
    match compare a b with
    | 0 -> compare (expr_size ea) (expr_size eb)
    | c -> c
  in
  let top = ref [ (e0_err, e) ] in
  let insert c =
    top := List.filteri (fun i _ -> i < keep) (List.sort better (c :: !top))
  in
  let frontier = ref [ (e0_err, e) ] in
  for _ = 1 to depth do
    let candidates =
      List.concat_map
        (fun (_, e) ->
          List.filter_map
            (fun e' ->
              let k = key e' in
              if Hashtbl.mem seen k then None
              else begin
                Hashtbl.replace seen k ();
                Some (score e', e')
              end)
            (List.map constant_fold (rewrites Rules.all e)))
        !frontier
    in
    List.iter insert candidates;
    frontier := List.filteri (fun i _ -> i < beam) (List.sort better candidates)
  done;
  (e0_err, !top)

let improve_candidates ?(beam = 8) ?(depth = 4) ?(prec = 256) ?(keep = 6)
    (e : Ast.expr) (samples : sample list) : (float * Ast.expr) list =
  snd (beam_search ~beam ~depth ~prec ~keep e samples)

let improve ?(beam = 8) ?(depth = 4) ?(prec = 256) (e : Ast.expr)
    (samples : sample list) : result =
  match beam_search ~beam ~depth ~prec ~keep:1 e samples with
  | e0_err, (err_after, improved) :: _ ->
      {
        original = e;
        improved;
        error_before = e0_err;
        error_after = err_after;
        steps = [];
      }
  | _, [] -> assert false

(* ---------- bridging from the analysis's symbolic expressions ---------- *)

let var_name i =
  if i < Array.length Core.Antiunify.var_names then
    Core.Antiunify.var_names.(i)
  else Printf.sprintf "v%d" i

let rec of_sym (s : Core.Antiunify.sym) : Ast.expr =
  match s with
  | Core.Antiunify.Svar i -> Ast.Var (var_name i)
  | Core.Antiunify.Sconst c -> Ast.Num c
  | Core.Antiunify.Sop ("neg", [| a |]) -> Ast.Op ("-", [ of_sym a ])
  | Core.Antiunify.Sop (f, args) ->
      Ast.Op (f, Array.to_list (Array.map of_sym args))

(* Improve an expression recovered by the analysis. The symbolic
   expression's variables are renamed canonically first (matching the
   FPCore rendering the user sees in reports). *)
let improve_sym ?beam ?depth ?prec (s : Core.Antiunify.sym)
    (samples : float array list) : result =
  let s', _ = Core.Antiunify.rename s in
  let e = of_sym s' in
  let vars = List.sort_uniq compare (Ast.free_vars_expr [] e) in
  let samples =
    List.map
      (fun tuple -> List.mapi (fun i x -> (x, tuple.(i))) vars)
      samples
  in
  improve ?beam ?depth ?prec e samples
