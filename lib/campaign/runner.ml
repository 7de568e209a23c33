(* The campaign loop: a long-running, resumable mix of differential
   fuzzing, engine-consistency checks, and the soundiness oracle.

   The stream is indexed 0..iters-1. When [soundness_every] is N > 0,
   every Nth index (i ≡ N-1 mod N) is a soundiness task over the
   benchmark suite — the k-th soundiness task checks bench (k mod 82)
   with a per-index derived seed; when [regimes_every] is M > 0, every
   Mth index is a regime-inference task over the straight-line suite
   (soundiness wins when both land on one index); and every other index
   is a fuzz program, generated from (seed, i) exactly as `fpgrind
   fuzz` would.
   Each index is therefore a pure function of (seed, i, config): the
   loop runs strictly in index order, findings append in index order,
   and the checkpoint records the next index to run — which is all it
   takes for an interrupted+resumed campaign to produce a findings feed
   byte-identical to an uninterrupted one.

   Signals: the caller passes [should_stop]; the loop polls it between
   stream indices, finishes the item in flight, appends its findings,
   checkpoints, and returns [Interrupted]. Nothing is lost and nothing
   is half-written (checkpoints are atomic, findings are Durable
   appends). A SIGKILL instead loses the work since the last checkpoint,
   which the resumed run redoes. *)

module Oracle = Fuzz.Oracle
module Fcampaign = Fuzz.Campaign
module Suite = Fpcore.Suite

type config = {
  cfg_seed : int;
  cfg_iters : int;
  cfg_soundness_every : int;  (* 0 disables the soundiness slice *)
  cfg_regimes_every : int;  (* 0 disables the regime slice *)
  cfg_checkpoint_every : int;
  cfg_state_path : string;
  cfg_findings_path : string;
  cfg_checks : Oracle.checks;
  cfg_soundness_points : int;
  cfg_soundness_depth : int;
  cfg_shrink : bool;  (* minimize divergent programs via the shrinker *)
}

let default_config ~state_path ~findings_path =
  {
    cfg_seed = 42;
    cfg_iters = 2000;
    cfg_soundness_every = 0;
    cfg_regimes_every = 0;
    cfg_checkpoint_every = 50;
    cfg_state_path = state_path;
    cfg_findings_path = findings_path;
    cfg_checks =
      { Oracle.default_checks with Oracle.c_consistency = true; c_tiered = true };
    cfg_soundness_points = 16;
    cfg_soundness_depth = 2;
    cfg_shrink = true;
  }

(* Everything a finding depends on besides (seed, index). A resume under
   a different fingerprint would *silently* change the replayed suffix,
   so it is refused instead. *)
let fingerprint (c : config) : string =
  let ck = c.cfg_checks in
  Printf.sprintf
    "seed=%d iters=%d every=%d regimes=%d an=%b ab=%b vec=%b ml=%b k=%b \
     san=%b cons=%b tier=%b steps=%d cfg=%s pts=%d depth=%d shrink=%b"
    c.cfg_seed c.cfg_iters c.cfg_soundness_every c.cfg_regimes_every
    ck.Oracle.c_analysis ck.Oracle.c_ablations ck.Oracle.c_vectorize
    ck.Oracle.c_mathlib ck.Oracle.c_kernel ck.Oracle.c_sanitize
    ck.Oracle.c_consistency ck.Oracle.c_tiered ck.Oracle.c_max_steps
    (Core.Config.fingerprint ck.Oracle.c_cfg)
    c.cfg_soundness_points c.cfg_soundness_depth c.cfg_shrink

let is_soundness (c : config) (i : int) : bool =
  c.cfg_soundness_every > 0 && (i + 1) mod c.cfg_soundness_every = 0

(* The periodic regime slice (ROADMAP item 1 follow-up). When both
   slices land on the same index the soundiness check wins — the two
   predicates must partition deterministically or resume would replay a
   different stream. *)
let is_regime (c : config) (i : int) : bool =
  c.cfg_regimes_every > 0
  && (i + 1) mod c.cfg_regimes_every = 0
  && not (is_soundness c i)

(* Seed for the k-th soundiness task's point contexts: distinct per
   index, deterministic, and unrelated to the fuzz SplitMix64 stream. *)
let soundness_seed (c : config) (i : int) : int =
  (c.cfg_seed * 1_000_003) + i

(* ---------- one stream index ---------- *)

let run_soundness (c : config) (i : int) : Findings.finding option =
  let k = ((i + 1) / c.cfg_soundness_every) - 1 in
  let benches = Suite.all in
  let bench = List.nth benches (k mod List.length benches) in
  let report =
    Rewrite.Soundness.check_bench ~depth:c.cfg_soundness_depth
      ~points:c.cfg_soundness_points ~seed:(soundness_seed c i) bench
  in
  if report.Rewrite.Soundness.r_sound then None
  else begin
    (* Would the regime pipeline retire this overfit? Its validation
       gate rejects fixes that only win in-sample, so a [true] here
       marks the finding as fixed by `improve --regimes`. *)
    let regime_candidate =
      match
        Regime.infer ~depth:c.cfg_soundness_depth
          ~points:c.cfg_soundness_points ~seed:(soundness_seed c i) bench
      with
      | r -> Some r.Regime.re_soundness.Rewrite.Soundness.r_sound
      | exception _ -> None
    in
    Some
      {
        Findings.f_index = i;
        f_seed = c.cfg_seed;
        f_kind = "soundiness";
        f_subject = bench.Suite.name;
        f_detail =
          Printf.sprintf "improve regressed %.2f bits on resampled points"
            report.Rewrite.Soundness.r_regression;
        f_table = Rewrite.Soundness.table report;
        f_repro = "";
        f_regime_candidate = regime_candidate;
      }
  end

(* One regime task: run the full inference pipeline on the k-th
   straight-line bench (rotating) with a per-index derived seed, and
   report a finding whenever it has something to say — a branched or
   single fix that beats the original on the disjoint resample context,
   or a fix its own soundness gate rejects. [regime_candidate] carries
   the gate's verdict, same field the soundiness findings use. *)
let run_regime (c : config) (i : int) : Findings.finding option =
  let k = ((i + 1) / c.cfg_regimes_every) - 1 in
  let benches =
    List.filter (fun b -> b.Suite.group = `Straight) Suite.all
  in
  let bench = List.nth benches (k mod List.length benches) in
  let r =
    Regime.infer ~depth:c.cfg_soundness_depth ~points:c.cfg_soundness_points
      ~seed:(soundness_seed c i) bench
  in
  let sound = r.Regime.re_soundness.Rewrite.Soundness.r_sound in
  if r.Regime.re_selected = "original" && sound then None
  else begin
    let after =
      match r.Regime.re_selected with
      | "branched" -> r.Regime.re_act_branched
      | "single" -> r.Regime.re_act_single
      | _ -> r.Regime.re_act_before
    in
    Some
      {
        Findings.f_index = i;
        f_seed = c.cfg_seed;
        f_kind = "regime";
        f_subject = bench.Suite.name;
        f_detail =
          Printf.sprintf "%s fix, %d regimes: %.2f -> %.2f bits on resample%s"
            r.Regime.re_selected
            (Regime.selected_regimes r.Regime.re_selected r.Regime.re_regimes)
            r.Regime.re_act_before after
            (if sound then "" else " (UNSOUND)");
        f_table = Regime.table r;
        f_repro = "";
        f_regime_candidate = Some sound;
      }
  end

let run_fuzz (c : config) (i : int) : Findings.finding option * Fcampaign.status
    =
  (* run_one applies [checks_for] itself, so the every-8th deep legs
     match `fpgrind fuzz` exactly *)
  let entry = Fcampaign.run_one ~checks:c.cfg_checks ~seed:c.cfg_seed i in
  match entry.Fcampaign.e_status with
  | Fcampaign.Passed | Fcampaign.Skipped _ -> (None, entry.Fcampaign.e_status)
  | Fcampaign.Error msg ->
      ( Some
          {
            Findings.f_index = i;
            f_seed = c.cfg_seed;
            f_kind = "error";
            f_subject = entry.Fcampaign.e_digest;
            f_detail = msg;
            f_table = "";
            f_repro = "";
            f_regime_candidate = None;
          },
        entry.Fcampaign.e_status )
  | Fcampaign.Divergent d0 ->
      let repro =
        if not c.cfg_shrink then ""
        else
          match
            Fcampaign.shrink_entry ~checks:c.cfg_checks ~seed:c.cfg_seed i
          with
          | Some (small, inputs, d) ->
              Fcampaign.repro_contents ~seed:c.cfg_seed ~index:i ~d ~inputs
                (Fuzz.Printer.program small)
          | None -> ""
      in
      ( Some
          {
            Findings.f_index = i;
            f_seed = c.cfg_seed;
            f_kind = "divergence";
            f_subject = entry.Fcampaign.e_digest;
            f_detail =
              Printf.sprintf "%s: %s" d0.Oracle.d_oracle d0.Oracle.d_detail;
            f_table = "";
            f_repro = repro;
            f_regime_candidate = None;
          },
        entry.Fcampaign.e_status )

(* ---------- the loop ---------- *)

type outcome =
  | Completed of State.t
  | Interrupted of State.t  (* checkpointed; run again to resume *)

exception Resume_mismatch of string

(* Load-or-create the state for this config. A state file from a
   different config (or a different seed) must not be silently
   continued — the replayed suffix would not match. On resume the feed
   is cut back to the checkpoint, so the replayed suffix is not
   appended twice. *)
let initial_state (c : config) : State.t =
  let fp = fingerprint c in
  if Sys.file_exists c.cfg_state_path then
    match State.load ~path:c.cfg_state_path with
    | Error msg -> raise (Resume_mismatch msg)
    | Ok st ->
        if st.State.s_fingerprint <> fp then
          raise
            (Resume_mismatch
               (Printf.sprintf
                  "state file %s was written by a different campaign config \
                   (fingerprint %S, expected %S)"
                  c.cfg_state_path st.State.s_fingerprint fp))
        else begin
          (try Findings.truncate ~path:c.cfg_findings_path ~next:st.State.s_next
           with Json.Parse_error msg ->
             raise (Resume_mismatch ("corrupt findings feed: " ^ msg)));
          st
        end
  else
    State.fresh ~seed:c.cfg_seed ~iters:c.cfg_iters
      ~soundness_every:c.cfg_soundness_every ~fingerprint:fp

let run ?(should_stop = fun () -> false) ?(on_progress = fun (_ : State.t) -> ())
    (c : config) : outcome =
  let st = ref (initial_state c) in
  let checkpoint () =
    State.save ~path:c.cfg_state_path !st;
    on_progress !st
  in
  if (!st).State.s_next = 0 then checkpoint ();
  let interrupted = ref false in
  while (not !interrupted) && not (State.complete !st) do
    if should_stop () then interrupted := true
    else begin
      let i = (!st).State.s_next in
      let s = !st in
      let s =
        if is_soundness c i then begin
          match run_soundness c i with
          | None ->
              {
                s with
                State.s_soundness_checks = s.State.s_soundness_checks + 1;
              }
          | Some f ->
              Findings.append ~path:c.cfg_findings_path [ f ];
              {
                s with
                State.s_soundness_checks = s.State.s_soundness_checks + 1;
                s_soundness_violations = s.State.s_soundness_violations + 1;
              }
        end
        else if is_regime c i then begin
          match run_regime c i with
          | None ->
              { s with State.s_regime_checks = s.State.s_regime_checks + 1 }
          | Some f ->
              Findings.append ~path:c.cfg_findings_path [ f ];
              {
                s with
                State.s_regime_checks = s.State.s_regime_checks + 1;
                s_regime_findings = s.State.s_regime_findings + 1;
              }
        end
        else begin
          match run_fuzz c i with
          | None, Fcampaign.Passed ->
              { s with State.s_passed = s.State.s_passed + 1 }
          | None, _ -> { s with State.s_skipped = s.State.s_skipped + 1 }
          | Some f, status ->
              Findings.append ~path:c.cfg_findings_path [ f ];
              (match status with
              | Fcampaign.Divergent _ ->
                  { s with State.s_divergent = s.State.s_divergent + 1 }
              | _ -> { s with State.s_errors = s.State.s_errors + 1 })
        end
      in
      st := { s with State.s_next = i + 1 };
      if (i + 1) mod c.cfg_checkpoint_every = 0 then checkpoint ()
    end
  done;
  checkpoint ();
  if !interrupted then Interrupted !st else Completed !st

let summary_line (st : State.t) : string =
  Printf.sprintf
    "campaign seed %d: %d/%d done — %d passed, %d skipped, %d divergent, %d \
     errors, %d soundiness checks (%d violations), %d regime checks (%d \
     findings), %d findings"
    st.State.s_seed st.State.s_next st.State.s_iters st.State.s_passed
    st.State.s_skipped st.State.s_divergent st.State.s_errors
    st.State.s_soundness_checks st.State.s_soundness_violations
    st.State.s_regime_checks st.State.s_regime_findings
    (State.findings st)
