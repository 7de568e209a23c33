(* The campaign checkpoint. What makes resume byte-identical is that the
   checkpoint records the *PRNG stream index* — every campaign task at
   stream index [i] derives its randomness from (seed, i) alone
   (SplitMix64 [Fuzz.Rng.make_indexed] for fuzz programs, the suite's
   xorshift64* stream for soundiness contexts), so "resume at s_next"
   replays exactly the suffix an uninterrupted run would have produced.
   The fingerprint pins everything else a finding depends on; resuming
   under a different config is refused rather than silently diverging.

   Writes are a Durable.replace (temp file + rename in the same
   directory), so a SIGKILL mid-checkpoint leaves the previous checkpoint
   intact. *)

type t = {
  s_seed : int;
  s_iters : int;  (* target stream length *)
  s_next : int;  (* next stream index to run; iters = completed *)
  s_soundness_every : int;  (* every Nth index is a soundiness task *)
  s_fingerprint : string;  (* config fingerprint; resume guard *)
  s_passed : int;
  s_skipped : int;
  s_divergent : int;
  s_errors : int;
  s_soundness_checks : int;
  s_soundness_violations : int;
  s_regime_checks : int;  (* regime-slice tasks completed *)
  s_regime_findings : int;  (* regime tasks that produced a finding *)
}

let fresh ~seed ~iters ~soundness_every ~fingerprint =
  {
    s_seed = seed;
    s_iters = iters;
    s_next = 0;
    s_soundness_every = soundness_every;
    s_fingerprint = fingerprint;
    s_passed = 0;
    s_skipped = 0;
    s_divergent = 0;
    s_errors = 0;
    s_soundness_checks = 0;
    s_soundness_violations = 0;
    s_regime_checks = 0;
    s_regime_findings = 0;
  }

let findings (t : t) : int =
  t.s_divergent + t.s_errors + t.s_soundness_violations + t.s_regime_findings
let complete (t : t) : bool = t.s_next >= t.s_iters

let to_json (t : t) : Json.t =
  let num i = Json.Num (float_of_int i) in
  Json.Obj
    [
      ("seed", num t.s_seed);
      ("iters", num t.s_iters);
      ("next", num t.s_next);
      ("soundness_every", num t.s_soundness_every);
      ("fingerprint", Json.Str t.s_fingerprint);
      ("passed", num t.s_passed);
      ("skipped", num t.s_skipped);
      ("divergent", num t.s_divergent);
      ("errors", num t.s_errors);
      ("soundness_checks", num t.s_soundness_checks);
      ("soundness_violations", num t.s_soundness_violations);
      ("regime_checks", num t.s_regime_checks);
      ("regime_findings", num t.s_regime_findings);
    ]

let of_json (j : Json.t) : t =
  {
    s_seed = Json.get_int "seed" j;
    s_iters = Json.get_int "iters" j;
    s_next = Json.get_int "next" j;
    s_soundness_every = Json.get_int "soundness_every" j;
    s_fingerprint = Json.get_str "fingerprint" j;
    s_passed = Json.get_int "passed" j;
    s_skipped = Json.get_int "skipped" j;
    s_divergent = Json.get_int "divergent" j;
    s_errors = Json.get_int "errors" j;
    s_soundness_checks = Json.get_int "soundness_checks" j;
    s_soundness_violations = Json.get_int "soundness_violations" j;
    (* default 0: state files from before the regime slice stay loadable *)
    s_regime_checks = Json.get_int ~default:0 "regime_checks" j;
    s_regime_findings = Json.get_int ~default:0 "regime_findings" j;
  }

let save ~(path : string) (t : t) : unit =
  Durable.replace path [ Json.to_string (to_json t) ]

let load ~(path : string) : (t, string) result =
  if not (Sys.file_exists path) then Error "no such state file"
  else
    match Durable.read path (fun l -> of_json (Json.of_string l)) with
    | [ st ], 0 -> Ok st
    | _ -> Error "corrupt state file: expected one record"
    | exception Json.Parse_error msg -> Error ("corrupt state file: " ^ msg)
