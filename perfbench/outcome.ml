(* What one workload run hands back to [Perfbench]'s main. *)

type metric = {
  name : string;
  value : float;
  unit : string;
  n : int;  (* samples behind the value; 0 for a single measurement *)
}

let metric ?(n = 0) name unit value = { name; value; unit; n }

type t = {
  attempted : int;  (* units of work run: timed, traced and checking passes *)
  failed : int;  (* units that failed, timed out, were refused or came out wrong *)
  problems : string list;  (* every correctness mismatch, for stderr *)
  warnings : string list;  (* measurement caveats, for stderr *)
  e2e : metric list;  (* the gated end-to-end metrics, same names on every workload *)
  named : metric list;  (* the workload's own end-to-end metrics, printed *)
  layers : (string * float) list;  (* per-layer metrics, traced run only *)
  spans : Span.t list;  (* traced run only *)
}
