(* Machine-speed calibration.

   On a shared 2-vCPU virtual machine (Intel Xeon, 2.1 GHz), CPU speed
   drifts by up to a third within a minute: the same regime sweep at
   the same seed ran at 35, 35, 29, 25 and 26 programs/s in five
   consecutive runs.
   That is far more than any change worth detecting. So the CPU-bound
   workloads interleave a fixed reference kernel with the measured work
   — a slice before every job and every 50 ms within one — and report
   their gated figures in reference time: measured time scaled by
   (nominal kernel time / measured kernel time) over the same window.
   The kernel is this file's own code, so no change to the repository
   can move it; a drift that slows the machine slows both and cancels,
   a change to the program moves only the work. Raw figures are printed
   beside the calibrated ones. *)

(* Limb products into fresh arrays, as [Bignum.Natural] does them:
   [n] = 16 is a 256-bit mantissa, 34 a 1000-bit one. *)
let limb_products n rounds () =
  let a = Array.init n (fun i -> ((i * 7919) + 13) land 0x3FFFFFFF) in
  let b = Array.init n (fun i -> ((i * 104729) + 7) land 0x3FFFFFFF) in
  let acc = ref 0 in
  for round = 1 to rounds do
    let r = Array.make ((2 * n) + 1) 0 in
    for i = 0 to n - 1 do
      let carry = ref 0 in
      for j = 0 to n - 1 do
        let t = r.(i + j) + (a.(i) * b.(j)) + !carry in
        r.(i + j) <- t land 0x3FFFFFFF;
        carry := t lsr 30
      done;
      r.(i + n) <- r.(i + n) + !carry
    done;
    a.(round mod n) <- r.(n + 1) land 0x3FFFFFFF;
    acc := !acc lxor r.(n + 3)
  done;
  ignore (Sys.opaque_identity !acc)

(* Error-free products and sums, as [Sanitize.Twofloat] does them. *)
let double_double rounds () =
  let hi = ref 1.0 and lo = ref 0.0 in
  for i = 1 to rounds do
    let b = 1.0 +. (float_of_int (i land 15) *. 1e-3) in
    let p = !hi *. b in
    let e = Float.fma !hi b (-.p) +. (!lo *. b) in
    let s = p +. e in
    let bb = s -. p in
    hi := s;
    lo := p -. (s -. bb) +. (e -. bb);
    if !hi > 1e100 then hi := 1.0
  done;
  ignore (Sys.opaque_identity (!hi, !lo))

(* The kernel's parts, with their time on that machine; nominal times
   only set the scale, so calibrated figures read close to raw ones
   there. *)
let parts =
  [|
    ("limb16", limb_products 16 1200, 0.0006);
    ("limb34", limb_products 34 270, 0.0006);
    ("dd", double_double 40_000, 0.00048);
  |]

let mu = Mutex.create ()
let totals = Array.make (Array.length parts) 0.0
let slices = ref 0

let reset () =
  Mutex.lock mu;
  Array.fill totals 0 (Array.length totals) 0.0;
  slices := 0;
  Mutex.unlock mu

(* kernel time spent by the calling domain, for subtracting from the
   work it interleaves with *)
let mine = Domain.DLS.new_key (fun () -> ref 0.0)
let domain_s () = !(Domain.DLS.get mine)

(* one run of every part, timed; safe from any domain *)
let slice () =
  let dts =
    Array.map
      (fun (_, run, _) ->
        let t0 = Util.now_s () in
        run ();
        Util.now_s () -. t0)
      parts
  in
  let m = Domain.DLS.get mine in
  m := !m +. Array.fold_left ( +. ) 0.0 dts;
  Mutex.lock mu;
  Array.iteri (fun i dt -> totals.(i) <- totals.(i) +. dt) dts;
  incr slices;
  Mutex.unlock mu

(* A slice every [period_s] of work, from inside a long job: the engines
   call their [tick] hook about once per thousand statements. *)
let period_s = 0.05
let due = Domain.DLS.new_key (fun () -> ref 0.0)

let tick () =
  let d = Domain.DLS.get due in
  let now = Util.now_s () in
  if now >= !d then begin
    if !d > 0.0 then slice ();
    d := Util.now_s () +. period_s
  end

(* The window since [reset]: its kernel time, and the factor that turns
   measured seconds into reference seconds (1.0 with no slices) — the
   geometric mean over the parts of nominal / measured time. Each part
   alone follows some workloads' drift better than others'; their mean
   left the least spread on all of them. *)
let window () =
  Mutex.lock mu;
  let ts = Array.copy totals and n = !slices in
  Mutex.unlock mu;
  let log_factor i (_, _, nominal) =
    if n = 0 || ts.(i) <= 0.0 then 0.0
    else Float.log (nominal *. float_of_int n /. ts.(i))
  in
  ( Array.fold_left ( +. ) 0.0 ts,
    Float.exp
      (Util.sum (Array.to_list (Array.mapi log_factor parts))
      /. float_of_int (Array.length parts)) )

