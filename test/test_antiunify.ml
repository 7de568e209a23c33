(* Unit tests for the anti-unification engine, exercised directly on
   hand-built concrete traces (the core tests exercise it end-to-end). *)

module A = Core.Antiunify
module T = Core.Trace

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let checki = Alcotest.check Alcotest.int

(* trace builders; keys come from the value so equal values are
   runtime-equivalent, as in the analysis *)
let leaf v = T.leaf v
let node op args v = T.node ~max_depth:24 ~key:(T.float_key v) op (Array.of_list args) v

let finalize_str ?classic agg = A.to_fpcore (A.finalize ?classic agg)

let single_trace_is_itself () =
  let agg = A.create ~equiv_depth:5 in
  (* (+ 2 3) = 5, seen once: every position is constant *)
  A.add agg (node "+" [ leaf 2.0; leaf 3.0 ] 5.0);
  checks "constants" "(FPCore () (+ 2 3))" (finalize_str agg)

let varying_leaf_becomes_variable () =
  let agg = A.create ~equiv_depth:5 in
  A.add agg (node "+" [ leaf 2.0; leaf 3.0 ] 5.0);
  A.add agg (node "+" [ leaf 7.0; leaf 3.0 ] 10.0);
  checks "x + 3" "(FPCore (x) (+ x 3))" (finalize_str agg)

let equal_values_share_variable () =
  let agg = A.create ~equiv_depth:5 in
  A.add agg (node "*" [ leaf 2.0; leaf 2.0 ] 4.0);
  A.add agg (node "*" [ leaf 7.0; leaf 7.0 ] 49.0);
  checks "x * x" "(FPCore (x) (* x x))" (finalize_str agg)

let unequal_values_get_distinct_variables () =
  let agg = A.create ~equiv_depth:5 in
  A.add agg (node "*" [ leaf 2.0; leaf 3.0 ] 6.0);
  A.add agg (node "*" [ leaf 7.0; leaf 5.0 ] 35.0);
  checks "x * y" "(FPCore (x y) (* x y))" (finalize_str agg)

let operator_mismatch_generalizes () =
  let agg = A.create ~equiv_depth:5 in
  A.add agg (node "+" [ node "*" [ leaf 2.0; leaf 3.0 ] 6.0; leaf 1.0 ] 7.0);
  A.add agg (node "+" [ node "-" [ leaf 9.0; leaf 2.0 ] 7.0; leaf 1.0 ] 8.0);
  (* the differing subtree collapses to one variable; 1 stays constant *)
  checks "hole" "(FPCore (x) (+ x 1))" (finalize_str agg);
  (* when the mismatched subtrees have EQUAL runtime values, Herbgrind's
     first modification turns the hole into a constant instead *)
  let agg2 = A.create ~equiv_depth:5 in
  A.add agg2 (node "+" [ node "*" [ leaf 2.0; leaf 3.0 ] 6.0; leaf 1.0 ] 7.0);
  A.add agg2 (node "+" [ node "-" [ leaf 9.0; leaf 3.0 ] 6.0; leaf 1.0 ] 7.0);
  checks "constant hole" "(FPCore () (+ 6 1))" (finalize_str agg2)

let internal_pruning_requires_multiple_members () =
  (* a subtree equal to nothing else stays structural *)
  let agg = A.create ~equiv_depth:5 in
  let t v =
    node "sqrt" [ node "+" [ leaf v; leaf 1.0 ] (v +. 1.0) ] (Float.sqrt (v +. 1.0))
  in
  A.add agg (t 4.0);
  A.add agg (t 9.0);
  checks "no pruning" "(FPCore (x) (sqrt (+ x 1)))" (finalize_str agg)

let internal_pruning_on_repeated_subtree () =
  (* (- (sqrt (+ y 1)) (sqrt y)) where y = x*c appears twice: prunes to a
     shared variable (the paper's section 4.4 example) *)
  let agg = A.create ~equiv_depth:8 in
  let t x =
    let y = x *. 12345.67 in
    let ynode () = node "*" [ leaf x; leaf 12345.67 ] y in
    node "-"
      [
        node "sqrt" [ node "+" [ ynode (); leaf 1.0 ] (y +. 1.0) ] (Float.sqrt (y +. 1.0));
        node "sqrt" [ ynode () ] (Float.sqrt y);
      ]
      (Float.sqrt (y +. 1.0) -. Float.sqrt y)
  in
  A.add agg (t 3.0);
  A.add agg (t 11.0);
  A.add agg (t 29.0);
  checks "pruned" "(FPCore (x) (- (sqrt (+ x 1)) (sqrt x)))" (finalize_str agg);
  (* classic mode keeps the multiplication structure *)
  checks "classic"
    "(FPCore (x) (- (sqrt (+ (* x 12345.67) 1)) (sqrt (* x 12345.67))))"
    (finalize_str ~classic:true agg)

let straddle_criterion_blocks_pruning () =
  (* (- (sqrt (+ y 1)) (sqrt y)) * (+ y 1): the (+ y 1) class straddles *)
  let agg = A.create ~equiv_depth:8 in
  let t y =
    let yp1 () = node "+" [ leaf y; leaf 1.0 ] (y +. 1.0) in
    node "*"
      [
        node "-"
          [
            node "sqrt" [ yp1 () ] (Float.sqrt (y +. 1.0));
            node "sqrt" [ leaf y ] (Float.sqrt y);
          ]
          (Float.sqrt (y +. 1.0) -. Float.sqrt y);
        yp1 ();
      ]
      ((Float.sqrt (y +. 1.0) -. Float.sqrt y) *. (y +. 1.0))
  in
  A.add agg (t 3.0);
  A.add agg (t 17.0);
  let out = finalize_str agg in
  checks "not over-pruned"
    "(FPCore (x) (* (- (sqrt (+ x 1)) (sqrt x)) (+ x 1)))" out

let depth_limits_variable_sharing () =
  (* equal leaves BELOW the equivalence depth cannot be unified and
     become distinct variables (figure 10a's depth-2 behavior) *)
  let deep x =
    node "+"
      [
        node "*" [ node "-" [ leaf x; leaf 1.0 ] (x -. 1.0); leaf 2.0 ]
          ((x -. 1.0) *. 2.0);
        node "*" [ node "-" [ leaf x; leaf 1.0 ] (x -. 1.0); leaf 3.0 ]
          ((x -. 1.0) *. 3.0);
      ]
      (((x -. 1.0) *. 2.0) +. ((x -. 1.0) *. 3.0))
  in
  let shallow_agg = A.create ~equiv_depth:8 in
  A.add shallow_agg (deep 5.0);
  A.add shallow_agg (deep 9.0);
  let wide = A.finalize shallow_agg in
  checki "depth 8 unifies x" 1 (List.length (A.sym_vars wide));
  let agg2 = A.create ~equiv_depth:2 in
  A.add agg2 (deep 5.0);
  A.add agg2 (deep 9.0);
  let narrow = A.finalize agg2 in
  checkb "depth 2 has more variables" true
    (List.length (A.sym_vars narrow) > 1)

let aggregation_is_order_insensitive () =
  (* associativity/commutativity of aggregation (paper 6.3): any order of
     the same traces yields the same symbolic expression *)
  let traces =
    List.map
      (fun (a, b) -> node "/" [ leaf a; node "+" [ leaf a; leaf b ] (a +. b) ] (a /. (a +. b)))
      [ (1.0, 2.0); (3.0, 4.0); (5.0, 6.0); (7.0, 8.0) ]
  in
  let run order =
    let agg = A.create ~equiv_depth:5 in
    List.iter (A.add agg) order;
    finalize_str agg
  in
  let base = run traces in
  checks "reversed" base (run (List.rev traces));
  checks "rotated" base
    (run (match traces with t :: rest -> rest @ [ t ] | [] -> []))

let op_count_and_vars () =
  let agg = A.create ~equiv_depth:5 in
  A.add agg (node "+" [ node "*" [ leaf 2.0; leaf 3.0 ] 6.0; leaf 1.0 ] 7.0);
  A.add agg (node "+" [ node "*" [ leaf 4.0; leaf 5.0 ] 20.0; leaf 1.0 ] 21.0);
  let s = A.finalize agg in
  checki "two ops" 2 (A.sym_op_count s);
  checki "two vars" 2 (List.length (A.sym_vars s))

let trace_depth_cap () =
  (* growing a trace past the cap truncates instead of deepening *)
  let t = ref (leaf 0.0) in
  for i = 1 to 100 do
    t := T.node ~max_depth:10 ~key:i "+" [| !t; leaf 1.0 |] (float_of_int i)
  done;
  checkb "depth bounded" true (!t.T.depth <= 11)

let trace_size_cap () =
  (* doubling trees stay below the size bound *)
  let t = ref (leaf 1.0) in
  for i = 1 to 30 do
    t := T.node ~max_depth:64 ~key:i "+" [| !t; !t |] (float_of_int i)
  done;
  checkb "size bounded" true (!t.T.size <= 2 * T.max_tree_size)

(* ---------- differential check against the path-keyed reference ----------

   [Ref] is the aggregation as it was before positions were indexed in
   preorder: every trace re-keys each position by its [int list] path
   and every change is found by comparing whole shapes. The preorder
   slot index must finalize to the same expression on every stream. *)

module Ref = struct

  type shape = SOp of string * shape array | SHole

  type psig = {
    mutable cval : float;  (* candidate constant value, for display *)
    mutable ckey : int;  (* exact-value key of the candidate constant *)
    mutable const : bool;  (* value identical in all instances so far *)
    mutable h : int;  (* running hash of the exact-value sequence *)
    mutable live : bool;
  }

  type agg = {
    mutable shape : shape;
    mutable count : int;
    sigs : (int list, psig) Hashtbl.t;  (* key: path from root, outer first *)
    equiv_depth : int;
  }

  let create ~equiv_depth =
    { shape = SHole; count = 0; sigs = Hashtbl.create 16; equiv_depth }

  (* ---------- adding one concrete trace ---------- *)

  let rec lift (t : T.node) : shape =
    if T.is_leaf t then SHole
    else SOp (t.T.op, Array.map lift t.T.args)

  let rec antiunify_shape (s : shape) (t : T.node) : shape =
    match s with
    | SHole -> SHole
    | SOp (f, args) ->
        if
          (not (T.is_leaf t))
          && t.T.op = f
          && Array.length t.T.args = Array.length args
        then SOp (f, Array.mapi (fun i a -> antiunify_shape a t.T.args.(i)) args)
        else SHole

  (* record the exact-value key at every position still present in the shape *)
  let update_sigs agg (t : T.node) =
    let rec go s (t : T.node) path depth =
      let v = t.T.value and k = t.T.key in
      (match Hashtbl.find_opt agg.sigs path with
      | Some ps ->
          if ps.const && ps.ckey <> k then ps.const <- false;
          if depth <= agg.equiv_depth then ps.h <- (ps.h * 1000003) + k
      | None ->
          if agg.count = 0 then
            Hashtbl.replace agg.sigs path
              { cval = v; ckey = k; const = true; h = k; live = true });
      match s with
      | SHole -> ()
      | SOp (_, args) ->
          Array.iteri
            (fun i a -> go a t.T.args.(i) (path @ [ i ]) (depth + 1))
            args
    in
    go agg.shape t [] 1

  (* positions that fell out of the shape stop being tracked *)
  let kill_dead_sigs agg =
    let alive = Hashtbl.create 16 in
    let rec collect s path =
      Hashtbl.replace alive path ();
      match s with
      | SHole -> ()
      | SOp (_, args) -> Array.iteri (fun i a -> collect a (path @ [ i ])) args
    in
    collect agg.shape [];
    Hashtbl.iter
      (fun path ps -> if not (Hashtbl.mem alive path) then ps.live <- false)
      agg.sigs

  let add agg (t : T.node) =
    if agg.count = 0 then begin
      agg.shape <- lift t;
      update_sigs agg t
    end
    else begin
      let s' = antiunify_shape agg.shape t in
      let changed = s' <> agg.shape in
      agg.shape <- s';
      update_sigs agg t;
      if changed then kill_dead_sigs agg
    end;
    agg.count <- agg.count + 1

  let count agg = agg.count

  (* ---------- finalization to a symbolic expression ---------- *)

  type sym = A.sym = Svar of int | Sconst of float | Sop of string * sym array

  let is_prefix pre path =
    let rec go a b =
      match (a, b) with
      | [], _ :: _ -> true
      | [], [] -> false (* strict *)
      | _ :: _, [] -> false
      | x :: xs, y :: ys -> x = y && go xs ys
    in
    go pre path

  let finalize ?(classic = false) agg : sym =
    let depth_of path = 1 + List.length path in
    (* Group live positions within the equivalence depth by signature.
       Constant positions are excluded: a position whose value never varies
       renders as a constant (modification 1), and pruning it to a variable
       would destroy structure -- including the root, whose exact value is
       often a constant precisely when the computation is erroneous. *)
    let groups : (int, int list list) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun path ps ->
        if ps.live && (not ps.const) && depth_of path <= agg.equiv_depth then begin
          let key = ps.h in
          let cur = Option.value ~default:[] (Hashtbl.find_opt groups key) in
          Hashtbl.replace groups key (path :: cur)
        end)
      agg.sigs;
    let classes =
      Hashtbl.fold (fun h paths acc -> (h, paths) :: acc) groups []
      |> List.filter (fun (_, paths) -> List.length paths > 1)
    in
    (* internal-node pruning: choose classes satisfying the two criteria *)
    let pruned : (int list, int) Hashtbl.t = Hashtbl.create 8 in
    (* path -> class id to replace with *)
    let class_id = Hashtbl.create 8 in
    let next_class = ref 0 in
    if not classic then begin
      let is_internal path =
        let rec at s p =
          match (s, p) with
          | s, [] -> ( match s with SOp _ -> true | SHole -> false)
          | SOp (_, args), i :: rest ->
              if i < Array.length args then at args.(i) rest else false
          | SHole, _ :: _ -> false
        in
        at agg.shape path
      in
      (* consider classes with at least one internal member, outermost first;
         the root is never a candidate (pruning it would erase the report) *)
      let candidates =
        List.filter
          (fun (_, paths) ->
            List.exists is_internal paths && not (List.mem [] paths))
          classes
        |> List.sort (fun (_, a) (_, b) ->
               compare
                 (List.fold_left (fun m p -> min m (List.length p)) max_int a)
                 (List.fold_left (fun m p -> min m (List.length p)) max_int b))
      in
      List.iter
        (fun (h, paths) ->
          (* skip if any member is inside an already-pruned region *)
          let inside_pruned p =
            Hashtbl.fold (fun q _ acc -> acc || is_prefix q p || q = p) pruned false
          in
          if not (List.exists inside_pruned paths) then begin
            (* criterion 2: no other class straddles this class's subtrees *)
            let inside p = List.exists (fun m -> is_prefix m p) paths in
            let ok =
              List.for_all
                (fun (h', paths') ->
                  h' = h
                  ||
                  let ins = List.filter inside paths' in
                  ins = [] || List.length ins = List.length paths')
                classes
            in
            if ok then begin
              let id = !next_class in
              incr next_class;
              List.iter (fun p -> Hashtbl.replace pruned p id) paths;
              Hashtbl.replace class_id h id
            end
          end)
        candidates
    end;
    (* leaf-hole variable grouping by signature *)
    let hole_group : (int list, int) Hashtbl.t = Hashtbl.create 8 in
    let rec collect_holes s path =
      match s with
      | SHole -> begin
          match Hashtbl.find_opt agg.sigs path with
          | Some ps when ps.live && (not ps.const) && depth_of path <= agg.equiv_depth
            -> begin
              match Hashtbl.find_opt class_id ps.h with
              | Some id -> Hashtbl.replace hole_group path id
              | None ->
                  (* share a class with equal-signature holes *)
                  let id =
                    match
                      Hashtbl.fold
                        (fun p' id' acc ->
                          match acc with
                          | Some _ -> acc
                          | None -> (
                              match Hashtbl.find_opt agg.sigs p' with
                              | Some ps' when ps'.h = ps.h && ps'.live -> Some id'
                              | _ -> None))
                        hole_group None
                    with
                    | Some id -> id
                    | None ->
                        let id = !next_class in
                        incr next_class;
                        Hashtbl.replace class_id ps.h id;
                        id
                  in
                  Hashtbl.replace hole_group path id
            end
          | _ -> ()
        end
      | SOp (_, args) -> Array.iteri (fun i a -> collect_holes a (path @ [ i ])) args
    in
    collect_holes agg.shape [];
    (* build the symbolic tree *)
    let fresh_var = ref 10_000 in
    let rec build s path =
      match Hashtbl.find_opt pruned path with
      | Some id -> Svar id
      | None -> (
          match s with
          | SOp (f, args) ->
              Sop (f, Array.mapi (fun i a -> build a (path @ [ i ])) args)
          | SHole -> (
              match Hashtbl.find_opt agg.sigs path with
              | Some ps when ps.const -> Sconst ps.cval
              | _ -> (
                  match Hashtbl.find_opt hole_group path with
                  | Some id -> Svar id
                  | None ->
                      incr fresh_var;
                      Svar !fresh_var)))
    in
    build agg.shape []
end

(* Templates for random trace streams: variables draw their values from
   a small pool (repeated leaf keys), constants never vary. *)
type tmpl = TVar of int | TConst of float | TOp of string * tmpl array

let apply op (xs : float array) =
  match (op, xs) with
  | "+", [| a; b |] -> a +. b
  | "-", [| a; b |] -> a -. b
  | "*", [| a; b |] -> a *. b
  | "/", [| a; b |] -> a /. b
  | "sqrt", [| a |] -> Float.sqrt (Float.abs a)
  | "neg", [| a |] -> -.a
  | "fma", [| a; b; c |] -> Float.fma a b c
  | _, xs -> Array.fold_left ( +. ) 1.0 xs

let ops = [| ("+", 2); ("-", 2); ("*", 2); ("/", 2); ("sqrt", 1); ("neg", 1); ("fma", 3) |]

(* a tree of depth [d] along one spine, its other children shallow *)
let rec gen_tmpl st d =
  if d <= 1 then
    if Random.State.int st 4 = 0 then
      TConst [| 0.5; 1.0; 3.0 |].(Random.State.int st 3)
    else TVar (Random.State.int st 3)
  else begin
    let op, arity = ops.(Random.State.int st (Array.length ops)) in
    let spine = Random.State.int st arity in
    TOp
      ( op,
        Array.init arity (fun i ->
            if i = spine then gen_tmpl st (d - 1)
            else gen_tmpl st (min (d - 1) (1 + Random.State.int st 3))) )
  end

(* One concrete trace of [tm]. With [perturb], a few operation nodes
   become leaves, change operator or change arity, so the stream's
   shape shrinks when this trace is folded in. *)
let rec instantiate st ~perturb env tm : T.node =
  match tm with
  | TVar i -> T.leaf env.(i)
  | TConst c -> T.leaf c
  | TOp (op, args) ->
      let kids = Array.map (instantiate st ~perturb env) args in
      let value = apply op (Array.map (fun (k : T.node) -> k.T.value) kids) in
      let mk op kids = T.node ~max_depth:24 ~key:(T.float_key value) op kids value in
      if perturb && Random.State.int st 12 = 0 then
        match Random.State.int st 3 with
        | 0 -> T.leaf value
        | 1 -> mk (if op = "+" then "-" else "+") kids
        | _ -> mk op (Array.append kids [| T.leaf 2.0 |])
      else mk op kids

let differential_vs_path_keyed () =
  let st = Random.State.make [| 0xa17 |] in
  let pool = [| 1.0; 2.0; 3.0; 0.25; 7.0 |] in
  let shrunk = ref 0 and deep = ref 0 in
  for stream = 1 to 600 do
    let equiv_depth = 1 + (stream mod 6) in
    let tm = gen_tmpl st (1 + Random.State.int st 28) in
    let agg = A.create ~equiv_depth and ref_agg = Ref.create ~equiv_depth in
    let n = 1 + Random.State.int st 30 in
    for i = 1 to n do
      let env = Array.init 3 (fun _ -> pool.(Random.State.int st (Array.length pool))) in
      let perturb = i > 1 && Random.State.int st 4 = 0 in
      if perturb then incr shrunk;
      let t = instantiate st ~perturb env tm in
      if t.T.depth >= 24 then incr deep;
      A.add agg t;
      Ref.add ref_agg t
    done;
    checki "count" (Ref.count ref_agg) (A.count agg);
    List.iter
      (fun classic ->
        let want = A.to_fpcore (Ref.finalize ~classic ref_agg) in
        let got = A.to_fpcore (A.finalize ~classic agg) in
        if want <> got then
          Alcotest.failf "stream %d (equiv_depth %d, classic %b)\nwant: %s\ngot:  %s"
            stream equiv_depth classic want got)
      [ false; true ]
  done;
  checkb "streams shrink" true (!shrunk > 500);
  checkb "traces reach the depth cap" true (!deep > 100)

let () =
  Alcotest.run "antiunify"
    [
      ( "generalization",
        [
          Alcotest.test_case "single trace" `Quick single_trace_is_itself;
          Alcotest.test_case "varying leaf" `Quick varying_leaf_becomes_variable;
          Alcotest.test_case "equal values share" `Quick equal_values_share_variable;
          Alcotest.test_case "unequal values split" `Quick
            unequal_values_get_distinct_variables;
          Alcotest.test_case "operator mismatch" `Quick operator_mismatch_generalizes;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "needs multiple members" `Quick
            internal_pruning_requires_multiple_members;
          Alcotest.test_case "repeated subtree" `Quick
            internal_pruning_on_repeated_subtree;
          Alcotest.test_case "straddle criterion" `Quick
            straddle_criterion_blocks_pruning;
          Alcotest.test_case "depth bound" `Quick depth_limits_variable_sharing;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "order insensitive" `Quick
            aggregation_is_order_insensitive;
          Alcotest.test_case "op count and vars" `Quick op_count_and_vars;
          Alcotest.test_case "trace depth cap" `Quick trace_depth_cap;
          Alcotest.test_case "trace size cap" `Quick trace_size_cap;
          Alcotest.test_case "slot index = path-keyed reference" `Quick
            differential_vs_path_keyed;
        ] );
    ]
