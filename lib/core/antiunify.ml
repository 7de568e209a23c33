(* Incremental anti-unification of concrete traces into symbolic
   expressions (paper sections 4.4 and 6.3/6.4).

   Each operation (pc) owns an [agg]: the running generalization of every
   concrete trace seen at that operation. Aggregation is associative, so
   folding traces in one at a time gives the same result as collecting
   them all (section 6.3), and old concrete traces become garbage.

   Herbgrind's two changes to Plotkin's algorithm are implemented here:

   1. a generalized position whose runtime value was identical in every
      instance becomes a *constant*, not a variable;
   2. positions (including internal ones) whose runtime values were equal
      in every instance are candidates for merging into one variable,
      guarded by the two criteria of section 4.4 (the class has more than
      one member; no other class straddles its boundary). Setting
      [classic] skips change 2, restoring most-specific generalization.

   Value equality across instances is tracked exactly up to [equiv_depth]
   by hashing the per-instance values of each position; deeper positions
   keep only the cheap constant check (section 6.4).

   Every position's signature lives in [sigs] under its path from the
   root, which is what [finalize] reads. Folding a trace in does not
   touch paths: the first trace fixes the set of positions (its lifted
   shape), and later traces can only turn operations into holes, so the
   positions only ever shrink. [slots] holds the current shape's
   signatures in preorder, and a trace is folded in by walking shape and
   trace together in that order. The index is rebuilt only when the
   shape changes, which [antiunify_shape] signals by returning a new
   shape rather than its argument. *)

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
  mutable slots : psig array;  (* [shape]'s positions, in preorder *)
  equiv_depth : int;
}

let create ~equiv_depth =
  {
    shape = SHole;
    count = 0;
    sigs = Hashtbl.create 16;
    slots = [||];
    equiv_depth;
  }

(* ---------- adding one concrete trace ---------- *)

let rec lift (t : Trace.node) : shape =
  if Trace.is_leaf t then SHole
  else SOp (t.Trace.op, Array.map lift t.Trace.args)

(* The generalization of [s] and [t]; [s] itself, physically, when [t]
   fits it, so callers detect a change with [!=]. *)
let rec antiunify_shape (s : shape) (t : Trace.node) : shape =
  match s with
  | SHole -> s
  | SOp (f, args) ->
      let n = Array.length args in
      if Trace.is_leaf t || t.Trace.op <> f || Array.length t.Trace.args <> n
      then SHole
      else begin
        let rec scan i =
          if i = n then s
          else begin
            let a = args.(i) in
            let a' = antiunify_shape a t.Trace.args.(i) in
            if a' == a then scan (i + 1)
            else begin
              let args' = Array.copy args in
              args'.(i) <- a';
              for j = i + 1 to n - 1 do
                args'.(j) <- antiunify_shape args.(j) t.Trace.args.(j)
              done;
              SOp (f, args')
            end
          end
        in
        scan 0
      end

(* the first trace: one signature per position of its lifted shape *)
let init_sigs agg (t : Trace.node) =
  let rec go s (t : Trace.node) path =
    let k = t.Trace.key in
    Hashtbl.replace agg.sigs path
      { cval = t.Trace.value; ckey = k; const = true; h = k; live = true };
    match s with
    | SHole -> ()
    | SOp (_, args) ->
        Array.iteri (fun i a -> go a t.Trace.args.(i) (path @ [ i ])) args
  in
  go agg.shape t []

(* Index the shape's positions in preorder. Their signatures all exist
   since the first trace; the ones that fell out of the shape stop being
   tracked. *)
let reindex agg =
  Hashtbl.iter (fun _ ps -> ps.live <- false) agg.sigs;
  let slots = ref [] in
  let rec go s path =
    let ps = Hashtbl.find agg.sigs path in
    ps.live <- true;
    slots := ps :: !slots;
    match s with
    | SHole -> ()
    | SOp (_, args) -> Array.iteri (fun i a -> go a (path @ [ i ])) args
  in
  go agg.shape [];
  agg.slots <- Array.of_list (List.rev !slots)

(* record the exact-value key at every position still present in the
   shape, visiting positions in the preorder of [slots] *)
let update_sigs agg (t : Trace.node) =
  let slots = agg.slots and equiv_depth = agg.equiv_depth in
  let next = ref 0 in
  let rec go s (t : Trace.node) depth =
    let ps = Array.unsafe_get slots !next in
    incr next;
    let k = t.Trace.key in
    if ps.const && ps.ckey <> k then ps.const <- false;
    if depth <= equiv_depth then ps.h <- (ps.h * 1000003) + k;
    match s with
    | SHole -> ()
    | SOp (_, args) ->
        for i = 0 to Array.length args - 1 do
          go args.(i) t.Trace.args.(i) (depth + 1)
        done
  in
  go agg.shape t 1

let add agg (t : Trace.node) =
  if agg.count = 0 then begin
    agg.shape <- lift t;
    init_sigs agg t;
    reindex agg
  end
  else begin
    let s' = antiunify_shape agg.shape t in
    if s' != agg.shape then begin
      agg.shape <- s';
      reindex agg
    end;
    update_sigs agg t
  end;
  agg.count <- agg.count + 1

let count agg = agg.count

(* ---------- finalization to a symbolic expression ---------- *)

type sym = Svar of int | Sconst of float | Sop of string * sym array

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

(* ---------- rendering ---------- *)

let var_names =
  [| "x"; "y"; "z"; "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i"; "j"; "k" |]

(* canonical left-to-right variable naming *)
let rename (s : sym) : sym * string list =
  let mapping = Hashtbl.create 8 in
  let order = ref [] in
  let next = ref 0 in
  let rec go = function
    | Svar id ->
        let id' =
          match Hashtbl.find_opt mapping id with
          | Some i -> i
          | None ->
              let i = !next in
              incr next;
              Hashtbl.replace mapping id i;
              let name =
                if i < Array.length var_names then var_names.(i)
                else Printf.sprintf "v%d" i
              in
              order := name :: !order;
              i
        in
        Svar id'
    | Sconst c -> Sconst c
    | Sop (f, args) -> Sop (f, Array.map go args)
  in
  let s' = go s in
  (s', List.rev !order)

let const_to_string c =
  if Float.is_integer c && Float.abs c < 1e18 then
    Printf.sprintf "%.0f" c
  else Printf.sprintf "%.17g" c

let rec sym_body_to_string = function
  | Svar i ->
      if i < Array.length var_names then var_names.(i) else Printf.sprintf "v%d" i
  | Sconst c -> const_to_string c
  | Sop (f, args) ->
      Printf.sprintf "(%s %s)" f
        (String.concat " " (Array.to_list (Array.map sym_body_to_string args)))

(* FPCore rendering, the format the paper reports and that feeds Herbie *)
let to_fpcore (s : sym) : string =
  let s', vars = rename s in
  Printf.sprintf "(FPCore (%s) %s)" (String.concat " " vars)
    (sym_body_to_string s')

let rec sym_op_count = function
  | Svar _ | Sconst _ -> 0
  | Sop (_, args) -> 1 + Array.fold_left (fun a s -> a + sym_op_count s) 0 args

let sym_vars (s : sym) : int list =
  let rec go acc = function
    | Svar i -> i :: acc
    | Sconst _ -> acc
    | Sop (_, args) -> Array.fold_left go acc args
  in
  List.sort_uniq compare (go [] s)
