(* The shadow block executor shared by the full analysis ([Core.Exec]) and
   the sanitizer ([Sanitize.Sexec]). Statement ids, source locations,
   jump targets and the fast/off-slice/full dispatch are resolved once
   per program by [Compile], so the per-statement loop is an array walk
   over decoded operations. Per-block temporaries and their shadow
   slots live in frames allocated once per run and bulk-reset on block
   entry. *)

type ('v, 'b) slot =
  | SNone
  | SVal of 'v
  | SBool of 'b
  | SVec of ('v, 'b) slot array

let lane_slot (sl : ('v, 'b) slot) n i : ('v, 'b) slot =
  match sl with SVec lanes when Array.length lanes = n -> lanes.(i) | _ -> SNone

type counters = {
  mutable blocks_run : int;
  mutable stmts_run : int;
  mutable stmts_executed : int;
  mutable stmts_instrumented : int;
}

module type DOMAIN = sig
  type v
  type b
  type t

  val unop :
    t ->
    loc:Ir.loc ->
    stmt_id:int ->
    Ir.unop ->
    Value.t ->
    (v, b) slot ->
    Value.t ->
    (v, b) slot

  val binop :
    t ->
    loc:Ir.loc ->
    stmt_id:int ->
    Ir.binop ->
    Value.t ->
    (v, b) slot ->
    Value.t ->
    (v, b) slot ->
    Value.t ->
    (v, b) slot

  val input : t -> float -> (v, b) slot

  val libm :
    t ->
    loc:Ir.loc ->
    stmt_id:int ->
    string ->
    float array ->
    (v, b) slot array ->
    float ->
    (v, b) slot

  val branch : t -> loc:Ir.loc -> stmt_id:int -> b -> unit
  val store : t -> loc:Ir.loc -> stmt_id:int -> Value.t -> (v, b) slot -> unit
  val output : t -> loc:Ir.loc -> stmt_id:int -> Value.t -> (v, b) slot -> unit
end

type 'd outcome = {
  dom : 'd;
  outputs : Machine.output list;
  counters : counters;
}

(* A per-domain pool of one client-memory buffer, shared by every shadow
   domain. Zeroing a fresh 1 MiB [Bytes.make] per execution costs more
   than many sanitize runs do, so [run] parks its buffer here on exit
   and the next run re-zeroes only the prefix the previous one touched
   ([mem_hw], which bounds every load and store): a read above the
   watermark still sees the zeros the machine semantics promise. *)
let scratch_pool : (Bytes.t * int) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let acquire_mem mem_size : Bytes.t =
  let pool = Domain.DLS.get scratch_pool in
  match !pool with
  | Some (b, hw) when Bytes.length b = mem_size ->
      pool := None;
      Bytes.fill b 0 (min hw mem_size) '\000';
      b
  | _ -> Bytes.make mem_size '\000'

let release_mem (mem : Bytes.t) (mem_hw : int) : unit =
  Domain.DLS.get scratch_pool := Some (mem, mem_hw)

(* raw statements between wall-clock checks; small enough that a
   deadline overshoots by microseconds, large enough that the check is
   invisible in the profile *)
let tick_stride = 1024

exception Exit_to of int

module Make (D : DOMAIN) = struct
  type nonrec slot = (D.v, D.b) slot

  (* [esh] carries the shadow of the expression [eval] just returned: an
     out-parameter, so the evaluator never allocates a (value, slot)
     pair per node *)
  type frame = {
    temps : Value.t array;
    tshadow : slot array;
    mutable esh : slot;
  }

  type state = {
    prog : Ir.prog;
    compiled : Compile.t;
    dom : D.t;
    mem : Bytes.t;
    (* exclusive upper bound of client memory traffic this run *)
    mutable mem_hw : int;
    thread : Bytes.t;
    (* the tables hold whole slots: a load returns the stored box as-is
       and a store re-inserts it, so no shadow is re-wrapped *)
    mem_shadow : slot Shadowtbl.t;
    thread_shadow : slot Shadowtbl.t;
    frames : frame array;
    temp_inits : Value.t array array;  (* pristine temps per block *)
    inputs : float array;
    mutable outputs : Machine.output list;  (* reversed *)
    counters : counters;
    tick : (unit -> unit) option;
    mutable stmts_since_tick : int;
  }

  let check_mem st addr size =
    if addr < 0 || addr + size > Bytes.length st.mem then
      raise
        (Machine.Client_error
           (Printf.sprintf "memory access out of bounds: %d" addr))
    else if addr + size > st.mem_hw then st.mem_hw <- addr + size

  let load_shadow tbl off (ty : Ir.ty) : slot =
    match ty with
    | Ir.F64 | Ir.I64 -> Shadowtbl.get tbl off 8
    | Ir.F32 | Ir.I32 -> Shadowtbl.get tbl off 4
    | Ir.V128 -> begin
        match (Shadowtbl.get tbl off 8, Shadowtbl.get tbl (off + 8) 8) with
        | SNone, SNone ->
            (* maybe four single lanes *)
            let lanes =
              Array.init 4 (fun i -> Shadowtbl.get tbl (off + (4 * i)) 4)
            in
            if Array.exists (function SNone -> false | _ -> true) lanes then
              SVec lanes
            else SNone
        | lo, hi -> SVec [| lo; hi |]
      end
    | Ir.I1 | Ir.I8 | Ir.I16 -> SNone

  let store_shadow tbl off (v : Value.t) (sh : slot) =
    match (v, sh) with
    | Value.VV128 _, SVec lanes ->
        let lane_size = if Array.length lanes = 2 then 8 else 4 in
        Array.iteri
          (fun i sl ->
            match sl with
            | SVal _ -> Shadowtbl.set tbl (off + (lane_size * i)) lane_size sl
            | SNone | SBool _ | SVec _ ->
                Shadowtbl.clear_range tbl (off + (lane_size * i)) lane_size)
          lanes
    | Value.VV128 _, _ -> Shadowtbl.clear_range tbl off 16
    | v, SVal _ ->
        let size =
          match Value.ty_of v with Ir.F32 | Ir.I32 -> 4 | _ -> 8
        in
        Shadowtbl.set tbl off size sh
    | v, _ -> Shadowtbl.clear_range tbl off (Ir.ty_size (Value.ty_of v))

  (* the client value of [e]; its shadow is left in [fr.esh] *)
  let rec eval st fr ~loc ~stmt_id (e : Ir.expr) : Value.t =
    match e with
    | Ir.RdTmp t ->
        fr.esh <- fr.tshadow.(t);
        fr.temps.(t)
    | Ir.Const c ->
        fr.esh <- SNone;
        Value.of_const c
    | Ir.LabelAddr l ->
        (* compiled expressions pre-resolve labels; kept for raw input *)
        fr.esh <- SNone;
        Value.VI64 (Int64.of_int (Ir.block_index st.prog l))
    | Ir.Get (off, ty) ->
        fr.esh <- load_shadow st.thread_shadow off ty;
        Value.read_bytes st.thread off ty
    | Ir.Load (ty, a) ->
        let addr = Int64.to_int (Value.as_i64 (eval st fr ~loc ~stmt_id a)) in
        check_mem st addr (Ir.ty_size ty);
        fr.esh <- load_shadow st.mem_shadow addr ty;
        Value.read_bytes st.mem addr ty
    | Ir.Unop (op, a) ->
        let av = eval st fr ~loc ~stmt_id a in
        let ash = fr.esh in
        let v = Eval.eval_unop op av in
        fr.esh <- D.unop st.dom ~loc ~stmt_id op av ash v;
        v
    | Ir.Binop (op, a, b) ->
        let av = eval st fr ~loc ~stmt_id a in
        let ash = fr.esh in
        let bv = eval st fr ~loc ~stmt_id b in
        let bsh = fr.esh in
        let v = Eval.eval_binop op av bv in
        fr.esh <- D.binop st.dom ~loc ~stmt_id op av ash bv bsh v;
        v
    | Ir.ITE (g, t, e2) ->
        let taken = Value.as_bool (eval st fr ~loc ~stmt_id g) in
        (* an ITE guarded by a float comparison is a branch *)
        (match fr.esh with
        | SBool sb -> D.branch st.dom ~loc ~stmt_id sb
        | SNone | SVal _ | SVec _ -> ());
        eval st fr ~loc ~stmt_id (if taken then t else e2)

  let push_output st ~stmt_id ~loc (kind : Ir.out_kind) (v : Value.t) =
    match kind with
    | Ir.OutMark -> () (* user spot mark: not a program output *)
    | Ir.OutFloat | Ir.OutInt ->
        st.outputs <- { Machine.stmt_id; loc; kind; value = v } :: st.outputs

  (* machine-only writes: the shadows underneath are cleared, never
     written *)
  let put_unshadowed st off (v : Value.t) =
    Shadowtbl.clear_range st.thread_shadow off (Ir.ty_size (Value.ty_of v));
    Value.write_bytes st.thread off v

  let store_unshadowed st addr (v : Value.t) =
    let size = Ir.ty_size (Value.ty_of v) in
    check_mem st addr size;
    Shadowtbl.clear_range st.mem_shadow addr size;
    Value.write_bytes st.mem addr v

  let run_block st (bidx : int) : int =
    let cb = st.compiled.Compile.cblocks.(bidx) in
    (* self-ticked deadline: check the wall clock at block granularity,
       but only once every [tick_stride] executed raw statements *)
    (match st.tick with
    | Some tick ->
        if st.stmts_since_tick >= tick_stride then begin
          tick ();
          st.stmts_since_tick <- 0
        end;
        st.stmts_since_tick <- st.stmts_since_tick + cb.Compile.cb_n_raw
    | None -> ());
    let fr = st.frames.(bidx) in
    let nt = Array.length fr.temps in
    Array.blit st.temp_inits.(bidx) 0 fr.temps 0 nt;
    Array.fill fr.tshadow 0 nt SNone;
    let c = st.counters in
    (* the uninstrumented evaluator, for statements that carry no shadow *)
    let rec fast_eval (e : Ir.expr) : Value.t =
      match e with
      | Ir.RdTmp t -> fr.temps.(t)
      | Ir.Const c -> Value.of_const c
      | Ir.LabelAddr l -> Value.VI64 (Int64.of_int (Ir.block_index st.prog l))
      | Ir.Get (off, ty) -> Value.read_bytes st.thread off ty
      | Ir.Load (ty, a) ->
          let addr = Int64.to_int (Value.as_i64 (fast_eval a)) in
          check_mem st addr (Ir.ty_size ty);
          Value.read_bytes st.mem addr ty
      | Ir.Unop (op, a) -> Eval.eval_unop op (fast_eval a)
      | Ir.Binop (op, a, b) -> Eval.eval_binop op (fast_eval a) (fast_eval b)
      | Ir.ITE (g, t, e2) ->
          if Value.as_bool (fast_eval g) then fast_eval t else fast_eval e2
    in
    let stmts = cb.Compile.cb_stmts in
    let n = Array.length stmts in
    let rec go i =
      if i >= n then begin
        c.stmts_run <- c.stmts_run + cb.Compile.cb_tail_w;
        match cb.Compile.cb_next with
        | Compile.CGoto t -> t
        | Compile.CIndirect e -> Int64.to_int (Value.as_i64 (fast_eval e))
        | Compile.CHalt -> -1
      end
      else begin
        let cs = stmts.(i) in
        c.stmts_run <- c.stmts_run + cs.Compile.cs_run_w;
        c.stmts_executed <- c.stmts_executed + 1;
        (match cs.Compile.cs_path with
        (* fast paths allowed by type inference *)
        | Compile.PFast -> begin
            match cs.Compile.cs_op with
            | Compile.CWrTmp (t, e) -> fr.temps.(t) <- fast_eval e
            | Compile.CExit (g, target) ->
                if Value.as_bool (fast_eval g) then raise (Exit_to target)
            | Compile.CPut (off, e) -> put_unshadowed st off (fast_eval e)
            | Compile.CStore (a, e) ->
                let addr = Int64.to_int (Value.as_i64 (fast_eval a)) in
                store_unshadowed st addr (fast_eval e)
            | Compile.CDirtyArg _ | Compile.CDirty _ | Compile.COut _ ->
                assert false (* never classified fast *)
          end
        (* tiered pass 2, off the escalated slice: machine semantics only.
           Shadows are cleared rather than written, so an on-slice reader
           never observes a stale one: the slice closure guarantees every
           producer feeding an on-slice statement is itself on-slice.
           Outputs are still pushed (client transparency); the domain
           records nothing. *)
        | Compile.POff -> begin
            match cs.Compile.cs_op with
            | Compile.CWrTmp (t, e) ->
                fr.temps.(t) <- fast_eval e;
                fr.tshadow.(t) <- SNone
            | Compile.CPut (off, e) -> put_unshadowed st off (fast_eval e)
            | Compile.CStore (a, e) ->
                let addr = Int64.to_int (Value.as_i64 (fast_eval a)) in
                store_unshadowed st addr (fast_eval e)
            | Compile.CDirtyArg (t, args) ->
                let k =
                  if Array.length args = 1 then
                    Value.as_f64 (fast_eval args.(0))
                  else 0.0
                in
                fr.temps.(t) <- Value.VF64 (Machine.nth_input st.inputs k);
                fr.tshadow.(t) <- SNone
            | Compile.CDirty (t, name, args) ->
                let fargs =
                  Array.map (fun a -> Value.as_f64 (fast_eval a)) args
                in
                fr.temps.(t) <- Value.VF64 (Eval.libm_apply name fargs);
                fr.tshadow.(t) <- SNone
            | Compile.CExit (g, target) ->
                if Value.as_bool (fast_eval g) then raise (Exit_to target)
            | Compile.COut (kind, e) ->
                push_output st ~stmt_id:cs.Compile.cs_id ~loc:cs.Compile.cs_loc
                  kind (fast_eval e)
          end
        | Compile.PFull -> begin
            c.stmts_instrumented <- c.stmts_instrumented + 1;
            let loc = cs.Compile.cs_loc in
            let stmt_id = cs.Compile.cs_id in
            match cs.Compile.cs_op with
            | Compile.CWrTmp (t, e) ->
                let v = eval st fr ~loc ~stmt_id e in
                fr.temps.(t) <- v;
                fr.tshadow.(t) <- fr.esh
            | Compile.CPut (off, e) ->
                let v = eval st fr ~loc ~stmt_id e in
                store_shadow st.thread_shadow off v fr.esh;
                Value.write_bytes st.thread off v
            | Compile.CStore (a, e) ->
                let addr =
                  Int64.to_int (Value.as_i64 (eval st fr ~loc ~stmt_id a))
                in
                let v = eval st fr ~loc ~stmt_id e in
                let sh = fr.esh in
                check_mem st addr (Ir.ty_size (Value.ty_of v));
                D.store st.dom ~loc ~stmt_id v sh;
                store_shadow st.mem_shadow addr v sh;
                Value.write_bytes st.mem addr v
            | Compile.CDirtyArg (t, args) ->
                (* arguments are evaluated for their effects; the input
                   itself has no shadowed provenance *)
                let vals = Array.map (eval st fr ~loc ~stmt_id) args in
                let k =
                  if Array.length vals = 1 then Value.as_f64 vals.(0) else 0.0
                in
                let client = Machine.nth_input st.inputs k in
                fr.temps.(t) <- Value.VF64 client;
                fr.tshadow.(t) <- D.input st.dom client
            | Compile.CDirty (t, name, args) ->
                let shs = Array.make (Array.length args) SNone in
                let vals =
                  Array.mapi
                    (fun j a ->
                      let v = eval st fr ~loc ~stmt_id a in
                      shs.(j) <- fr.esh;
                      v)
                    args
                in
                let fargs = Array.map Value.as_f64 vals in
                let client = Eval.libm_apply name fargs in
                fr.temps.(t) <- Value.VF64 client;
                fr.tshadow.(t) <-
                  D.libm st.dom ~loc ~stmt_id name fargs shs client
            | Compile.CExit (g, target) ->
                let taken = Value.as_bool (eval st fr ~loc ~stmt_id g) in
                (match fr.esh with
                | SBool sb -> D.branch st.dom ~loc ~stmt_id sb
                | SNone | SVal _ | SVec _ -> ());
                if taken then raise (Exit_to target)
            | Compile.COut (kind, e) ->
                let v = eval st fr ~loc ~stmt_id e in
                push_output st ~stmt_id ~loc kind v;
                D.output st.dom ~loc ~stmt_id v fr.esh
          end);
        go (i + 1)
      end
    in
    try go 0 with Exit_to target -> target

  let run ?(mem_size = Machine.default_mem_size) ?(max_steps = max_int)
      ?(inputs = [||]) ?restrict ?tick ~type_inference ~init (prog : Ir.prog) :
      D.t outcome =
    let restrict =
      Option.map
        (fun f ->
          Array.mapi
            (fun bi (b : Ir.block) ->
              Array.init (Array.length b.Ir.stmts) (fun si ->
                  f (Ir.stmt_id ~block:bi ~stmt:si)))
            prog.Ir.blocks)
        restrict
    in
    let compiled = Compile.get ~type_inference ?restrict prog in
    let dom = init compiled in
    let st =
      {
        prog;
        compiled;
        dom;
        mem = acquire_mem mem_size;
        mem_hw = 0;
        thread = Bytes.make Machine.default_thread_size '\000';
        mem_shadow = Shadowtbl.create mem_size SNone;
        thread_shadow = Shadowtbl.create Machine.default_thread_size SNone;
        frames =
          Array.map
            (fun (b : Ir.block) ->
              {
                temps = Array.map Machine.init_value b.Ir.temp_tys;
                tshadow = Array.make (Array.length b.Ir.temp_tys) SNone;
                esh = SNone;
              })
            prog.Ir.blocks;
        temp_inits =
          Array.map
            (fun (b : Ir.block) -> Array.map Machine.init_value b.Ir.temp_tys)
            prog.Ir.blocks;
        inputs;
        outputs = [];
        counters =
          {
            blocks_run = 0;
            stmts_run = 0;
            stmts_executed = 0;
            stmts_instrumented = 0;
          };
        tick;
        (* start at the stride so the first block entry checks the
           deadline immediately *)
        stmts_since_tick = tick_stride;
      }
    in
    Fun.protect
      ~finally:(fun () -> release_mem st.mem st.mem_hw)
      (fun () ->
        st.counters.blocks_run <-
          Machine.drive ~max_steps prog ~run_block:(run_block st);
        { dom; outputs = List.rev st.outputs; counters = st.counters })
end
