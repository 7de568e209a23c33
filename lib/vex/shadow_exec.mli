(** The shadow block executor: runs a pre-decoded superblock program
    ({!Compile}) once, with a shadow slot beside every temporary,
    thread-state slot and memory slot, for one shadow domain.

    The executor owns everything that is the same for every domain:
    client memory (from a per-domain scratch pool), thread state,
    per-block frames, the shadow tables ({!Shadowtbl}), bounds checks,
    the self-ticked deadline, the raw-statement counters, the type
    inference fast path ([PFast]), the tiered engine's machine-only path
    ([POff]) and the instrumented path ([PFull]). Client semantics come
    from {!Eval}; outputs are bit-identical to {!Machine.run}'s.

    A domain ({!DOMAIN}) supplies only what a shadow means: how
    shadowed operations transform it, how an input or libm result is
    shadowed, and what to record when a shadowed value reaches a branch,
    a memory store or an output. The hooks run only on [PFull]
    statements, at shadowed operations and observation points; [PFast]
    and [POff] statements never call the domain. *)

(** What a temporary or storage slot holds: nothing, one scalar shadow
    (possibly riding in an integer), the shadow of a float comparison,
    or SIMD lanes (2 for F64, 4 for F32). *)
type ('v, 'b) slot =
  | SNone
  | SVal of 'v
  | SBool of 'b
  | SVec of ('v, 'b) slot array

val lane_slot : ('v, 'b) slot -> int -> int -> ('v, 'b) slot
(** [lane_slot sl n i] is lane [i] of an [n]-lane [SVec], or [SNone]. *)

(** Raw-statement accounting, shared by every domain. *)
type counters = {
  mutable blocks_run : int;
  mutable stmts_run : int;  (** raw statements, IMarks included *)
  mutable stmts_executed : int;  (** pre-decoded statements dispatched *)
  mutable stmts_instrumented : int;  (** statements on the [PFull] path *)
}

module type DOMAIN = sig
  type v  (** a scalar shadow *)

  type b  (** the shadow of a float comparison *)

  type t  (** per-run domain state *)

  val unop :
    t ->
    loc:Ir.loc ->
    stmt_id:int ->
    Ir.unop ->
    Value.t ->
    (v, b) slot ->
    Value.t ->
    (v, b) slot
  (** [unop d ~loc ~stmt_id op a a_sh result]: the shadow of
      [op a = result]. *)

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
  (** [binop d ~loc ~stmt_id op a a_sh b b_sh result]. *)

  val input : t -> float -> (v, b) slot
  (** The shadow of an [__arg] harness input. *)

  val libm :
    t ->
    loc:Ir.loc ->
    stmt_id:int ->
    string ->
    float array ->
    (v, b) slot array ->
    float ->
    (v, b) slot
  (** [libm d ~loc ~stmt_id name args arg_shadows result]: the shadow of
      a libm call. *)

  val branch : t -> loc:Ir.loc -> stmt_id:int -> b -> unit
  (** A comparison shadow guarded a side exit or an ITE. *)

  val store : t -> loc:Ir.loc -> stmt_id:int -> Value.t -> (v, b) slot -> unit
  (** A value is about to be stored to client memory. *)

  val output : t -> loc:Ir.loc -> stmt_id:int -> Value.t -> (v, b) slot -> unit
  (** An [Out] statement (including spot marks) evaluated this value. *)
end

type 'd outcome = {
  dom : 'd;  (** the domain state after the run *)
  outputs : Machine.output list;  (** oldest first *)
  counters : counters;
}

module Make (D : DOMAIN) : sig
  val run :
    ?mem_size:int ->
    ?max_steps:int ->
    ?inputs:float array ->
    ?restrict:(int -> bool) ->
    ?tick:(unit -> unit) ->
    type_inference:bool ->
    init:(Compile.t -> D.t) ->
    Ir.prog ->
    D.t outcome
  (** Compile [prog] ({!Compile.get}), build the domain state with
      [init], and run the program from its entry block until it halts.

      [restrict] limits instrumentation to the statement ids it accepts:
      the rest run machine-only ([POff]), with their shadows cleared.

      [tick] is the deadline hook, called at block granularity at most
      once per 1024 executed raw statements (and on the first block, so
      an already-expired budget gets no free work); callers raise from
      it, and the exception propagates out of [run] untouched.

      Raises {!Machine.Client_error} on an out-of-bounds memory access,
      a jump outside the program, or past [max_steps] superblocks. *)
end
