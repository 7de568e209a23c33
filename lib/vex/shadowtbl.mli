(** Paged shadow storage over a byte-addressed space, polymorphic in the
    shadow payload so both shadow domains of {!Shadow_exec} share one
    aliasing discipline: an entry covers [addr, addr+size) bytes and any
    overlapping write kills it.

    The table is dense: the space is cut into 4 KiB pages, allocated on
    first write, with one cell per 4-byte-aligned address. A load or
    store of a shadowed value costs a few array reads, and nothing
    allocates after the first touch of a page.

    {b Alignment rule.} Entries start at 4-aligned addresses only: a
    {!set} at an unaligned address records nothing (it still kills the
    entries it overlaps), and a {!get} at an unaligned address always
    misses. The executors shadow F32/F64 slots and V128 lanes, which
    MiniC lays out in 8-aligned slots. Entries are at most 16 bytes
    long, which bounds the overlap scan. *)

type 'a t

val create : int -> 'a -> 'a t
(** [create nbytes absent] shadows an [nbytes]-byte space, initially
    empty; [absent] is what {!get} returns on a miss. An entry starting
    outside [0, nbytes) may be dropped: callers bounds-check first. *)

val get : 'a t -> int -> int -> 'a
(** [get tbl addr size] returns the entry starting at exactly [addr]
    with exactly [size] bytes, or [absent]. Allocation-free. *)

val set : 'a t -> int -> int -> 'a -> unit
(** [set tbl addr size sh] kills every entry overlapping
    [addr, addr+size), then records [sh] as covering it. *)

val clear_range : 'a t -> int -> int -> unit
(** [clear_range tbl addr size] kills every entry overlapping
    [addr, addr+size). *)
