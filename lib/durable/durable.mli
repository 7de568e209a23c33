(** The one on-disk protocol behind every durable file: the fleet store,
    the server store, the campaign findings feed and checkpoint, and the
    shard status file.

    A log is a file of records, one per line, each ending in ['\n']; a
    record holds no newline (compact {!Json.to_string} output never
    does). Logs grow by {!append} or are rewritten whole by {!replace};
    single-record files are logs of one line written by {!replace}.

    {b The torn-record policy.} Bytes after a log's last newline are a
    torn record, which only a writer that died mid-append leaves. Readers
    ignore it ({!read} skips and counts it, {!poll} leaves it
    unconsumed) and the next {!append} truncates it before writing. A
    complete line that does not decode is corruption: {!read} raises,
    {!poll} skips and counts it.

    {b Locking.} Appends hold an exclusive [lockf] lock on the whole
    file, reads a shared one. These fcntl locks belong to the process
    and any [close] of the file drops them, so every operation also
    holds one process-wide mutex. When the file system refuses the lock
    the operation goes ahead unlocked and {!append} does not repair: the
    tail may be a live writer's record in progress.

    A killed appender loses its own record, a killed {!replace} leaves
    the old contents (and a stray temporary file). Nothing calls
    [fsync]. *)

val append : string -> string list -> unit
(** [append path lines] adds [lines] to [path], created when missing,
    with one write loop under the exclusive lock, after truncating a
    torn record. Raises [Unix.Unix_error] when [path] cannot be
    opened. *)

val read : string -> (string -> 'a) -> 'a list * int
(** [read path decode] decodes the complete non-blank lines of [path] in
    order, and counts the torn records skipped (0 or 1, with a warning
    on stderr). Raises [Json.Parse_error "path:line: msg"] when [decode]
    raises [Json.Parse_error] or [Failure], and [Sys_error] when [path]
    cannot be read. *)

type tail
(** A live reader: the offset of the first unconsumed byte of one log,
    and a count of skipped lines. Callers serialize their uses of one
    [tail]. *)

val tail : string -> tail
(** [tail path] starts at offset 0; [path] need not exist yet. A log
    {!replace}d under a tail is not re-read. *)

val poll : tail -> (string -> unit) -> unit
(** [poll t f] passes each complete non-blank line appended since the
    last poll to [f], skipping and counting those on which [f] raises
    [Json.Parse_error] or [Failure]. A missing file reads as empty.

    It never consumes bytes a repair can rewrite: it reads under the
    shared lock, so no append or repair runs meanwhile, and it consumes
    only through the last newline read. A repair truncates only bytes
    after the last newline, so a torn record a tail saw is re-read, as
    whatever replaced it, on the next poll. *)

val skipped : tail -> int
(** Lines this tail skipped because they did not decode. *)

val replace : string -> string list -> unit
(** [replace path lines] makes [lines] the whole of [path] atomically: a
    temporary file in the same directory, renamed over [path]. Readers
    see the old contents or the new, never a mix. Raises [Sys_error],
    leaving [path] as it was. *)

val torn_total : unit -> int
(** Records this process dropped: torn records skipped by {!read} or
    truncated by {!append}, and lines skipped by {!poll}. *)
