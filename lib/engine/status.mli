(** Live TTY status line for long-running fuzz/campaign loops.

    One line — iteration, execs/s, covered edges, crashes, retry
    recoveries, plateau streak — rewritten in place on stderr (or a
    custom [out]) at most once per [interval_ns].  Its only input is
    {!update}: {!attach} feeds it on every {!Ctx} progress tick from the
    [compile.total] and [compile.outcome.crash] counters and the latest
    trend sample.  Plateau detection counts consecutive trend samples
    that gained no edges. *)

type t

val set_tty_owner : bool -> unit
(** Process-global terminal ownership (default [true]).  When false,
    this process renders nothing — sharded workers relinquish ownership
    so K processes sharing a stderr don't interleave [\r] rewrites; the
    coordinator keeps it and draws the one aggregated line. *)

val tty_owner : unit -> bool

val attach :
  ?out:(string -> unit) ->
  ?interval_ns:int64 ->
  ?label:string ->
  Ctx.t ->
  t
(** Observe the context's progress tick.  [out] defaults to
    writing stderr (with [\r\027\[K] in-place rewriting); [interval_ns]
    defaults to 200ms; [label] prefixes the line (default ["fuzz"]). *)

val line : t -> string
(** The current status line (no control characters) — used by tests. *)

val fold_heartbeats : (int * int * int) list -> int * int * int
(** Fold per-shard [(execs, covered, crashes)] heartbeats into campaign
    totals: execs and crashes (disjoint work) sum, covered (each
    shard's view of one global map) takes the max.  Zero-exec shards
    contribute nothing. *)

val update :
  t -> ?iteration:int -> execs:int -> covered:int -> crashes:int -> unit -> unit
(** Feed absolute aggregate totals and render (throttled).  The tick
    observer calls this; the sharded coordinator, whose own context
    never compiles, folds worker heartbeats into one line the same way.
    Covered is monotone (a regressing feed — e.g. a crashed shard's
    beat dropping out of the fold — never un-counts edges). *)

val finish : t -> unit
(** Stop observing and, if anything was rendered, leave a final
    newline-terminated summary so scrollback keeps the last state. *)
