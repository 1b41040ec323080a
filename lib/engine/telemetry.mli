(** The telemetry export layer: machine-readable artifacts over the
    metrics/event/span machinery, written under a [--telemetry DIR].

    {!attach} enables span tracing and the GC probe on a context and
    installs a periodic sink that rewrites the metrics snapshot files
    ([metrics.prom], [metrics.json]) every few [Coverage_sampled]
    events; {!finalize} writes the at-exit snapshot, the Chrome trace
    ([trace.jsonl]), and optionally the post-run markdown report
    ([campaign-report.md]).

    Determinism: wall-clock timestamps live only in the exported
    artifacts, never in checkpoint snapshots or RNG-visible state —
    enabling telemetry cannot change fuzz results.  Span and GC
    families are machine-dependent; {!deterministic_snapshot} strips
    them for shards:K invariance checks. *)

type t

val attach :
  ?flush_every:int -> ?tid:int -> ?probe_batch:int -> dir:string -> Ctx.t -> t
(** Create [dir], enable tracing (spans tagged [tid], default 0) and
    the GC probe on the context, and start periodic metrics snapshots
    (one rewrite per [flush_every] (default 4) [Coverage_sampled]
    events). *)

val flush_metrics : t -> unit
(** Atomically rewrite [metrics.prom] and [metrics.json] from the
    current registry (write-temp + rename: a tailing reader never sees
    a torn snapshot).  Also bumps the ["telemetry.flushes"] counter. *)

val finalize : ?report:string -> t -> unit
(** Final probe sample, detach the periodic sink, write the at-exit
    metrics snapshot, [trace.jsonl], [profile.folded], and
    [mutator-yield.json] (when the registry has mutator families), and
    — when [report] is given — [campaign-report.md]. *)

(** {2 Pure exporters (used directly by golden tests)} *)

val prom_name : string -> string
(** Registry name to Prometheus name: ["mucfuzz.accept.X"] becomes
    ["metamut_mucfuzz_accept_X"]. *)

val prometheus_of_snapshot : (string * Metrics.value) list -> string
(** Prometheus text exposition format: [# HELP] and [# TYPE] lines per
    family, counters and gauges as single samples, histograms as
    cumulative [_bucket{le="..."}] samples plus [_sum]/[_count]. *)

val mutator_yield_json : Metrics.t -> string option
(** The per-mutator yield leaderboard (attempts / accepts / rejects /
    inapplicable / fresh edges), as a JSON array sorted by fresh-edge
    yield then accepts.  [None] when the registry never fuzzed. *)

val json_of_snapshot : (string * Metrics.value) list -> string
(** One JSON object with ["counters"], ["gauges"], and ["histograms"]
    sections. *)

val deterministic_snapshot : Metrics.t -> (string * Metrics.value) list
(** {!Metrics.snapshot} minus the wall-clock/machine-dependent families
    ([span.*], [gc.*]): the part of telemetry that must be identical at
    any job count. *)

(** {2 Artifact file names under the telemetry dir} *)

val trace_file : string
val prom_file : string
val json_file : string
val report_file : string
val folded_file : string
val yield_file : string

val write_file : string -> string -> unit
(** Atomic write-temp + rename (shared by the flight-recorder dumps). *)
