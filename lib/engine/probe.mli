(** GC/allocation probes: [Gc.quick_stat] deltas sampled every compile
    batch into the metrics registry, so allocation regressions on the
    compile hot path show up in telemetry snapshots without a bench run.

    Instruments: ["gc.minor_words_per_compile"] (histogram of per-batch
    means), ["gc.promoted_words"] and ["gc.major_collections"] (Sum
    gauges of accumulated deltas), ["gc.heap_words"] (Max gauge).

    GC readings are machine- and schedule-dependent: probe instruments
    are excluded from determinism comparisons (see
    {!Telemetry.deterministic_snapshot}) and never feed RNG-visible
    state. *)

type t

val minor_words_edges : float array

val create : ?batch:int -> Metrics.t -> t
(** Register the probe instruments in a registry and snapshot the
    current GC counters as the baseline.  [batch] (default 64) is the
    number of compiles per sample. *)

val on_compile : t -> unit
(** Count one compile; every [batch] compiles, take a sample. *)

val sample : t -> unit
(** Force a sample of whatever partial batch has accumulated (call at
    run end so the tail batch is not lost). *)

val minor_words_mean : t -> float
(** Mean minor words per compile over the samples taken so far. *)
