(** The execution context threaded through the compiler, the fuzzers
    and the MetaMut pipeline: one metrics registry, a nanosecond clock
    and the progress tick — plus, when telemetry is enabled, a
    span-trace buffer and a GC probe.

    The registry is the only progress record.  The tick is one observer
    list that fires once per compile ({!compiled}, called by
    [Simcomp.Compiler] after it bumps [compile.total] and
    [compile.outcome.*]) and once per coverage-trend sample ({!sample},
    called by the fuzz loops).  Observers read counts from the registry
    and the latest sample from the context; the status line, periodic
    telemetry flushes and worker heartbeats are all observers.

    A context is owned by a single domain; parallel campaigns give each
    worker its own and {!Metrics.merge} the registries (and
    {!Trace.merge} the buffers) at the join barrier. *)

type tick =
  | Compiled  (** one compile outcome was recorded *)
  | Sampled  (** one coverage-trend sample was taken *)

type t = {
  metrics : Metrics.t;
  clock : unit -> int64;
  mutable trace : Trace.t option;
  mutable probe : Probe.t option;
  mutable log : Log.t option;
  mutable observers : (tick -> unit) list;
  mutable sample_iteration : int;
      (** iteration of the latest trend sample (0 = seed baseline) *)
  mutable sample_covered : int;  (** covered branches at that sample *)
  mutable samples : int;  (** trend samples taken on this context *)
}

val default_clock : unit -> int64
(** Wall clock in nanoseconds ([Unix.gettimeofday]-based). *)

val create : ?clock:(unit -> int64) -> unit -> t
(** Fresh context with no observers, tracing and probing off. *)

val observe : t -> (tick -> unit) -> unit
(** Append an observer; observers fire in the order they were added. *)

val unobserve : t -> (tick -> unit) -> unit
(** Detach an observer by physical identity. *)

val compiled : t -> unit
(** Fire the {!Compiled} tick. *)

val sample : t -> iteration:int -> covered:int -> unit
(** Record a coverage-trend sample as the latest, count it, and fire
    the {!Sampled} tick. *)

val now_ns : t -> int64

val incr : ?by:int -> t -> string -> unit
(** Convenience counter bump (does the name lookup; hot paths should
    pre-resolve with {!Metrics.counter} instead). *)

val counter_value : t -> string -> int
(** Current value of a named counter (find-or-create, like {!incr}). *)

val enable_trace : ?tid:int -> t -> Trace.t
(** Start recording span instances into a fresh buffer (idempotent:
    returns the existing buffer when already enabled). *)

val enable_probe : ?batch:int -> t -> Probe.t
(** Start GC sampling every [batch] compiles (idempotent). *)

val enable_log : ?level:Log.level -> t -> Log.t
(** Start collecting structured log records (idempotent). *)

val log_event :
  t ->
  ?scope:string ->
  ?phase:int ->
  level:Log.level ->
  event:string ->
  (string * string) list ->
  unit
(** Emit a structured record when logging is enabled; no-op otherwise. *)
