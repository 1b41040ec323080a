(** The metrics registry: counters, gauges, and histograms with fixed
    bucket edges.

    Hot paths resolve an instrument once ({!counter}, {!histogram}) and
    then pay O(1) per increment/observation; {!snapshot} and {!merge}
    are cold reporting paths. *)

type counter

type gauge_policy =
  | Max   (** merged value is the maximum across workers (high-water marks) *)
  | Sum   (** worker values add (accumulated deltas, e.g. GC promotions) *)
  | Last  (** last merged worker wins — join-order dependent; only for
              gauges where any worker's reading is representative *)

type gauge
type histogram

type t
(** A registry.  Not domain-safe: each worker owns its registry and the
    join barrier {!merge}s them into the main one. *)

val create : unit -> t

val counter : t -> string -> counter
(** Find-or-create by name. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : ?policy:gauge_policy -> t -> string -> gauge
(** Find-or-create; [policy] (default {!Max}) only applies on creation. *)

val set : gauge -> float -> unit
val add : gauge -> float -> unit
val gauge_value : gauge -> float
val gauge_policy : gauge -> gauge_policy

val default_time_edges_ns : float array
(** Decade buckets from 1us to 10s, in nanoseconds. *)

val histogram : ?edges:float array -> t -> string -> histogram
(** Find-or-create; [edges] are strictly increasing upper bounds (a value
    [v] lands in the first bucket with [v <= edge], else overflow).
    [edges] is ignored when the histogram already exists.
    @raise Invalid_argument on empty or non-increasing edges. *)

val bucket_index : histogram -> float -> int
(** Bucket a value would land in; [Array.length edges] is overflow. *)

val observe : histogram -> float -> unit
val histogram_mean : histogram -> float

val quantile_of :
  edges:float array -> counts:int array -> total:int -> float -> float
(** Prometheus-style quantile estimate from raw bucket data: locate the
    bucket holding the q-th observation and interpolate linearly within
    it.  Observations in the overflow bucket clamp to the top edge;
    an empty histogram reads 0.  [q] is clamped to [\[0, 1\]]. *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      edges : float array;
      counts : int array;
      sum : float;
      total : int;
    }

val snapshot : t -> (string * value) list
(** All instruments as a name-sorted assoc list, for reporting. *)

val counters_with_prefix : t -> prefix:string -> (string * int) list
(** Counters whose name starts with [prefix], keyed by the suffix —
    the idiom behind per-mutator counter families
    ("mucfuzz.accept.<mutator>"). *)

val merge : into:t -> t -> unit
(** Join a worker registry: counters and histogram buckets add, gauges
    join under their {!gauge_policy} (the destination's when both
    exist).
    @raise Invalid_argument on histogram bucket-edge mismatch. *)
