(** Branch-coverage instrumentation for the simulated compilers.

    Each decision point in the pipeline reports a (site, context) pair —
    context captures what the real compiler's branch would depend on
    (node kind, type class, pass decision) — so coverage grows with
    program diversity the way instrumented GCC/Clang coverage does.

    The representation is an AFL-style edge map: a fixed byte array of
    [map_size] saturating 8-bit hit counters plus an exact total-hits
    count, and beside it the list of the map's nonzero cells, appended
    to when a cell leaves zero.  {!hit} is allocation-free once the list
    has grown (no boxing, no hashing of boxed tuples), {!covered} is
    O(1), and {!merge}, {!reset}, {!iter_nonzero} and the other
    whole-map operations walk only the touched cells, so their cost
    follows the branches a compile reached, not [map_size].  {!merge}'s
    return value is the accept signal of Algorithm 1. *)

type t
(** A mutable coverage map. *)

val map_bits : int
val map_size : int
(** The id space is [\[0, map_size)] ([1 lsl map_bits]). *)

val create : unit -> t
(** A zeroed map.  Allocates [map_size] bytes: fuzz loops should create
    one scratch map per campaign and {!merge_consume} it after every
    compile rather than allocating per compile. *)

val hit : t -> int -> unit
(** Record one execution of branch [id mod map_size].  Performs no
    minor-heap allocation (the benchmark's [coverage_hit_minor_words]
    pins this); the touched-cell list grows by doubling in the major
    heap, so a warm scratch map allocates nothing at all. *)

val branch : t -> site:int -> ?a:int -> ?b:int -> unit -> unit
(** Report a branch at [site] with contextual values [a], [b]; the id is
    an inlined integer mix of the triple (no tuple is built).  Each
    supplied optional argument boxes a [Some] at the call site (no
    flambda): fine for one-off sites, not for per-node loops. *)

val branch3 : t -> int -> int -> int -> unit
(** [branch3 cov site a b] = [branch cov ~site ~a ~b ()] without the
    optional-argument boxing — the allocation-free spelling for
    instrumentation that fires per token/node/instruction. *)

val covered : t -> int
(** Number of distinct branches covered.  O(1). *)

val total_hits : t -> int

val branch_ids : t -> int list
(** Covered ids in increasing order. *)

val merge : into:t -> t -> int
(** [merge ~into src] accumulates [src] (saturating per-cell) and
    returns the number of branches new to [into].  [merge ... > 0] is
    exactly {!has_new_coverage} computed in the same pass — fuzz loops
    should use this single call for both the accept decision and the
    accumulation. *)

val merge_consume : into:t -> t -> int
(** {!merge} followed by {!reset} of the second map: accumulates it
    into [into] and returns the fresh-branch count.  After the call the
    source map is pristine, so a scratch map cycled through compile →
    [merge_consume] never needs an up-front {!reset}.  Cost is linear
    in the source's covered cells. *)

val iter_nonzero : t -> (int -> unit) -> unit
(** Apply the callback to every covered cell index, in increasing
    order (the touched list is sorted first, so the cost is
    O(covered log covered)).  For accept-time bookkeeping (corpus
    scheduling) that must run before the map is consumed. *)

val drain : t -> unit
(** Same as {!reset}; kept for existing callers. *)

val has_new_coverage : seen:t -> t -> bool
(** Does the second map cover a branch absent from [seen]?  Read-only
    variant of the {!merge} fresh test, for callers that must not
    accumulate. *)

val reset : t -> unit
(** Zero the map in place (no allocation), clearing only the touched
    cells: the cost is linear in {!covered}, not in [map_size]. *)

val copy : t -> t

val equal : t -> t -> bool
(** Bit-for-bit map equality (plus hit/distinct counts): the
    checkpoint/resume identity check.  The order in which cells were
    first touched is not compared. *)
