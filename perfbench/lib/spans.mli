(** In-memory span recorder for the traced run.

    Each call into a layer gets a span: name, start, end, the span that
    was open when it started (its parent), and the minor words the call
    allocated.  Spans stay in memory until the run ends; {!totals}
    aggregates them per name. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  t0_ns : int64;
  t1_ns : int64;
  words : float;  (** minor words allocated while the span was open *)
}

type t

val create : ?clock:(unit -> int64) -> ?words:(unit -> float) -> unit -> t
(** Defaults: the monotonic clock and [Gc.minor_words]. *)

val with_ : t -> string -> (unit -> 'a) -> 'a
(** Run [f] under a span named [name], nested in the innermost open
    span.  The span is recorded also when [f] raises. *)

val spans : t -> span list
(** Recorded spans in start order. *)

val length : t -> int

val self_ns : t -> span -> int64
(** The span's duration minus the part of its interval covered by its
    children (overlapping children are counted once). *)

type total = {
  calls : int;
  total_ns : int64;
  self_ns : int64;
  total_words : float;
  self_words : float;  (** words minus the children's words *)
}

val totals : t -> (string * total) list
(** Per-name aggregates, sorted by name. *)

val find : (string * total) list -> string -> total
(** The aggregate for a name; all zeros when no span had it. *)
