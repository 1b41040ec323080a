(** Order statistics over latency samples. *)

val median : float array -> float
(** @raise Invalid_argument on an empty array. *)

type tail = {
  pct : float;  (** the nearest-rank percentile the value sits at *)
  value : float;
  beyond : int;  (** samples strictly above it in sorted order *)
  samples : int;
}

val min_beyond : int
(** 10: a tail percentile must have this many samples beyond it. *)

val tail : float array -> tail
(** The highest percentile with at least {!min_beyond} samples beyond
    it: the sample at rank [n - 10] (percentile [100 (n-10) / n]).
    Below [2 * min_beyond] samples that rank would sit at or under the
    median, so the maximum is reported instead ([pct = 100],
    [beyond = 0]).  @raise Invalid_argument on an empty array. *)

val sum : float array -> float

val pct : float -> float -> float
(** [pct part whole] = [100 * part / whole], 0 when [whole = 0]. *)
