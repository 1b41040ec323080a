(** Span-instance buffer behind the Chrome trace-event export.

    A context that has tracing enabled appends every {!Span} instance
    here; {!to_chrome_lines} renders the buffer as a Chrome trace-event
    JSON document (one event per line) loadable in Perfetto or
    chrome://tracing.  Parallel campaigns merge per-worker buffers at
    the join barrier in canonical cell order, each under the cell's
    stable tid. *)

type span_rec = {
  sr_name : string;
  sr_ts_ns : int64;   (** wall-clock start, nanoseconds *)
  sr_dur_ns : int64;
  sr_tid : int;       (** Chrome thread id: the stable cell/worker tag *)
}

type t

val create : ?tid:int -> unit -> t
(** Empty buffer; spans record under [tid] (default 0). *)

val label_tid : t -> tid:int -> label:string -> unit
(** Attach a display name to a tid (rendered as a [thread_name]
    metadata event).  First label per tid wins. *)

val record : t -> name:string -> ts_ns:int64 -> dur_ns:int64 -> unit

val length : t -> int
val spans : t -> span_rec list

val merge : into:t -> ?tid:int -> t -> unit
(** Append a worker buffer; [tid] retags every appended span (the join
    barrier is authoritative over what the worker stamped). *)

val to_chrome_lines : ?pid:int -> ?process_name:string -> t -> string list
(** The buffer as Chrome trace-event JSON: ["["], one event object per
    line (["ph":"X"] complete events plus [process_name]/[thread_name]
    metadata), ["]"]. *)

val to_chrome_string : ?pid:int -> ?process_name:string -> t -> string

val json_escape : string -> string
(** JSON string-body escaping (shared with the structured log writer). *)

val fold_self : t -> (string list * int64) list
(** Self time per call stack, reconstructed per tid from interval
    containment (spans carry no parent pointers).  Each stack is rooted
    at the tid's label ([main] for tid 0, [tid-N] otherwise); values are
    nanoseconds of *self* time — a parent's self time plus its
    children's totals equals the parent's total.  Sorted by path. *)

val to_folded : t -> string
(** {!fold_self} rendered as folded-stack lines
    (["campaign;compile.opt;opt.pass.constfold 1234"], microseconds),
    consumable directly by flamegraph.pl or speedscope.  Stacks with
    non-positive self time (< 1µs) are dropped. *)

val self_time_by_name : t -> (string * int64) list
(** Self time (ns) summed per span name, sorted descending — the
    report's "Where the time goes" table.  Synthetic stack roots (tid
    labels) appear with non-positive values; display layers filter. *)
