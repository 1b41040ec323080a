(** Every metric the benchmark reports, with its unit and the direction
    that is better.  [BENCHMARK.json] lists the same names (a test
    holds the two together). *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

val end_to_end : metric list
(** Printed by every untraced run ([--trace 0]). *)

val per_layer : metric list
(** Printed by every traced run ([--trace 1]); a layer a workload does
    not break down reads 0. *)

val opt_passes : string list
(** The optimizer passes with per-pass metrics. *)

val cell_fuzzers : (string * string) list
(** Campaign fuzzer display names and the metric-name form of each. *)
