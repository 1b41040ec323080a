(** Strict command line: [--workload NAME --seed N --seconds N
    --trace 0|1], each exactly once.  Anything else is an error, so a
    mistyped flag can never fall back to a default budget. *)

type t = { workload : string; seed : int; seconds : int; trace : bool }

val parse : workloads:string list -> string list -> (t, string) result
(** [parse ~workloads argv] where [argv] excludes the program name.
    [workloads] lists the accepted workload names; [seconds] must be
    positive and [seed] non-negative. *)

val usage : workloads:string list -> string
