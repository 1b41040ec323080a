(** Seed corpus.

    The paper bootstraps its fuzzers with 1,839 seeds from the GCC and
    Clang test suites.  This module synthesizes an equivalent corpus from
    hand-written templates covering test-suite idioms (libc calls,
    strings, gotos, switch fall-through, structs — including the shapes
    behind the paper's case studies) plus generated programs. *)

val templates : string list
(** The hand-written, feature-rich templates (all parse and type check —
    enforced by the test suite). *)

val of_template : string -> string option
(** Validate and normalise a template into canonical printed form. *)

val corpus : ?n:int -> Cparse.Rng.t -> string list
(** [corpus ~n rng]: every template plus generated programs up to [n]
    seeds (deterministic in [rng]). *)
