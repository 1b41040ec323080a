(** The RQ1 experiment: six fuzzers against both simulated compilers
    under an equal *wall-clock* budget (per-tool throughput factors from
    Table 5), and the statistics behind Figures 7-9 and Tables 4-5.

    This module defines one cell ({!run_one}), its checkpoint files, and
    the assembled result {!t}.  {!Coordinator.run} executes the matrix
    and {!Coordinator.to_campaign} views its result as a {!t}. *)

type fuzzer_id =
  | MuCFuzz_s   (** μCFuzz with the 68 supervised mutators *)
  | MuCFuzz_u   (** μCFuzz with the 50 unsupervised mutators *)
  | AFLpp       (** byte-level havoc baseline *)
  | GrayC       (** five semantic-aware mutators *)
  | Csmith      (** generation-based, closed grammar *)
  | YARPGen     (** generation-based, loop-focused *)

val fuzzer_name : fuzzer_id -> string
val all_fuzzers : fuzzer_id list

val fuzzer_tag : fuzzer_id -> int
(** Stable RNG-derivation tag (1-6): unlike [Hashtbl.hash], an explicit
    cross-version determinism guarantee. *)

val compiler_tag : Simcomp.Compiler.compiler -> int
(** Stable RNG-derivation tag (1-2). *)

type config = {
  iterations : int;    (** time-unit budget (generators get a fraction) *)
  seeds : int;         (** seed-corpus size *)
  sample_every : int;
  seed_value : int;    (** RNG seed: campaigns are deterministic *)
  max_attempts : int;  (** μCFuzz per-iteration mutator budget *)
  jobs : int;
      (** Unread: nothing in the library schedules by it.  It stays in
          the record for callers that still set it; {!Coordinator.run}'s
          [shards] chooses the parallelism. *)
  schedule : bool;
      (** enable {!Mucfuzz} corpus scheduling in the μCFuzz cells (the
          baselines are unaffected); off by default *)
}

val default_config : config
(** [jobs] is [1]. *)

val cell_tag : fuzzer_id -> Simcomp.Compiler.compiler -> int
(** Stable per-cell fault-stream derivation tag, independent of the
    cell's position in the work list. *)

val run_one :
  ?engine:Engine.Ctx.t ->
  ?faults:Engine.Faults.t ->
  ?checkpoint:string * int ->
  ?resume:string ->
  ?options:Simcomp.Compiler.options ->
  config -> fuzzer_id -> Simcomp.Compiler.compiler -> Fuzz_result.t
(** One cell.  [faults] is the *campaign* harness: the cell derives its
    own stream with {!cell_tag}.  [checkpoint]/[resume] are forwarded to
    {!Mucfuzz.run} (ignored by the baselines other than GrayC).
    [options] selects the compiler configuration every mutant is
    compiled under (default [-O2]) — the {!Coordinator}'s opt-matrix
    axis runs the same cell at several [-O] levels. *)

type cell = fuzzer_id * Simcomp.Compiler.compiler

val cell_name : cell -> string
(** Stable display name, ["<fuzzer>-<compiler>"] — also the Chrome-trace
    thread label and the checkpoint file stem. *)

val cell_ckpt_file : string -> cell -> string
(** [cell_ckpt_file dir cell]: the mid-run snapshot path of this cell.
    The names are stable, so a campaign interrupted under [--shards 1]
    resumes under [--shards K] and vice versa. *)

val cell_done_file : string -> cell -> string
(** The completed-cell result path (restored on resume). *)

val cell_fingerprint :
  config -> ?faults:Engine.Faults.t -> cell -> string
(** The validity stamp those files are saved under: every parameter the
    snapshot depends on ([jobs] deliberately excluded). *)

type t = {
  config : config;
  results : (cell * Fuzz_result.t) list;
  failures : (cell * string) list;
      (** cells whose computation kept failing; empty in a healthy
          campaign *)
  resumed_cells : int;
      (** cells restored from completed-cell checkpoints, not recomputed *)
}

val result : t -> fuzzer_id -> Simcomp.Compiler.compiler -> Fuzz_result.t option

val crash_set : t -> fuzzer_id -> (string, unit) Hashtbl.t
(** Crashes of one fuzzer across both compilers; keys are prefixed with
    the compiler name so GCC and Clang crashes never collide. *)
