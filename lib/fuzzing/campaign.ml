(* The RQ1 experiment driver: run all six fuzzers against both simulated
   compilers under an identical iteration budget and collect the
   coverage / crash / compilable-mutant statistics behind Figures 7-9 and
   Tables 4-5. *)

open Cparse

type fuzzer_id =
  | MuCFuzz_s
  | MuCFuzz_u
  | AFLpp
  | GrayC
  | Csmith
  | YARPGen

let fuzzer_name = function
  | MuCFuzz_s -> "uCFuzz.s"
  | MuCFuzz_u -> "uCFuzz.u"
  | AFLpp -> "AFL++"
  | GrayC -> "GrayC"
  | Csmith -> "Csmith"
  | YARPGen -> "YARPGen"

let all_fuzzers = [ MuCFuzz_s; MuCFuzz_u; AFLpp; GrayC; Csmith; YARPGen ]

(* Stable per-fuzzer/per-compiler RNG-derivation tags.  Hashtbl.hash is
   not a cross-version (or cross-domain-layout) determinism guarantee;
   these are, and worker-parallel runs must reproduce the sequential
   streams exactly. *)
let fuzzer_tag = function
  | MuCFuzz_s -> 1
  | MuCFuzz_u -> 2
  | AFLpp -> 3
  | GrayC -> 4
  | Csmith -> 5
  | YARPGen -> 6

let compiler_tag = function Simcomp.Compiler.Gcc -> 1 | Clang -> 2

type config = {
  iterations : int;
  seeds : int;            (* seed-corpus size *)
  sample_every : int;
  seed_value : int;       (* RNG seed for determinism *)
  max_attempts : int;     (* μCFuzz per-iteration mutator budget *)
  jobs : int;             (* unread; kept for callers that set it *)
  schedule : bool;        (* μCFuzz corpus scheduling (AFL-style) *)
}

let default_config =
  {
    iterations = 400;
    seeds = 60;
    sample_every = 20;
    seed_value = 2024;
    max_attempts = 16;
    jobs = 1;
    schedule = false;
  }

(* Per-cell fault-harness derivation tag: distinct per (fuzzer, compiler)
   and independent of the cell's position in the work list, so a faulted
   campaign is identical at any shard count and any fuzzer subset. *)
let cell_tag fuzzer compiler = (10 * fuzzer_tag fuzzer) + compiler_tag compiler

let run_one ?engine ?faults ?checkpoint ?resume ?options (cfg : config)
    (fuzzer : fuzzer_id) (compiler : Simcomp.Compiler.compiler) :
    Fuzz_result.t =
  (* every fuzzer gets its own deterministic RNG stream, fault stream,
     and the same seed corpus (except the generation-based ones, which
     are seedless) *)
  let rng =
    Rng.create
      (cfg.seed_value + (1000 * fuzzer_tag fuzzer) + compiler_tag compiler)
  in
  let faults =
    Option.map
      (fun f -> Engine.Faults.derive f ~tag:(cell_tag fuzzer compiler))
      faults
  in
  let seed_rng = Rng.create cfg.seed_value in
  let seeds = Seeds.corpus ~n:cfg.seeds seed_rng in
  let mucfuzz_cfg mutators name =
    ignore name;
    {
      (Mucfuzz.default_config ~mutators ()) with
      Mucfuzz.sample_every = cfg.sample_every;
      max_attempts_per_iteration = cfg.max_attempts;
      schedule = cfg.schedule;
    }
  in
  (* Equal *wall-clock*, not equal program counts: per Table 5, in 24 h
     AFL++ produces ~2.2x the mutants of μCFuzz while Csmith and YARPGen
     produce ~3% and ~8% (program generation is expensive).  The
     iteration budget is scaled by those throughput factors. *)
  let gen_iters factor = max 10 (cfg.iterations * factor / 100) in
  match fuzzer with
  | MuCFuzz_s ->
    Mucfuzz.run ?options
      ~cfg:(mucfuzz_cfg Mutators.Registry.supervised "uCFuzz.s")
      ?engine ?faults ?checkpoint ?resume ~rng ~compiler ~seeds
      ~iterations:cfg.iterations ~name:"uCFuzz.s" ()
  | MuCFuzz_u ->
    Mucfuzz.run ?options
      ~cfg:(mucfuzz_cfg Mutators.Registry.unsupervised "uCFuzz.u")
      ?engine ?faults ?checkpoint ?resume ~rng ~compiler ~seeds
      ~iterations:cfg.iterations ~name:"uCFuzz.u" ()
  | AFLpp ->
    Baselines.run_aflpp ?engine ?faults ?options ~rng ~compiler ~seeds
      ~iterations:cfg.iterations ~sample_every:cfg.sample_every ()
  | GrayC ->
    Baselines.run_grayc ?engine ?faults ?options ~rng ~compiler ~seeds
      ~iterations:cfg.iterations ~sample_every:cfg.sample_every ()
  | Csmith ->
    Baselines.run_csmith ?engine ?faults ?options ~rng ~compiler
      ~iterations:(gen_iters 8)
      ~sample_every:(max 1 (cfg.sample_every / 8)) ()
  | YARPGen ->
    Baselines.run_yarpgen ?engine ?faults ?options ~rng ~compiler
      ~iterations:(gen_iters 20)
      ~sample_every:(max 1 (cfg.sample_every / 4)) ()

type cell = fuzzer_id * Simcomp.Compiler.compiler

type t = {
  config : config;
  results : (cell * Fuzz_result.t) list;
  failures : (cell * string) list;
  resumed_cells : int;
}

(* Checkpointing is per cell: each (fuzzer, compiler) pair snapshots its
   own μCFuzz state under a stable file name, and a completed cell's
   final result is saved as a second file so resume can skip it
   entirely.  The fingerprint covers every parameter the snapshot is
   only valid for; [jobs] is deliberately excluded (it schedules
   nothing, and older checkpoints were written without it). *)
let cell_name (fuzzer, compiler) =
  Fmt.str "%s-%s" (fuzzer_name fuzzer) (Simcomp.Bugdb.compiler_to_string compiler)

let cell_ckpt_file dir cell =
  Filename.concat dir ("cell-" ^ cell_name cell ^ ".ckpt")

let cell_done_file dir cell =
  Filename.concat dir ("done-" ^ cell_name cell ^ ".ckpt")

let cell_fingerprint (cfg : config) ?faults cell =
  Fmt.str "campaign|%s|it=%d|seeds=%d|every=%d|seed=%d|ma=%d|sched=%b|%s"
    (cell_name cell) cfg.iterations cfg.seeds cfg.sample_every cfg.seed_value
    cfg.max_attempts cfg.schedule
    (match faults with
    | None -> "faults=off"
    | Some f -> "faults=" ^ Engine.Faults.fingerprint f)

let result (t : t) fuzzer compiler = List.assoc_opt (fuzzer, compiler) t.results

(* Crashes of one fuzzer across both compilers (crash keys are prefixed
   with the compiler so GCC and Clang crashes never collide). *)
let crash_set (t : t) fuzzer : (string, unit) Hashtbl.t =
  let set = Hashtbl.create 16 in
  List.iter
    (fun ((f, comp), r) ->
      if f = fuzzer then
        List.iter
          (fun k ->
            Hashtbl.replace set
              (Simcomp.Bugdb.compiler_to_string comp ^ ":" ^ k)
              ())
          (Fuzz_result.crash_keys r))
    t.results;
  set
