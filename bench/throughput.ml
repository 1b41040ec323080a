(* Fuzzing-throughput benchmark: one μCFuzz run on GCC-sim, the numbers
   bench/check.sh gates.

   Unlike bench/main.ml (which regenerates the paper's tables), this
   harness reports the hot path's throughput, its allocation per compile
   (the gated number) and the run's covered branches, unique crashes and
   compile counts (the determinism pins).  Campaign scaling and repeated
   timed runs live in perfbench's workloads.

   Results are written as one flat JSON object to
   BENCH_fuzz_throughput.json in the current directory.

   Flags:
     --smoke      200 iterations instead of 10,000, on the same code path
     --out FILE   output path (default BENCH_fuzz_throughput.json)

   Anything else (an unknown flag, a missing value) exits 2 with a usage
   line: a mistyped option must not silently run the full budget. *)

let () = Engine.Runtime.tune ()

let usage = "usage: throughput.exe [--smoke] [--out FILE]"

let usage_error fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "throughput: %s@.%s@." msg usage;
      exit 2)
    fmt

let smoke, out_path =
  let smoke = ref false and out = ref "BENCH_fuzz_throughput.json" in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | "--out" :: v :: rest ->
      out := v;
      go rest
    | [ "--out" ] -> usage_error "--out needs a value"
    | arg :: _ -> usage_error "unknown argument %S" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  (!smoke, !out)

let iterations = if smoke then 200 else 10_000

(* The μCFuzz microbench: one coverage-guided campaign on GCC-sim with
   the core corpus, the configuration the paper's RQ1 runs at (bounded
   attempt budget, fragility on). *)
let () =
  Fmt.pr "fuzz-throughput bench: %d iterations (%s mode)@." iterations
    (if smoke then "smoke" else "full");
  let seeds = Fuzzing.Seeds.corpus ~n:30 (Cparse.Rng.create 11) in
  let cfg =
    {
      (Fuzzing.Mucfuzz.default_config ()) with
      Fuzzing.Mucfuzz.max_attempts_per_iteration = 8;
      sample_every = max 1 (iterations / 20);
    }
  in
  let engine = Engine.Ctx.create () in
  (* The probe piggybacks on the compile hook, so the same run also
     yields the batch-sampled GC profile telemetry would report. *)
  let probe = Engine.Ctx.enable_probe engine in
  let counter name =
    Engine.Metrics.counter_value
      (Engine.Metrics.counter engine.Engine.Ctx.metrics name)
  in
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let t0 = Unix.gettimeofday () in
  let r =
    Fuzzing.Mucfuzz.run ~cfg ~engine
      ~rng:(Cparse.Rng.create 42)
      ~compiler:Simcomp.Compiler.Gcc ~seeds ~iterations ~name:"bench" ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let minor = (Gc.quick_stat ()).Gc.minor_words -. w0 in
  Engine.Probe.sample probe;
  let mutants = r.Fuzzing.Fuzz_result.total_mutants in
  let compiles = counter "compile.total" in
  let rate n = float_of_int n /. elapsed in
  let fields =
    [
      ("bench", "\"fuzz_throughput\"");
      ("mode", if smoke then "\"smoke\"" else "\"full\"");
      (* throughput only compares across runs on the same box width *)
      ("cores", string_of_int (Domain.recommended_domain_count ()));
      ("iterations", string_of_int iterations);
      ("elapsed_s", Fmt.str "%.3f" elapsed);
      ("mutants", string_of_int mutants);
      ("compiles", string_of_int compiles);
      ("compiles_cached", string_of_int (counter "compile.cached"));
      ("mutants_per_sec", Fmt.str "%.1f" (rate mutants));
      ("compiles_per_sec", Fmt.str "%.1f" (rate compiles));
      ( "minor_words_per_compile",
        Fmt.str "%.1f"
          (if compiles = 0 then 0. else minor /. float_of_int compiles) );
      ( "probe_minor_words_per_compile",
        Fmt.str "%.1f" (Engine.Probe.minor_words_mean probe) );
      ( "covered_branches",
        string_of_int (Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage)
      );
      ("unique_crashes", string_of_int (Fuzzing.Fuzz_result.unique_crashes r));
    ]
  in
  let json =
    "{\n"
    ^ String.concat ",\n"
        (List.map (fun (n, v) -> Fmt.str "  %S: %s" n v) fields)
    ^ "\n}\n"
  in
  let oc = open_out out_path in
  output_string oc json;
  close_out oc;
  print_string json;
  Fmt.pr "wrote %s@." out_path
