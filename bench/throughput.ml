(* Fuzzing-throughput benchmark: the perf trajectory for the hot path.

   Unlike bench/main.ml (which regenerates the paper's tables), this
   harness measures what the ROADMAP's "as fast as the hardware allows"
   goal needs tracked across PRs:

     - mutants/sec and compiles/sec over a μCFuzz microbench,
     - minor-words allocated per compile (GC pressure of the pipeline),
     - minor-words allocated per Coverage.hit (must be 0: the coverage
       hot path is allocation-free),
     - covered branches and unique crashes, as a sanity anchor that the
       speedup did not change fuzzing behaviour.

   Results are written as JSON to BENCH_fuzz_throughput.json in the
   current directory (bench/check.sh runs from the repository root).

   The file keeps a history: each run appends (or, for a re-run under
   the same label, replaces) one entry in the "history" array, and the
   latest entry's fields are mirrored at the top level so dashboards
   and bench/check.sh keep reading the flat keys.  A pre-history flat
   file is migrated into the first entry.

   Flags / environment:
     --smoke                     tiny budget for CI (also: METAMUT_BENCH_SMOKE=1)
     --shards K                  K forked workers, one sub-budget each
     --out FILE                  output path (default BENCH_fuzz_throughput.json)
     --label NAME                history key (default: the mode, smoke/full)
     METAMUT_THROUGHPUT_ITERS=N  override the iteration budget

   Anything else (an unknown flag, a malformed number) exits 2 with a
   usage line: a mistyped option must not silently run the full budget. *)

let () = Engine.Runtime.tune ()

let usage =
  "usage: throughput.exe [--smoke] [--shards K] [--out FILE] [--label NAME]"

let usage_error fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "throughput: %s@.%s@." msg usage;
      exit 2)
    fmt

let smoke_flag, shards, out_path, label_flag =
  let smoke = ref false and shards = ref 0 in
  let out = ref "BENCH_fuzz_throughput.json" and label = ref None in
  let rec go = function
    | [] -> ()
    | "--smoke" :: rest ->
      smoke := true;
      go rest
    | "--shards" :: v :: rest ->
      (match int_of_string_opt v with
      | Some k when k >= 0 -> shards := k
      | _ -> usage_error "--shards: expected a non-negative integer, got %S" v);
      go rest
    | "--out" :: v :: rest ->
      out := v;
      go rest
    | "--label" :: v :: rest ->
      label := Some v;
      go rest
    | [ (("--shards" | "--out" | "--label") as flag) ] ->
      usage_error "%s needs a value" flag
    | arg :: _ -> usage_error "unknown argument %S" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  (!smoke, !shards, !out, !label)

let smoke = smoke_flag || Sys.getenv_opt "METAMUT_BENCH_SMOKE" = Some "1"

let iterations =
  match Sys.getenv_opt "METAMUT_THROUGHPUT_ITERS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ ->
      usage_error
        "METAMUT_THROUGHPUT_ITERS: expected a positive integer, got %S" s)
  | None -> if smoke then 200 else 10_000

let label =
  match label_flag with
  | Some l -> l
  | None ->
    if shards > 0 then Fmt.str "shards-%d" shards
    else if smoke then "smoke"
    else "full"

(* ------------------------------------------------------------------ *)
(* Measurements                                                        *)
(* ------------------------------------------------------------------ *)

(* Minor words allocated per Coverage.hit.  The acceptance bar is 0:
   the AFL-style byte map bumps a cell without touching the heap. *)
let coverage_hit_minor_words () =
  let cov = Simcomp.Coverage.create () in
  let n = 1_000_000 in
  (* warm up so any one-time allocation is outside the window *)
  for i = 0 to 999 do
    Simcomp.Coverage.hit cov i
  done;
  let before = (Gc.quick_stat ()).Gc.minor_words in
  for i = 0 to n - 1 do
    Simcomp.Coverage.hit cov (i * 7919)
  done;
  let after = (Gc.quick_stat ()).Gc.minor_words in
  (after -. before) /. float_of_int n

type run_stats = {
  rs_elapsed_s : float;
  rs_mutants : int;
  rs_compiles : int;
  rs_cached : int;
  rs_minor_words : float;
  rs_covered : int;
  rs_crashes : int;
  rs_probe_minor_mean : float;
  rs_probe_minor_p50 : float;
  rs_probe_minor_p95 : float;
  rs_promoted_words : float;
  rs_major_collections : float;
}

(* The 10k-iteration μCFuzz microbench: one coverage-guided campaign on
   GCC-sim with the core corpus, the configuration the paper's RQ1 runs
   at (bounded attempt budget, fragility on).  With [faults], the same
   campaign runs with the harness armed — pass a zero-rate harness to
   measure the pure consultation overhead of the chaos layer. *)
let mucfuzz_throughput ?faults () =
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
  let compiles () = counter "compile.total" in
  let c0 = compiles () in
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let t0 = Unix.gettimeofday () in
  let r =
    Fuzzing.Mucfuzz.run ~cfg ~engine ?faults
      ~rng:(Cparse.Rng.create 42)
      ~compiler:Simcomp.Compiler.Gcc ~seeds ~iterations ~name:"bench" ()
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let minor = (Gc.quick_stat ()).Gc.minor_words -. w0 in
  Engine.Probe.sample probe;
  {
    rs_elapsed_s = elapsed;
    rs_mutants = r.Fuzzing.Fuzz_result.total_mutants;
    rs_compiles = compiles () - c0;
    rs_cached = counter "compile.cached";
    rs_minor_words = minor;
    rs_covered = Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage;
    rs_crashes = Fuzzing.Fuzz_result.unique_crashes r;
    rs_probe_minor_mean = Engine.Probe.minor_words_mean probe;
    rs_probe_minor_p50 = Engine.Probe.minor_words_p50 probe;
    rs_probe_minor_p95 = Engine.Probe.minor_words_p95 probe;
    rs_promoted_words = Engine.Probe.promoted_words probe;
    rs_major_collections = Engine.Probe.major_collections probe;
  }

(* ------------------------------------------------------------------ *)
(* Sharded mode: the scaling curve                                     *)
(* ------------------------------------------------------------------ *)

(* One shard's share of a sharded run: everything the breakdown needs,
   Marshal-shipped back over the Result frame. *)
type shard_stats = {
  ss_shard : int;
  ss_elapsed_s : float;
  ss_mutants : int;
  ss_compiles : int;
  ss_covered : int;
  ss_crashes : int;
}

(* N forked workers, each running the same μCFuzz microbench with its
   own RNG stream (seed 42+shard) and its own iteration budget — the
   aggregate mutants/s over the wall-clock of the whole pool is the
   number the ROADMAP's scaling curve tracks.  The per-shard rate sanity
   anchor: sum(per-shard mutants) / wall == aggregate. *)
let sharded_throughput n =
  let f ~heartbeat ~seq:_ ~attempt:_ (body : string) =
    let shard =
      match Engine.Shard.decode body with
      | Ok (i : int) -> i
      | Error msg -> failwith msg
    in
    let seeds = Fuzzing.Seeds.corpus ~n:30 (Cparse.Rng.create 11) in
    let cfg =
      {
        (Fuzzing.Mucfuzz.default_config ()) with
        Fuzzing.Mucfuzz.max_attempts_per_iteration = 8;
        sample_every = max 1 (iterations / 20);
      }
    in
    let engine = Engine.Ctx.create () in
    (* A full-mode lease is minutes of silent work — without heartbeats
       the pool's hang detector would kill a perfectly healthy worker.
       Same throttle as the campaign coordinator: one beat per ~200
       compiles. *)
    let execs = ref 0 in
    Engine.Event.add_sink engine.Engine.Ctx.bus
      {
        Engine.Event.sink_name = "bench-heartbeat";
        emit =
          (fun e ->
            match e with
            | Engine.Event.Compile_finished _ ->
              incr execs;
              if !execs mod 200 = 0 then
                heartbeat ~execs:!execs ~covered:0 ~crashes:0
            | _ -> ());
      };
    let compiles () =
      Engine.Metrics.counter_value
        (Engine.Metrics.counter engine.Engine.Ctx.metrics "compile.total")
    in
    let t0 = Unix.gettimeofday () in
    let r =
      Fuzzing.Mucfuzz.run ~cfg ~engine
        ~rng:(Cparse.Rng.create (42 + shard))
        ~compiler:Simcomp.Compiler.Gcc ~seeds ~iterations
        ~name:(Fmt.str "bench-s%d" shard)
        ()
    in
    Engine.Shard.encode
      {
        ss_shard = shard;
        ss_elapsed_s = Unix.gettimeofday () -. t0;
        ss_mutants = r.Fuzzing.Fuzz_result.total_mutants;
        ss_compiles = compiles ();
        ss_covered = Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage;
        ss_crashes = Fuzzing.Fuzz_result.unique_crashes r;
      }
  in
  let leases = Array.init n (fun i -> Engine.Shard.encode i) in
  let t0 = Unix.gettimeofday () in
  let results, _stats =
    Engine.Shard.run_pool ~shards:n ~backend:Engine.Shard.Fork ~f leases
  in
  let wall = Unix.gettimeofday () -. t0 in
  let per =
    Array.to_list results
    |> List.map (fun v ->
           match Engine.Shard.verdict_to_result v with
           | Ok body -> (
             match Engine.Shard.decode body with
             | Ok (ss : shard_stats) -> ss
             | Error msg -> failwith ("bad shard result: " ^ msg))
           | Error msg -> failwith ("shard failed: " ^ msg))
    |> List.sort (fun a b -> compare a.ss_shard b.ss_shard)
  in
  (wall, per)

let sharded_fields ~wall (per : shard_stats list) =
  let sum f = List.fold_left (fun acc ss -> acc + f ss) 0 per in
  let mutants = sum (fun ss -> ss.ss_mutants) in
  let compiles = sum (fun ss -> ss.ss_compiles) in
  let rate n = float_of_int n /. wall in
  let per_shard =
    "["
    ^ String.concat ", "
        (List.map
           (fun ss ->
             Fmt.str
               "{\"shard\": %d, \"elapsed_s\": %.3f, \"mutants\": %d, \
                \"compiles\": %d, \"mutants_per_sec\": %.1f, \
                \"covered_branches\": %d, \"unique_crashes\": %d}"
               ss.ss_shard ss.ss_elapsed_s ss.ss_mutants ss.ss_compiles
               (if ss.ss_elapsed_s <= 0. then 0.
                else float_of_int ss.ss_mutants /. ss.ss_elapsed_s)
               ss.ss_covered ss.ss_crashes)
           per)
    ^ "]"
  in
  [
    ("label", Fmt.str "%S" label);
    ("mode", if smoke then "\"smoke\"" else "\"full\"");
    ("shards", string_of_int (List.length per));
    (* scaling curves only mean something relative to the cores that ran
       them; record the box so a 1-core container's flat curve is not
       mistaken for a sharding regression *)
    ("cores", string_of_int (Domain.recommended_domain_count ()));
    ("iterations", string_of_int iterations);
    ("elapsed_s", Fmt.str "%.3f" wall);
    ("mutants", string_of_int mutants);
    ("compiles", string_of_int compiles);
    ("mutants_per_sec", Fmt.str "%.1f" (rate mutants));
    ("compiles_per_sec", Fmt.str "%.1f" (rate compiles));
    ("covered_branches",
     string_of_int (List.fold_left (fun m ss -> max m ss.ss_covered) 0 per));
    ("unique_crashes", string_of_int (sum (fun ss -> ss.ss_crashes)));
    ("per_shard", per_shard);
  ]

(* ------------------------------------------------------------------ *)
(* JSON output (hand-rolled: no JSON dependency in the image)          *)
(* ------------------------------------------------------------------ *)

(* Every field of one run, as (name, rendered value) pairs: the source
   for both the flat top-level mirror and the single-line history
   entry. *)
let fields (rs : run_stats) ~hit_words ~armed =
  let per_compile =
    if rs.rs_compiles = 0 then 0.
    else rs.rs_minor_words /. float_of_int rs.rs_compiles
  in
  let rate n = float_of_int n /. rs.rs_elapsed_s in
  (* the same bench with a zero-rate fault harness armed at every site:
     mutants/s through the drawless fast path, pinning chaos-layer
     overhead ≈ 0 (the pct is wall-clock noise around zero) *)
  let armed_rate =
    float_of_int armed.rs_mutants /. armed.rs_elapsed_s
  in
  let overhead_pct =
    let base = rate rs.rs_mutants in
    if base <= 0. then 0. else 100. *. (base -. armed_rate) /. base
  in
  [
    ("label", Fmt.str "%S" label);
    ("mode", if smoke then "\"smoke\"" else "\"full\"");
    (* throughput only compares across runs on the same box width; the
       sharded entries already record this, mirror it here *)
    ("cores", string_of_int (Domain.recommended_domain_count ()));
    ("iterations", string_of_int iterations);
    ("elapsed_s", Fmt.str "%.3f" rs.rs_elapsed_s);
    ("mutants", string_of_int rs.rs_mutants);
    ("compiles", string_of_int rs.rs_compiles);
    ("compiles_cached", string_of_int rs.rs_cached);
    ("mutants_per_sec", Fmt.str "%.1f" (rate rs.rs_mutants));
    ("mutants_per_sec_faults_armed", Fmt.str "%.1f" armed_rate);
    ("faults_armed_overhead_pct", Fmt.str "%.1f" overhead_pct);
    ("compiles_per_sec", Fmt.str "%.1f" (rate rs.rs_compiles));
    ("minor_words_per_compile", Fmt.str "%.1f" per_compile);
    ("coverage_hit_minor_words", Fmt.str "%.6f" hit_words);
    ("probe_minor_words_per_compile", Fmt.str "%.1f" rs.rs_probe_minor_mean);
    ("probe_minor_words_p50", Fmt.str "%.1f" rs.rs_probe_minor_p50);
    ("probe_minor_words_p95", Fmt.str "%.1f" rs.rs_probe_minor_p95);
    ("probe_promoted_words", Fmt.str "%.1f" rs.rs_promoted_words);
    ("probe_major_collections", Fmt.str "%.0f" rs.rs_major_collections);
    ("covered_branches", string_of_int rs.rs_covered);
    ("unique_crashes", string_of_int rs.rs_crashes);
  ]

(* ------------------------------------------------------------------ *)
(* History: one single-line object per labeled run                     *)
(* ------------------------------------------------------------------ *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

(* A history entry is serialized on one line starting with {"label":,
   so prior entries are recovered by a line scan — no JSON parser in
   the image.  A pre-history flat file (one multi-line object, no
   history array) is collapsed into the first entry. *)
let entry_label line =
  let prefix = "{\"label\": \"" in
  if String.length line > String.length prefix then begin
    let start = String.length prefix in
    match String.index_from_opt line start '"' with
    | Some stop -> String.sub line start (stop - start)
    | None -> ""
  end
  else ""

let read_history path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in_bin path in
    let content = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let lines = List.map String.trim (String.split_on_char '\n' content) in
    let entries =
      List.filter_map
        (fun l ->
          if String.starts_with ~prefix:"{\"label\":" l then
            Some
              (if String.ends_with ~suffix:"," l then
                 String.sub l 0 (String.length l - 1)
               else l)
          else None)
        lines
    in
    if entries <> [] then entries
    else if contains_sub content "\"bench\"" && not (contains_sub content "\"history\"")
    then begin
      (* legacy flat format: its fields become the first entry *)
      let fields =
        List.filter (fun l -> l <> "{" && l <> "}" && l <> "") lines
      in
      [ "{\"label\": \"pre-history\", " ^ String.concat " " fields ^ "}" ]
    end
    else []
  end

let emit (fs : (string * string) list) =
  let entry =
    "{" ^ String.concat ", " (List.map (fun (n, v) -> Fmt.str "%S: %s" n v) fs)
    ^ "}"
  in
  (* same label = same experiment re-run: replace in place, keeping the
     history one entry per label; new labels append chronologically *)
  let history =
    List.filter (fun e -> entry_label e <> label) (read_history out_path)
    @ [ entry ]
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Fmt.str "  %S: %s,\n" "bench" "\"fuzz_throughput\"");
  (* the latest run's fields, mirrored flat for dashboards and check.sh *)
  List.iter (fun (n, v) -> Buffer.add_string buf (Fmt.str "  %S: %s,\n" n v)) fs;
  Buffer.add_string buf "  \"history\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map (fun e -> "    " ^ e) history));
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out out_path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  print_string (Buffer.contents buf)

let () =
  if shards > 0 then begin
    Fmt.pr "fuzz-throughput bench: %d shards x %d iterations (%s mode)@."
      shards iterations
      (if smoke then "smoke" else "full");
    let wall, per = sharded_throughput shards in
    emit (sharded_fields ~wall per)
  end
  else begin
    Fmt.pr "fuzz-throughput bench: %d iterations (%s mode)@." iterations
      (if smoke then "smoke" else "full");
    let hit_words = coverage_hit_minor_words () in
    let rs = mucfuzz_throughput () in
    let armed =
      mucfuzz_throughput
        ~faults:(Engine.Faults.create Engine.Faults.no_faults)
        ()
    in
    emit (fields rs ~hit_words ~armed)
  end;
  Fmt.pr "wrote %s@." out_path
