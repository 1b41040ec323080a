(* The three timed workloads.  Each is a closed loop: one driver makes
   the next call only after the previous one returns.

   A run is a sequence of chunks: independent pieces of work whose
   inputs derive from (workload seed, chunk index) — a short μCFuzz
   campaign, a batch of EMI mutants, a whole campaign matrix.  Chunks
   run until the time budget is spent, and at least [min_chunks] of
   them.  A single fuzzing trajectory's cost and yield depend heavily on
   which programs it happens to grow, so figures only settle when
   averaged over many trajectories; that is why a run is many short
   chunks rather than one long one.

   Timings use every chunk.  Counts (coverage, findings, allocation)
   use only the first [min_chunks] chunks, so they are a pure function
   of the seed and identical on every run of it. *)


let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
let elapsed_ms s0 = Int64.to_float (Int64.sub (Monotonic_clock.now ()) s0) /. 1e6

type chunk = {
  setup_s : float;  (** seed generation and parsing, init, worker spawn *)
  wall_s : float;  (** the timed calls, set-up excluded *)
  steps_ms : float array;  (** latency of each closed-loop call *)
  mutants : int;
  compiles : int;
  minor_words : float;  (** allocated by the timed calls *)
  coverage : Simcomp.Coverage.t;
  findings : string list;  (** distinct finding keys *)
  attempted : int;
  failed : int;  (** steps that raised or failed an output check *)
  outputs : string;  (** the chunk's deterministic outputs *)
  problems : string list;  (** failed output checks, for stderr *)
}

(* Inputs of chunk [sub] of a run with [seed]. *)
let chunk_seed ~seed sub = (seed * 1009) + sub
let corpus ~seed n = Fuzzing.Seeds.corpus ~n (Cparse.Rng.create seed)
let fuzz_rng ~seed = Cparse.Rng.create ((seed * 7919) + 1)

(* The seed programs of [mucfuzz] and [wrongcode] are fixed, like a
   compiler test suite (and as in bench/throughput); the workload seed
   drives what the fuzzers do with them. *)
let fixed_corpus_seed = 11

let compiles_of (engine : Engine.Ctx.t) =
  Engine.Metrics.counter_value
    (Engine.Metrics.counter engine.Engine.Ctx.metrics "compile.total")

(* ------------------------------------------------------------------ *)
(* mucfuzz: Algorithm 1 on GCC-sim at -O2                              *)
(* ------------------------------------------------------------------ *)

let mucfuzz_iterations = 40
let mucfuzz_seeds = 30

let mucfuzz_cfg () =
  { (Fuzzing.Mucfuzz.default_config ()) with
    Fuzzing.Mucfuzz.max_attempts_per_iteration = 8 }

let mucfuzz_init ?engine ~seed ~sub () =
  Fuzzing.Mucfuzz.init ?engine ~cfg:(mucfuzz_cfg ()) ~rng:(fuzz_rng ~seed:(chunk_seed ~seed sub))
    ~compiler:Simcomp.Compiler.Gcc
    ~seeds:(corpus ~seed:fixed_corpus_seed mucfuzz_seeds)
    ()

let mucfuzz_chunk ~seed sub =
  let t0 = now_s () in
  let engine = Engine.Ctx.create () in
  let st = mucfuzz_init ~engine ~seed ~sub () in
  let t1 = now_s () in
  let c0 = compiles_of engine in
  let w0 = Gc.minor_words () in
  let steps = Array.make mucfuzz_iterations 0. in
  let failed = ref 0 in
  for i = 1 to mucfuzz_iterations do
    let s0 = Monotonic_clock.now () in
    (try
       Fuzzing.Mucfuzz.step st ~iteration:i;
       Fuzzing.Mucfuzz.sample_trend st ~iteration:i
     with e ->
       incr failed;
       Printf.eprintf "mucfuzz: step %d raised %s\n%!" i (Printexc.to_string e));
    steps.(i - 1) <- elapsed_ms s0
  done;
  let minor_words = Gc.minor_words () -. w0 in
  let t2 = now_s () in
  let r = st.Fuzzing.Mucfuzz.result in
  let compiles = compiles_of engine - c0 in
  let findings = Fuzzing.Fuzz_result.crash_keys r in
  let coverage = r.Fuzzing.Fuzz_result.coverage in
  {
    setup_s = t1 -. t0;
    wall_s = t2 -. t1;
    steps_ms = steps;
    mutants = r.Fuzzing.Fuzz_result.total_mutants;
    compiles;
    minor_words;
    coverage;
    findings;
    attempted = mucfuzz_iterations;
    failed = !failed;
    outputs =
      Printf.sprintf "covered=%d mutants=%d compilable=%d compiles=%d pool=%d crashes=%s"
        (Simcomp.Coverage.covered coverage)
        r.Fuzzing.Fuzz_result.total_mutants r.Fuzzing.Fuzz_result.compilable_mutants
        compiles
        (Engine.Vec.length st.Fuzzing.Mucfuzz.pool)
        (String.concat "," findings);
    problems = [];
  }

(* ------------------------------------------------------------------ *)
(* wrongcode: the EMI differential loop, one mutant per call           *)
(* ------------------------------------------------------------------ *)

let wrongcode_mutants = 20
let wrongcode_seeds = 60

(* One mutant as [Wrongcode.hunt] makes it: a pool program with one to
   four stacked core mutators, re-drawn until some mutator applied, and
   a random -O2/-O3.  [hunt] picks the program at random; here mutant
   [i] of chunk [sub] takes program [(sub * wrongcode_mutants + i) mod
   n], so a run mutates every seed program about equally often.  The
   cost of a check varies by orders of magnitude between programs, and
   a random pick would let one run's figures hinge on which programs it
   happened to favour.  [apply] wraps each mutator call (the traced run
   puts a span around it). *)
let wrongcode_mutant ?(apply = fun f -> f ()) rng pool ~sub i =
  let base = pool.(((sub * wrongcode_mutants) + i) mod Array.length pool) in
  let rec draw tries =
    if tries = 0 then failwith "wrongcode: no mutator applied in 100 draws";
    let rounds = 1 + Cparse.Rng.int rng 4 in
    let mutated = ref base and changed = ref false in
    for _ = 1 to rounds do
      let m = Cparse.Rng.choose rng Mutators.Registry.core in
      match apply (fun () -> Mutators.Mutator.apply m ~rng !mutated) with
      | Some tu' ->
        mutated := tu';
        changed := true
      | None -> ()
    done;
    if !changed then !mutated else draw (tries - 1)
  in
  let tu = draw 100 in
  (tu, { Simcomp.Compiler.default_options with opt_level = 2 + Cparse.Rng.int rng 2 })

let parse_pool seeds =
  List.filter_map (fun src -> Result.to_option (Cparse.Parser.parse src)) seeds
  |> Array.of_list

(* The seed programs are fixed, like a compiler test suite, and every
   chunk mutates them (generated and parsed again each time, so set-up
   is measured per chunk) with its own mutation stream. *)
let wrongcode_setup ~seed sub =
  (parse_pool (corpus ~seed:fixed_corpus_seed wrongcode_seeds), fuzz_rng ~seed:(chunk_seed ~seed sub))

(* Dedup key of [Wrongcode.hunt]: the observable difference and the
   source size class. *)
let mismatch_key (mm : Fuzzing.Wrongcode.mismatch) =
  let (e0, t0), (e1, t1) = (mm.mm_reference, mm.mm_observed) in
  Printf.sprintf "%d/%b>%d/%b@%d" e0 t0 e1 t1 (String.length mm.mm_source / 64)

(* Branches of GCC-sim the chunk's mutants reach: the EMI loop keeps no
   coverage map, so the mutants are compiled once more, untimed. *)
let corpus_coverage srcs =
  let cov = Simcomp.Coverage.create () in
  List.iter
    (fun src ->
      ignore
        (Simcomp.Compiler.compile ~cov Simcomp.Compiler.Gcc
           Simcomp.Compiler.default_options src))
    srcs;
  cov

let wrongcode_chunk ~seed sub =
  let t0 = now_s () in
  let pool, rng = wrongcode_setup ~seed sub in
  let t1 = now_s () in
  let w0 = Gc.minor_words () in
  let steps = Array.make wrongcode_mutants 0. in
  let failed = ref 0 and found = ref [] and srcs = ref [] and problems = ref [] in
  for i = 0 to wrongcode_mutants - 1 do
    let s0 = Monotonic_clock.now () in
    let res =
      try
        let tu, options = wrongcode_mutant rng pool ~sub i in
        let src = Cparse.Pretty.tu_to_string tu in
        Ok (src, options, Fuzzing.Wrongcode.check_program Simcomp.Compiler.Gcc options src)
      with e -> Error e
    in
    steps.(i) <- elapsed_ms s0;
    match res with
    | Error e ->
      incr failed;
      Printf.eprintf "wrongcode: step %d raised %s\n%!" i (Printexc.to_string e)
    | Ok (src, _, None) -> srcs := src :: !srcs
    | Ok (src, options, Some mm) -> (
      srcs := src :: !srcs;
      let key = mismatch_key mm in
      if not (List.mem key !found) then
        (* output check: a reported miscompilation must reproduce *)
        match Fuzzing.Wrongcode.check_program Simcomp.Compiler.Gcc options src with
        | Some mm' when mismatch_key mm' = key -> found := key :: !found
        | _ ->
          incr failed;
          problems :=
            Printf.sprintf "wrongcode: chunk %d step %d: mismatch %s did not reproduce" sub i key
            :: !problems)
  done;
  let minor_words = Gc.minor_words () -. w0 in
  let t2 = now_s () in
  let srcs = List.rev !srcs in
  let coverage = corpus_coverage srcs in
  let findings = List.rev !found in
  {
    setup_s = t1 -. t0;
    wall_s = t2 -. t1;
    steps_ms = steps;
    mutants = List.length srcs;
    (* check_program compiles every mutant at -O0 and at its level *)
    compiles = 2 * List.length srcs;
    minor_words;
    coverage;
    findings;
    attempted = wrongcode_mutants;
    failed = !failed;
    outputs =
      Printf.sprintf "covered=%d findings=%s corpus=%s"
        (Simcomp.Coverage.covered coverage)
        (String.concat "," findings)
        (Digest.to_hex (Digest.string (String.concat "\000" srcs)));
    problems = List.rev !problems;
  }

(* ------------------------------------------------------------------ *)
(* campaign: the RQ1 matrix as leases on forked workers                *)
(* ------------------------------------------------------------------ *)

let campaign_iterations = 60
let campaign_shards = 2

let campaign_cfg ~seed =
  {
    Fuzzing.Campaign.default_config with
    iterations = campaign_iterations;
    seeds = 60;
    sample_every = campaign_iterations / 10;
    seed_value = seed;
    jobs = 1;
  }

(* Pull-based dealing hands leases out in unit order: the first
   [shards] at pool start, and lease [shards + j] to the worker that
   delivered the [j]-th result (its next Request follows the Result).
   So a lease's latency is its result time minus the time of the
   completion that freed its worker. *)
let lease_latencies ~start ~shards (done_at : (int * float) list) =
  let in_order = List.rev done_at in
  let freed = Array.of_list (List.map snd in_order) in
  List.map
    (fun (seq, t) -> t -. if seq < shards then start else freed.(seq - shards))
    in_order
  |> Array.of_list

type campaign_run = {
  cr_t : Fuzzing.Coordinator.t;
  cr_engine : Engine.Ctx.t;
  cr_wall_s : float;
  cr_leases_s : float array;
}

let run_campaign ~seed =
  let engine = Engine.Ctx.create () in
  ignore (Engine.Ctx.enable_probe engine);
  let names = List.map Fuzzing.Coordinator.unit_name (Fuzzing.Coordinator.units ()) in
  let seq_of name =
    let rec find i = function
      | n :: rest -> if n = name then i else find (i + 1) rest
      | [] -> invalid_arg name
    in
    find 0 names
  in
  let done_at = ref [] in
  let progress ~completed:_ ~total:_ name = done_at := (seq_of name, now_s ()) :: !done_at in
  let t0 = now_s () in
  let t =
    Fuzzing.Coordinator.run ~cfg:(campaign_cfg ~seed) ~engine ~shards:campaign_shards
      ~progress ()
  in
  let t1 = now_s () in
  {
    cr_t = t;
    cr_engine = engine;
    cr_wall_s = t1 -. t0;
    cr_leases_s = lease_latencies ~start:t0 ~shards:campaign_shards !done_at;
  }

(* Set-up the matrix pays before its first lease: the seed corpus every
   cell starts from is generated and parsed, and a worker pool is
   spawned (measured on a pool that serves one empty lease per
   worker). *)
let campaign_setup ~seed =
  ignore (parse_pool (corpus ~seed (campaign_cfg ~seed).seeds));
  let verdicts, _ =
    Engine.Shard.run_pool ~shards:campaign_shards
      ~f:(fun ~heartbeat:_ ~seq:_ ~attempt:_ body -> body)
      (Array.make campaign_shards "")
  in
  Array.iter
    (function
      | Engine.Shard.Done _ -> ()
      | _ -> failwith "campaign: the set-up pool lost a lease")
    verdicts

(* The in-process replay of one cell must equal what the workers
   returned for it: sharding may not change a result. *)
let replay_fuzzer = Fuzzing.Campaign.YARPGen

let campaign_chunk ~seed sub =
  let seed = chunk_seed ~seed sub in
  let t0 = now_s () in
  campaign_setup ~seed;
  let t1 = now_s () in
  let cr = run_campaign ~seed in
  let t = cr.cr_t in
  let results = t.Fuzzing.Coordinator.results in
  let mutants =
    List.fold_left (fun acc (_, r) -> acc + r.Fuzzing.Fuzz_result.total_mutants) 0 results
  in
  let coverage = Fuzzing.Coordinator.aggregate_coverage t in
  let findings = Fuzzing.Coordinator.all_crashes t in
  let unit_problem what (u : Fuzzing.Coordinator.unit_id) why =
    Printf.sprintf "campaign: chunk %d unit %s %s: %s" sub (Fuzzing.Coordinator.unit_name u) what why
  in
  let replay_problem =
    let compiler = Simcomp.Compiler.Gcc in
    let sharded =
      List.find_map
        (fun ((u : Fuzzing.Coordinator.unit_id), r) ->
          if u.u_fuzzer = replay_fuzzer && u.u_compiler = compiler then Some r else None)
        results
    in
    let replayed = Fuzzing.Campaign.run_one (campaign_cfg ~seed) replay_fuzzer compiler in
    match sharded with
    | Some r when Fuzzing.Fuzz_result.equal r replayed -> []
    | _ -> [ Printf.sprintf "campaign: chunk %d: sharded result differs from in-process replay" sub ]
  in
  let problems =
    List.map (fun (u, msg) -> unit_problem "failed" u msg) t.Fuzzing.Coordinator.failures
    @ List.map
        (fun (q : Fuzzing.Coordinator.quarantined_unit) ->
          unit_problem "quarantined" q.qu_unit q.qu_reason)
        t.Fuzzing.Coordinator.quarantined
    @ replay_problem
    @
    let requeued = t.Fuzzing.Coordinator.shard_stats.Engine.Shard.st_requeued in
    if requeued > 0 then [ Printf.sprintf "campaign: chunk %d: %d leases requeued" sub requeued ] else []
  in
  (* workers allocate, not the coordinator: their GC probes sample
     minor words per 64-compile batch, merged at the join *)
  let minor_per_compile =
    match
      List.assoc_opt "gc.minor_words_per_compile"
        (Engine.Metrics.snapshot cr.cr_engine.Engine.Ctx.metrics)
    with
    | Some (Engine.Metrics.Histogram { sum; total; _ }) when total > 0 ->
      sum /. float_of_int total
    | _ -> 0.
  in
  let compiles = compiles_of cr.cr_engine in
  {
    setup_s = t1 -. t0;
    wall_s = cr.cr_wall_s;
    steps_ms = Array.map (fun s -> s *. 1e3) cr.cr_leases_s;
    mutants;
    compiles;
    minor_words = minor_per_compile *. float_of_int compiles;
    coverage;
    findings;
    attempted = List.length results + List.length t.Fuzzing.Coordinator.quarantined;
    failed = List.length problems;
    outputs =
      Printf.sprintf "covered=%d mutants=%d compiles=%d crashes=%s"
        (Simcomp.Coverage.covered coverage)
        mutants compiles (String.concat "," findings);
    problems;
  }

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  chunk : seed:int -> int -> chunk;
  min_chunks : int;
      (** the fixed prefix the counts come from; sized to take about
          half the default budget on a 2-core box *)
  replay_first : bool;
      (** run chunk 0 again at the end and compare its outputs; the
          campaign checks each chunk against an in-process replay of
          one cell instead, which is far cheaper than a second matrix *)
}

let workloads =
  [
    { name = "mucfuzz"; chunk = mucfuzz_chunk; min_chunks = 32; replay_first = true };
    { name = "wrongcode"; chunk = wrongcode_chunk; min_chunks = 10; replay_first = true };
    { name = "campaign"; chunk = campaign_chunk; min_chunks = 3; replay_first = false };
  ]

let find name = List.find (fun w -> w.name = name) workloads

type run = {
  chunks : chunk list;
      (** in run order; coverage maps are dropped past the prefix so
          retained maps do not inflate the heap a run reports *)
  prefix_coverage : Simcomp.Coverage.t;  (** union over the prefix *)
  replay_ok : bool;  (** chunk 0 run again gave the same outputs *)
}

let run (w : workload) ~seed ~seconds =
  let union = Simcomp.Coverage.create () and empty = Simcomp.Coverage.create () in
  let start = now_s () in
  let rec go acc n =
    if n >= w.min_chunks && now_s () -. start >= float_of_int seconds then List.rev acc
    else begin
      let c = w.chunk ~seed n in
      if n < w.min_chunks then ignore (Simcomp.Coverage.merge ~into:union c.coverage);
      go ({ c with coverage = empty } :: acc) (n + 1)
    end
  in
  let chunks = go [] 0 in
  let replay_ok =
    (not w.replay_first) || (w.chunk ~seed 0).outputs = (List.hd chunks).outputs
  in
  { chunks; prefix_coverage = union; replay_ok }
