(* Tests for the fuzzing layer: seeds, the fragility model, μCFuzz
   (Algorithm 1), the baselines, the macro fuzzer, and campaigns run
   through the coordinator. *)

open Cparse

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let seed_corpus = lazy (Fuzzing.Seeds.corpus ~n:30 (Rng.create 1))

let seeds_tests =
  [
    tc "every template parses and type checks" (fun () ->
        List.iter
          (fun src ->
            match Parser.parse src with
            | Error e -> Alcotest.failf "template does not parse: %s" e
            | Ok tu ->
              if not (Typecheck.check tu).Typecheck.r_ok then
                Alcotest.failf "template does not type check:\n%s" src)
          Fuzzing.Seeds.templates);
    tc "corpus has the requested size" (fun () ->
        check Alcotest.bool "at least n" true
          (List.length (Lazy.force seed_corpus) >= 30));
    tc "corpus members compile" (fun () ->
        List.iter
          (fun src ->
            match
              Simcomp.Compiler.compile Simcomp.Compiler.Gcc
                Simcomp.Compiler.default_options src
            with
            | Simcomp.Compiler.Compiled _ -> ()
            | Simcomp.Compiler.Crashed _ -> () (* latent bugs are possible *)
            | Simcomp.Compiler.Compile_error es ->
              Alcotest.failf "seed does not compile: %s"
                (String.concat ";" es))
          (Lazy.force seed_corpus));
    tc "corpus includes sprintf/goto-rich templates" (fun () ->
        let feats =
          List.filter_map
            (fun src ->
              match Parser.parse src with
              | Ok tu -> Some (Simcomp.Features.ast_features tu)
              | Error _ -> None)
            (Lazy.force seed_corpus)
        in
        check Alcotest.bool "variadic calls" true
          (List.exists (fun a -> a.Simcomp.Features.has_variadic_call) feats);
        check Alcotest.bool "gotos" true
          (List.exists (fun a -> a.Simcomp.Features.n_gotos > 0) feats);
        check Alcotest.bool "fallthrough" true
          (List.exists (fun a -> a.Simcomp.Features.has_fallthrough) feats));
    tc "corpus generation is deterministic" (fun () ->
        let a = Fuzzing.Seeds.corpus ~n:10 (Rng.create 7) in
        let b = Fuzzing.Seeds.corpus ~n:10 (Rng.create 7) in
        check Alcotest.(list string) "same" a b);
  ]

let fragility_tests =
  [
    tc "corrupt changes the source" (fun () ->
        let src = List.hd (Lazy.force seed_corpus) in
        let rng = Rng.create 3 in
        let changed = ref 0 in
        for _ = 1 to 20 do
          if not (String.equal (Fuzzing.Fragility.corrupt rng src) src) then
            incr changed
        done;
        check Alcotest.bool "mostly changes" true (!changed >= 15));
    tc "corrupt is deterministic under the same rng" (fun () ->
        let src = List.hd (Lazy.force seed_corpus) in
        let a = Fuzzing.Fragility.corrupt (Rng.create 5) src in
        let b = Fuzzing.Fragility.corrupt (Rng.create 5) src in
        check Alcotest.string "same" a b);
    tc "supervised slips are rarer than unsupervised" (fun () ->
        check Alcotest.bool "ordering" true
          (Fuzzing.Fragility.supervised_slip_probability
          < Fuzzing.Fragility.unsupervised_slip_probability));
    tc "render without slip equals pretty-print" (fun () ->
        (* probability of 200 consecutive slips is negligible; check that
           at least one render matches the pretty form *)
        let m = List.hd Mutators.Registry.core in
        let tu =
          match Parser.parse "int main(void) { return 1; }" with
          | Ok tu -> tu
          | Error _ -> assert false
        in
        let rng = Rng.create 9 in
        let pretty = Pretty.tu_to_string tu in
        let matched = ref false in
        for _ = 1 to 200 do
          if String.equal (Fuzzing.Fragility.render rng m tu) pretty then
            matched := true
        done;
        check Alcotest.bool "some clean renders" true !matched);
  ]

let aflpp_tests =
  [
    tc "havoc mutation changes bytes deterministically" (fun () ->
        let src = "int main(void) { return 0; }" in
        let a = Fuzzing.Baselines.havoc_byte_mutation (Rng.create 2) src in
        let b = Fuzzing.Baselines.havoc_byte_mutation (Rng.create 2) src in
        check Alcotest.string "same" a b);
    tc "havoc mostly breaks the parse" (fun () ->
        let src = List.hd (Lazy.force seed_corpus) in
        let rng = Rng.create 4 in
        let broken = ref 0 in
        for _ = 1 to 50 do
          let m = Fuzzing.Baselines.havoc_byte_mutation rng src in
          match Parser.parse m with Error _ -> incr broken | Ok _ -> ()
        done;
        check Alcotest.bool "mostly broken" true (!broken > 30));
  ]

let mucfuzz_tests =
  [
    tc "run produces coverage, pool growth, and a trend" (fun () ->
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 8;
            sample_every = 5;
          }
        in
        let r =
          Fuzzing.Mucfuzz.run ~cfg ~rng:(Rng.create 1)
            ~compiler:Simcomp.Compiler.Gcc
            ~seeds:(Lazy.force seed_corpus) ~iterations:30 ~name:"t" ()
        in
        check Alcotest.bool "covered" true
          (Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage > 100);
        check Alcotest.bool "mutants" true (r.Fuzzing.Fuzz_result.total_mutants > 0);
        check Alcotest.bool "trend" true
          (List.length r.Fuzzing.Fuzz_result.coverage_trend >= 5);
        (* trend is monotone *)
        let rec mono = function
          | (_, a) :: ((_, b) :: _ as rest) -> a <= b && mono rest
          | _ -> true
        in
        check Alcotest.bool "monotone" true
          (mono r.Fuzzing.Fuzz_result.coverage_trend));
    tc "deterministic under the same seed" (fun () ->
        let go () =
          let cfg =
            {
              (Fuzzing.Mucfuzz.default_config ()) with
              Fuzzing.Mucfuzz.max_attempts_per_iteration = 6;
            }
          in
          let r =
            Fuzzing.Mucfuzz.run ~cfg ~rng:(Rng.create 77)
              ~compiler:Simcomp.Compiler.Gcc
              ~seeds:(Lazy.force seed_corpus) ~iterations:15 ~name:"t" ()
          in
          ( Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage,
            r.Fuzzing.Fuzz_result.total_mutants,
            Fuzzing.Fuzz_result.unique_crashes r )
        in
        check
          Alcotest.(triple int int int)
          "same run" (go ()) (go ()));
    tc "crash records keep first discovery and input" (fun () ->
        let r = Fuzzing.Fuzz_result.make ~fuzzer_name:"x" ~compiler:Simcomp.Compiler.Gcc in
        let crash =
          {
            Simcomp.Crash.bug_id = "b";
            stage = Simcomp.Crash.Optimization;
            kind = Simcomp.Crash.Hang;
            frames = [ "f"; "g" ];
          }
        in
        Fuzzing.Fuzz_result.record_crash r ~iteration:5 ~input:"src1" crash;
        Fuzzing.Fuzz_result.record_crash r ~iteration:9 ~input:"src2" crash;
        check Alcotest.int "unique" 1 (Fuzzing.Fuzz_result.unique_crashes r);
        let rec_ = Hashtbl.find r.Fuzzing.Fuzz_result.crashes "f|g" in
        check Alcotest.int "first iteration" 5
          rec_.Fuzzing.Fuzz_result.cr_first_iteration;
        check Alcotest.string "first input" "src1"
          rec_.Fuzzing.Fuzz_result.cr_input);
    tc "crashes_by_stage partitions the crash set" (fun () ->
        let r = Fuzzing.Fuzz_result.make ~fuzzer_name:"x" ~compiler:Simcomp.Compiler.Gcc in
        List.iteri
          (fun i stage ->
            Fuzzing.Fuzz_result.record_crash r ~iteration:i ~input:""
              {
                Simcomp.Crash.bug_id = Fmt.str "b%d" i;
                stage;
                kind = Simcomp.Crash.Segfault;
                frames = [ Fmt.str "f%d" i ];
              })
          Simcomp.Crash.[ Front_end; Front_end; Optimization ];
        let by = Fuzzing.Fuzz_result.crashes_by_stage r in
        check Alcotest.int "front-end" 2
          (List.assoc Simcomp.Crash.Front_end by);
        check Alcotest.int "opt" 1
          (List.assoc Simcomp.Crash.Optimization by));
    tc "checkpoint/resume reproduces an uninterrupted run" (fun () ->
        let file =
          Filename.concat (Filename.temp_dir "metamut-mucfuzz" "") "m.ckpt"
        in
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 6;
            sample_every = 5;
          }
        in
        let go ?checkpoint ?resume () =
          Fuzzing.Mucfuzz.run ~cfg ?checkpoint ?resume ~rng:(Rng.create 9)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:40 ~name:"t" ()
        in
        let full = go () in
        (* every=15 leaves the last snapshot at iteration 30: resuming
           replays the final 10 iterations from restored state *)
        let checkpointed = go ~checkpoint:(file, 15) () in
        check Alcotest.bool "checkpointing is transparent" true
          (Fuzzing.Fuzz_result.equal full checkpointed);
        let resumed = go ~resume:file () in
        check Alcotest.bool "resumed run identical" true
          (Fuzzing.Fuzz_result.equal full resumed));
    tc "a snapshot with the previous format's magic is refused" (fun () ->
        (* snapshots marshal Coverage.t, whose layout changed with the
           CKPT3 magic: an older file must be refused before its payload
           is unmarshalled, and the run must start over *)
        let file =
          Filename.concat (Filename.temp_dir "metamut-stale" "") "m.ckpt"
        in
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 6;
          }
        in
        let go ?engine ?checkpoint ?resume () =
          Fuzzing.Mucfuzz.run ~cfg ?engine ?checkpoint ?resume
            ~rng:(Rng.create 9) ~compiler:Simcomp.Compiler.Gcc
            ~seeds:(Lazy.force seed_corpus) ~iterations:20 ~name:"t" ()
        in
        let full = go ~checkpoint:(file, 10) () in
        let ic = open_in_bin file in
        let magic = input_line ic in
        let fingerprint = input_line ic in
        let payload = really_input_string ic (in_channel_length ic - pos_in ic) in
        close_in ic;
        check Alcotest.string "current magic" "METAMUT-CKPT3" magic;
        let oc = open_out_bin file in
        output_string oc ("METAMUT-CKPT2\n" ^ fingerprint ^ "\n" ^ payload);
        close_out oc;
        (match
           (Engine.Checkpoint.load ~path:file ~fingerprint
             : (unit, string) result)
         with
        | Error e ->
          check Alcotest.bool "refused as foreign" true
            (Astring.String.is_infix ~affix:"not a checkpoint" e)
        | Ok _ -> Alcotest.fail "old-magic snapshot was loaded");
        let engine = Engine.Ctx.create () in
        let restarted = go ~engine ~resume:file () in
        let counter name =
          Engine.Metrics.counter_value
            (Engine.Metrics.counter engine.Engine.Ctx.metrics name)
        in
        check Alcotest.int "resume_failed" 1 (counter "mucfuzz.resume_failed");
        check Alcotest.int "resumed" 0 (counter "mucfuzz.resumed");
        check Alcotest.bool "ran from iteration 1" true
          (Fuzzing.Fuzz_result.equal full restarted));
    tc "corpus scheduling is deterministic and keeps finding coverage"
      (fun () ->
        (* pool_max 8 on a 60-iteration run forces several trim cycles,
           so favored-set selection, claim transfer, and the index remap
           are all exercised by the equality check *)
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 6;
            sample_every = 10;
            schedule = true;
            pool_max = 8;
          }
        in
        let go () =
          Fuzzing.Mucfuzz.run ~cfg ~rng:(Rng.create 21)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:60 ~name:"t" ()
        in
        let a = go () and b = go () in
        check Alcotest.bool "same run" true (Fuzzing.Fuzz_result.equal a b);
        check Alcotest.bool "coverage found" true
          (Simcomp.Coverage.covered a.Fuzzing.Fuzz_result.coverage > 100));
    tc "scheduling off leaves the default run untouched" (fun () ->
        (* the scheduler draws extra RNG only when enabled: a default
           config run must be byte-for-byte the run from before the
           scheduler existed (same stream, same decisions) *)
        let go schedule =
          let cfg =
            {
              (Fuzzing.Mucfuzz.default_config ()) with
              Fuzzing.Mucfuzz.max_attempts_per_iteration = 6;
              sample_every = 10;
              schedule;
            }
          in
          Fuzzing.Mucfuzz.run ~cfg ~rng:(Rng.create 33)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:30 ~name:"t" ()
        in
        let off = go false and off' = go false in
        check Alcotest.bool "default deterministic" true
          (Fuzzing.Fuzz_result.equal off off'));
    tc "scheduled checkpoint/resume reproduces an uninterrupted run"
      (fun () ->
        let file =
          Filename.concat (Filename.temp_dir "metamut-sched" "") "m.ckpt"
        in
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 6;
            sample_every = 5;
            schedule = true;
            pool_max = 8;
          }
        in
        let go ?checkpoint ?resume () =
          Fuzzing.Mucfuzz.run ~cfg ?checkpoint ?resume ~rng:(Rng.create 9)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:40 ~name:"t" ()
        in
        let full = go () in
        let checkpointed = go ~checkpoint:(file, 15) () in
        check Alcotest.bool "checkpointing is transparent" true
          (Fuzzing.Fuzz_result.equal full checkpointed);
        let resumed = go ~resume:file () in
        check Alcotest.bool "resumed run identical" true
          (Fuzzing.Fuzz_result.equal full resumed));
    tc "injected compile hangs surface as watchdog Hang crashes" (fun () ->
        let faults =
          Engine.Faults.create
            { Engine.Faults.no_faults with Engine.Faults.compile_hang = 1.0 }
        in
        let r =
          Fuzzing.Mucfuzz.run ~faults ~rng:(Rng.create 4)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:10 ~name:"t" ()
        in
        check Alcotest.bool "crash recorded" true
          (Fuzzing.Fuzz_result.unique_crashes r > 0);
        Hashtbl.iter
          (fun _ cr ->
            check Alcotest.bool "hang kind" true
              (cr.Fuzzing.Fuzz_result.cr_crash.Simcomp.Crash.kind
              = Simcomp.Crash.Hang))
          r.Fuzzing.Fuzz_result.crashes);
  ]

let baseline_tests =
  [
    tc "grayc has exactly five mutators" (fun () ->
        check Alcotest.int "five" 5
          (List.length Fuzzing.Baselines.grayc_mutators));
    tc "generators produce near-100% compilable programs" (fun () ->
        let r =
          Fuzzing.Baselines.run_csmith ~rng:(Rng.create 5)
            ~compiler:Simcomp.Compiler.Gcc ~iterations:20 ~sample_every:5 ()
        in
        check Alcotest.bool "ratio" true
          (Fuzzing.Fuzz_result.compilable_ratio r > 95.));
    tc "afl++ produces mostly non-compilable mutants" (fun () ->
        let r =
          Fuzzing.Baselines.run_aflpp ~rng:(Rng.create 6)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:40 ~sample_every:10 ()
        in
        check Alcotest.bool "low ratio" true
          (Fuzzing.Fuzz_result.compilable_ratio r < 20.));
  ]

let macro_tests =
  [
    tc "macro fuzzer runs with random options and havoc" (fun () ->
        let r =
          Fuzzing.Macro_fuzzer.run ~rng:(Rng.create 8)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:40 ()
        in
        check Alcotest.bool "mutants" true (r.Fuzzing.Fuzz_result.total_mutants > 0);
        check Alcotest.bool "coverage" true
          (Simcomp.Coverage.covered r.Fuzzing.Fuzz_result.coverage > 100));
    tc "resource limit drops oversized mutants" (fun () ->
        let cfg =
          { Fuzzing.Macro_fuzzer.default_config with max_program_bytes = 10 }
        in
        let r =
          Fuzzing.Macro_fuzzer.run ~cfg ~rng:(Rng.create 9)
            ~compiler:Simcomp.Compiler.Gcc ~seeds:(Lazy.force seed_corpus)
            ~iterations:20 ()
        in
        check Alcotest.int "all dropped" 0 r.Fuzzing.Fuzz_result.total_mutants);
  ]

(* Campaigns run through the one executor, Coordinator.run; each test
   compares the inline reference (shards:1) against forked workers. *)
let campaign ?fuzzers ?faults ?checkpoint ?resume ~shards cfg =
  Fuzzing.Coordinator.run ~cfg ?fuzzers ?faults ?checkpoint ?resume ~shards ()

let same_results (a : Fuzzing.Coordinator.t) (b : Fuzzing.Coordinator.t) =
  check Alcotest.int "same cell count"
    (List.length a.Fuzzing.Coordinator.results)
    (List.length b.Fuzzing.Coordinator.results);
  List.iter2
    (fun (u1, r1) (u2, r2) ->
      check Alcotest.bool "same cell" true (u1 = u2);
      check Alcotest.bool
        ("equal result for " ^ Fuzzing.Coordinator.unit_name u1)
        true
        (Fuzzing.Fuzz_result.equal r1 r2))
    a.Fuzzing.Coordinator.results b.Fuzzing.Coordinator.results

let campaign_tests =
  let small =
    {
      Fuzzing.Campaign.default_config with
      iterations = 8;
      seeds = 6;
      sample_every = 4;
      max_attempts = 4;
    }
  in
  [
    tc "campaign produces one result per fuzzer and compiler" (fun () ->
        let cfg = { small with iterations = 12; seeds = 10 } in
        let t = Fuzzing.Coordinator.to_campaign (campaign ~shards:2 cfg) in
        check Alcotest.int "results" 12
          (List.length t.Fuzzing.Campaign.results));
    tc "crash sets are prefixed by compiler" (fun () ->
        let cfg = { small with iterations = 10; seeds = 8; sample_every = 5 } in
        let t =
          Fuzzing.Coordinator.to_campaign
            (campaign ~fuzzers:[ Fuzzing.Campaign.MuCFuzz_s ] ~shards:1 cfg)
        in
        Hashtbl.iter
          (fun k () ->
            check Alcotest.bool "prefixed" true
              (String.length k > 4
              && (String.sub k 0 4 = "GCC:" || String.sub k 0 6 = "Clang:")))
          (Fuzzing.Campaign.crash_set t Fuzzing.Campaign.MuCFuzz_s));
    tc "fuzzer names are stable" (fun () ->
        check Alcotest.(list string) "names"
          [ "uCFuzz.s"; "uCFuzz.u"; "AFL++"; "GrayC"; "Csmith"; "YARPGen" ]
          (List.map Fuzzing.Campaign.fuzzer_name Fuzzing.Campaign.all_fuzzers));
    tc "worker-crash faults do not change results" (fun () ->
        (* injected worker OOM kills strike before a lease runs, so the
           pool requeues it whole: every unit that completes equals the
           fault-free campaign, at any shard count *)
        let fuzzers = Fuzzing.Campaign.[ MuCFuzz_u; AFLpp ] in
        let clean = campaign ~fuzzers ~shards:1 small in
        let faulted shards =
          let faults =
            Engine.Faults.create ~seed:5
              { Engine.Faults.no_faults with Engine.Faults.worker_oom = 0.3 }
          in
          campaign ~fuzzers ~faults ~shards small
        in
        let f1 = faulted 1 and f3 = faulted 3 in
        check Alcotest.bool "deaths injected" true
          (f3.Fuzzing.Coordinator.shard_stats.Engine.Shard.st_died > 0);
        check Alcotest.int "no failures" 0
          (List.length f3.Fuzzing.Coordinator.failures);
        same_results f1 f3;
        List.iter
          (fun (u, r) ->
            check Alcotest.bool
              ("completed unit equals the clean run: "
              ^ Fuzzing.Coordinator.unit_name u)
              true
              (Fuzzing.Fuzz_result.equal r
                 (List.assoc u clean.Fuzzing.Coordinator.results)))
          f3.Fuzzing.Coordinator.results);
    tc "scheduled campaigns are identical across job counts" (fun () ->
        (* corpus scheduling lives inside each cell's private RNG and
           pool, so parallelism must not perturb it; [jobs] varies with
           the shard count and must stay inert *)
        let cfg jobs =
          { small with iterations = 10; seeds = 8; schedule = true; jobs }
        in
        let fuzzers = Fuzzing.Campaign.[ MuCFuzz_s; MuCFuzz_u ] in
        same_results
          (campaign ~fuzzers ~shards:1 (cfg 1))
          (campaign ~fuzzers ~shards:4 (cfg 4)));
    tc "campaign resume reproduces the uninterrupted result" (fun () ->
        let cfg = { small with iterations = 10; seeds = 8 } in
        let fuzzers = Fuzzing.Campaign.[ MuCFuzz_u; Csmith ] in
        let full = campaign ~fuzzers ~shards:1 cfg in
        let dir = Filename.temp_dir "metamut-campaign" "" in
        let first = campaign ~fuzzers ~checkpoint:dir ~shards:2 cfg in
        check Alcotest.int "first run computes everything" 0
          first.Fuzzing.Coordinator.resumed_units;
        (* simulate a crash that lost one completed cell's result: its
           journal *)
        List.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          [ "journal-uCFuzz.u-GCC.ckpt" ];
        let resumed =
          campaign ~fuzzers ~checkpoint:dir ~resume:true ~shards:4 cfg
        in
        check Alcotest.int "three cells restored" 3
          resumed.Fuzzing.Coordinator.resumed_units;
        check Alcotest.int "no failures" 0
          (List.length resumed.Fuzzing.Coordinator.failures);
        same_results full resumed);
  ]

let report_tests =
  [
    tc "table renders aligned columns" (fun () ->
        let t = Report.Table.create ~title:"T" ~header:[ "a"; "b" ] in
        Report.Table.add_row t [ "x"; "1" ];
        Report.Table.add_int_row t "y" [ 22 ];
        let s = Report.Table.render t in
        check Alcotest.bool "has title" true (String.length s > 0);
        check Alcotest.bool "rows present" true
          (String.split_on_char '\n' s |> List.length >= 5));
    tc "series data rendering" (fun () ->
        let s =
          Report.Series.render_data ~title:"x"
            [ Report.Series.make ~label:"l" ~points:[ (1, 2); (3, 4) ] ]
        in
        check Alcotest.bool "points" true (String.length s > 10));
    tc "venn counts exclusive members" (fun () ->
        let mk xs =
          let h = Hashtbl.create 4 in
          List.iter (fun x -> Hashtbl.replace h x ()) xs;
          h
        in
        let s =
          Report.Series.render_venn ~title:"v"
            [ ("A", mk [ "1"; "2" ]); ("B", mk [ "2"; "3" ]) ]
        in
        check Alcotest.bool "union of 3" true
          (let rec contains h n i =
             i + String.length n <= String.length h
             && (String.sub h i (String.length n) = n || contains h n (i + 1))
           in
           contains s "union of unique crashes: 3" 0));
  ]

let wrongcode_trigger = {|
int r[6];
int total;
int main(void) {
  int a = (int)(char)100;
  for (int i = 0; i < 3; i++) total += i;
  for (int j = 0; j < 3; j++) total += j;
  r[1] += r[0];
  r[2] += r[1];
  r[3] += r[2];
  total = a - 7;
  return total & 255;
}
|}

let wrongcode_tests =
  [
    tc "crafted trigger is detected as a miscompilation" (fun () ->
        match
          Fuzzing.Wrongcode.check_program Simcomp.Compiler.Gcc
            Simcomp.Compiler.default_options wrongcode_trigger
        with
        | Some mm ->
          check Alcotest.bool "differs" true
            (mm.Fuzzing.Wrongcode.mm_reference
            <> mm.Fuzzing.Wrongcode.mm_observed)
        | None -> Alcotest.fail "miscompilation not detected");
    tc "the same shape is sound on Clang-sim" (fun () ->
        (* the injected wrong-code bug is GCC-specific *)
        check Alcotest.bool "no mismatch" true
          (Fuzzing.Wrongcode.check_program Simcomp.Compiler.Clang
             Simcomp.Compiler.default_options wrongcode_trigger
          = None));
    tc "clean programs never mismatch" (fun () ->
        let rng = Rng.create 31 in
        let cfg =
          { Ast_gen.default_config with
            allow_pointers = false; allow_structs = false;
            allow_strings = false; max_functions = 2; max_depth = 2 }
        in
        for _ = 1 to 20 do
          let src = Ast_gen.gen_source ~cfg rng in
          (* avoid programs that accidentally satisfy a wrong-code gate *)
          let a =
            Simcomp.Features.ast_features
              (Result.get_ok (Parser.parse src))
          in
          if
            Simcomp.Bugdb.check_miscompile ~compiler:Simcomp.Compiler.Gcc
              ~opt_level:3
              ~pipeline:
                (Simcomp.Compiler.pipeline_of
                   { Simcomp.Compiler.default_options with opt_level = 3 })
              ~ast:a
            = None
          then
            check Alcotest.bool "sound" true
              (Fuzzing.Wrongcode.check_program Simcomp.Compiler.Gcc
                 { Simcomp.Compiler.default_options with opt_level = 3 }
                 src
              = None)
        done);
    tc "hunt returns a well-formed report" (fun () ->
        let seeds = Fuzzing.Seeds.corpus ~n:15 (Rng.create 4) in
        let r =
          Fuzzing.Wrongcode.hunt ~rng:(Rng.create 6)
            ~compiler:Simcomp.Compiler.Gcc ~seeds ~iterations:60 ()
        in
        check Alcotest.bool "checked some" true
          (r.Fuzzing.Wrongcode.r_checked > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Culprit-pass bisection                                              *)
(* ------------------------------------------------------------------ *)

(* One trigger per seeded miscompile, validated against the Bugdb ground
   truth (mc_culprit).  Where the bug needs a masking pass absent, the
   options disable it. *)
let bisect_cases =
  [
    ( "gcc-wrongcode-reassoc", Simcomp.Compiler.Gcc,
      { Simcomp.Compiler.default_options with opt_level = 2 },
      "constfold", wrongcode_trigger );
    ( "gcc-wrongcode-narrowing", Simcomp.Compiler.Gcc,
      { Simcomp.Compiler.default_options with opt_level = 3 },
      "loop-opt",
      "int main(void) { int x = (int)(char)200; int s = 3; int n = 1; while \
       (--n) s += 5; return (s - x) & 255; }" );
    ( "clang-wrongcode-instsimplify", Simcomp.Compiler.Clang,
      { Simcomp.Compiler.default_options with opt_level = 2 },
      "dce",
      "int main(void) { int a = 120; int b = 3; int c = a > b ? 1 : 2; int d \
       = b > a ? 3 : 4; int e; e = (c, d); switch (c) { case 1: e += 1; \
       break; default: e += 2; break; } return (a - b - e) & 255; }" );
    ( "gcc-wrongcode-strlen-nofold", Simcomp.Compiler.Gcc,
      { Simcomp.Compiler.default_options with
        opt_level = 2; disabled_passes = [ "constfold" ] },
      "strlen-opt",
      "char buf[16];\n\
       int helper(void) { return sprintf(buf, \"%s-pad\", buf); }\n\
       int main(void) { int a = 90; int b = 7; return (a - b) & 255; }" );
    ( "clang-wrongcode-jumpthread", Simcomp.Compiler.Clang,
      { Simcomp.Compiler.default_options with
        opt_level = 2; disabled_passes = [ "dce" ] },
      "simplify-cfg",
      "int main(void) { int a = 100; int b = 9; goto skip; a = 1; skip: \
       return (a - b) & 255; }" );
  ]

let bisect_tests =
  let open Fuzzing.Bisect in
  [
    tc "bisection recovers every seeded miscompile's culprit pass" (fun () ->
        List.iter
          (fun (id, compiler, opts, culprit, src) ->
            match run compiler opts src with
            | None -> Alcotest.failf "%s: no finding" id
            | Some v ->
              check Alcotest.bool (id ^ " is wrong-code") true
                (match v.v_finding with Wrong_code _ -> true | Ice _ -> false);
              check Alcotest.bool (id ^ " attributable") true v.v_attributable;
              check
                Alcotest.(list string)
                (id ^ " culprit") [ culprit ] v.v_culprits;
              check
                Alcotest.(option string)
                (id ^ " first divergent") (Some culprit) v.v_first_divergent)
          bisect_cases);
    tc "clean source yields no finding" (fun () ->
        check Alcotest.bool "none" true
          (run Simcomp.Compiler.Gcc Simcomp.Compiler.default_options
             "int main(void) { return 40 + 2; }"
          = None));
    tc "per-pass differential stays silent on clean programs" (fun () ->
        let rng = Rng.create 77 in
        let cfg =
          { Ast_gen.default_config with
            allow_pointers = false; allow_structs = false;
            allow_strings = false; max_functions = 2; max_depth = 2 }
        in
        for _ = 1 to 10 do
          let src = Ast_gen.gen_source ~cfg rng in
          match
            Simcomp.Compiler.compile_passes ~verify:true Simcomp.Compiler.Gcc
              Simcomp.Compiler.default_options src
          with
          | Ok tr ->
            check
              Alcotest.(option string)
              "no divergence" None tr.Simcomp.Compiler.pt_first_divergent
          | Error _ -> ()
        done);
    tc "an ICE bisects to the pass whose disabling clears it" (fun () ->
        (* gcc-dce-unfolded: fires when dce runs without a prior
           constfold, so with constfold already off the culprit is dce *)
        let opts =
          { Simcomp.Compiler.default_options with
            opt_level = 2; disabled_passes = [ "constfold" ] }
        in
        let src =
          "int main(void) { int a = 1; int b = 2; int c = a < b ? 1 : 2; int \
           d = b < a ? 3 : 4; return a + b + c + d; }"
        in
        match run Simcomp.Compiler.Gcc opts src with
        | Some v ->
          check Alcotest.bool "is ICE" true
            (match v.v_finding with
            | Ice { bug_id; _ } -> String.equal bug_id "gcc-dce-unfolded"
            | Wrong_code _ -> false);
          check Alcotest.bool "attributable" true v.v_attributable;
          check Alcotest.bool "dce among culprits" true
            (List.mem "dce" v.v_culprits)
        | None -> Alcotest.fail "expected an ICE finding");
    tc "bisection verdicts are deterministic" (fun () ->
        let _, compiler, opts, _, src = List.hd bisect_cases in
        let v1 = run compiler opts src and v2 = run compiler opts src in
        check Alcotest.bool "same verdict" true (v1 = v2));
  ]

let mutation_score_tests =
  [
    tc "potent mutators are killed, no-op wrappers are equivalent" (fun () ->
        let src =
          "int g = 5;\nint main(void) { g = g * 3; return g & 255; }"
        in
        let tu = Result.get_ok (Parser.parse src) in
        let reference =
          Option.get
            (Fuzzing.Mutation_score.observe
               (Fuzzing.Mutation_score.instrument_observability tu))
        in
        (* changing the literal changes behaviour *)
        let m = Option.get (Mutators.Registry.find_opt "ModifyIntegerLiteral") in
        let killed = ref false in
        for i = 1 to 10 do
          match Mutators.Mutator.apply m ~rng:(Rng.create i) tu with
          | Some tu' ->
            if
              Fuzzing.Mutation_score.classify ~reference
                (Fuzzing.Mutation_score.instrument_observability tu')
              = Fuzzing.Mutation_score.Killed
            then killed := true
          | None -> ()
        done;
        check Alcotest.bool "literal mutation killed" true !killed;
        (* a neutral wrapper is equivalent *)
        let m2 = Option.get (Mutators.Registry.find_opt "AddNeutralElement") in
        match Mutators.Mutator.apply m2 ~rng:(Rng.create 1) tu with
        | Some tu' ->
          check Alcotest.bool "neutral element equivalent" true
            (Fuzzing.Mutation_score.classify ~reference
               (Fuzzing.Mutation_score.instrument_observability tu')
            = Fuzzing.Mutation_score.Equivalent)
        | None -> Alcotest.fail "not applicable");
    tc "scores partition applications" (fun () ->
        let rng = Rng.create 9 in
        let cfg =
          { Ast_gen.default_config with
            allow_pointers = false; allow_strings = false;
            max_functions = 1; max_depth = 1 }
        in
        let programs = List.init 3 (fun _ -> Ast_gen.gen_tu ~cfg rng) in
        let scores =
          Fuzzing.Mutation_score.score ~tries:1 ~rng
            ~mutators:(List.filteri (fun i _ -> i < 20) Mutators.Registry.core)
            ~programs ()
        in
        List.iter
          (fun s ->
            let open Fuzzing.Mutation_score in
            check Alcotest.int s.s_mutator s.s_applied
              (s.s_killed + s.s_equivalent + s.s_invalid + s.s_inconclusive))
          scores);
    tc "aggregate sums components" (fun () ->
        let open Fuzzing.Mutation_score in
        let mk k e =
          { s_mutator = "m"; s_applied = k + e; s_killed = k;
            s_equivalent = e; s_invalid = 0; s_inconclusive = 0 }
        in
        let agg = aggregate [ mk 1 2; mk 3 4 ] in
        check Alcotest.int "killed" 4 agg.s_killed;
        check Alcotest.int "equivalent" 6 agg.s_equivalent;
        check (Alcotest.float 0.01) "rate" 40. (kill_rate agg));
  ]

let () =
  Alcotest.run "fuzzing"
    [
      ("seeds", seeds_tests);
      ("fragility", fragility_tests);
      ("aflpp", aflpp_tests);
      ("mucfuzz", mucfuzz_tests);
      ("baselines", baseline_tests);
      ("macro", macro_tests);
      ("campaign", campaign_tests);
      ("report", report_tests);
      ("wrongcode", wrongcode_tests);
      ("bisect", bisect_tests);
      ("mutation-score", mutation_score_tests);
    ]
