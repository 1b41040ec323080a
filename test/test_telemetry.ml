(* Tests for the telemetry export layer: gauge merge policies, the
   Chrome trace buffer and its JSON rendering (golden, under a fake
   clock), Prometheus/JSON snapshot exporters (golden + round-trip
   parse), GC probes, the live status line, the final-trend-sample rule,
   and shards:K invariance of the deterministic telemetry snapshot. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* A deterministic nanosecond clock: +1ms per reading. *)
let fake_clock () =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t 1_000_000L;
    !t

(* ------------------------------------------------------------------ *)
(* Gauge merge policies (Metrics.merge used to be last-writer-wins)     *)
(* ------------------------------------------------------------------ *)

let gauge_policy_tests =
  [
    tc "Max keeps the high-water mark across merge order" (fun () ->
        let merged order =
          let dst = Engine.Metrics.create () in
          List.iter
            (fun v ->
              let src = Engine.Metrics.create () in
              Engine.Metrics.set (Engine.Metrics.gauge src "hw") v;
              Engine.Metrics.merge ~into:dst src)
            order;
          Engine.Metrics.gauge_value (Engine.Metrics.gauge dst "hw")
        in
        check (Alcotest.float 1e-9) "ascending" 9. (merged [ 1.; 5.; 9. ]);
        check (Alcotest.float 1e-9) "descending" 9. (merged [ 9.; 5.; 1. ]));
    tc "Sum accumulates worker deltas" (fun () ->
        let dst = Engine.Metrics.create () in
        List.iter
          (fun v ->
            let src = Engine.Metrics.create () in
            Engine.Metrics.set
              (Engine.Metrics.gauge ~policy:Engine.Metrics.Sum src "d")
              v;
            Engine.Metrics.merge ~into:dst src)
          [ 2.; 3.; 4. ];
        check (Alcotest.float 1e-9) "sum" 9.
          (Engine.Metrics.gauge_value (Engine.Metrics.gauge dst "d"));
        (* the destination's policy governs: it was created on first
           merge with the source's policy *)
        check Alcotest.bool "policy propagated" true
          (Engine.Metrics.gauge_policy (Engine.Metrics.gauge dst "d")
          = Engine.Metrics.Sum));
    tc "Last takes the most recent merge" (fun () ->
        let dst = Engine.Metrics.create () in
        List.iter
          (fun v ->
            let src = Engine.Metrics.create () in
            Engine.Metrics.set
              (Engine.Metrics.gauge ~policy:Engine.Metrics.Last src "l")
              v;
            Engine.Metrics.merge ~into:dst src)
          [ 7.; 3. ];
        check (Alcotest.float 1e-9) "last" 3.
          (Engine.Metrics.gauge_value (Engine.Metrics.gauge dst "l")));
  ]

(* ------------------------------------------------------------------ *)
(* Chrome trace                                                        *)
(* ------------------------------------------------------------------ *)

let trace_tests =
  [
    tc "span instances render as golden Chrome trace JSON" (fun () ->
        let ctx = Engine.Ctx.create ~clock:(fake_clock ()) () in
        let tr = Engine.Ctx.enable_trace ~tid:7 ctx in
        Engine.Trace.label_tid tr ~tid:7 ~label:"worker-7";
        ignore (Engine.Span.with_ ctx ~name:"compile.opt" (fun () -> 42));
        let lines = Engine.Trace.to_chrome_lines ~pid:1 tr in
        let expected =
          [
            "[";
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"metamut\"}},";
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":7,\"args\":{\"name\":\"worker-7\"}},";
            "{\"name\":\"compile.opt\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":1,\"tid\":7,\"ts\":1000.000,\"dur\":1000.000}";
            "]";
          ]
        in
        check (Alcotest.list Alcotest.string) "golden" expected lines);
    tc "trace JSON escapes span names" (fun () ->
        let tr = Engine.Trace.create () in
        Engine.Trace.record tr ~name:"a\"b\\c" ~ts_ns:0L ~dur_ns:1L;
        let s = Engine.Trace.to_chrome_string tr in
        check Alcotest.bool "escaped quote" true
          (is_infix ~affix:{|a\"b\\c|} s));
    tc "merge retags worker spans under the cell tid" (fun () ->
        let main = Engine.Trace.create ~tid:0 () in
        let worker = Engine.Trace.create ~tid:3 () in
        Engine.Trace.record worker ~name:"w" ~ts_ns:5L ~dur_ns:6L;
        Engine.Trace.record main ~name:"m" ~ts_ns:1L ~dur_ns:2L;
        Engine.Trace.merge ~into:main ~tid:42 worker;
        let tids =
          List.map (fun s -> s.Engine.Trace.sr_tid) (Engine.Trace.spans main)
        in
        check (Alcotest.list Alcotest.int) "tids" [ 0; 42 ] tids);
  ]

(* ------------------------------------------------------------------ *)
(* Prometheus / JSON exporters                                         *)
(* ------------------------------------------------------------------ *)

(* A minimal parser for the Prometheus text exposition format: returns
   (name, labels-part, value) triples for sample lines. *)
let parse_prom text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"#" l))
  |> List.map (fun l ->
         match String.rindex_opt l ' ' with
         | None -> Alcotest.fail ("malformed sample line: " ^ l)
         | Some i ->
           let key = String.sub l 0 i in
           let value =
             float_of_string (String.sub l (i + 1) (String.length l - i - 1))
           in
           (key, value))

let golden_registry () =
  let m = Engine.Metrics.create () in
  Engine.Metrics.incr ~by:12 (Engine.Metrics.counter m "mucfuzz.accept.X");
  Engine.Metrics.set (Engine.Metrics.gauge m "gc.heap_words") 4096.;
  let h = Engine.Metrics.histogram ~edges:[| 1.; 10. |] m "lat" in
  List.iter (Engine.Metrics.observe h) [ 0.5; 5.; 50. ];
  m

let exporter_tests =
  [
    tc "prometheus text is golden for a known registry" (fun () ->
        let text =
          Engine.Telemetry.prometheus_of_snapshot
            (Engine.Metrics.snapshot (golden_registry ()))
        in
        let expected =
          String.concat "\n"
            [
              "# HELP metamut_gc_heap_words GC probe reading \
               (machine-dependent)";
              "# TYPE metamut_gc_heap_words gauge";
              "metamut_gc_heap_words 4096";
              "# HELP metamut_lat metamut engine metric";
              "# TYPE metamut_lat histogram";
              "metamut_lat_bucket{le=\"1\"} 1";
              "metamut_lat_bucket{le=\"10\"} 2";
              "metamut_lat_bucket{le=\"+Inf\"} 3";
              "metamut_lat_sum 55.5";
              "metamut_lat_count 3";
              "# HELP metamut_mucfuzz_accept_X muCFuzz loop tallies \
               (aggregate and per-mutator)";
              "# TYPE metamut_mucfuzz_accept_X counter";
              "metamut_mucfuzz_accept_X 12";
              "";
            ]
        in
        check Alcotest.string "golden" expected text);
    tc "prometheus samples round-trip through a parser" (fun () ->
        let samples =
          parse_prom
            (Engine.Telemetry.prometheus_of_snapshot
               (Engine.Metrics.snapshot (golden_registry ())))
        in
        let get k = List.assoc k samples in
        check (Alcotest.float 1e-9) "counter" 12.
          (get "metamut_mucfuzz_accept_X");
        check (Alcotest.float 1e-9) "gauge" 4096. (get "metamut_gc_heap_words");
        (* histogram buckets are cumulative and end at +Inf = count *)
        check Alcotest.bool "buckets monotone" true
          (get "metamut_lat_bucket{le=\"1\"}"
           <= get "metamut_lat_bucket{le=\"10\"}"
          && get "metamut_lat_bucket{le=\"10\"}"
             <= get "metamut_lat_bucket{le=\"+Inf\"}");
        check (Alcotest.float 1e-9) "inf bucket = count" (get "metamut_lat_count")
          (get "metamut_lat_bucket{le=\"+Inf\"}"));
    tc "prom_name sanitizes to the exposition charset" (fun () ->
        check Alcotest.string "dots and dashes" "metamut_a_b_c_1"
          (Engine.Telemetry.prom_name "a.b-c 1"));
    tc "json snapshot is golden for a known registry" (fun () ->
        let json =
          Engine.Telemetry.json_of_snapshot
            (Engine.Metrics.snapshot (golden_registry ()))
        in
        let expected =
          String.concat "\n"
            [
              "{";
              "  \"counters\": {";
              "    \"mucfuzz.accept.X\": 12";
              "  },";
              "  \"gauges\": {";
              "    \"gc.heap_words\": 4096";
              "  },";
              "  \"histograms\": {";
              "    \"lat\": {\"edges\": [1,10], \"counts\": [1,1,1], \"sum\": 55.5, \"total\": 3, \"p50\": 5.5, \"p95\": 10}";
              "  }";
              "}";
              "";
            ]
        in
        check Alcotest.string "golden" expected json);
    tc "deterministic_snapshot strips span/gc/telemetry families" (fun () ->
        let m = Engine.Metrics.create () in
        Engine.Metrics.incr (Engine.Metrics.counter m "compile.total");
        Engine.Metrics.incr (Engine.Metrics.counter m "telemetry.flushes");
        Engine.Metrics.set (Engine.Metrics.gauge m "gc.heap_words") 1.;
        ignore (Engine.Metrics.histogram m "span.compile.opt");
        let names = List.map fst (Engine.Telemetry.deterministic_snapshot m) in
        check (Alcotest.list Alcotest.string) "only deterministic families"
          [ "compile.total" ] names);
  ]

(* ------------------------------------------------------------------ *)
(* GC probe                                                            *)
(* ------------------------------------------------------------------ *)

let probe_tests =
  [
    tc "probe samples per batch and on demand" (fun () ->
        let m = Engine.Metrics.create () in
        let p = Engine.Probe.create ~batch:2 m in
        (* allocate visibly between compiles *)
        let sink = ref [] in
        for i = 1 to 3 do
          sink := List.init 1000 (fun j -> (i * j, string_of_int j)) :: !sink;
          Engine.Probe.on_compile p
        done;
        (* 3 compiles at batch 2: one automatic sample, one partial *)
        Engine.Probe.sample p;
        (match
           List.assoc_opt "gc.minor_words_per_compile" (Engine.Metrics.snapshot m)
         with
        | Some (Engine.Metrics.Histogram { total; _ }) ->
          check Alcotest.int "two samples" 2 total
        | _ -> Alcotest.fail "missing histogram");
        check Alcotest.bool "allocation observed" true
          (Engine.Probe.minor_words_mean p > 0.);
        ignore !sink);
    tc "probe instruments never include counters" (fun () ->
        (* the parallel-merge invariance test compares Counter-filtered
           snapshots; GC readings must stay out of that universe *)
        let m = Engine.Metrics.create () in
        let p = Engine.Probe.create ~batch:1 m in
        Engine.Probe.on_compile p;
        List.iter
          (fun (name, v) ->
            if String.starts_with ~prefix:"gc." name then
              match v with
              | Engine.Metrics.Counter _ ->
                Alcotest.fail ("gc counter leaked: " ^ name)
              | _ -> ())
          (Engine.Metrics.snapshot m));
  ]

(* ------------------------------------------------------------------ *)
(* Status line                                                         *)
(* ------------------------------------------------------------------ *)

let status_tests =
  [
    tc "status line folds events and detects plateaus" (fun () ->
        let ctx = Engine.Ctx.create ~clock:(fake_clock ()) () in
        let out = Buffer.create 128 in
        let st =
          Engine.Status.attach
            ~out:(Buffer.add_string out)
            ~interval_ns:0L ~label:"t" ctx
        in
        (* what the compiler does per compile: bump the outcome
           counters, then tick *)
        let compile ?(crash = false) () =
          Engine.Ctx.incr ctx "compile.total";
          if crash then Engine.Ctx.incr ctx "compile.outcome.crash";
          Engine.Ctx.compiled ctx
        in
        for _ = 1 to 4 do
          compile ()
        done;
        compile ~crash:true ();
        Engine.Ctx.sample ctx ~iteration:10 ~covered:100;
        let line = Engine.Status.line st in
        check Alcotest.bool "execs" true
          (is_infix ~affix:"5 execs" line);
        check Alcotest.bool "crashes" true
          (is_infix ~affix:"1 crashes" line);
        check Alcotest.bool "edges" true
          (is_infix ~affix:"100 edges" line);
        check Alcotest.bool "no plateau yet" false
          (is_infix ~affix:"plateau" line);
        (* four flat samples in a row *)
        for i = 11 to 14 do
          Engine.Ctx.sample ctx ~iteration:i ~covered:100
        done;
        check Alcotest.bool "plateau flagged" true
          (is_infix ~affix:"plateau x4" (Engine.Status.line st));
        (* fresh coverage resets the streak *)
        Engine.Ctx.sample ctx ~iteration:15 ~covered:101;
        check Alcotest.bool "plateau cleared" false
          (is_infix ~affix:"plateau" (Engine.Status.line st));
        Engine.Status.finish st;
        (* detached: further ticks no longer render *)
        let n = Buffer.length out in
        compile ();
        Engine.Ctx.sample ctx ~iteration:16 ~covered:102;
        check Alcotest.int "no output after finish" n (Buffer.length out));
  ]

(* ------------------------------------------------------------------ *)
(* Final trend sample (the tail is never truncated)                    *)
(* ------------------------------------------------------------------ *)

let run_mucfuzz ~sample_every ~iterations =
  let seeds = Fuzzing.Seeds.corpus ~n:8 (Cparse.Rng.create 3) in
  Fuzzing.Mucfuzz.run
    ~cfg:
      {
        (Fuzzing.Mucfuzz.default_config ()) with
        Fuzzing.Mucfuzz.max_attempts_per_iteration = 4;
        sample_every;
      }
    ~rng:(Cparse.Rng.create 11) ~compiler:Simcomp.Compiler.Gcc ~seeds
    ~iterations ~name:"t" ()

let trend_tail_tests =
  [
    tc "trend ends at the final iteration when the cadence misses it"
      (fun () ->
        let r = run_mucfuzz ~sample_every:7 ~iterations:10 in
        match List.rev r.Fuzzing.Fuzz_result.coverage_trend with
        | (last, _) :: _ -> check Alcotest.int "tail iteration" 10 last
        | [] -> Alcotest.fail "empty trend");
    tc "no duplicate sample when the cadence already landed there"
      (fun () ->
        let r = run_mucfuzz ~sample_every:5 ~iterations:10 in
        let iters = List.map fst r.Fuzzing.Fuzz_result.coverage_trend in
        check
          (Alcotest.list Alcotest.int)
          "each iteration sampled once"
          (List.sort_uniq compare iters)
          iters;
        check Alcotest.int "tail iteration" 10
          (List.nth iters (List.length iters - 1)));
    tc "baseline trends end at the final iteration too" (fun () ->
        let seeds = Fuzzing.Seeds.corpus ~n:6 (Cparse.Rng.create 3) in
        let r =
          Fuzzing.Baselines.run_aflpp ~rng:(Cparse.Rng.create 4)
            ~compiler:Simcomp.Compiler.Gcc ~seeds ~iterations:10
            ~sample_every:7 ()
        in
        match List.rev r.Fuzzing.Fuzz_result.coverage_trend with
        | (last, _) :: _ -> check Alcotest.int "tail iteration" 10 last
        | [] -> Alcotest.fail "empty trend");
  ]

(* ------------------------------------------------------------------ *)
(* Telemetry attach / flush / finalize and shards:K invariance         *)
(* ------------------------------------------------------------------ *)

let temp_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) name in
  dir

let telemetry_tests =
  [
    tc "attach/flush/finalize write the artifact files" (fun () ->
        let dir = temp_dir "metamut-tel-test" in
        let ctx = Engine.Ctx.create ~clock:(fake_clock ()) () in
        let t = Engine.Telemetry.attach ~flush_every:1 ~dir ctx in
        ignore (Engine.Span.with_ ctx ~name:"x" (fun () -> ()));
        Engine.Ctx.sample ctx ~iteration:1 ~covered:5;
        Engine.Telemetry.finalize ~report:"# hi\n" t;
        let read f =
          let ic = open_in_bin (Filename.concat dir f) in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          s
        in
        let trace = read Engine.Telemetry.trace_file in
        check Alcotest.bool "trace is a JSON array" true
          (String.starts_with ~prefix:"[\n" trace
          && String.ends_with ~suffix:"]\n" trace);
        check Alcotest.bool "prom has the span histogram" true
          (is_infix ~affix:"metamut_span_x"
             (read Engine.Telemetry.prom_file));
        check Alcotest.bool "json has sections" true
          (is_infix ~affix:"\"histograms\""
             (read Engine.Telemetry.json_file));
        check Alcotest.string "report written" "# hi\n"
          (read Engine.Telemetry.report_file);
        (* the observer is gone after finalize: further samples no
           longer bump the flush counter *)
        let flushes () =
          Engine.Metrics.counter_value
            (Engine.Metrics.counter ctx.Engine.Ctx.metrics "telemetry.flushes")
        in
        let before = flushes () in
        Engine.Ctx.sample ctx ~iteration:2 ~covered:6;
        check Alcotest.int "observer detached" before (flushes ()));
    tc "status and telemetry observers leave a mucfuzz run unchanged"
      (fun () ->
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 4;
            sample_every = 5;
          }
        in
        let run engine =
          Fuzzing.Mucfuzz.run ~cfg ~engine ~rng:(Cparse.Rng.create 11)
            ~compiler:Simcomp.Compiler.Gcc
            ~seeds:(Fuzzing.Seeds.corpus ~n:8 (Cparse.Rng.create 3))
            ~iterations:22 ~name:"t" ()
        in
        let bare = run (Engine.Ctx.create ()) in
        let ctx = Engine.Ctx.create ~clock:(fake_clock ()) () in
        let st =
          Engine.Status.attach ~out:ignore ~interval_ns:0L ~label:"t" ctx
        in
        let tel =
          Engine.Telemetry.attach ~flush_every:1
            ~dir:(temp_dir "metamut-tel-observed") ctx
        in
        let watched = run ctx in
        Engine.Status.finish st;
        Engine.Telemetry.finalize tel;
        check Alcotest.bool "Fuzz_result.equal" true
          (Fuzzing.Fuzz_result.equal bare watched);
        let trend = watched.Fuzzing.Fuzz_result.coverage_trend in
        check
          Alcotest.(list (pair int int))
          "identical trend" bare.Fuzzing.Fuzz_result.coverage_trend trend;
        check
          Alcotest.(list int)
          "seed baseline, cadence, tail" [ 0; 5; 10; 15; 20; 22 ]
          (List.map fst trend);
        (* the observers really watched: the line counted every compile,
           and every sample flushed once (plus the final flush) *)
        check Alcotest.bool "status saw the compiles" true
          (is_infix
             ~affix:
               (Fmt.str "%d execs" (Engine.Ctx.counter_value ctx "compile.total"))
             (Engine.Status.line st));
        check Alcotest.int "one flush per sample, plus finalize"
          (List.length trend + 1)
          (Engine.Ctx.counter_value ctx "telemetry.flushes"));
    tc "merged telemetry is identical at jobs:1 and jobs:4" (fun () ->
        (* the shard count follows [jobs], which must stay inert: neither
           the registry nor campaign-report.md may depend on it *)
        let cfg =
          {
            Fuzzing.Campaign.default_config with
            iterations = 10;
            seeds = 8;
            sample_every = 4;
            max_attempts = 4;
          }
        in
        let snapshot jobs =
          let engine = Engine.Ctx.create () in
          ignore (Engine.Ctx.enable_trace engine);
          ignore (Engine.Ctx.enable_probe engine);
          let t =
            Fuzzing.Coordinator.run
              ~cfg:{ cfg with Fuzzing.Campaign.jobs }
              ~engine ~shards:jobs ()
          in
          ( Engine.Telemetry.deterministic_snapshot engine.Engine.Ctx.metrics,
            Fuzzing.Coordinator.report t )
        in
        let seq, seq_report = snapshot 1 in
        let par, par_report = snapshot 4 in
        check Alcotest.bool "workers shipped their registries" true
          (List.mem_assoc "compile.total" seq);
        check Alcotest.bool "identical deterministic snapshots" true
          (seq = par);
        check Alcotest.string "identical campaign-report.md" seq_report
          par_report);
    tc "campaign report renders the load-bearing sections" (fun () ->
        let cfg =
          {
            Fuzzing.Campaign.default_config with
            iterations = 8;
            seeds = 6;
            sample_every = 4;
            max_attempts = 4;
          }
        in
        let engine = Engine.Ctx.create () in
        let t =
          Fuzzing.Coordinator.run ~cfg
            ~fuzzers:[ Fuzzing.Campaign.MuCFuzz_u ]
            ~engine ~shards:1 ()
        in
        let md = Fuzzing.Coordinator.report ~engine t in
        List.iter
          (fun affix ->
            check Alcotest.bool affix true
              (is_infix ~affix md))
          [
            "# Campaign report";
            "## Run summary";
            "## Coverage trend";
            "## Per-mutator outcomes";
            "## Fault & retry recovery";
            "uCFuzz.u-GCC";
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Folded stacks (flamegraph export) and per-span self time            *)
(* ------------------------------------------------------------------ *)

let folded_tests =
  [
    tc "fold_self reconstructs nesting; to_folded is golden" (fun () ->
        let ctx = Engine.Ctx.create ~clock:(fake_clock ()) () in
        ignore (Engine.Ctx.enable_trace ~tid:0 ctx);
        (* compile.opt [1ms..6ms] containing opt.pass.a [2..3] and
           opt.pass.b [4..5]: self times 3ms / 1ms / 1ms *)
        ignore
          (Engine.Span.with_ ctx ~name:"compile.opt" (fun () ->
               ignore (Engine.Span.with_ ctx ~name:"opt.pass.a" (fun () -> ()));
               Engine.Span.with_ ctx ~name:"opt.pass.b" (fun () -> ())));
        let tr = Option.get ctx.Engine.Ctx.trace in
        let folded = Engine.Trace.to_folded tr in
        let expected =
          String.concat "\n"
            [
              "main;compile.opt 3000";
              "main;compile.opt;opt.pass.a 1000";
              "main;compile.opt;opt.pass.b 1000";
              "";
            ]
        in
        check Alcotest.string "folded golden" expected folded);
    tc "per-pass self times sum to the parent span's total" (fun () ->
        let ctx = Engine.Ctx.create ~clock:(fake_clock ()) () in
        ignore (Engine.Ctx.enable_trace ~tid:0 ctx);
        ignore
          (Engine.Span.with_ ctx ~name:"compile.opt" (fun () ->
               ignore (Engine.Span.with_ ctx ~name:"opt.pass.a" (fun () -> ()));
               ignore (Engine.Span.with_ ctx ~name:"opt.pass.b" (fun () -> ()));
               Engine.Span.with_ ctx ~name:"opt.pass.c" (fun () -> ())));
        let tr = Option.get ctx.Engine.Ctx.trace in
        let parent_total =
          List.fold_left
            (fun acc (s : Engine.Trace.span_rec) ->
              if s.Engine.Trace.sr_name = "compile.opt" then
                Int64.add acc s.Engine.Trace.sr_dur_ns
              else acc)
            0L (Engine.Trace.spans tr)
        in
        let self = Engine.Trace.self_time_by_name tr in
        let get n = Option.value ~default:0L (List.assoc_opt n self) in
        let sum =
          List.fold_left Int64.add 0L
            [
              get "compile.opt"; get "opt.pass.a"; get "opt.pass.b";
              get "opt.pass.c";
            ]
        in
        check Alcotest.int64 "self times sum to the parent total"
          parent_total sum);
    tc "siblings on separate tids never nest" (fun () ->
        let tr = Engine.Trace.create () in
        let worker = Engine.Trace.create ~tid:3 () in
        (* same wall-clock window, different threads: each is a root *)
        Engine.Trace.record tr ~name:"a" ~ts_ns:0L ~dur_ns:10_000L;
        Engine.Trace.record worker ~name:"b" ~ts_ns:0L ~dur_ns:10_000L;
        Engine.Trace.merge ~into:tr ~tid:3 worker;
        let paths =
          List.map
            (fun (p, _) -> String.concat ";" p)
            (Engine.Trace.fold_self tr)
        in
        check Alcotest.bool "a under main" true
          (List.mem "main;a" paths);
        check Alcotest.bool "b under tid-3" true
          (List.mem "tid-3;b" paths));
    tc "zero-duration spans are dropped from the folded output" (fun () ->
        let tr = Engine.Trace.create () in
        Engine.Trace.record tr ~name:"instant" ~ts_ns:0L ~dur_ns:100L;
        (* 100ns rounds to 0µs: no line *)
        check Alcotest.string "empty" "" (Engine.Trace.to_folded tr));
  ]

(* ------------------------------------------------------------------ *)
(* Per-mutator yield artifact                                          *)
(* ------------------------------------------------------------------ *)

let yield_tests =
  [
    tc "mutator_yield_json is None without mutator counters" (fun () ->
        let m = Engine.Metrics.create () in
        Engine.Metrics.incr (Engine.Metrics.counter m "compile.total");
        check Alcotest.bool "no artifact" true
          (Engine.Telemetry.mutator_yield_json m = None));
    tc "yield rows join families and sort by fresh edges" (fun () ->
        let m = Engine.Metrics.create () in
        let bump ?(by = 1) name =
          Engine.Metrics.incr ~by (Engine.Metrics.counter m name)
        in
        bump ~by:10 "mucfuzz.attempt.low";
        bump ~by:4 "mucfuzz.accept.low";
        bump ~by:2 "mucfuzz.fresh_edges.low";
        bump ~by:10 "mucfuzz.attempt.high";
        bump ~by:3 "mucfuzz.accept.high";
        bump ~by:9 "mucfuzz.fresh_edges.high";
        (* a mutator that only ever appears in the reject family still
           gets a row (union of suffixes, not just attempts) *)
        bump ~by:5 "mucfuzz.reject.barren";
        match Engine.Telemetry.mutator_yield_json m with
        | None -> Alcotest.fail "expected an artifact"
        | Some json ->
          let hi = ref 0 and lo = ref 0 and barren = ref 0 in
          List.iteri
            (fun i line ->
              if is_infix ~affix:"\"high\"" line then hi := i;
              if is_infix ~affix:"\"low\"" line then lo := i;
              if is_infix ~affix:"\"barren\"" line then barren := i)
            (String.split_on_char '\n' json);
          check Alcotest.bool "high outranks low" true (!hi < !lo);
          check Alcotest.bool "low outranks barren" true (!lo < !barren);
          check Alcotest.bool "fresh field present" true
            (is_infix ~affix:"\"fresh_edges\": 9" json));
  ]

(* ------------------------------------------------------------------ *)
(* Structured log: deterministic rendering                             *)
(* ------------------------------------------------------------------ *)

let log_tests =
  [
    tc "render groups by scope, sorts by phase, assigns seq" (fun () ->
        let lg = Engine.Log.create () in
        (* emission order deliberately interleaves scopes and phases the
           way a pool would: supervision first, bodies later *)
        Engine.Log.record lg ~scope:"unit-b" ~phase:1
          ~level:Engine.Log.Info ~event:"lease.verdict"
          [ ("verdict", "done") ];
        Engine.Log.record lg ~scope:"" ~level:Engine.Log.Info
          ~event:"campaign.start" [];
        Engine.Log.record lg ~scope:"unit-a" ~phase:1
          ~level:Engine.Log.Info ~event:"lease.verdict"
          [ ("verdict", "done") ];
        Engine.Log.record lg ~scope:"unit-a" ~level:Engine.Log.Info
          ~event:"body.step" [ ("n", "1") ];
        let lines =
          Engine.Log.to_json_lines ~scope_order:[ "unit-a"; "unit-b" ] lg
        in
        let expected =
          [
            "{\"seq\":0,\"level\":\"info\",\"scope\":\"\",\"event\":\"campaign.start\"}";
            "{\"seq\":1,\"level\":\"info\",\"scope\":\"unit-a\",\"event\":\"body.step\",\"n\":\"1\"}";
            "{\"seq\":2,\"level\":\"info\",\"scope\":\"unit-a\",\"event\":\"lease.verdict\",\"verdict\":\"done\"}";
            "{\"seq\":3,\"level\":\"info\",\"scope\":\"unit-b\",\"event\":\"lease.verdict\",\"verdict\":\"done\"}";
          ]
        in
        check (Alcotest.list Alcotest.string) "golden lines" expected lines);
    tc "rendered body is emission-interleaving-invariant" (fun () ->
        (* two logs with the same per-scope streams in different global
           interleavings (shards:1 vs shards:K) render identically *)
        let a = Engine.Log.create () in
        Engine.Log.record a ~scope:"u1" ~level:Engine.Log.Info ~event:"x" [];
        Engine.Log.record a ~scope:"u2" ~level:Engine.Log.Info ~event:"y" [];
        Engine.Log.record a ~scope:"u1" ~level:Engine.Log.Warn ~event:"z" [];
        let b = Engine.Log.create () in
        Engine.Log.record b ~scope:"u2" ~level:Engine.Log.Info ~event:"y" [];
        Engine.Log.record b ~scope:"u1" ~level:Engine.Log.Info ~event:"x" [];
        Engine.Log.record b ~scope:"u1" ~level:Engine.Log.Warn ~event:"z" [];
        check Alcotest.string "same body"
          (Engine.Log.to_string a) (Engine.Log.to_string b));
    tc "records below the level are dropped at emission" (fun () ->
        let lg = Engine.Log.create ~level:Engine.Log.Warn () in
        Engine.Log.record lg ~level:Engine.Log.Debug ~event:"quiet" [];
        Engine.Log.record lg ~level:Engine.Log.Error ~event:"loud" [];
        check Alcotest.int "one survived" 1 (Engine.Log.length lg));
    tc "field values are JSON-escaped" (fun () ->
        let lg = Engine.Log.create () in
        Engine.Log.record lg ~level:Engine.Log.Info ~event:"e"
          [ ("msg", "a\"b\nc") ];
        let s = Engine.Log.to_string lg in
        check Alcotest.bool "escaped" true (is_infix ~affix:{|a\"b\nc|} s));
    tc "parse_spec splits a trailing level and keeps odd paths" (fun () ->
        check Alcotest.bool "plain" true
          (Engine.Log.parse_spec "run.log" = Ok ("run.log", Engine.Log.Info));
        check Alcotest.bool "level split" true
          (Engine.Log.parse_spec "run.log:debug"
          = Ok ("run.log", Engine.Log.Debug));
        check Alcotest.bool "unknown suffix is path" true
          (Engine.Log.parse_spec "run:2.log" = Ok ("run:2.log", Engine.Log.Info));
        check Alcotest.bool "empty rejected" true
          (match Engine.Log.parse_spec "" with Error _ -> true | Ok _ -> false));
  ]

(* ------------------------------------------------------------------ *)
(* Heartbeat folding edge cases                                        *)
(* ------------------------------------------------------------------ *)

let fold_tests =
  [
    tc "execs/crashes sum, covered maxes" (fun () ->
        check
          (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
          "fold" (30, 70, 3)
          (Engine.Status.fold_heartbeats [ (10, 70, 1); (20, 55, 2) ]));
    tc "a zero-exec shard contributes nothing" (fun () ->
        check
          (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
          "fold" (10, 70, 1)
          (Engine.Status.fold_heartbeats [ (10, 70, 1); (0, 0, 0) ]));
    tc "a regressing covered feed never un-counts edges" (fun () ->
        let ctx = Engine.Ctx.create ~clock:(fake_clock ()) () in
        let out = Buffer.create 64 in
        let st =
          Engine.Status.attach
            ~out:(Buffer.add_string out)
            ~interval_ns:0L ~label:"t" ctx
        in
        Engine.Status.update st ~execs:10 ~covered:100 ~crashes:0 ();
        (* a crashed shard's beat drops out of the fold: covered dips *)
        Engine.Status.update st ~execs:12 ~covered:60 ~crashes:0 ();
        check Alcotest.bool "still 100 edges" true
          (is_infix ~affix:"100 edges" (Engine.Status.line st)));
    tc "fresh edges through update reset the plateau streak" (fun () ->
        let ctx = Engine.Ctx.create ~clock:(fake_clock ()) () in
        let st =
          Engine.Status.attach ~out:ignore ~interval_ns:0L ~label:"t" ctx
        in
        (* plateau builds on the tick path ... *)
        for i = 1 to 4 do
          Engine.Ctx.sample ctx ~iteration:i ~covered:50
        done;
        check Alcotest.bool "plateau on" true
          (is_infix ~affix:"plateau" (Engine.Status.line st));
        (* ... and a heartbeat fold that finally gains an edge clears it *)
        Engine.Status.update st ~execs:1 ~covered:51 ~crashes:0 ();
        check Alcotest.bool "plateau cleared" false
          (is_infix ~affix:"plateau" (Engine.Status.line st)));
  ]

(* ------------------------------------------------------------------ *)
(* Live serve endpoints                                                *)
(* ------------------------------------------------------------------ *)

(* Single-threaded HTTP client: connect, send, then alternate polling
   the server and draining our socket until it closes the connection. *)
let http_get srv path =
  let addr = Engine.Serve.bound_addr srv in
  let i = String.rindex addr ':' in
  let host = String.sub addr 0 i in
  let port =
    int_of_string (String.sub addr (i + 1) (String.length addr - i - 1))
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  let req = "GET " ^ path ^ " HTTP/1.1\r\nHost: t\r\n\r\n" in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 1024 in
  let tmp = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec drain () =
    Engine.Serve.poll srv;
    match Unix.select [ fd ] [] [] 0.01 with
    | [ _ ], _, _ ->
      let n = Unix.read fd tmp 0 (Bytes.length tmp) in
      if n > 0 then begin
        Buffer.add_subbytes buf tmp 0 n;
        drain ()
      end
    | _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "serve: no response within 5s"
      else drain ()
  in
  drain ();
  Unix.close fd;
  let resp = Buffer.contents buf in
  match Astring.String.find_sub ~sub:"\r\n\r\n" resp with
  | None -> Alcotest.fail ("serve: malformed response: " ^ resp)
  | Some i ->
    let head = String.sub resp 0 i in
    let body = String.sub resp (i + 4) (String.length resp - i - 4) in
    let code =
      match String.split_on_char ' ' head with
      | _ :: c :: _ -> int_of_string c
      | _ -> Alcotest.fail "serve: no status code"
    in
    (code, head, body)

let with_serve f =
  let ctx = Engine.Ctx.create () in
  match Engine.Serve.listen ~addr:"127.0.0.1:0" ctx with
  | Error e -> Alcotest.fail ("listen: " ^ e)
  | Ok srv ->
    Fun.protect ~finally:(fun () -> Engine.Serve.close srv) (fun () ->
        f ctx srv)

let serve_tests =
  [
    tc "/healthz flips 200 -> 503 when the breaker trips" (fun () ->
        with_serve (fun ctx srv ->
            let code, _, body = http_get srv "/healthz" in
            check Alcotest.int "healthy" 200 code;
            check Alcotest.string "ok body" "ok\n" body;
            Engine.Metrics.incr
              (Engine.Metrics.counter ctx.Engine.Ctx.metrics
                 "shard.breaker_tripped");
            let code, _, _ = http_get srv "/healthz" in
            check Alcotest.int "breaker tripped" 503 code));
    tc "/metrics serves the live Prometheus rendering" (fun () ->
        with_serve (fun ctx srv ->
            Engine.Metrics.incr ~by:3
              (Engine.Metrics.counter ctx.Engine.Ctx.metrics "compile.total");
            let code, head, body = http_get srv "/metrics" in
            check Alcotest.int "200" 200 code;
            check Alcotest.bool "prometheus content type" true
              (is_infix ~affix:"text/plain; version=0.0.4" head);
            check Alcotest.string "matches the exporter"
              (Engine.Telemetry.prometheus_of_snapshot
                 (Engine.Metrics.snapshot ctx.Engine.Ctx.metrics))
              body;
            check Alcotest.bool "live value" true
              (is_infix ~affix:"metamut_compile_total 3" body)));
    tc "/status.json folds shard heartbeats and quarantines" (fun () ->
        with_serve (fun _ctx srv ->
            Engine.Serve.note_shard srv ~shard:0 ~execs:10 ~covered:70
              ~crashes:1;
            Engine.Serve.note_shard srv ~shard:1 ~execs:20 ~covered:55
              ~crashes:0;
            Engine.Serve.note_quarantine srv ~unit_name:"uCFuzz-GCC"
              ~reason:"worker-oom";
            let code, _, body = http_get srv "/status.json" in
            check Alcotest.int "200" 200 code;
            check Alcotest.bool "execs summed" true
              (is_infix ~affix:"\"execs\": 30" body);
            check Alcotest.bool "covered maxed" true
              (is_infix ~affix:"\"covered\": 70" body);
            check Alcotest.bool "quarantine listed" true
              (is_infix ~affix:"uCFuzz-GCC" body);
            check Alcotest.bool "not done" true
              (is_infix ~affix:"\"done\": false" body);
            Engine.Serve.set_done srv;
            let _, _, body = http_get srv "/status.json" in
            check Alcotest.bool "done" true
              (is_infix ~affix:"\"done\": true" body)));
    tc "/series.json records samples from shard heartbeats" (fun () ->
        with_serve (fun _ctx srv ->
            Engine.Serve.note_shard srv ~shard:0 ~execs:7 ~covered:42
              ~crashes:0;
            (* the final sample is pushed however soon the run ends *)
            Engine.Serve.set_done srv;
            let code, _, body = http_get srv "/series.json" in
            check Alcotest.int "200" 200 code;
            check Alcotest.bool "sample present" true
              (is_infix ~affix:"\"covered\": 42" body)));
    tc "unknown paths 404; junk requests never wedge the server"
      (fun () ->
        with_serve (fun _ctx srv ->
            let code, _, _ = http_get srv "/nope" in
            check Alcotest.int "404" 404 code;
            let code, _, _ = http_get srv "/healthz" in
            check Alcotest.int "still serving" 200 code));
  ]

let () =
  Alcotest.run "telemetry"
    [
      ("gauge-policy", gauge_policy_tests);
      ("trace", trace_tests);
      ("exporters", exporter_tests);
      ("probe", probe_tests);
      ("status", status_tests);
      ("trend-tail", trend_tail_tests);
      ("telemetry", telemetry_tests);
      ("folded", folded_tests);
      ("yield", yield_tests);
      ("log", log_tests);
      ("heartbeat-fold", fold_tests);
      ("serve", serve_tests);
    ]
