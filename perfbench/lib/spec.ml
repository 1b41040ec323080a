(* Every metric the benchmark reports, with its unit and direction. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "mutants_per_s" "1/s" Higher;
    m "step_tail_ms" "ms" Lower;
    m "wall_s" "s" Lower;
    m "minor_words_per_compile" "words" Lower;
    m "peak_heap_mb" "MiB" Lower;
    m "covered_branches" "count" Higher;
    m "ok_op_pct" "%" Higher;
  ]

let opt_passes = [ "constfold"; "simplify-cfg"; "dce"; "inline"; "strlen-opt"; "loop-opt" ]

let cell_fuzzers =
  [
    ("uCFuzz.s", "ucfuzz_s");
    ("uCFuzz.u", "ucfuzz_u");
    ("AFL++", "aflpp");
    ("GrayC", "grayc");
    ("Csmith", "csmith");
    ("YARPGen", "yarpgen");
  ]

let per_layer =
  [
    m "cparse.lexer.tokenize_us" "us" Lower;
    m "cparse.lexer.tokenize_words" "words" Lower;
    m "cparse.lexer.tokens_per_s" "1/s" Higher;
    m "cparse.lexer.reject_pct" "%" Lower;
    m "cparse.parser.parse_us" "us" Lower;
    m "cparse.parser.parse_words" "words" Lower;
    m "cparse.parser.reject_pct" "%" Lower;
    m "cparse.typecheck.check_us" "us" Lower;
    m "cparse.pretty.render_us" "us" Lower;
    m "uast.ctx_create_us" "us" Lower;
    m "mutators.apply_us" "us" Lower;
    m "mutators.applicable_pct" "%" Higher;
    m "fuzzing.fragility.render_us" "us" Lower;
    m "fuzzing.fragility.compilable_pct" "%" Higher;
    m "simcomp.features.text_us" "us" Lower;
    m "simcomp.features.ast_us" "us" Lower;
    m "simcomp.bugdb.check_us" "us" Lower;
    m "simcomp.lower.lower_us" "us" Lower;
    m "simcomp.lower.ir_size" "count" Lower;
  ]
  @ List.concat_map
      (fun p ->
        [ m ("simcomp.opt." ^ p ^ ".us") "us" Lower; m ("simcomp.opt." ^ p ^ ".changes") "count" Higher ])
      opt_passes
  @ [
      m "simcomp.backend.emit_us" "us" Lower;
      m "simcomp.backend.emit_words" "words" Lower;
      m "simcomp.backend.spills" "count" Lower;
      m "simcomp.compiler.compile_us" "us" Lower;
      m "simcomp.compiler.compile_words" "words" Lower;
      m "simcomp.compiler.unattributed_pct" "%" Lower;
      m "simcomp.compiler.cache_hit_pct" "%" Higher;
      m "simcomp.coverage.merge_us" "us" Lower;
      m "simcomp.ir_interp.observable_us" "us" Lower;
      m "simcomp.ir_interp.compared_pct" "%" Higher;
      m "simcomp.interp.differential_checked" "count" Higher;
      m "simcomp.interp.differential_disagree_pct" "%" Lower;
      m "fuzzing.wrongcode.check_us" "us" Lower;
      m "fuzzing.wrongcode.unattributed_pct" "%" Lower;
      m "fuzzing.mucfuzz.step_us" "us" Lower;
      m "fuzzing.mucfuzz.accept_pct" "%" Higher;
      m "fuzzing.mucfuzz.unattributed_pct" "%" Lower;
      m "engine.shard.unit_s_p50" "s" Lower;
      m "engine.shard.unit_s_max" "s" Lower;
      m "engine.shard.idle_pct" "%" Lower;
      m "engine.shard.respawns" "count" Lower;
      m "engine.shard.requeued" "count" Lower;
    ]
  @ List.map (fun (_, f) -> m ("fuzzing.cell." ^ f ^ "_s") "s" Lower) cell_fuzzers
  @ [
      m "fuzzing.unique_findings" "count" Higher;
      m "engine.trace.overhead_pct" "%" Lower;
      m "engine.trace.spans" "count" Lower;
      m "engine.trace.heap_mb" "MiB" Lower;
      m "engine.trace.xcheck_pct" "%" Lower;
    ]
