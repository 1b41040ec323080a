(* The traced run: per-layer metrics.  It is separate from the timed
   runs, which stay untraced, and replays each workload's own inputs
   through the public stage functions with a span around every call.
   No end-to-end number comes from here. *)

open Perfbench

type result = {
  layers : (string * float) list;  (** per-layer metric values *)
  totals : (string * Spans.total) list;  (** every span name's aggregate *)
  attempted : int;
  failed : int;
  problems : string list;
  defects : string list;
      (** disagreements between the program's two interpreters: defects
          in code the workload does not run, reported but not counted as
          failed operations *)
}

let ns_to_us ns = Int64.to_float ns /. 1e3

(* Mean inclusive time per call of a span name, in µs. *)
let us totals name =
  let t = Spans.find totals name in
  if t.calls = 0 then 0. else ns_to_us t.total_ns /. float_of_int t.calls

let words totals name =
  let t = Spans.find totals name in
  if t.calls = 0 then 0. else t.total_words /. float_of_int t.calls

let total_ns totals names =
  List.fold_left (fun acc n -> Int64.add acc (Spans.find totals n).total_ns) 0L names

(* 100 * (whole - parts) / whole: the share of [whole] no stage span
   covers. *)
let unattributed ~whole ~parts =
  if Int64.equal whole 0L then 0.
  else Stats.pct (Int64.to_float (Int64.sub whole parts)) (Int64.to_float whole)

let ratio part whole = Stats.pct (float_of_int part) (float_of_int whole)

(* Each measured phase starts from a collected heap, so no phase pays
   for another's garbage. *)
let phase f =
  Gc.full_major ();
  f ()

(* Layer metrics every workload that decomposes compiles reports. *)
let stage_layers totals (ds : Stages.t list) =
  let n = List.length ds in
  let count p = List.length (List.filter p ds) in
  let accepted = List.filter (fun (d : Stages.t) -> d.reject = Accepted) ds in
  let mean f l =
    if l = [] then 0. else float_of_int (List.fold_left (fun a x -> a + f x) 0 l) /. float_of_int (List.length l)
  in
  let tokens = List.fold_left (fun a (d : Stages.t) -> a + d.tokens) 0 ds in
  let lex = Spans.find totals "cparse.lexer.tokenize" in
  [
    ("cparse.lexer.tokenize_us", us totals "cparse.lexer.tokenize");
    ("cparse.lexer.tokenize_words", words totals "cparse.lexer.tokenize");
    ( "cparse.lexer.tokens_per_s",
      if Int64.equal lex.total_ns 0L then 0. else float_of_int tokens /. (Int64.to_float lex.total_ns /. 1e9) );
    ("cparse.lexer.reject_pct", ratio (count (fun d -> d.reject = Lex_reject)) n);
    ("cparse.parser.parse_us", us totals "cparse.parser.parse");
    ("cparse.parser.parse_words", words totals "cparse.parser.parse");
    ("cparse.parser.reject_pct", ratio (count (fun d -> d.reject = Parse_reject)) n);
    ("cparse.typecheck.check_us", us totals "cparse.typecheck.check");
    ("simcomp.features.text_us", us totals "simcomp.features.text");
    ("simcomp.features.ast_us", us totals "simcomp.features.ast");
    ("simcomp.bugdb.check_us", us totals "simcomp.bugdb.check");
    ("simcomp.lower.lower_us", us totals "simcomp.lower.lower");
    ("simcomp.lower.ir_size", mean (fun (d : Stages.t) -> d.ir_size) accepted);
    ("simcomp.backend.emit_us", us totals "simcomp.backend.emit");
    ("simcomp.backend.emit_words", words totals "simcomp.backend.emit");
    ("simcomp.backend.spills", mean (fun (d : Stages.t) -> d.spills) accepted);
  ]
  @ List.concat_map
      (fun p ->
        let runs =
          List.concat_map
            (fun (d : Stages.t) -> List.filter_map (fun (q, c) -> if q = p then Some c else None) d.changes)
            accepted
        in
        [ ("simcomp.opt." ^ p ^ ".us", us totals ("simcomp.opt." ^ p)); ("simcomp.opt." ^ p ^ ".changes", mean Fun.id runs) ])
      Spec.opt_passes

(* ------------------------------------------------------------------ *)
(* mucfuzz                                                             *)
(* ------------------------------------------------------------------ *)

type mucfuzz_tally = {
  mutable apply_some : int;
  mutable apply_calls : int;
  mutable accepted : int;
}

(* [Mucfuzz.step] rebuilt from the same public calls, with a span around
   each (scheduling off, fragility and coverage guidance on — the
   workload's configuration).  The traced run proves it faithful by
   comparing its result with the real step's on the same inputs.
   [on_compile] receives every source that was really compiled (not
   answered from the dedup cache). *)
let replica_step sp tally (st : Fuzzing.Mucfuzz.state) ~iteration ~on_compile =
  let open Fuzzing in
  let span name f = Spans.with_ sp name f in
  let pool = st.Mucfuzz.pool in
  if Engine.Vec.length pool > 0 then begin
    let entry = Engine.Vec.get pool (Cparse.Rng.int st.rng (Engine.Vec.length pool)) in
    let ctx = span "uast.ctx_create" (fun () -> Uast.Ctx.create ~rng:st.rng entry.tu) in
    let shuffled = Cparse.Rng.shuffle st.rng st.cfg.mutators in
    let attempts = ref 0 and found = ref false in
    List.iter
      (fun (m : Mutators.Mutator.t) ->
        if (not !found) && !attempts < st.cfg.max_attempts_per_iteration then begin
          incr attempts;
          tally.apply_calls <- tally.apply_calls + 1;
          match span "mutators.apply" (fun () -> Mutators.Mutator.apply_ctx m ctx) with
          | None -> ()
          | Some tu' -> (
            tally.apply_some <- tally.apply_some + 1;
            let src = span "fuzzing.fragility.render" (fun () -> Fragility.render st.rng m tu') in
            let r = st.result in
            st.result <-
              { r with total_mutants = r.total_mutants + 1; throughput_mutants = r.throughput_mutants + 1 };
            let misses = Simcomp.Compiler.cache_misses st.cache in
            let outcome, parsed =
              span "mucfuzz.compile" (fun () -> Simcomp.Compiler.batch_compile st.batch src)
            in
            if Simcomp.Compiler.cache_misses st.cache > misses then on_compile src outcome;
            (match outcome with
            | Simcomp.Compiler.Compiled _ ->
              st.result <- { st.result with compilable_mutants = st.result.compilable_mutants + 1 }
            | Simcomp.Compiler.Crashed c -> Fuzz_result.record_crash st.result ~iteration ~input:src c
            | Simcomp.Compiler.Compile_error _ -> ());
            let fresh =
              span "simcomp.coverage.merge" (fun () ->
                  Simcomp.Coverage.merge_consume ~into:st.result.coverage st.scratch)
            in
            match outcome with
            | Simcomp.Compiler.Compiled _ when fresh > 0 && not !found -> (
              match match parsed with Some tu -> Ok tu | None -> Cparse.Parser.parse src with
              | Ok tu ->
                Engine.Vec.push pool { Mucfuzz.src; tu; pe_len = String.length src; pe_tops = 0 };
                tally.accepted <- tally.accepted + 1;
                found := true
              | Error _ -> ())
            | _ -> ())
        end)
      shuffled
  end

(* Both interpreters decide a program when neither runs out of fuel or
   stack and the IR one supports every feature it uses. *)
let ast_vs_ir (tu : Cparse.Ast.tu) src =
  let ast = Simcomp.Interp.run tu in
  (* a read of an uninitialized local has no defined result to agree on *)
  if ast.o_hang || ast.o_stack_overflow || (Simcomp.Features.ast_features tu).has_uninit_use then
    `Undecided
  else
    let o0 = { Simcomp.Compiler.default_options with opt_level = 0 } in
    match Simcomp.Compiler.compile_ir Simcomp.Compiler.Gcc o0 src with
    | Error _ -> `Undecided
    | Ok ir -> (
      match Simcomp.Ir_interp.observable ~fuel:1_000_000 ir with
      | None -> `Undecided
      | Some (exit, trapped) ->
        if trapped = ast.o_aborted && (trapped || exit = ast.o_exit) then `Agree
        else `Disagree (Printf.sprintf "AST exit %d%s, -O0 IR exit %d%s" ast.o_exit
                          (if ast.o_aborted then " (trapped)" else "") exit
                          (if trapped then " (trapped)" else "")))

let time_steps st ~step =
  let t0 = Monotonic_clock.now () in
  for i = 1 to Timed.mucfuzz_iterations do
    step st ~iteration:i;
    Fuzzing.Mucfuzz.sample_trend st ~iteration:i
  done;
  Int64.sub (Monotonic_clock.now ()) t0

let program_stage_names = [ "compile.lower"; "compile.opt"; "compile.backend" ]

let mucfuzz ~seed ~seconds =
  let sp = Spans.create () in
  let tally = { apply_some = 0; apply_calls = 0; accepted = 0 } in
  let decomposed = ref [] and problems = ref [] in
  let real_ns = ref 0L and traced_ns = ref 0L and trace_spans = ref 0 and trace_words = ref 0 in
  let program_ns = ref 0L and iterations = ref 0 and checked = ref 0 and defects = ref [] in
  let hits = ref 0 and misses = ref 0 and mutants = ref 0 and compilable = ref 0 in
  let findings = Hashtbl.create 16 in
  let start = Timed.now_s () in
  let sub = ref 0 in
  while !sub < 2 || Timed.now_s () -. start < float_of_int seconds do
    (* the real step, untraced and then with the program's own tracing
       on: the difference is the telemetry's cost *)
    let real = Timed.mucfuzz_init ~seed ~sub:!sub () in
    real_ns := Int64.add !real_ns (phase (fun () -> time_steps real ~step:Fuzzing.Mucfuzz.step));
    List.iter (fun k -> Hashtbl.replace findings k ()) (Fuzzing.Fuzz_result.crash_keys real.result);
    let engine = Engine.Ctx.create () in
    let st = Timed.mucfuzz_init ~engine ~seed ~sub:!sub () in
    let trace = Engine.Ctx.enable_trace engine in
    traced_ns := Int64.add !traced_ns (phase (fun () -> time_steps st ~step:Fuzzing.Mucfuzz.step));
    trace_spans := !trace_spans + Engine.Trace.length trace;
    trace_words := !trace_words + Obj.reachable_words (Obj.repr trace);
    List.iter
      (fun (name, ns) ->
        if List.mem name program_stage_names || String.starts_with ~prefix:"opt.pass." name then
          program_ns := Int64.add !program_ns ns)
      (Engine.Trace.self_time_by_name trace);
    (* the replica, one span per stage call, on the same inputs *)
    let rep = Timed.mucfuzz_init ~seed ~sub:!sub () in
    let compiled = ref [] in
    phase (fun () ->
        for i = 1 to Timed.mucfuzz_iterations do
          Spans.with_ sp "fuzzing.mucfuzz.step" (fun () ->
              replica_step sp tally rep ~iteration:i ~on_compile:(fun src o ->
                  compiled := (src, o) :: !compiled));
          Fuzzing.Mucfuzz.sample_trend rep ~iteration:i
        done);
    (* every really compiled mutant, stage by stage and then whole *)
    let compiled = List.rev !compiled in
    let opts = Simcomp.Compiler.default_options in
    let cov = Simcomp.Coverage.create () in
    let ds =
      phase (fun () ->
          List.map
            (fun (src, _) ->
              let d = Stages.run sp ~cov ~full:true opts src in
              Simcomp.Coverage.drain cov;
              d)
            compiled)
    in
    phase (fun () ->
        List.iter
          (fun (src, _) ->
            ignore
              (Spans.with_ sp "simcomp.compiler.compile" (fun () ->
                   Simcomp.Compiler.compile ~cov Simcomp.Compiler.Gcc opts src));
            Simcomp.Coverage.drain cov)
          compiled);
    List.iter2
      (fun (src, outcome) (d : Stages.t) ->
        match (outcome, d.tu) with
        | Simcomp.Compiler.Compiled _, Some tu -> (
          match ast_vs_ir tu src with
          | `Agree -> incr checked
          | `Undecided -> ()
          | `Disagree why ->
            incr checked;
            defects :=
              Printf.sprintf "mucfuzz: AST and -O0 IR interpreters disagree (%s) on:\n%s" why src
              :: !defects)
        | _ -> ())
      compiled ds;
    decomposed := List.rev_append (List.rev_map Stages.summary ds) !decomposed;
    if not (Fuzzing.Fuzz_result.equal rep.result real.result) then
      problems := Printf.sprintf "mucfuzz: replica of chunk %d diverged from Mucfuzz.step" !sub :: !problems;
    hits := !hits + Simcomp.Compiler.cache_hits rep.cache;
    misses := !misses + Simcomp.Compiler.cache_misses rep.cache;
    mutants := !mutants + rep.result.total_mutants;
    compilable := !compilable + rep.result.compilable_mutants;
    iterations := !iterations + Timed.mucfuzz_iterations;
    incr sub
  done;
  let totals = Spans.totals sp in
  let step_parts =
    total_ns totals
      [ "uast.ctx_create"; "mutators.apply"; "fuzzing.fragility.render"; "mucfuzz.compile"; "simcomp.coverage.merge" ]
  in
  let bench_stage_ns =
    total_ns totals
      ("simcomp.lower.lower" :: "simcomp.backend.emit" :: List.map (fun p -> "simcomp.opt." ^ p) Spec.opt_passes)
  in
  let per_kilo_iter x = x *. 1000. /. float_of_int !iterations in
  let layers =
    stage_layers totals !decomposed
    @ [
        ("uast.ctx_create_us", us totals "uast.ctx_create");
        ("mutators.apply_us", us totals "mutators.apply");
        ("mutators.applicable_pct", ratio tally.apply_some tally.apply_calls);
        ("fuzzing.fragility.render_us", us totals "fuzzing.fragility.render");
        ("fuzzing.fragility.compilable_pct", ratio !compilable !mutants);
        ("simcomp.compiler.compile_us", us totals "simcomp.compiler.compile");
        ("simcomp.compiler.compile_words", words totals "simcomp.compiler.compile");
        ( "simcomp.compiler.unattributed_pct",
          unattributed ~whole:(Spans.find totals "simcomp.compiler.compile").total_ns
            ~parts:(total_ns totals (Stages.names ~full:true)) );
        ("simcomp.compiler.cache_hit_pct", ratio !hits (!hits + !misses));
        ("simcomp.coverage.merge_us", us totals "simcomp.coverage.merge");
        ("simcomp.interp.differential_checked", float_of_int !checked);
        ("simcomp.interp.differential_disagree_pct", ratio (List.length !defects) !checked);
        ("fuzzing.mucfuzz.step_us", ns_to_us !real_ns /. float_of_int !iterations);
        ("fuzzing.unique_findings", float_of_int (Hashtbl.length findings));
        ("fuzzing.mucfuzz.accept_pct", ratio tally.accepted !mutants);
        ("fuzzing.mucfuzz.unattributed_pct", unattributed ~whole:!real_ns ~parts:step_parts);
        ( "engine.trace.overhead_pct",
          Stats.pct (Int64.to_float (Int64.sub !traced_ns !real_ns)) (Int64.to_float !real_ns) );
        ("engine.trace.spans", per_kilo_iter (float_of_int !trace_spans));
        ( "engine.trace.heap_mb",
          per_kilo_iter (float_of_int (!trace_words * (Sys.word_size / 8)) /. 1048576.) );
        ( "engine.trace.xcheck_pct",
          Float.abs (Stats.pct (Int64.to_float (Int64.sub bench_stage_ns !program_ns)) (Int64.to_float !program_ns)) );
      ]
  in
  {
    layers;
    totals;
    attempted = !iterations;
    failed = List.length !problems;
    problems = List.rev !problems;
    defects = List.rev !defects;
  }

(* ------------------------------------------------------------------ *)
(* wrongcode                                                           *)
(* ------------------------------------------------------------------ *)

let wrongcode ~seed ~seconds =
  let sp = Spans.create () in
  let span name f = Spans.with_ sp name f in
  let decomposed = ref [] and compared = ref 0 and steps = ref 0 in
  let findings = Hashtbl.create 8 in
  let start = Timed.now_s () in
  let sub = ref 0 in
  while !sub < 2 || Timed.now_s () -. start < float_of_int seconds do
    let pool, rng = Timed.wrongcode_setup ~seed !sub in
    let step i =
      span "fuzzing.wrongcode.step" (fun () ->
          let tu, options = Timed.wrongcode_mutant ~apply:(span "mutators.apply") rng pool ~sub:!sub i in
          let src = span "cparse.pretty.render" (fun () -> Cparse.Pretty.tu_to_string tu) in
          (match
             span "fuzzing.wrongcode.check" (fun () ->
                 Fuzzing.Wrongcode.check_program Simcomp.Compiler.Gcc options src)
           with
          | Some mm -> Hashtbl.replace findings (Timed.mismatch_key mm) ()
          | None -> ());
          (src, options))
    in
    let inputs = phase (fun () -> List.init Timed.wrongcode_mutants step) in
    steps := !steps + List.length inputs;
    (* check_program's work, stage by stage: the -O0 reference and the
       target level, each compiled to IR and interpreted *)
    let decompose (src, (options : Simcomp.Compiler.options)) =
      let reference = { options with opt_level = 0; disabled_passes = []; pass_list = None } in
      let observed =
        List.map
          (fun opts ->
            let d = Stages.run sp ~full:false opts src in
            decomposed := Stages.summary d :: !decomposed;
            Option.bind d.ir (fun ir ->
                span "simcomp.ir_interp.observable" (fun () ->
                    Simcomp.Ir_interp.observable ~fuel:1_000_000 ir)))
          [ reference; options ]
      in
      if List.for_all Option.is_some observed then incr compared
    in
    phase (fun () -> List.iter decompose inputs);
    incr sub
  done;
  let totals = Spans.totals sp in
  let layers =
    stage_layers totals !decomposed
    @ [
        ("mutators.apply_us", us totals "mutators.apply");
        ("cparse.pretty.render_us", us totals "cparse.pretty.render");
        ("simcomp.ir_interp.observable_us", us totals "simcomp.ir_interp.observable");
        ("simcomp.ir_interp.compared_pct", ratio !compared !steps);
        ("fuzzing.wrongcode.check_us", us totals "fuzzing.wrongcode.check");
        ("fuzzing.unique_findings", float_of_int (Hashtbl.length findings));
        ( "fuzzing.wrongcode.unattributed_pct",
          unattributed ~whole:(Spans.find totals "fuzzing.wrongcode.check").total_ns
            ~parts:(total_ns totals ("simcomp.ir_interp.observable" :: Stages.names ~full:false)) );
      ]
  in
  { layers; totals; attempted = !steps; failed = 0; problems = []; defects = [] }

(* ------------------------------------------------------------------ *)
(* campaign                                                            *)
(* ------------------------------------------------------------------ *)

let campaign ~seed ~seconds:_ =
  let seed = Timed.chunk_seed ~seed 0 in
  let cr = Timed.run_campaign ~seed in
  let t = cr.cr_t in
  let stats = t.Fuzzing.Coordinator.shard_stats in
  let leases = cr.cr_leases_s in
  let busy = Stats.sum leases in
  (* every cell again, in process and one at a time: its own time, and
     its result must equal the sharded one *)
  let sp = Spans.create () in
  let cfg = Timed.campaign_cfg ~seed in
  let problems =
    List.filter_map
      (fun ((u : Fuzzing.Coordinator.unit_id), sharded) ->
        let name = Fuzzing.Campaign.fuzzer_name u.u_fuzzer in
        let metric = List.assoc name Spec.cell_fuzzers in
        let r =
          Spans.with_ sp ("fuzzing.cell." ^ metric) (fun () ->
              Fuzzing.Campaign.run_one cfg u.u_fuzzer u.u_compiler)
        in
        if Fuzzing.Fuzz_result.equal r sharded then None
        else Some ("campaign: unit " ^ Fuzzing.Coordinator.unit_name u ^ " differs from its sharded run"))
      t.Fuzzing.Coordinator.results
  in
  let totals = Spans.totals sp in
  let layers =
    [
      ("engine.shard.unit_s_p50", Stats.median leases);
      ("engine.shard.unit_s_max", Array.fold_left Float.max 0. leases);
      ( "engine.shard.idle_pct",
        100. -. Stats.pct busy (cr.cr_wall_s *. float_of_int Timed.campaign_shards) );
      ("engine.shard.respawns", float_of_int (max 0 (stats.Engine.Shard.st_spawned - Timed.campaign_shards)));
      ("engine.shard.requeued", float_of_int stats.st_requeued);
      ("fuzzing.unique_findings", float_of_int (List.length (Fuzzing.Coordinator.all_crashes t)));
    ]
    @ List.map
        (fun (_, f) -> ("fuzzing.cell." ^ f ^ "_s", us totals ("fuzzing.cell." ^ f) /. 1e6))
        Spec.cell_fuzzers
  in
  { layers; totals; attempted = List.length t.results; failed = List.length problems; problems; defects = [] }

let run ~workload =
  match workload with
  | "mucfuzz" -> mucfuzz
  | "wrongcode" -> wrongcode
  | "campaign" -> campaign
  | w -> invalid_arg ("Traced.run: " ^ w)
