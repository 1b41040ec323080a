(* One source through the compile pipeline, one public stage function at
   a time, each under its own span.  The traced run compares the stage
   totals with whole-compile time on the same sources; what the stage
   calls do not cover (coverage hashing of tokens, AST shapes, features
   and diagnostics, and outcome accounting) is the unattributed
   remainder. *)

open Perfbench

type reject = Accepted | Lex_reject | Parse_reject | Type_reject | Crashed

type t = {
  reject : reject;
  tokens : int;
  tu : Cparse.Ast.tu option;  (** the parsed unit *)
  ir : Simcomp.Ir.program option;  (** the lowered, optimized IR *)
  ir_size : int;
  spills : int;
  changes : (string * int) list;  (** per executed optimizer pass *)
}

let rejected ?tu reject tokens =
  { reject; tokens; tu; ir = None; ir_size = 0; spills = 0; changes = [] }

(* [full] mirrors [Compiler.compile]: text features, the bug-database
   checks at every stage boundary (a fired bug ends the compile), the
   arena's type table, and the back end.  Without it the stages mirror
   [Compiler.compile_ir] (as [Wrongcode.check_program] runs it): no text
   features, a fresh type table, only the wrong-code database, and no
   back end.  [cov] is passed to the stages that take one, as the
   fuzzers' compiles do. *)
let run sp ?cov ~full (opts : Simcomp.Compiler.options) src =
  let span name f = Spans.with_ sp name f in
  let compiler = Simcomp.Compiler.Gcc and opt_level = opts.Simcomp.Compiler.opt_level in
  let lexed =
    span "cparse.lexer.tokenize" (fun () ->
        match Cparse.Lexer.tokenize src with
        | toks -> Some toks
        | exception Cparse.Lexer.Error _ -> None)
  in
  match lexed with
  | None -> rejected Lex_reject 0
  | Some toks -> (
    let tokens = Array.length toks in
    let parsed =
      span "cparse.parser.parse" (fun () ->
          match Cparse.Parser.parse_tokens toks with
          | tu -> Some tu
          | exception (Cparse.Parser.Error _ | Stack_overflow) -> None)
    in
    match parsed with
    | None -> rejected Parse_reject tokens
    | Some tu -> (
      let tx =
        if full then Some (span "simcomp.features.text" (fun () -> Simcomp.Features.text_features src))
        else None
      in
      let ast = span "simcomp.features.ast" (fun () -> Simcomp.Features.ast_features tu) in
      let check ?executed stage =
        Option.iter
          (fun tx ->
            span "simcomp.bugdb.check" (fun () ->
                Simcomp.Bugdb.check ~compiler ~stage ~opt_level ?executed ~tx ~ast:(Some ast) ()))
          tx
      in
      try
        check Simcomp.Crash.Front_end;
        let types = if full then Some (Simcomp.Scratch.get ()).Simcomp.Scratch.types else None in
        let tc = span "cparse.typecheck.check" (fun () -> Cparse.Typecheck.check ?types tu) in
        if not tc.Cparse.Typecheck.r_ok then rejected ~tu Type_reject tokens
        else begin
          let prog = span "simcomp.lower.lower" (fun () -> Simcomp.Lower.lower_tu ?cov tu tc) in
          check Simcomp.Crash.Ir_gen;
          let ir_size = Simcomp.Ir.program_size prog in
          ignore
            (span "simcomp.bugdb.check" (fun () ->
                 Simcomp.Bugdb.check_miscompile ~compiler ~opt_level
                   ~pipeline:(Simcomp.Compiler.pipeline_of opts) ~ast));
          let instrument (pass : Simcomp.Opt.pass) execute =
            span ("simcomp.opt." ^ pass.Simcomp.Opt.pass_name) execute
          in
          let changes =
            Simcomp.Opt.run_pipeline ?cov ~instrument ?pass_list:opts.pass_list ~level:opt_level
              ~disabled:opts.disabled_passes prog
          in
          let executed = List.map fst changes in
          if full then
            span "simcomp.bugdb.check" (fun () -> Simcomp.Bugdb.check_passes ~compiler ~executed ~ast);
          check ~executed Simcomp.Crash.Optimization;
          let spills =
            if full then snd (span "simcomp.backend.emit" (fun () -> Simcomp.Backend.emit_program ?cov prog))
            else 0
          in
          check Simcomp.Crash.Back_end;
          { reject = Accepted; tokens; tu = Some tu; ir = Some prog; ir_size; spills; changes }
        end
      with Simcomp.Crash.Compiler_crash _ -> rejected ~tu Crashed tokens))

(* [t] without the tree and the IR, for keeping many of them. *)
let summary t = { t with tu = None; ir = None }

(* The span names [run] records, i.e. the stage totals that reconcile
   with a whole compile. *)
let names ~full =
  [ "cparse.lexer.tokenize"; "cparse.parser.parse"; "simcomp.features.ast"; "cparse.typecheck.check";
    "simcomp.lower.lower"; "simcomp.bugdb.check" ]
  @ List.map (fun p -> "simcomp.opt." ^ p) Spec.opt_passes
  @ if full then [ "simcomp.features.text"; "simcomp.backend.emit" ] else []
