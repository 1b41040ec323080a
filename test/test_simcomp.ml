(* Tests for the simulated compiler: coverage, feature extraction, IR
   lowering, optimizer passes, back-end, the reference interpreter, the
   bug database, and the end-to-end pipeline. *)

open Cparse

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let parse src =
  match Parser.parse src with
  | Ok tu -> tu
  | Error e -> Alcotest.failf "parse failed: %s" e

let run_src src =
  match Simcomp.Interp.run_src src with
  | Ok o -> o
  | Error e -> Alcotest.failf "interp parse failed: %s" e

let exit_of src = (run_src src).Simcomp.Interp.o_exit
let output_of src = (run_src src).Simcomp.Interp.o_output

(* ------------------------------------------------------------------ *)
(* Coverage                                                            *)
(* ------------------------------------------------------------------ *)

let coverage_tests =
  [
    tc "hit and covered" (fun () ->
        let c = Simcomp.Coverage.create () in
        Simcomp.Coverage.hit c 1;
        Simcomp.Coverage.hit c 1;
        Simcomp.Coverage.hit c 2;
        check Alcotest.int "covered" 2 (Simcomp.Coverage.covered c);
        check Alcotest.int "hits" 3 (Simcomp.Coverage.total_hits c));
    tc "equal compares hits, distinct count, and the map" (fun () ->
        let a = Simcomp.Coverage.create () in
        let b = Simcomp.Coverage.create () in
        check Alcotest.bool "fresh maps equal" true (Simcomp.Coverage.equal a b);
        Simcomp.Coverage.hit a 7;
        check Alcotest.bool "diverged" false (Simcomp.Coverage.equal a b);
        Simcomp.Coverage.hit b 7;
        check Alcotest.bool "re-converged" true (Simcomp.Coverage.equal a b);
        (* same branch set, different hit counts: still unequal *)
        Simcomp.Coverage.hit a 7;
        check Alcotest.bool "hit counts matter" false
          (Simcomp.Coverage.equal a b));
    tc "merge counts fresh branches" (fun () ->
        let a = Simcomp.Coverage.create () in
        let b = Simcomp.Coverage.create () in
        Simcomp.Coverage.hit a 1;
        Simcomp.Coverage.hit b 1;
        Simcomp.Coverage.hit b 2;
        let fresh = Simcomp.Coverage.merge ~into:a b in
        check Alcotest.int "fresh" 1 fresh;
        check Alcotest.int "covered" 2 (Simcomp.Coverage.covered a));
    tc "has_new_coverage" (fun () ->
        let seen = Simcomp.Coverage.create () in
        let x = Simcomp.Coverage.create () in
        Simcomp.Coverage.hit seen 1;
        Simcomp.Coverage.hit x 1;
        check Alcotest.bool "no new" false
          (Simcomp.Coverage.has_new_coverage ~seen x);
        Simcomp.Coverage.hit x 99;
        check Alcotest.bool "new" true
          (Simcomp.Coverage.has_new_coverage ~seen x));
    tc "ids are bounded by the map size" (fun () ->
        let c = Simcomp.Coverage.create () in
        Simcomp.Coverage.hit c (Simcomp.Coverage.map_size + 5);
        check Alcotest.bool "wrapped" true
          (List.for_all
             (fun id -> id < Simcomp.Coverage.map_size)
             (Simcomp.Coverage.branch_ids c)));
    tc "merge is idempotent on same map" (fun () ->
        let a = Simcomp.Coverage.create () in
        Simcomp.Coverage.hit a 3;
        let b = Simcomp.Coverage.copy a in
        let fresh = Simcomp.Coverage.merge ~into:a b in
        check Alcotest.int "no fresh" 0 fresh);
  ]

(* Differential pin of the bitmap against the previous Hashtbl
   representation: the AFL-style edge map must report the same covered
   counts, fresh-branch counts, has-new verdicts, total hits, and id
   sets as the reference for any event stream, so coverage-guided
   acceptance decisions are unchanged by the representation swap. *)
module Ref_cov = struct
  type t = { map : (int, int) Hashtbl.t; mutable hits : int }

  let create () = { map = Hashtbl.create 64; hits = 0 }

  let hit cov id =
    let id = id land (Simcomp.Coverage.map_size - 1) in
    cov.hits <- cov.hits + 1;
    match Hashtbl.find_opt cov.map id with
    | Some n -> Hashtbl.replace cov.map id (n + 1)
    | None -> Hashtbl.replace cov.map id 1

  let covered c = Hashtbl.length c.map
  let ids c = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) c.map [])

  let merge ~into:dst src =
    let fresh = ref 0 in
    Hashtbl.iter
      (fun k v ->
        match Hashtbl.find_opt dst.map k with
        | Some n -> Hashtbl.replace dst.map k (n + v)
        | None ->
          incr fresh;
          Hashtbl.replace dst.map k v)
      src.map;
    dst.hits <- dst.hits + src.hits;
    !fresh

  let has_new ~seen src =
    Hashtbl.fold
      (fun k _ acc -> acc || not (Hashtbl.mem seen.map k))
      src.map false
end

(* A randomized id stream: a mix of small ids (forced collisions), full
   range ids, and out-of-range ids (wrap-around). *)
let random_ids rng n =
  List.init n (fun _ ->
      match Rng.int rng 3 with
      | 0 -> Rng.int rng 64
      | 1 -> Rng.int rng Simcomp.Coverage.map_size
      | _ -> Rng.int rng (8 * Simcomp.Coverage.map_size))

(* A dense reference: one plain count per cell, saturating at 255 like
   the byte map, scanned in full by every query.  It pins the sparse
   touched-cell list against the obvious definition of each operation. *)
module Dense_cov = struct
  let size = Simcomp.Coverage.map_size

  type t = { counts : int array; mutable hits : int }

  let create () = { counts = Array.make size 0; hits = 0 }

  let hit m id =
    let i = id land (size - 1) in
    m.hits <- m.hits + 1;
    m.counts.(i) <- min 255 (m.counts.(i) + 1)

  let merge ~into src =
    let fresh = ref 0 in
    for i = 0 to size - 1 do
      let s = src.counts.(i) in
      if s > 0 then begin
        if into.counts.(i) = 0 then incr fresh;
        into.counts.(i) <- min 255 (into.counts.(i) + s)
      end
    done;
    into.hits <- into.hits + src.hits;
    !fresh

  let reset m =
    Array.fill m.counts 0 size 0;
    m.hits <- 0

  let blit ~src dst =
    Array.blit src.counts 0 dst.counts 0 size;
    dst.hits <- src.hits

  let ids m =
    let acc = ref [] in
    for i = size - 1 downto 0 do
      if m.counts.(i) > 0 then acc := i :: !acc
    done;
    !acc

  let has_new ~seen src =
    let found = ref false in
    for i = 0 to size - 1 do
      if src.counts.(i) > 0 && seen.counts.(i) = 0 then found := true
    done;
    !found
end

let bitmap_differential_tests =
  [
    tc "hit/covered/hits/ids match the Hashtbl reference" (fun () ->
        let rng = Rng.create 2024 in
        for _round = 1 to 20 do
          let bm = Simcomp.Coverage.create () and rf = Ref_cov.create () in
          let ids = random_ids rng (1 + Rng.int rng 400) in
          List.iter
            (fun id ->
              Simcomp.Coverage.hit bm id;
              Ref_cov.hit rf id)
            ids;
          check Alcotest.int "covered" (Ref_cov.covered rf)
            (Simcomp.Coverage.covered bm);
          check Alcotest.int "hits" rf.Ref_cov.hits
            (Simcomp.Coverage.total_hits bm);
          check
            Alcotest.(list int)
            "id sets" (Ref_cov.ids rf)
            (Simcomp.Coverage.branch_ids bm)
        done);
    tc "merge fresh counts and has_new match the reference" (fun () ->
        let rng = Rng.create 4242 in
        let bm_acc = Simcomp.Coverage.create () in
        let rf_acc = Ref_cov.create () in
        for _round = 1 to 40 do
          let bm = Simcomp.Coverage.create () and rf = Ref_cov.create () in
          List.iter
            (fun id ->
              Simcomp.Coverage.hit bm id;
              Ref_cov.hit rf id)
            (random_ids rng (Rng.int rng 120));
          check Alcotest.bool "has_new"
            (Ref_cov.has_new ~seen:rf_acc rf)
            (Simcomp.Coverage.has_new_coverage ~seen:bm_acc bm);
          let rf_fresh = Ref_cov.merge ~into:rf_acc rf in
          let bm_fresh = Simcomp.Coverage.merge ~into:bm_acc bm in
          check Alcotest.int "fresh" rf_fresh bm_fresh;
          check Alcotest.int "accumulated covered" (Ref_cov.covered rf_acc)
            (Simcomp.Coverage.covered bm_acc);
          check Alcotest.int "accumulated hits" rf_acc.Ref_cov.hits
            (Simcomp.Coverage.total_hits bm_acc)
        done);
    tc "coverage-guided accept decisions identical to the reference"
      (fun () ->
        (* Algorithm 1's accept test, run side by side: for the same RNG
           seed the two representations must accept/reject the exact
           same mutants *)
        let rng = Rng.create 77 in
        let bm_pool = Simcomp.Coverage.create () in
        let rf_pool = Ref_cov.create () in
        let decisions = ref [] in
        for _mutant = 1 to 300 do
          let ids = random_ids rng (Rng.int rng 60) in
          let bm = Simcomp.Coverage.create () and rf = Ref_cov.create () in
          List.iter
            (fun id ->
              Simcomp.Coverage.hit bm id;
              Ref_cov.hit rf id)
            ids;
          (* old API shape: has_new, then merge *)
          let rf_accept = Ref_cov.has_new ~seen:rf_pool rf in
          ignore (Ref_cov.merge ~into:rf_pool rf);
          (* new API shape: single merge, fresh count is the signal *)
          let bm_accept = Simcomp.Coverage.merge ~into:bm_pool bm > 0 in
          decisions := (rf_accept, bm_accept) :: !decisions
        done;
        check Alcotest.bool "some accepts and some rejects" true
          (List.exists (fun (a, _) -> a) !decisions
          && List.exists (fun (a, _) -> not a) !decisions);
        List.iter
          (fun (rf_accept, bm_accept) ->
            check Alcotest.bool "same decision" rf_accept bm_accept)
          !decisions);
    tc "reset zeroes in place and copy is independent" (fun () ->
        let c = Simcomp.Coverage.create () in
        List.iter (Simcomp.Coverage.hit c) [ 1; 2; 3; 1 ];
        let d = Simcomp.Coverage.copy c in
        Simcomp.Coverage.reset c;
        check Alcotest.int "reset covered" 0 (Simcomp.Coverage.covered c);
        check Alcotest.int "reset hits" 0 (Simcomp.Coverage.total_hits c);
        check Alcotest.(list int) "reset ids" [] (Simcomp.Coverage.branch_ids c);
        check Alcotest.int "copy survives" 3 (Simcomp.Coverage.covered d);
        check Alcotest.int "copy hits" 4 (Simcomp.Coverage.total_hits d);
        (* a reset map accepts hits again *)
        Simcomp.Coverage.hit c 9;
        check Alcotest.int "after reset" 1 (Simcomp.Coverage.covered c));
    tc "per-cell counters saturate without losing distinctness" (fun () ->
        let c = Simcomp.Coverage.create () in
        for _ = 1 to 1000 do
          Simcomp.Coverage.hit c 5
        done;
        check Alcotest.int "one branch" 1 (Simcomp.Coverage.covered c);
        check Alcotest.int "exact hits" 1000 (Simcomp.Coverage.total_hits c);
        (* saturated cells still merge correctly *)
        let d = Simcomp.Coverage.create () in
        Simcomp.Coverage.hit d 5;
        check Alcotest.int "no fresh" 0 (Simcomp.Coverage.merge ~into:c d));
    tc "random operation sequences match the dense reference" (fun () ->
        let module C = Simcomp.Coverage in
        let rng = Rng.create 1414 in
        let n = 3 in
        let maps = Array.init n (fun _ -> C.create ()) in
        let models = Array.init n (fun _ -> Dense_cov.create ()) in
        let agree step k =
          let what s = Fmt.str "op %d, map %d: %s" step k s in
          let m = maps.(k) and r = models.(k) in
          let ids = Dense_cov.ids r in
          check Alcotest.int (what "covered") (List.length ids) (C.covered m);
          check Alcotest.int (what "hits") r.Dense_cov.hits (C.total_hits m);
          check Alcotest.(list int) (what "branch_ids") ids (C.branch_ids m);
          let seen = ref [] in
          C.iter_nonzero m (fun i -> seen := i :: !seen);
          check Alcotest.(list int) (what "iter_nonzero order") ids
            (List.rev !seen);
          if r.Dense_cov.hits = 0 && ids = [] then
            check Alcotest.bool (what "pristine") true
              (C.equal m (C.create ()))
        in
        let two () =
          let a = Rng.int rng n in
          (a, (a + 1 + Rng.int rng (n - 1)) mod n)
        in
        for step = 1 to 120 do
          let touched =
            match Rng.int rng 10 with
            | 0 | 1 | 2 ->
              let a = Rng.int rng n in
              List.iter
                (fun id ->
                  C.hit maps.(a) id;
                  Dense_cov.hit models.(a) id)
                (random_ids rng (1 + Rng.int rng 80));
              [ a ]
            | 3 ->
              (* drive one cell past the 8-bit counter *)
              let a = Rng.int rng n and id = Rng.int rng 64 in
              for _ = 1 to 200 + Rng.int rng 200 do
                C.hit maps.(a) id;
                Dense_cov.hit models.(a) id
              done;
              [ a ]
            | 4 | 5 ->
              let a, b = two () in
              check Alcotest.bool "has_new"
                (Dense_cov.has_new ~seen:models.(b) models.(a))
                (C.has_new_coverage ~seen:maps.(b) maps.(a));
              check Alcotest.int "merge fresh"
                (Dense_cov.merge ~into:models.(b) models.(a))
                (C.merge ~into:maps.(b) maps.(a));
              [ a; b ]
            | 6 ->
              let a, b = two () in
              check Alcotest.int "merge_consume fresh"
                (Dense_cov.merge ~into:models.(b) models.(a))
                (C.merge_consume ~into:maps.(b) maps.(a));
              Dense_cov.reset models.(a);
              [ a; b ]
            | 7 ->
              let a = Rng.int rng n in
              C.drain maps.(a);
              Dense_cov.reset models.(a);
              [ a ]
            | 8 ->
              let a = Rng.int rng n in
              C.reset maps.(a);
              Dense_cov.reset models.(a);
              [ a ]
            | _ ->
              let a, b = two () in
              maps.(b) <- C.copy maps.(a);
              Dense_cov.blit ~src:models.(a) models.(b);
              check Alcotest.bool "copy is equal" true
                (C.equal maps.(a) maps.(b));
              [ b ]
          in
          List.iter (agree step) touched
        done;
        for a = 0 to n - 1 do
          for b = 0 to n - 1 do
            check Alcotest.bool "equal iff the references agree"
              (models.(a) = models.(b))
              (C.equal maps.(a) maps.(b))
          done
        done);
    tc "a scratch map cycled through compile and merge_consume stays pristine"
      (fun () ->
        let rng = Rng.create 31 in
        let seeds =
          List.filter_map Fuzzing.Seeds.of_template Fuzzing.Seeds.templates
        in
        let srcs =
          Array.of_list (seeds @ List.map (Fuzzing.Fragility.corrupt rng) seeds)
        in
        let scratch = Simcomp.Coverage.create () in
        let pool = Simcomp.Coverage.create () in
        for round = 0 to 999 do
          let compiler =
            if round mod 2 = 0 then Simcomp.Compiler.Gcc
            else Simcomp.Compiler.Clang
          in
          ignore
            (Simcomp.Compiler.compile ~cov:scratch compiler
               {
                 Simcomp.Compiler.default_options with
                 opt_level = round mod 4;
               }
               srcs.(round mod Array.length srcs));
          ignore (Simcomp.Coverage.merge_consume ~into:pool scratch)
        done;
        check Alcotest.bool "pool gained coverage" true
          (Simcomp.Coverage.covered pool > 500);
        check Alcotest.bool "scratch equals a fresh map" true
          (Simcomp.Coverage.equal scratch (Simcomp.Coverage.create ())));
    tc "hit allocates no minor words once warm" (fun () ->
        let c = Simcomp.Coverage.create () in
        let run () =
          for i = 0 to 99_999 do
            Simcomp.Coverage.hit c (i * 7919)
          done
        in
        (* the first pass grows the touched-cell list *)
        run ();
        Simcomp.Coverage.reset c;
        let before = Gc.minor_words () in
        run ();
        run ();
        let after = Gc.minor_words () in
        check (Alcotest.float 0.) "minor words" 0. (after -. before));
  ]

(* ------------------------------------------------------------------ *)
(* Feature extraction                                                  *)
(* ------------------------------------------------------------------ *)

let feat src = Simcomp.Features.ast_features (parse src)

let feature_tests =
  [
    tc "counts functions, loops, ifs" (fun () ->
        let a =
          feat
            "int f(void) { if (1) return 1; return 0; }\n\
             int main(void) { while (0) ; for (;;) break; return f(); }"
        in
        check Alcotest.int "functions" 2 a.Simcomp.Features.n_functions;
        check Alcotest.int "ifs" 1 a.n_ifs;
        check Alcotest.int "loops" 2 a.n_loops);
    tc "const and volatile qualifiers" (fun () ->
        let a = feat "int main(void) { const int c = 1; volatile int v = 2; return c + v; }" in
        check Alcotest.bool "const" true a.Simcomp.Features.has_const_qual;
        check Alcotest.bool "volatile" true a.has_volatile_qual);
    tc "sprintf-to-self detection" (fun () ->
        let a =
          feat
            "char buffer[32];\n\
             int main(void) { return sprintf(buffer, \"%s\", buffer); }"
        in
        check Alcotest.bool "self" true a.Simcomp.Features.has_sprintf_self);
    tc "sprintf to other is not self" (fun () ->
        let a =
          feat
            "char buffer[32];\n\
             int main(void) { return sprintf(buffer, \"%s\", \"bar\"); }"
        in
        check Alcotest.bool "not self" false a.Simcomp.Features.has_sprintf_self);
    tc "void function with labels and no returns" (fun () ->
        let a =
          feat
            "void foo(int x) { if (x) goto a; if (x > 1) goto b; a: ; b: ; }\n\
             int main(void) { foo(1); return 0; }"
        in
        check Alcotest.bool "labels-no-return" true
          a.Simcomp.Features.has_labels_no_return;
        check Alcotest.bool "void-with-labels" true a.has_void_fn_with_labels);
    tc "zero-init decreasing loop (GCC #111820 shape)" (fun () ->
        let a =
          feat
            "int r;\nvoid f(void) { int n = 0; while (--n) { r += 1; } }\n\
             int main(void) { return 0; }"
        in
        check Alcotest.bool "shape" true
          a.Simcomp.Features.has_zero_init_decreasing_loop);
    tc "accumulation chain" (fun () ->
        let a =
          feat
            "int r[6];\n\
             void f(void) { r[1] += r[0]; r[2] += r[1]; r[3] += r[2]; }\n\
             int main(void) { return 0; }"
        in
        check Alcotest.bool "chain" true a.Simcomp.Features.has_scalar_accum_chain);
    tc "compound literal and struct cast (Clang #69213 shape)" (fun () ->
        let a =
          feat
            "struct s2 { int a; int b; };\n\
             int main(void) { struct s2 v; v = (struct s2){1, 2}; return v.a; }"
        in
        check Alcotest.bool "compound" true a.Simcomp.Features.has_compound_literal;
        check Alcotest.bool "struct cast" true a.has_struct_cast);
    tc "pointer arith cast chain (GCC #111819 shape)" (fun () ->
        let a =
          feat
            "long long combinedVar;\n\
             double *bar(void) { return (double *)((char *)&combinedVar + 8); }\n\
             int main(void) { return 0; }"
        in
        check Alcotest.bool "chain" true
          a.Simcomp.Features.has_ptr_arith_cast_chain);
    tc "fallthrough detection" (fun () ->
        let a =
          feat
            "int main(void) { int r = 0; switch (r) { case 0: r = 1; case 1: \
             r = 2; break; } return r; }"
        in
        check Alcotest.bool "fallthrough" true a.Simcomp.Features.has_fallthrough);
    tc "shift overflow" (fun () ->
        let a = feat "int main(void) { int x = 1; return x << 40; }" in
        check Alcotest.bool "overflow" true a.Simcomp.Features.has_shift_overflow);
    tc "division by literal zero" (fun () ->
        let a = feat "int main(void) { int x = 4; return x / 0; }" in
        check Alcotest.bool "div0" true a.Simcomp.Features.has_div_by_literal_zero);
    tc "uninitialised use" (fun () ->
        let a = feat "int main(void) { int x; return x + 1; }" in
        check Alcotest.bool "uninit" true a.Simcomp.Features.has_uninit_use);
    tc "initialised use is fine" (fun () ->
        let a = feat "int main(void) { int x = 0; return x + 1; }" in
        check Alcotest.bool "no uninit" false a.Simcomp.Features.has_uninit_use);
    tc "recursion" (fun () ->
        let a =
          feat "int f(int n) { return n ? f(n - 1) : 0; }\nint main(void) { return f(3); }"
        in
        check Alcotest.bool "recursion" true a.Simcomp.Features.has_recursion);
    tc "loop depth" (fun () ->
        let a =
          feat
            "int main(void) { for (;;) { for (;;) { for (;;) break; break; } \
             break; } return 0; }"
        in
        check Alcotest.int "depth" 3 a.Simcomp.Features.max_loop_depth);
    tc "cast chain depth" (fun () ->
        let a = feat "int main(void) { return (int)(char)(long)1; }" in
        check Alcotest.int "chain" 3 a.Simcomp.Features.max_cast_chain);
    tc "text features" (fun () ->
        let tx =
          Simcomp.Features.text_features "int aaaaaaaaaaaaaaaaaaaa; ((((("
        in
        check Alcotest.int "ident" 20 tx.Simcomp.Features.tx_max_ident_len;
        check Alcotest.int "paren depth" 5 tx.tx_paren_depth;
        check Alcotest.bool "no ctrl" false tx.tx_has_control_chars);
    tc "text features on binary garbage" (fun () ->
        let tx = Simcomp.Features.text_features "\x01\x02\"abc" in
        check Alcotest.bool "ctrl" true tx.Simcomp.Features.tx_has_control_chars;
        check Alcotest.bool "quote imbalance" true tx.tx_quote_imbalance);
  ]

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)
(* ------------------------------------------------------------------ *)

let interp_tests =
  [
    tc "arithmetic and return" (fun () ->
        check Alcotest.int "6*7" 42 (exit_of "int main(void) { return 6 * 7; }"));
    tc "factorial via loop" (fun () ->
        check Alcotest.int "5!" 120
          (exit_of
             "int main(void) { int f = 1; for (int i = 1; i <= 5; i++) f = f \
              * i; return f; }"));
    tc "recursion (fib)" (fun () ->
        check Alcotest.int "fib 10" 55
          (exit_of
             "int fib(int n) { if (n < 2) return n; return fib(n-1) + \
              fib(n-2); }\nint main(void) { return fib(10); }"));
    tc "switch fallthrough" (fun () ->
        check Alcotest.int "fallthrough" 21
          (exit_of
             "int main(void) { int r = 0; switch (2) { case 2: r = 20; case \
              3: r += 1; break; default: r = 9; } return r; }"));
    tc "switch default" (fun () ->
        check Alcotest.int "default" 9
          (exit_of
             "int main(void) { int r = 0; switch (77) { case 2: r = 1; \
              break; default: r = 9; } return r; }"));
    tc "goto forward and backward" (fun () ->
        check Alcotest.int "goto" 6
          (exit_of
             "int main(void) { int n = 3; int s = 0; top: if (n == 0) goto \
              done; s += n; n--; goto top; done: return s; }"));
    tc "break and continue" (fun () ->
        check Alcotest.int "sum odds < 8" 16
          (exit_of
             "int main(void) { int s = 0; for (int i = 0; i < 100; i++) { if \
              (i >= 8) break; if (i % 2 == 0) continue; s += i; } return s; }"));
    tc "arrays" (fun () ->
        check Alcotest.int "array sum" 30
          (exit_of
             "int main(void) { int a[3]; a[0] = 4; a[1] = 10; a[2] = 16; \
              return a[0] + a[1] + a[2]; }"));
    tc "array out of bounds traps" (fun () ->
        let o = run_src "int main(void) { int a[2]; a[5] = 1; return 0; }" in
        check Alcotest.bool "aborted" true o.Simcomp.Interp.o_aborted);
    tc "structs" (fun () ->
        check Alcotest.int "fields" 7
          (exit_of
             "struct p { int x; int y; };\n\
              int main(void) { struct p v; v.x = 3; v.y = 4; return v.x + \
              v.y; }"));
    tc "pointers" (fun () ->
        check Alcotest.int "through pointer" 9
          (exit_of
             "int main(void) { int x = 1; int *p = &x; *p = 9; return x; }"));
    tc "struct pointer arrow" (fun () ->
        check Alcotest.int "arrow" 5
          (exit_of
             "struct p { int x; };\n\
              void set(struct p *q) { q->x = 5; }\n\
              int main(void) { struct p v; set(&v); return v.x; }"));
    tc "printf output" (fun () ->
        check Alcotest.string "hello" "hello 42\n"
          (output_of {|int main(void) { printf("hello %d\n", 42); return 0; }|}));
    tc "sprintf + strlen" (fun () ->
        check Alcotest.int "len" 3
          (exit_of
             {|char buffer[32];
int main(void) { return sprintf(buffer, "%s", "bar"); }|}));
    tc "strcpy into buffer" (fun () ->
        check Alcotest.string "copied" "hello\n"
          (output_of
             {|int main(void) { char b[16]; strcpy(b, "hello"); puts(b); return 0; }|}));
    tc "division by zero aborts" (fun () ->
        let o = run_src "int main(void) { int z = 0; return 4 / z; }" in
        check Alcotest.bool "aborted" true o.Simcomp.Interp.o_aborted);
    tc "abort() aborts" (fun () ->
        let o = run_src "int main(void) { abort(); return 0; }" in
        check Alcotest.bool "aborted" true o.Simcomp.Interp.o_aborted);
    tc "exit() sets code" (fun () ->
        check Alcotest.int "code" 3 (exit_of "int main(void) { exit(3); return 0; }"));
    tc "infinite loop runs out of fuel" (fun () ->
        let o = run_src "int main(void) { while (1) ; return 0; }" in
        check Alcotest.bool "hang" true o.Simcomp.Interp.o_hang;
        check Alcotest.bool "not a stack overflow" false
          o.Simcomp.Interp.o_stack_overflow);
    tc "runaway recursion is a stack overflow, not a hang" (fun () ->
        let o =
          run_src
            "int f(int n) { return f(n + 1); }\n\
             int main(void) { return f(0); }"
        in
        check Alcotest.bool "stack overflow" true
          o.Simcomp.Interp.o_stack_overflow;
        check Alcotest.bool "distinct from fuel exhaustion" false
          o.Simcomp.Interp.o_hang;
        check Alcotest.bool "not an abort" false o.Simcomp.Interp.o_aborted;
        check Alcotest.int "sigsegv exit" 139 o.Simcomp.Interp.o_exit);
    tc "bounded recursion stays under the depth limit" (fun () ->
        check Alcotest.int "5050 mod 256" 186
          (exit_of
             "int f(int n) { if (n == 0) return 0; return n + f(n - 1); }\n\
              int main(void) { return f(100) % 256; }"));
    tc "ternary and comma" (fun () ->
        check Alcotest.int "value" 11
          (exit_of "int main(void) { int x = (1, 2); return x > 1 ? 11 : 22; }"));
    tc "float arithmetic" (fun () ->
        check Alcotest.int "cast back" 3
          (exit_of "int main(void) { double d = 1.5; return (int)(d * 2.0); }"));
    tc "char truncation" (fun () ->
        check Alcotest.int "(char)257" 1
          (exit_of "int main(void) { return (char)257; }"));
    tc "do-while runs at least once" (fun () ->
        check Alcotest.int "once" 1
          (exit_of "int main(void) { int n = 0; do n++; while (0); return n; }"));
    tc "global initialisation order" (fun () ->
        check Alcotest.int "init" 7
          (exit_of "int g = 7;\nint main(void) { return g; }"));
    tc "small generated seeds terminate" (fun () ->
        (* bounded loops terminate; deep configurations can still be
           exponentially expensive (calls nested in loops), so strict
           termination is asserted on a small configuration *)
        let cfg =
          { Ast_gen.default_config with max_functions = 2; max_depth = 2;
            call_weight = 1 }
        in
        let rng = Rng.create 202 in
        for _ = 1 to 30 do
          let tu = Ast_gen.gen_tu ~cfg rng in
          let o = Simcomp.Interp.run ~fuel:5_000_000 tu in
          check Alcotest.bool "no hang" false o.Simcomp.Interp.o_hang
        done);
    tc "interpreter outcome is deterministic" (fun () ->
        let rng = Rng.create 203 in
        for _ = 1 to 10 do
          let tu = Ast_gen.gen_tu rng in
          let o1 = Simcomp.Interp.run ~fuel:100_000 tu in
          let o2 = Simcomp.Interp.run ~fuel:100_000 tu in
          check Alcotest.int "same exit" o1.Simcomp.Interp.o_exit
            o2.Simcomp.Interp.o_exit;
          check Alcotest.string "same output" o1.Simcomp.Interp.o_output
            o2.Simcomp.Interp.o_output
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Lowering and IR                                                     *)
(* ------------------------------------------------------------------ *)

let lower src =
  let tu = parse src in
  let tc_res = Typecheck.check tu in
  Simcomp.Lower.lower_tu tu tc_res

let ir_tests =
  [
    tc "lowering produces a function per definition" (fun () ->
        let p = lower "int f(void) { return 1; }\nint main(void) { return f(); }" in
        check Alcotest.int "functions" 2 (List.length p.Simcomp.Ir.p_funcs));
    tc "terminators always defined on reachable blocks" (fun () ->
        let p =
          lower
            "int main(void) { int x = 0; if (x) x = 1; else x = 2; while (x) \
             x--; return x; }"
        in
        List.iter
          (fun f ->
            match f.Simcomp.Ir.fn_blocks with
            | entry :: _ ->
              (* entry must not be unreachable-terminated *)
              check Alcotest.bool "entry terminated" true
                (entry.Simcomp.Ir.b_term <> Simcomp.Ir.Tunreachable
                || entry.b_instrs = [])
            | [] -> Alcotest.fail "no blocks")
          p.Simcomp.Ir.p_funcs);
    tc "successors reference existing blocks" (fun () ->
        let p =
          lower
            "int main(void) { int s = 0; for (int i = 0; i < 3; i++) { if (i) \
             s += i; } switch (s) { case 1: break; default: break; } return s; }"
        in
        List.iter
          (fun f ->
            List.iter
              (fun b ->
                List.iter
                  (fun l ->
                    check Alcotest.bool "target exists" true
                      (Simcomp.Ir.block_of f l <> None))
                  (Simcomp.Ir.successors b.Simcomp.Ir.b_term))
              f.Simcomp.Ir.fn_blocks)
          p.Simcomp.Ir.p_funcs);
    tc "globals become slots" (fun () ->
        let p = lower "int g = 5;\nint a[4];\nint main(void) { return g; }" in
        let names = List.map (fun s -> s.Simcomp.Ir.g_name) p.Simcomp.Ir.p_globals in
        check Alcotest.bool "g" true (List.mem "g" names);
        check Alcotest.bool "a" true (List.mem "a" names));
    tc "ir printing is total" (fun () ->
        let p =
          lower
            "int main(void) { int x = 1; x += 2; x = x * 3 - 1; return x; }"
        in
        check Alcotest.bool "nonempty" true
          (String.length (Simcomp.Ir.program_to_string p) > 0));
    tc "program_size counts instructions" (fun () ->
        let p = lower "int main(void) { return 1 + 2; }" in
        check Alcotest.bool "positive" true (Simcomp.Ir.program_size p > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Optimizer                                                           *)
(* ------------------------------------------------------------------ *)

let opt_tests =
  [
    tc "const folding fires on constant arithmetic" (fun () ->
        let p = lower "int main(void) { return 2 + 3 * 4; }" in
        let changes = Simcomp.Opt.const_fold_pass.Simcomp.Opt.run p in
        check Alcotest.bool "changed" true (changes > 0));
    tc "const folding turns constant branches into jumps" (fun () ->
        let p = lower "int main(void) { if (1 < 2) return 1; return 0; }" in
        ignore (Simcomp.Opt.const_fold_pass.Simcomp.Opt.run p);
        let has_cond_br = ref false in
        List.iter
          (fun f ->
            List.iter
              (fun b ->
                match b.Simcomp.Ir.b_term with
                | Simcomp.Ir.Tbr _ -> has_cond_br := true
                | _ -> ())
              f.Simcomp.Ir.fn_blocks)
          p.Simcomp.Ir.p_funcs;
        check Alcotest.bool "no conditional branch left" false !has_cond_br);
    tc "simplify-cfg removes unreachable blocks" (fun () ->
        let p = lower "int main(void) { return 1; int x = 2; return x; }" in
        ignore (Simcomp.Opt.const_fold_pass.Simcomp.Opt.run p);
        let before = List.length (List.hd p.Simcomp.Ir.p_funcs).Simcomp.Ir.fn_blocks in
        ignore (Simcomp.Opt.simplify_cfg_pass.Simcomp.Opt.run p);
        let after = List.length (List.hd p.Simcomp.Ir.p_funcs).Simcomp.Ir.fn_blocks in
        check Alcotest.bool "fewer blocks" true (after <= before));
    tc "dce removes instructions made dead by folding" (fun () ->
        let p = lower "int main(void) { int unused = 1 + 2; return 7; }" in
        ignore (Simcomp.Opt.const_fold_pass.Simcomp.Opt.run p);
        let changes = Simcomp.Opt.dce_pass.Simcomp.Opt.run p in
        check Alcotest.bool "removed" true (changes > 0));
    tc "dce keeps calls" (fun () ->
        let p =
          lower
            "int g;\nint f(void) { g = 1; return 0; }\n\
             int main(void) { f(); return g; }"
        in
        ignore (Simcomp.Opt.dce_pass.Simcomp.Opt.run p);
        let has_call = ref false in
        List.iter
          (fun fn ->
            List.iter
              (fun b ->
                List.iter
                  (fun i ->
                    match i with Simcomp.Ir.Icall _ -> has_call := true | _ -> ())
                  b.Simcomp.Ir.b_instrs)
              fn.Simcomp.Ir.fn_blocks)
          p.Simcomp.Ir.p_funcs;
        check Alcotest.bool "call kept" true !has_call);
    tc "strlen pass rewrites sprintf" (fun () ->
        let p =
          lower
            {|char buffer[32];
int main(void) { return sprintf(buffer, "%s", "bar"); }|}
        in
        let changes = Simcomp.Opt.strlen_pass.Simcomp.Opt.run p in
        check Alcotest.bool "rewritten" true (changes > 0));
    tc "inline pass folds constant functions" (fun () ->
        let p =
          lower "int five(void) { return 5; }\nint main(void) { return five(); }"
        in
        (* fold and simplify first so five() is a single constant return *)
        ignore (Simcomp.Opt.const_fold_pass.Simcomp.Opt.run p);
        ignore (Simcomp.Opt.simplify_cfg_pass.Simcomp.Opt.run p);
        let changes = Simcomp.Opt.inline_pass.Simcomp.Opt.run p in
        check Alcotest.bool "inlined" true (changes > 0));
    tc "pipeline level ordering" (fun () ->
        check Alcotest.int "O0 empty" 0
          (List.length (Simcomp.Opt.passes_for_level 0));
        check Alcotest.bool "O3 superset of O1" true
          (List.length (Simcomp.Opt.passes_for_level 3)
          > List.length (Simcomp.Opt.passes_for_level 1)));
    tc "disabled passes are skipped" (fun () ->
        let p = lower "int main(void) { return 1 + 2; }" in
        let results =
          Simcomp.Opt.run_pipeline ~level:2 ~disabled:[ "constfold" ] p
        in
        check Alcotest.bool "no constfold" false
          (List.mem_assoc "constfold" results));
  ]

(* ------------------------------------------------------------------ *)
(* Backend                                                             *)
(* ------------------------------------------------------------------ *)

let backend_tests =
  [
    tc "emits assembly text" (fun () ->
        let p = lower "int main(void) { int x = 1; return x + 2; }" in
        let asm, _ = Simcomp.Backend.emit_program p in
        check Alcotest.bool "has main" true
          (String.length asm > 0
          && String.sub asm 0 5 = ".data"
          || String.length asm > 0));
    tc "register allocation stays within bounds" (fun () ->
        let p =
          lower
            "int main(void) { int a = 1; int b = 2; int c = 3; int d = 4; \
             return a + b + c + d; }"
        in
        List.iter
          (fun f ->
            let assignment, _ = Simcomp.Backend.regalloc f in
            List.iter
              (fun (_, phys) ->
                check Alcotest.bool "in range" true
                  (phys = -1 || (phys >= 0 && phys < Simcomp.Backend.phys_regs)))
              assignment)
          p.Simcomp.Ir.p_funcs);
    tc "spills appear under register pressure" (fun () ->
        let exprs =
          String.concat " + " (List.init 40 (fun i -> Fmt.str "(a + %d)" i))
        in
        let p = lower (Fmt.str "int main(void) { int a = 1; return %s; }" exprs) in
        let _, spills = Simcomp.Backend.emit_program p in
        check Alcotest.bool "spilled" true (spills >= 0));
    tc "dense switch uses a jump table" (fun () ->
        let p =
          lower
            "int main(void) { int x = 3; switch (x) { case 0: return 0; case \
             1: return 1; case 2: return 2; case 3: return 3; } return 9; }"
        in
        let asm, _ = Simcomp.Backend.emit_program p in
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        check Alcotest.bool "jtab" true (contains asm "jtab"));
  ]

(* ------------------------------------------------------------------ *)
(* Bug database and end-to-end pipeline                                *)
(* ------------------------------------------------------------------ *)

let compile ?(compiler = Simcomp.Compiler.Gcc) ?(opt = 2) src =
  Simcomp.Compiler.compile compiler
    { Simcomp.Compiler.default_options with opt_level = opt }
    src

let expect_crash ?compiler ?opt ~bug src =
  match compile ?compiler ?opt src with
  | Simcomp.Compiler.Crashed c ->
    check Alcotest.string "bug id" bug c.Simcomp.Crash.bug_id
  | Simcomp.Compiler.Compiled _ -> Alcotest.failf "compiled, expected %s" bug
  | Simcomp.Compiler.Compile_error es ->
    Alcotest.failf "compile error (%s), expected %s" (String.concat ";" es) bug

let bug_tests =
  [
    tc "clean seed compiles at every level" (fun () ->
        let src = Ast_gen.gen_source (Rng.create 42) in
        List.iter
          (fun opt ->
            match compile ~opt src with
            | Simcomp.Compiler.Compiled _ -> ()
            | _ -> Alcotest.failf "failed at -O%d" opt)
          [ 0; 1; 2; 3 ]);
    tc "GCC #111820 shape hangs the vectorizer at -O3" (fun () ->
        expect_crash ~opt:3 ~bug:"gcc-111820"
          "int r[6];\n\
           void f(void) {\n\
           \  int n = 0;\n\
           \  while (--n) { r[1] += r[0]; r[2] += r[1]; r[3] += r[2]; }\n\
           }\n\
           int main(void) { return 0; }");
    tc "GCC #111820 does not fire at -O2" (fun () ->
        match
          compile ~opt:2
            "int r[6];\n\
             void f(void) {\n\
             \  int n = 0;\n\
             \  while (--n) { r[1] += r[0]; r[2] += r[1]; r[3] += r[2]; }\n\
             }\n\
             int main(void) { return 0; }"
        with
        | Simcomp.Compiler.Crashed _ -> Alcotest.fail "fired too early"
        | _ -> ());
    tc "strlen-range crash needs const + sprintf-self" (fun () ->
        expect_crash ~opt:2 ~bug:"gcc-strlen-range"
          "static char buffer[32];\n\
           const char tag = 1;\n\
           int test4(void) { return sprintf(buffer, \"%s\", buffer); }\n\
           int main(void) { return test4(); }");
    tc "Clang #63762 shape crashes the back-end" (fun () ->
        expect_crash ~compiler:Simcomp.Compiler.Clang ~bug:"clang-63762"
          "void foo(int x, int y) {\n\
           \  abort();\n\
           \  if (x > y) goto gt;\n\
           \  goto lt;\n\
           gt: ;\n\
           lt: ;\n\
           }\n\
           int main(void) { foo(1, 2); return 0; }");
    tc "GCC does not have Clang's bugs" (fun () ->
        match
          compile ~compiler:Simcomp.Compiler.Gcc
            "void foo(int x, int y) {\n\
             \  abort();\n\
             \  if (x > y) goto gt;\n\
             \  goto lt;\n\
             gt: ;\n\
             lt: ;\n\
             }\n\
             int main(void) { foo(1, 2); return 0; }"
        with
        | Simcomp.Compiler.Crashed c ->
          check Alcotest.bool "different bug" false
            (String.equal c.Simcomp.Crash.bug_id "clang-63762")
        | _ -> ());
    tc "front-end text bug fires on unparseable input" (fun () ->
        let long_ident = String.make 80 'a' in
        match compile (Fmt.str "int %s(((((" long_ident) with
        | Simcomp.Compiler.Crashed c ->
          check Alcotest.string "stage" "Front-End"
            (Simcomp.Crash.stage_to_string c.Simcomp.Crash.stage)
        | _ -> Alcotest.fail "expected a front-end crash");
    tc "crash identity uses top two frames" (fun () ->
        let c =
          {
            Simcomp.Crash.bug_id = "x";
            stage = Simcomp.Crash.Front_end;
            kind = Simcomp.Crash.Segfault;
            frames = [ "report_error"; "a"; "b"; "c" ];
          }
        in
        check Alcotest.string "key skips helpers" "a|b"
          (Simcomp.Crash.unique_key c));
    tc "compile errors are not crashes" (fun () ->
        match compile "int main(void) { return nope; }" with
        | Simcomp.Compiler.Compile_error _ -> ()
        | _ -> Alcotest.fail "expected compile error");
    tc "parse errors are reported" (fun () ->
        match compile "int main(void) {" with
        | Simcomp.Compiler.Compile_error _ -> ()
        | _ -> Alcotest.fail "expected parse error");
    tc "coverage differs between compilers" (fun () ->
        let src = "int main(void) { return 1 + 2; }" in
        let cg = Simcomp.Coverage.create () in
        let cc = Simcomp.Coverage.create () in
        ignore (Simcomp.Compiler.compile ~cov:cg Simcomp.Compiler.Gcc
                  Simcomp.Compiler.default_options src);
        ignore (Simcomp.Compiler.compile ~cov:cc Simcomp.Compiler.Clang
                  Simcomp.Compiler.default_options src);
        check Alcotest.bool "salted ids differ" true
          (Simcomp.Coverage.has_new_coverage ~seen:cg cc));
    tc "compilation coverage is deterministic" (fun () ->
        let src = Ast_gen.gen_source (Rng.create 77) in
        let c1 = Simcomp.Coverage.create () in
        let c2 = Simcomp.Coverage.create () in
        ignore (Simcomp.Compiler.compile ~cov:c1 Simcomp.Compiler.Gcc
                  Simcomp.Compiler.default_options src);
        ignore (Simcomp.Compiler.compile ~cov:c2 Simcomp.Compiler.Gcc
                  Simcomp.Compiler.default_options src);
        check Alcotest.bool "same" false
          (Simcomp.Coverage.has_new_coverage ~seen:c1 c2);
        check Alcotest.int "same count"
          (Simcomp.Coverage.covered c1)
          (Simcomp.Coverage.covered c2));
    tc "random_options stays in range" (fun () ->
        let rng = Rng.create 3 in
        for _ = 1 to 50 do
          let o = Simcomp.Compiler.random_options rng in
          check Alcotest.bool "level" true
            (o.Simcomp.Compiler.opt_level >= 0 && o.opt_level <= 3)
        done);
    tc "triage is deterministic" (fun () ->
        let a = Simcomp.Bugdb.triage_of "gcc-111820" in
        let b = Simcomp.Bugdb.triage_of "gcc-111820" in
        check Alcotest.bool "equal" true (a = b));
    tc "bug database covers all stages for both compilers" (fun () ->
        List.iter
          (fun compiler ->
            let bugs = Simcomp.Bugdb.bugs_for compiler in
            List.iter
              (fun stage ->
                check Alcotest.bool
                  (Fmt.str "%s has %s bugs"
                     (Simcomp.Bugdb.compiler_to_string compiler)
                     (Simcomp.Crash.stage_to_string stage))
                  true
                  (List.exists (fun b -> b.Simcomp.Bugdb.stage = stage) bugs))
              Simcomp.Crash.[ Front_end; Ir_gen; Optimization; Back_end ])
          Simcomp.Bugdb.[ Gcc; Clang ]);
  ]

(* opt passes must preserve the observable behaviour of the program when
   the compiler succeeds: we compare the interpreter's verdict before and
   after the mutation-free pipeline on generated seeds (the passes run on
   IR; the check is that the pipeline at least never crashes or corrupts
   the IR structurally) *)
let pipeline_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pipeline is total on generated programs"
         ~count:60 QCheck.small_int
         (fun seed ->
           let src = Ast_gen.gen_source (Rng.create (seed + 501)) in
           match compile ~opt:3 src with
           | Simcomp.Compiler.Compiled _ -> true
           | Simcomp.Compiler.Compile_error _ -> false
           | Simcomp.Compiler.Crashed _ -> true (* latent bugs are legal *)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"optimizer never grows the program" ~count:40
         QCheck.small_int
         (fun seed ->
           let src = Ast_gen.gen_source (Rng.create (seed + 901)) in
           let tu = parse src in
           let tc_res = Typecheck.check tu in
           let p = Simcomp.Lower.lower_tu tu tc_res in
           let before = Simcomp.Ir.program_size p in
           ignore (Simcomp.Opt.run_pipeline ~level:2 ~disabled:[] p);
           Simcomp.Ir.program_size p <= before + 1));
  ]

(* ------------------------------------------------------------------ *)
(* Differential testing: AST semantics vs lowered IR vs optimized IR    *)
(* ------------------------------------------------------------------ *)

(* The scalar/array subset both interpreters share. *)
let diff_cfg =
  {
    Ast_gen.default_config with
    allow_pointers = false;
    allow_structs = false;
    allow_strings = false;
    max_functions = 2;
    max_depth = 2;
    call_weight = 1;
  }

let run_ir p =
  let o = Simcomp.Ir_interp.run ~fuel:2_000_000 p in
  match o.Simcomp.Ir_interp.o_unsupported with
  | Some _ -> None
  | None ->
    if o.Simcomp.Ir_interp.o_hang then None
    else Some (o.Simcomp.Ir_interp.o_exit, o.Simcomp.Ir_interp.o_trapped)

let run_ast tu =
  let o = Simcomp.Interp.run ~fuel:2_000_000 tu in
  if o.Simcomp.Interp.o_hang then None
  else Some (o.Simcomp.Interp.o_exit, o.Simcomp.Interp.o_aborted)

let differential_tests =
  [
    tc "ir interpreter runs a hand-written program" (fun () ->
        let p =
          lower
            "int acc;
             int triple(int x) { return x * 3; }
             int main(void) { int s = 0; for (int i = 0; i < 4; i++) s +=              triple(i); acc = s; return acc; }"
        in
        let o = Simcomp.Ir_interp.run p in
        check Alcotest.(option string) "supported" None
          o.Simcomp.Ir_interp.o_unsupported;
        check Alcotest.int "3*(0+1+2+3)" 18 o.Simcomp.Ir_interp.o_exit);
    tc "ir interpreter traps on division by zero" (fun () ->
        let p = lower "int main(void) { int z = 0; return 4 / z; }" in
        let o = Simcomp.Ir_interp.run p in
        check Alcotest.bool "trapped" true o.Simcomp.Ir_interp.o_trapped);
    tc "ir interpreter agrees with the AST interpreter on switch" (fun () ->
        let src =
          "int classify(int c) { int r = 0; switch (c) { case 0: case 1: r =            10; break; case 2: r = 20; case 3: r += 1; break; default: r = -1;            break; } return r; }
           int main(void) { return classify(2) + classify(0) + classify(9); }"
        in
        let tu = parse src in
        let p = lower src in
        check Alcotest.(option (pair int bool)) "same" (run_ast tu) (run_ir p));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"lowering preserves observable behaviour (AST vs IR)"
         ~count:80 QCheck.small_int
         (fun seed ->
           let rng = Rng.create (seed + 4001) in
           let tu = Ast_gen.gen_tu ~cfg:diff_cfg rng in
           let tc_res = Typecheck.check tu in
           let p = Simcomp.Lower.lower_tu tu tc_res in
           match run_ast tu, run_ir p with
           | Some a, Some b -> a = b
           | _ -> true (* fuel or unsupported: skip *)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"the optimizer is semantics-preserving (O2 pipeline)"
         ~count:80 QCheck.small_int
         (fun seed ->
           let rng = Rng.create (seed + 5001) in
           let tu = Ast_gen.gen_tu ~cfg:diff_cfg rng in
           let tc_res = Typecheck.check tu in
           let p = Simcomp.Lower.lower_tu tu tc_res in
           let before = run_ir p in
           ignore (Simcomp.Opt.run_pipeline ~level:2 ~disabled:[] p);
           let after = run_ir p in
           match before, after with
           | Some a, Some b -> a = b
           | _ -> true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"O3 pipeline also preserves semantics" ~count:50
         QCheck.small_int
         (fun seed ->
           let rng = Rng.create (seed + 6001) in
           let tu = Ast_gen.gen_tu ~cfg:diff_cfg rng in
           let tc_res = Typecheck.check tu in
           let p = Simcomp.Lower.lower_tu tu tc_res in
           let before = run_ir p in
           ignore (Simcomp.Opt.run_pipeline ~level:3 ~disabled:[] p);
           let after = run_ir p in
           match before, after with
           | Some a, Some b -> a = b
           | _ -> true));
  ]

(* Mutants intentionally change *program* semantics, but the compiler
   stack must still translate whatever program it is given faithfully:
   AST and optimized-IR semantics must agree on mutants too. *)
let mutant_differential =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"optimizer soundness holds on mutated programs" ~count:60
       QCheck.small_int
       (fun seed ->
         let rng = Rng.create (seed + 7001) in
         let tu = Ast_gen.gen_tu ~cfg:diff_cfg rng in
         let m = Rng.choose rng Mutators.Registry.core in
         match Mutators.Mutator.apply m ~rng tu with
         | None -> true
         | Some tu' ->
           let tc_res = Typecheck.check tu' in
           if not tc_res.Typecheck.r_ok then true
           else begin
             let p = Simcomp.Lower.lower_tu tu' tc_res in
             let before = run_ir p in
             ignore (Simcomp.Opt.run_pipeline ~level:2 ~disabled:[] p);
             let after = run_ir p in
             match run_ast tu', before, after with
             | Some a, Some b, Some c -> a = b && b = c
             | _ -> true
           end))

(* The pipeline's output, pinned: every compile entry (compile_tu,
   compile_ir, compile_passes ~verify with full dumps) over a fixed corpus
   of seeds, mutants and corrupted mutants, at both compilers and -O0..3,
   digested.  The expected digests predate the entries sharing one stage
   list; any change to what a stage computes shows here. *)
let pin_corpus () =
  let rng = Rng.create 4242 in
  let seeds =
    List.filteri
      (fun i _ -> i < 10)
      (List.filter_map Fuzzing.Seeds.of_template Fuzzing.Seeds.templates)
    @ List.init 4 (fun _ ->
          Ast_gen.gen_source
            ~cfg:{ Ast_gen.default_config with max_functions = 2; max_depth = 2 }
            rng)
  in
  let rec mutate tries src =
    if tries = 0 then None
    else
      match
        Mutators.Mutator.apply_src
          (Rng.choose rng Mutators.Registry.core)
          ~rng src
      with
      | Some m -> Some m
      | None -> mutate (tries - 1) src
  in
  let mutants = List.filter_map (mutate 8) seeds in
  seeds @ mutants @ List.map (Fuzzing.Fragility.corrupt rng) mutants

let pin_digests () =
  let tu_buf = Buffer.create 65536 in
  let ir_buf = Buffer.create 65536 in
  let passes_buf = Buffer.create 65536 in
  let add buf s =
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  let opt_s = Option.value ~default:"-" in
  List.iter
    (fun src ->
      List.iter
        (fun compiler ->
          for opt_level = 0 to 3 do
            let opts =
              { Simcomp.Compiler.default_options with opt_level }
            in
            let cov = Simcomp.Coverage.create () in
            (match fst (Simcomp.Compiler.compile_tu ~cov compiler opts src) with
            | Simcomp.Compiler.Compiled { asm; warnings; ir_size; spills } ->
              add tu_buf (Fmt.str "ok %d %d %d" warnings ir_size spills);
              add tu_buf asm
            | Simcomp.Compiler.Compile_error es ->
              add tu_buf ("error " ^ String.concat "|" es)
            | Simcomp.Compiler.Crashed c ->
              add tu_buf ("crash " ^ Simcomp.Crash.to_string c));
            List.iter
              (fun id -> add tu_buf (string_of_int id))
              (Simcomp.Coverage.branch_ids cov);
            (* error texts are not pinned: the entries report the same
               front-end diagnostics only since they share one *)
            (match Simcomp.Compiler.compile_ir compiler opts src with
            | Ok p -> add ir_buf (Simcomp.Ir.program_to_string p)
            | Error _ -> add ir_buf "error");
            match
              Simcomp.Compiler.compile_passes ~verify:true compiler
                { opts with Simcomp.Compiler.dump_ir = Simcomp.Compiler.Dump_all }
                src
            with
            | Error _ -> add passes_buf "error"
            | Ok tr ->
              List.iter
                (fun (st : Simcomp.Compiler.pass_step) ->
                  add passes_buf
                    (Fmt.str "%s %d %d %s" st.st_pass st.st_index
                       st.st_changes
                       (match st.st_diverged with
                       | None -> "?"
                       | Some d -> string_of_bool d));
                  add passes_buf (opt_s st.st_ir_before);
                  add passes_buf (opt_s st.st_ir_after))
                tr.Simcomp.Compiler.pt_steps;
              add passes_buf
                (match tr.Simcomp.Compiler.pt_reference with
                | None -> "no reference"
                | Some (code, ok) -> Fmt.str "reference %d %b" code ok);
              add passes_buf (opt_s tr.Simcomp.Compiler.pt_first_divergent);
              add passes_buf
                (Simcomp.Ir.program_to_string tr.Simcomp.Compiler.pt_program)
          done)
        [ Simcomp.Compiler.Gcc; Simcomp.Compiler.Clang ])
    (pin_corpus ());
  List.map
    (fun b -> Digest.to_hex (Digest.string (Buffer.contents b)))
    [ tu_buf; ir_buf; passes_buf ]

(* The single-lex pipeline entries: compile_tu's returned tree and the
   dedup cache must be indistinguishable from plain compile. *)
let compile_pipeline_tests =
  let opts = Simcomp.Compiler.default_options in
  let gen_sources n seed =
    List.init n (fun i -> Ast_gen.gen_source (Rng.create (seed + i)))
  in
  (* a one-shot batch: one cached compile through [cache] *)
  let cached ~cache ?cov ?engine ?faults src =
    Simcomp.Compiler.batch_compile
      (Simcomp.Compiler.batch_create ~cache ?cov ?engine ?faults
         Simcomp.Compiler.Gcc opts)
      src
  in
  [
    tc "compile_tu returns the tree parse would produce" (fun () ->
        List.iter
          (fun src ->
            match Simcomp.Compiler.compile_tu Simcomp.Compiler.Gcc opts src with
            | Simcomp.Compiler.Compiled _, Some tu ->
              check Alcotest.string "same pretty-printed tree"
                (Pretty.tu_to_string (parse src))
                (Pretty.tu_to_string tu)
            | Simcomp.Compiler.Compiled _, None ->
              Alcotest.fail "compiled outcome must carry the parsed tree"
            | _ -> ())
          (gen_sources 10 500));
    tc "compile entries reproduce the pinned outputs" (fun () ->
        check
          Alcotest.(list string)
          "compile_tu, compile_ir, compile_passes digests"
          [
            "fcbc8af6191a4eb0066706f7454335c2";
            "fcc796cc4715341614e927c443d5daca";
            "e22ec23dfa7a73456c6a01e3a3d04fdd";
          ]
          (pin_digests ()));
    tc "compile_passes reports compile's front-end errors" (fun () ->
        (* one front end: a source compile rejects is rejected by
           compile_passes with the same diagnostics, and a source it
           compiles reaches the optimizer *)
        let rng = Rng.create 2024 in
        let srcs = gen_sources 8 2100 in
        let srcs = srcs @ List.map (Fuzzing.Fragility.corrupt rng) srcs in
        let rejected = ref 0 in
        List.iter
          (fun src ->
            List.iter
              (fun compiler ->
                match
                  ( Simcomp.Compiler.compile compiler opts src,
                    Simcomp.Compiler.compile_passes compiler opts src )
                with
                | Simcomp.Compiler.Compile_error es, Error e ->
                  incr rejected;
                  check Alcotest.string "same diagnostics"
                    (String.concat "\n" es) e
                | Simcomp.Compiler.Compile_error _, Ok _ ->
                  Alcotest.fail "compile_passes accepted a rejected source"
                | Simcomp.Compiler.Compiled _, Error e ->
                  Alcotest.failf "compile_passes rejected a compiled source: %s"
                    e
                | (Simcomp.Compiler.Compiled _ | Simcomp.Compiler.Crashed _), _
                  -> ())
              [ Simcomp.Compiler.Gcc; Simcomp.Compiler.Clang ])
          srcs;
        check Alcotest.bool "corruptions exercised the error path" true
          (!rejected > 0));
    tc "compile_tu parse failure yields no tree" (fun () ->
        match Simcomp.Compiler.compile_tu Simcomp.Compiler.Gcc opts "int main( {" with
        | Simcomp.Compiler.Compile_error _, None -> ()
        | _ -> Alcotest.fail "expected error outcome without a tree");
    tc "batch_compile reproduces compile outcomes and dedups repeats"
      (fun () ->
        let cache = Simcomp.Compiler.cache_create () in
        let srcs = gen_sources 8 900 in
        let srcs = srcs @ srcs in
        (* every source twice *)
        List.iter
          (fun src ->
            let cov_plain = Simcomp.Coverage.create () in
            let plain =
              Simcomp.Compiler.compile ~cov:cov_plain Simcomp.Compiler.Gcc
                opts src
            in
            let cov_cached = Simcomp.Coverage.create () in
            let cached, _ = cached ~cache ~cov:cov_cached src in
            check Alcotest.bool "identical outcome" true (plain = cached))
          srcs;
        check Alcotest.int "second pass all hits" 8
          (Simcomp.Compiler.cache_hits cache);
        check Alcotest.int "first pass all misses" 8
          (Simcomp.Compiler.cache_misses cache));
    tc "fingerprint dedup decisions match an exact-keyed cache" (fun () ->
        (* a constant fingerprint makes every lookup collide, forcing
           the exact-triple fallback on each probe: hit/miss decisions
           (and so outcomes, coverage, accounting) must be identical to
           the well-distributed default hash *)
        let normal = Simcomp.Compiler.cache_create () in
        let colliding =
          Simcomp.Compiler.cache_create ~fingerprint:(fun _ -> 42) ()
        in
        let srcs = gen_sources 6 1300 in
        let srcs = srcs @ List.rev srcs @ srcs in
        let outcomes cache =
          List.map (fun src -> fst (cached ~cache src)) srcs
        in
        check Alcotest.bool "same outcome sequence" true
          (outcomes normal = outcomes colliding);
        check Alcotest.int "same hits"
          (Simcomp.Compiler.cache_hits normal)
          (Simcomp.Compiler.cache_hits colliding);
        check Alcotest.int "same misses"
          (Simcomp.Compiler.cache_misses normal)
          (Simcomp.Compiler.cache_misses colliding);
        check Alcotest.bool "collisions detected" true
          (Simcomp.Compiler.cache_collisions colliding > 0);
        check Alcotest.int "default hash does not collide" 0
          (Simcomp.Compiler.cache_collisions normal));
    tc "epoch clearing keeps decisions correct at tiny capacity" (fun () ->
        (* capacity 2 forces wholesale epoch clears mid-sequence: hits
           become misses, but every returned outcome must still equal
           the uncached compile *)
        let cache = Simcomp.Compiler.cache_create ~capacity:2 () in
        let srcs = gen_sources 5 1400 in
        let srcs = srcs @ srcs @ srcs in
        List.iter
          (fun src ->
            let plain = Simcomp.Compiler.compile Simcomp.Compiler.Gcc opts src in
            let cached, _ = cached ~cache src in
            check Alcotest.bool "outcome survives epoch clears" true
              (plain = cached))
          srcs);
    tc "scratch reuse yields byte-identical assembly" (fun () ->
        (* per-domain scratch buffers (arena, token array, IR vectors)
           are reused across compiles: interleaving other compiles must
           not leak state into a recompile of the same source *)
        let srcs = gen_sources 6 1600 in
        let asm src =
          match Simcomp.Compiler.compile Simcomp.Compiler.Gcc opts src with
          | Simcomp.Compiler.Compiled { asm; _ } -> Some asm
          | _ -> None
        in
        let cold = List.map asm srcs in
        (* scratch is now warm and sized by the largest of the batch *)
        let warm = List.map asm srcs in
        List.iter2
          (fun a b ->
            check Alcotest.(option string) "identical assembly" a b)
          cold warm);
    tc "cache hits replay engine accounting exactly" (fun () ->
        let src = Ast_gen.gen_source (Rng.create 321) in
        let counters engine =
          List.filter
            (function _, Engine.Metrics.Counter _ -> true | _ -> false)
            (Engine.Metrics.snapshot engine.Engine.Ctx.metrics)
        in
        let uncached = Engine.Ctx.create () in
        ignore
          (Simcomp.Compiler.compile ~engine:uncached Simcomp.Compiler.Gcc opts
             src);
        ignore
          (Simcomp.Compiler.compile ~engine:uncached Simcomp.Compiler.Gcc opts
             src);
        let cached_engine = Engine.Ctx.create () in
        let cache = Simcomp.Compiler.cache_create () in
        ignore (cached ~cache ~engine:cached_engine src);
        ignore (cached ~cache ~engine:cached_engine src);
        (* same compile.total / compile.outcome.* family, plus the
           compile.cached marker on the cached run; opt.pass.* counters
           count real pass executions (like spans) and are legitimately
           absent on a hit *)
        let drop_cached =
          List.filter (fun (name, _) ->
              name <> "compile.cached"
              && not
                   (String.length name >= 9
                   && String.equal (String.sub name 0 9) "opt.pass."))
        in
        check Alcotest.bool "counter families match" true
          (drop_cached (counters uncached)
          = drop_cached (counters cached_engine));
        check Alcotest.bool "cache marker counted" true
          (List.assoc "compile.cached" (counters cached_engine)
          = Engine.Metrics.Counter 1));
    tc "injected hangs trip the compile watchdog" (fun () ->
        let engine = Engine.Ctx.create () in
        let faults =
          Engine.Faults.create
            { Engine.Faults.no_faults with Engine.Faults.compile_hang = 1.0 }
        in
        (match
           Simcomp.Compiler.compile ~engine ~faults Simcomp.Compiler.Gcc opts
             "int main(void) { return 0; }"
         with
        | Simcomp.Compiler.Crashed c ->
          check Alcotest.bool "hang kind" true
            (c.Simcomp.Crash.kind = Simcomp.Crash.Hang);
          check Alcotest.bool "watchdog frame" true
            (List.mem "watchdog_timeout" c.Simcomp.Crash.frames)
        | _ -> Alcotest.fail "expected the watchdog to report a hang");
        check Alcotest.int "hang counted" 1
          (Engine.Metrics.counter_value
             (Engine.Metrics.counter engine.Engine.Ctx.metrics
                "compile.watchdog_hang")));
    tc "cached hangs replay as hangs" (fun () ->
        (* a pathological mutant stays pathological: memoization must
           not resurrect it *)
        let faults =
          Engine.Faults.create
            { Engine.Faults.no_faults with Engine.Faults.compile_hang = 1.0 }
        in
        let cache = Simcomp.Compiler.cache_create () in
        let src = "int main(void) { return 1; }" in
        let once () = fst (cached ~cache ~faults src) in
        (match (once (), once ()) with
        | Simcomp.Compiler.Crashed a, Simcomp.Compiler.Crashed b ->
          check Alcotest.string "same bug id" a.Simcomp.Crash.bug_id
            b.Simcomp.Crash.bug_id
        | _ -> Alcotest.fail "both lookups must replay the hang");
        check Alcotest.int "second lookup hit the cache" 1
          (Simcomp.Compiler.cache_hits cache));
  ]

(* ------------------------------------------------------------------ *)
(* Pass manager                                                        *)
(* ------------------------------------------------------------------ *)

let pass_manager_tests =
  let opts_at ?(disabled = []) ?pass_list level =
    {
      Simcomp.Compiler.default_options with
      opt_level = level;
      disabled_passes = disabled;
      pass_list;
    }
  in
  [
    tc "registry enumerates passes in canonical order" (fun () ->
        check
          Alcotest.(list string)
          "names"
          [ "constfold"; "simplify-cfg"; "dce"; "inline"; "strlen-opt";
            "loop-opt" ]
          (Simcomp.Opt.pass_names ()));
    tc "registering a duplicate pass name is rejected" (fun () ->
        Alcotest.check_raises "duplicate"
          (Invalid_argument "Opt.register: duplicate pass dce") (fun () ->
            Simcomp.Opt.register Simcomp.Opt.dce_pass));
    tc "pipeline specs are golden per level" (fun () ->
        let golden =
          [
            (0, []);
            (1, [ "constfold"; "simplify-cfg"; "dce" ]);
            ( 2,
              [ "constfold"; "simplify-cfg"; "inline"; "strlen-opt";
                "constfold"; "dce" ] );
            ( 3,
              [ "constfold"; "simplify-cfg"; "inline"; "strlen-opt";
                "loop-opt"; "constfold"; "simplify-cfg"; "dce" ] );
          ]
        in
        List.iter
          (fun (level, expected) ->
            check
              Alcotest.(list string)
              (Fmt.str "-O%d" level) expected
              (Simcomp.Compiler.pipeline_of (opts_at level)))
          golden);
    tc "unknown pass in an explicit pipeline is rejected" (fun () ->
        check Alcotest.bool "raises" true
          (try
             ignore
               (Simcomp.Compiler.pipeline_of
                  (opts_at ~pass_list:[ "constfold"; "vectorize" ] 2));
             false
           with Invalid_argument _ -> true));
    tc "disabling a pass equals the explicit pipeline without it" (fun () ->
        let src =
          "int five(void) { return 5; }\n\
           int main(void) { int unused = 1 + 2; return five() + 4; }"
        in
        let spec_minus_dce =
          List.filter
            (fun p -> not (String.equal p "dce"))
            (Simcomp.Compiler.pipeline_of (opts_at 2))
        in
        let outcome opts = Simcomp.Compiler.compile Simcomp.Compiler.Gcc opts src in
        check Alcotest.bool "same outcome" true
          (outcome (opts_at ~disabled:[ "dce" ] 2)
          = outcome (opts_at ~pass_list:spec_minus_dce 2)));
    tc "dump-ir snapshots only the requested pass" (fun () ->
        let src = "int main(void) { int unused = 1 + 2; return 7; }" in
        let steps dump =
          match
            Simcomp.Compiler.compile_passes Simcomp.Compiler.Gcc
              { (opts_at 2) with Simcomp.Compiler.dump_ir = dump }
              src
          with
          | Ok tr -> tr.Simcomp.Compiler.pt_steps
          | Error e -> Alcotest.failf "compile_passes: %s" e
        in
        List.iter
          (fun (st : Simcomp.Compiler.pass_step) ->
            check Alcotest.bool "no IR captured" true
              (st.st_ir_before = None && st.st_ir_after = None))
          (steps Simcomp.Compiler.Dump_none);
        List.iter
          (fun (st : Simcomp.Compiler.pass_step) ->
            check Alcotest.bool "all IR captured" true
              (st.st_ir_before <> None && st.st_ir_after <> None))
          (steps Simcomp.Compiler.Dump_all);
        List.iter
          (fun (st : Simcomp.Compiler.pass_step) ->
            let want = String.equal st.st_pass "dce" in
            check Alcotest.bool "only dce captured" want
              (st.st_ir_before <> None))
          (steps (Simcomp.Compiler.Dump_pass "dce")));
    tc "per-pass run counters follow the spec" (fun () ->
        let engine = Engine.Ctx.create () in
        ignore
          (Simcomp.Compiler.compile ~engine Simcomp.Compiler.Gcc (opts_at 2)
             "int main(void) { return 1 + 2; }");
        let runs name =
          Engine.Metrics.counter_value
            (Engine.Metrics.counter engine.Engine.Ctx.metrics
               (Fmt.str "opt.pass.%s.runs" name))
        in
        check Alcotest.int "constfold twice" 2 (runs "constfold");
        check Alcotest.int "dce once" 1 (runs "dce");
        check Alcotest.int "loop-opt never" 0 (runs "loop-opt"));
    tc "pass-ordering ICE: dce without a prior constfold" (fun () ->
        let src =
          "int main(void) { int a = 1; int b = 2; int c = a < b ? 1 : 2; int \
           d = b < a ? 3 : 4; return a + b + c + d; }"
        in
        (match
           Simcomp.Compiler.compile Simcomp.Compiler.Gcc
             (opts_at ~disabled:[ "constfold" ] 2)
             src
         with
        | Simcomp.Compiler.Crashed c ->
          check Alcotest.string "bug id" "gcc-dce-unfolded"
            c.Simcomp.Crash.bug_id
        | _ -> Alcotest.fail "expected the pass-ordering ICE");
        match Simcomp.Compiler.compile Simcomp.Compiler.Gcc (opts_at 2) src with
        | Simcomp.Compiler.Compiled _ -> ()
        | _ -> Alcotest.fail "default pipeline must stay clean");
    tc "pass-ordering ICE: strlen-opt without a prior inline" (fun () ->
        let src =
          "int f(void) { return 1; }\n\
           int main(void) { return f() + f(); }"
        in
        (match
           Simcomp.Compiler.compile Simcomp.Compiler.Clang
             (opts_at ~disabled:[ "inline" ] 2)
             src
         with
        | Simcomp.Compiler.Crashed c ->
          check Alcotest.string "bug id" "clang-strlen-before-inline"
            c.Simcomp.Crash.bug_id
        | _ -> Alcotest.fail "expected the pass-ordering ICE");
        match
          Simcomp.Compiler.compile Simcomp.Compiler.Clang (opts_at 2) src
        with
        | Simcomp.Compiler.Compiled _ -> ()
        | _ -> Alcotest.fail "default pipeline must stay clean");
    tc "pass-homed ICE is masked by disabling its home pass" (fun () ->
        let src =
          "static char buffer[32];\n\
           const char tag = 1;\n\
           int test4(void) { return sprintf(buffer, \"%s\", buffer); }\n\
           int main(void) { return test4(); }"
        in
        (match Simcomp.Compiler.compile Simcomp.Compiler.Gcc (opts_at 2) src with
        | Simcomp.Compiler.Crashed c ->
          check Alcotest.string "bug id" "gcc-strlen-range"
            c.Simcomp.Crash.bug_id
        | _ -> Alcotest.fail "expected gcc-strlen-range");
        match
          Simcomp.Compiler.compile Simcomp.Compiler.Gcc
            (opts_at ~disabled:[ "strlen-opt" ] 2)
            src
        with
        | Simcomp.Compiler.Crashed c ->
          Alcotest.failf "still crashed: %s" c.Simcomp.Crash.bug_id
        | _ -> ());
    tc "random_options draws from the registry" (fun () ->
        let rng = Rng.create 11 in
        for _ = 1 to 50 do
          let o = Simcomp.Compiler.random_options rng in
          List.iter
            (fun p ->
              check Alcotest.bool "known pass" true
                (Option.is_some (Simcomp.Opt.find_pass p)))
            o.Simcomp.Compiler.disabled_passes
        done);
  ]

let () =
  Alcotest.run "simcomp"
    [
      ("coverage", coverage_tests);
      ("coverage-bitmap-differential", bitmap_differential_tests);
      ("compile-pipeline", compile_pipeline_tests);
      ("features", feature_tests);
      ("interp", interp_tests);
      ("ir", ir_tests);
      ("opt", opt_tests);
      ("pass-manager", pass_manager_tests);
      ("backend", backend_tests);
      ("bugs-and-pipeline", bug_tests @ pipeline_props);
      ("differential", differential_tests @ [ mutant_differential ]);
    ]
