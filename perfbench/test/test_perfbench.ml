(* Tests for the benchmark's own code: the tail-percentile rule, self
   time from nested spans, metric-name validation, the JSON result
   round trip, the strict command line, and BENCHMARK.json agreeing
   with the metric spec. *)

open Perfbench

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let stats_tests =
  [
    tc "median of odd and even counts" (fun () ->
        check (Alcotest.float 0.) "odd" 2. (Stats.median [| 3.; 1.; 2. |]);
        check (Alcotest.float 0.) "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]));
    tc "tail sits where exactly ten samples lie beyond" (fun () ->
        let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
        let t = Stats.tail xs in
        check (Alcotest.float 0.) "value" 90. t.value;
        check (Alcotest.float 1e-9) "percentile" 90. t.pct;
        check Alcotest.int "beyond" 10 t.beyond;
        check Alcotest.int "samples beyond the value" 10
          (Array.length (Array.of_list (List.filter (fun x -> x > t.value) (Array.to_list xs))));
        let t = Stats.tail (Array.init 1000 float_of_int) in
        check (Alcotest.float 1e-9) "p99 at 1000 samples" 99. t.pct;
        check (Alcotest.float 0.) "value at 1000 samples" 989. t.value);
    tc "too few samples for a tail report the maximum" (fun () ->
        let t = Stats.tail (Array.init 19 float_of_int) in
        check (Alcotest.float 0.) "max" 18. t.value;
        check Alcotest.int "beyond" 0 t.beyond;
        check (Alcotest.float 0.) "pct" 100. t.pct;
        let t = Stats.tail (Array.init 20 float_of_int) in
        check (Alcotest.float 0.) "20 samples: rank 10" 9. t.value;
        check Alcotest.int "20 samples: beyond" 10 t.beyond);
  ]

(* A clock that returns the given instants in order. *)
let scripted l =
  let r = ref l in
  fun () ->
    match !r with
    | x :: rest ->
      r := rest;
      Int64.of_int x
    | [] -> Alcotest.fail "clock read too often"

let span_tests =
  [
    tc "self time subtracts nested children" (fun () ->
        (* root [0,100]; a [10,30]; b [40,70] holding c [50,60] *)
        let clock = scripted [ 0; 10; 30; 40; 50; 60; 70; 100 ] in
        let words = ref 0. in
        let alloc () =
          words := !words +. 5.;
          !words
        in
        let sp = Spans.create ~clock ~words:alloc () in
        Spans.with_ sp "root" (fun () ->
            Spans.with_ sp "a" ignore;
            Spans.with_ sp "b" (fun () -> Spans.with_ sp "c" ignore));
        let self name =
          let s = List.find (fun (s : Spans.span) -> s.name = name) (Spans.spans sp) in
          Int64.to_int (Spans.self_ns sp s)
        in
        check Alcotest.int "root" 50 (self "root");
        check Alcotest.int "a" 20 (self "a");
        check Alcotest.int "b" 20 (self "b");
        check Alcotest.int "c" 10 (self "c");
        let totals = Spans.totals sp in
        let t = Spans.find totals "b" in
        check Alcotest.int "b calls" 1 t.calls;
        check Alcotest.int "b total" 30 (Int64.to_int t.total_ns);
        check (Alcotest.float 0.) "b self words" (t.total_words -. (Spans.find totals "c").total_words)
          t.self_words;
        let parents =
          List.map (fun (s : Spans.span) -> (s.name, s.parent)) (Spans.spans sp)
        in
        check Alcotest.(list (pair string int)) "parents"
          [ ("root", -1); ("a", 0); ("b", 0); ("c", 2) ] parents);
    tc "a raising call still records its span" (fun () ->
        let sp = Spans.create ~clock:(scripted [ 0; 7 ]) () in
        (try Spans.with_ sp "boom" (fun () -> failwith "x") with Failure _ -> ());
        check Alcotest.int "spans" 1 (Spans.length sp);
        check Alcotest.int "duration" 7 (Int64.to_int (Spans.find (Spans.totals sp) "boom").total_ns);
        check Alcotest.int "absent name" 0 (Spans.find (Spans.totals sp) "none").calls);
  ]

let name_tests =
  [
    tc "metric names" (fun () ->
        List.iter
          (fun n -> check Alcotest.bool n true (Summary.valid_name n))
          [ "setup_s"; "simcomp.opt.simplify-cfg.us"; "9lives"; String.make 64 'a' ];
        List.iter
          (fun n -> check Alcotest.bool n false (Summary.valid_name n))
          [ ""; "_x"; ".x"; "-x"; "a b"; "AFL++"; "µs"; String.make 65 'a' ]);
    tc "units" (fun () ->
        List.iter (fun u -> check Alcotest.bool u true (Summary.valid_unit u)) [ "ms"; "1/s"; "%"; "MiB"; "count" ];
        List.iter (fun u -> check Alcotest.bool u false (Summary.valid_unit u)) [ ""; "µs"; "a b"; String.make 17 's' ]);
  ]

let summary =
  {
    Summary.correct = true;
    attempted = 1840;
    failed = 2;
    metrics =
      [
        { name = "step_tail_ms"; value = 2.4139920000000004; unit_ = "ms" };
        { name = "tiny"; value = 1e-300; unit_ = "s" };
        { name = "whole"; value = 4768.; unit_ = "count" };
        { name = "big"; value = 8.849123456789e8; unit_ = "words" };
        { name = "neg"; value = -0.1; unit_ = "%" };
      ];
  }

let json_tests =
  [
    tc "the result line reads back identically" (fun () ->
        let line = Summary.to_json summary in
        check Alcotest.bool "one line" false (String.contains line '\n');
        match Summary.of_json line with
        | Ok s -> check Alcotest.bool "equal" true (s = summary)
        | Error e -> Alcotest.fail e);
    tc "bad metrics are refused" (fun () ->
        let refuses metrics =
          match Summary.to_json { summary with metrics } with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        let m name value = { Summary.name; value; unit_ = "s" } in
        check Alcotest.bool "bad name" true (refuses [ m "a b" 1. ]);
        check Alcotest.bool "repeated" true (refuses [ m "a" 1.; m "a" 2. ]);
        check Alcotest.bool "nan" true (refuses [ m "a" Float.nan ]);
        check Alcotest.bool "malformed" true (Result.is_error (Summary.of_json "{\"correct\": true}")));
    tc "json values round trip" (fun () ->
        let v = Json.Obj [ ("s", Json.Str "q\"\\\n"); ("a", Json.Arr [ Json.Null; Json.Bool false; Json.Int (-3) ]) ] in
        check Alcotest.bool "equal" true (Json.of_string (Json.to_string v) = Ok v));
  ]

let workloads = [ "mucfuzz"; "wrongcode"; "campaign" ]
let parse = Cli.parse ~workloads

let cli_tests =
  [
    tc "all four flags parse" (fun () ->
        match parse [ "--trace"; "1"; "--seed"; "7"; "--workload"; "campaign"; "--seconds"; "20" ] with
        | Ok a ->
          check Alcotest.string "workload" "campaign" a.workload;
          check Alcotest.int "seed" 7 a.seed;
          check Alcotest.int "seconds" 20 a.seconds;
          check Alcotest.bool "trace" true a.trace
        | Error e -> Alcotest.fail e);
    tc "anything else is refused" (fun () ->
        let base = [ "--workload"; "mucfuzz"; "--seed"; "1"; "--seconds"; "5"; "--trace"; "0" ] in
        List.iter
          (fun (what, argv) -> check Alcotest.bool what true (Result.is_error (parse argv)))
          [
            ("unknown flag", base @ [ "--iterations"; "2000" ]);
            ("stray word", base @ [ "extra" ]);
            ("missing flag", [ "--workload"; "mucfuzz"; "--seed"; "1"; "--seconds"; "5" ]);
            ("missing value", [ "--workload"; "mucfuzz"; "--seed"; "1"; "--trace"; "0"; "--seconds" ]);
            ("repeated flag", base @ [ "--seed"; "2" ]);
            ("unknown workload", [ "--workload"; "x"; "--seed"; "1"; "--seconds"; "5"; "--trace"; "0" ]);
            ("negative seed", [ "--workload"; "mucfuzz"; "--seed"; "-1"; "--seconds"; "5"; "--trace"; "0" ]);
            ("zero seconds", [ "--workload"; "mucfuzz"; "--seed"; "1"; "--seconds"; "0"; "--trace"; "0" ]);
            ("bad trace", [ "--workload"; "mucfuzz"; "--seed"; "1"; "--seconds"; "5"; "--trace"; "yes" ]);
          ]);
  ]

(* BENCHMARK.json names exactly the metrics the driver prints. *)
let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string s with Ok (Json.Obj kv) -> kv | _ -> Alcotest.fail "BENCHMARK.json is not an object"

let spec_tests =
  [
    tc "BENCHMARK.json matches the metric spec" (fun () ->
        let kv = benchmark_json () in
        let listed key =
          match List.assoc_opt key kv with
          | Some (Json.Arr l) ->
            List.map
              (function
                | Json.Obj m -> (
                  match (List.assoc_opt "name" m, List.assoc_opt "unit" m, List.assoc_opt "better" m) with
                  | Some (Json.Str n), Some (Json.Str u), Some (Json.Str b) -> (n, u, b, m)
                  | _ -> Alcotest.fail ("malformed entry in " ^ key))
                | _ -> Alcotest.fail ("malformed entry in " ^ key))
              l
          | _ -> Alcotest.fail ("missing " ^ key)
        in
        let spec l =
          List.map
            (fun (m : Spec.metric) -> (m.name, m.unit_, match m.better with Spec.Lower -> "lower" | Higher -> "higher"))
            l
        in
        let names l = List.map (fun (n, u, b, _) -> (n, u, b)) l in
        let e2e = listed "end_to_end" and layers = listed "per_layer" in
        check Alcotest.(list (triple string string string)) "end_to_end" (spec Spec.end_to_end) (names e2e);
        check Alcotest.(list (triple string string string)) "per_layer" (spec Spec.per_layer) (names layers);
        List.iter
          (fun (n, _, _, m) ->
            match List.assoc_opt "bound" m with
            | Some (Json.Num b) -> check Alcotest.bool (n ^ " bound in (0, 0.25]") true (b > 0. && b <= 0.25)
            | _ -> Alcotest.fail (n ^ ": no bound"))
          e2e;
        List.iter
          (fun (m : Spec.metric) -> check Alcotest.bool m.name true (Summary.valid_name m.name))
          (Spec.end_to_end @ Spec.per_layer));
  ]

let () =
  Alcotest.run "perfbench"
    [
      ("stats", stats_tests);
      ("spans", span_tests);
      ("names", name_tests);
      ("json", json_tests);
      ("cli", cli_tests);
      ("spec", spec_tests);
    ]
