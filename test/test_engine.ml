(* Tests for the execution engine: metrics registry (histogram bucket
   boundaries, snapshots, merge), event bus sinks (ring overflow,
   metrics sink), spans, the shard pool's supervision contract, and the
   campaign determinism guarantee (shards:1 ≡ shards:4). *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let metrics_tests =
  [
    tc "counter increments and snapshots" (fun () ->
        let reg = Engine.Metrics.create () in
        let c = Engine.Metrics.counter reg "a" in
        Engine.Metrics.incr c;
        Engine.Metrics.incr ~by:4 c;
        check Alcotest.int "value" 5 (Engine.Metrics.counter_value c);
        (* find-or-create returns the same instrument *)
        Engine.Metrics.incr (Engine.Metrics.counter reg "a");
        match Engine.Metrics.snapshot reg with
        | [ ("a", Engine.Metrics.Counter 6) ] -> ()
        | _ -> Alcotest.fail "unexpected snapshot");
    tc "histogram bucket boundaries" (fun () ->
        let reg = Engine.Metrics.create () in
        let h =
          Engine.Metrics.histogram ~edges:[| 1.; 2.; 5. |] reg "h"
        in
        (* v <= edge lands in that bucket; above the last edge overflows *)
        check Alcotest.int "below first" 0 (Engine.Metrics.bucket_index h 0.5);
        check Alcotest.int "on first edge" 0 (Engine.Metrics.bucket_index h 1.);
        check Alcotest.int "between" 1 (Engine.Metrics.bucket_index h 1.5);
        check Alcotest.int "on last edge" 2 (Engine.Metrics.bucket_index h 5.);
        check Alcotest.int "overflow" 3 (Engine.Metrics.bucket_index h 7.);
        List.iter (Engine.Metrics.observe h) [ 0.5; 1.; 1.5; 5.; 7. ];
        (match Engine.Metrics.snapshot reg with
        | [ ("h", Engine.Metrics.Histogram { counts; total; sum; _ }) ] ->
          check (Alcotest.array Alcotest.int) "counts" [| 2; 1; 1; 1 |] counts;
          check Alcotest.int "total" 5 total;
          check (Alcotest.float 1e-9) "sum" 15. sum
        | _ -> Alcotest.fail "unexpected snapshot");
        check (Alcotest.float 1e-9) "mean" 3. (Engine.Metrics.histogram_mean h));
    tc "histogram rejects bad edges" (fun () ->
        let reg = Engine.Metrics.create () in
        Alcotest.check_raises "empty" (Invalid_argument
          "Metrics.histogram: empty bucket edges") (fun () ->
            ignore (Engine.Metrics.histogram ~edges:[||] reg "e"));
        Alcotest.check_raises "non-increasing" (Invalid_argument
          "Metrics.histogram: bucket edges must strictly increase") (fun () ->
            ignore (Engine.Metrics.histogram ~edges:[| 2.; 1. |] reg "d")));
    tc "merge adds counters and histogram buckets" (fun () ->
        let a = Engine.Metrics.create () and b = Engine.Metrics.create () in
        Engine.Metrics.incr ~by:2 (Engine.Metrics.counter a "c");
        Engine.Metrics.incr ~by:3 (Engine.Metrics.counter b "c");
        Engine.Metrics.incr (Engine.Metrics.counter b "only-b");
        let edges = [| 1.; 10. |] in
        Engine.Metrics.observe (Engine.Metrics.histogram ~edges a "h") 0.5;
        Engine.Metrics.observe (Engine.Metrics.histogram ~edges b "h") 5.;
        Engine.Metrics.merge ~into:a b;
        check Alcotest.int "counter summed" 5
          (Engine.Metrics.counter_value (Engine.Metrics.counter a "c"));
        check Alcotest.int "new counter copied" 1
          (Engine.Metrics.counter_value (Engine.Metrics.counter a "only-b"));
        match List.assoc "h" (Engine.Metrics.snapshot a) with
        | Engine.Metrics.Histogram { counts; total; _ } ->
          check (Alcotest.array Alcotest.int) "buckets" [| 1; 1; 0 |] counts;
          check Alcotest.int "total" 2 total
        | _ -> Alcotest.fail "histogram missing");
    tc "histogram_quantile interpolates, clamps, and handles empties" (fun () ->
        let reg = Engine.Metrics.create () in
        let h = Engine.Metrics.histogram ~edges:[| 1.; 10. |] reg "q" in
        check (Alcotest.float 1e-9) "empty histogram reads 0" 0.
          (Engine.Metrics.histogram_quantile h 0.5);
        (* one observation per bucket: (0,1], (1,10], overflow *)
        List.iter (Engine.Metrics.observe h) [ 0.5; 5.; 20. ];
        (* p50: rank 1.5 falls in the second bucket, halfway in *)
        check (Alcotest.float 1e-9) "p50 interpolated" 5.5
          (Engine.Metrics.histogram_quantile h 0.5);
        (* p95: rank 2.85 falls in the overflow bucket -> top edge *)
        check (Alcotest.float 1e-9) "overflow clamps to top edge" 10.
          (Engine.Metrics.histogram_quantile h 0.95);
        (* out-of-range q is clamped *)
        check (Alcotest.float 1e-9) "q > 1 clamps" 10.
          (Engine.Metrics.histogram_quantile h 2.);
        (* quantile_of works straight off snapshot data *)
        match List.assoc "q" (Engine.Metrics.snapshot reg) with
        | Engine.Metrics.Histogram { edges; counts; total; _ } ->
          check (Alcotest.float 1e-9) "quantile_of agrees" 5.5
            (Engine.Metrics.quantile_of ~edges ~counts ~total 0.5)
        | _ -> Alcotest.fail "histogram missing");
    tc "counters_with_prefix strips and sorts" (fun () ->
        let reg = Engine.Metrics.create () in
        Engine.Metrics.incr ~by:7 (Engine.Metrics.counter reg "p.zeta");
        Engine.Metrics.incr ~by:2 (Engine.Metrics.counter reg "p.alpha");
        Engine.Metrics.incr (Engine.Metrics.counter reg "other");
        check
          Alcotest.(list (pair string int))
          "family"
          [ ("alpha", 2); ("zeta", 7) ]
          (Engine.Metrics.counters_with_prefix reg ~prefix:"p."));
  ]

let event_tests =
  [
    tc "ring sink keeps the newest events on overflow" (fun () ->
        let ring, sink = Engine.Event.ring_sink ~capacity:4 in
        let bus = Engine.Event.bus () in
        Engine.Event.add_sink bus sink;
        for i = 1 to 10 do
          Engine.Event.emit bus (Engine.Event.Custom (string_of_int i))
        done;
        check Alcotest.int "seen" 10 (Engine.Event.ring_seen ring);
        check Alcotest.int "dropped" 6 (Engine.Event.ring_dropped ring);
        check
          Alcotest.(list string)
          "newest retained, oldest first"
          [ "7"; "8"; "9"; "10" ]
          (List.map
             (function Engine.Event.Custom s -> s | _ -> "?")
             (Engine.Event.ring_contents ring)));
    tc "ring below capacity drops nothing" (fun () ->
        let ring, sink = Engine.Event.ring_sink ~capacity:8 in
        sink.Engine.Event.emit (Engine.Event.Custom "x");
        check Alcotest.int "dropped" 0 (Engine.Event.ring_dropped ring);
        check Alcotest.int "kept" 1
          (List.length (Engine.Event.ring_contents ring)));
    tc "text sink renders one line per event" (fun () ->
        let lines = ref [] in
        let bus = Engine.Event.bus () in
        Engine.Event.add_sink bus
          (Engine.Event.text_sink ~out:(fun l -> lines := l :: !lines));
        Engine.Event.emit bus
          (Engine.Event.Coverage_sampled { iteration = 25; covered = 600 });
        Engine.Event.emit bus (Engine.Event.Pipeline_goal (2, false));
        check
          Alcotest.(list string)
          "lines"
          [ "coverage-sampled 600 @25"; "pipeline-goal #2 unfixed" ]
          (List.rev !lines));
    tc "remove_sink detaches exactly that sink" (fun () ->
        let ring, sink = Engine.Event.ring_sink ~capacity:4 in
        let bus = Engine.Event.bus () in
        Engine.Event.add_sink bus sink;
        Engine.Event.emit bus (Engine.Event.Custom "a");
        Engine.Event.remove_sink bus sink;
        Engine.Event.emit bus (Engine.Event.Custom "b");
        check Alcotest.int "only first seen" 1 (Engine.Event.ring_seen ring));
  ]

let span_tests =
  [
    tc "spans record count and duration into the registry" (fun () ->
        (* a fake clock makes durations deterministic *)
        let t = ref 0L in
        let clock () =
          t := Int64.add !t 1500L;
          !t
        in
        let ctx = Engine.Ctx.create ~clock () in
        let v = Engine.Span.with_ ctx ~name:"stage" (fun () -> 42) in
        check Alcotest.int "value" 42 v;
        (match
           List.assoc "span.stage"
             (Engine.Metrics.snapshot ctx.Engine.Ctx.metrics)
         with
        | Engine.Metrics.Histogram { total; sum; _ } ->
          check Alcotest.int "one span" 1 total;
          check (Alcotest.float 1e-9) "1500ns" 1500. sum
        | _ -> Alcotest.fail "span histogram missing"));
    tc "spans record when the computation raises" (fun () ->
        let ctx = Engine.Ctx.create () in
        (try
           Engine.Span.with_ ctx ~name:"boom" (fun () -> failwith "x")
         with Failure _ -> ());
        match
          List.assoc "span.boom"
            (Engine.Metrics.snapshot ctx.Engine.Ctx.metrics)
        with
        | Engine.Metrics.Histogram { total; _ } ->
          check Alcotest.int "recorded" 1 total
        | _ -> Alcotest.fail "span histogram missing");
  ]

let vec_tests =
  [
    tc "push/get/length across growth" (fun () ->
        let v = Engine.Vec.create () in
        for i = 0 to 99 do
          Engine.Vec.push v (i * i)
        done;
        check Alcotest.int "length" 100 (Engine.Vec.length v);
        for i = 0 to 99 do
          check Alcotest.int "element" (i * i) (Engine.Vec.get v i)
        done;
        Alcotest.check_raises "out of bounds"
          (Invalid_argument "Vec.get: index out of bounds") (fun () ->
            ignore (Engine.Vec.get v 100)));
    tc "of_list/to_list round-trip and iter order" (fun () ->
        let v = Engine.Vec.of_list [ "a"; "b"; "c" ] in
        Engine.Vec.push v "d";
        check Alcotest.(list string) "to_list" [ "a"; "b"; "c"; "d" ]
          (Engine.Vec.to_list v);
        let seen = ref [] in
        Engine.Vec.iter (fun x -> seen := x :: !seen) v;
        check Alcotest.(list string) "iter order" [ "a"; "b"; "c"; "d" ]
          (List.rev !seen));
    tc "empty vector" (fun () ->
        let v : int Engine.Vec.t = Engine.Vec.create () in
        check Alcotest.int "length" 0 (Engine.Vec.length v);
        check Alcotest.(list int) "to_list" [] (Engine.Vec.to_list v));
    tc "to_array/of_array round-trip without aliasing" (fun () ->
        let v = Engine.Vec.of_list [ 1; 2; 3 ] in
        Engine.Vec.push v 4;
        let a = Engine.Vec.to_array v in
        check (Alcotest.array Alcotest.int) "live elements" [| 1; 2; 3; 4 |] a;
        (* the snapshot is a copy: later pushes don't show in it *)
        Engine.Vec.push v 5;
        check Alcotest.int "snapshot unchanged" 4 (Array.length a);
        let v' = Engine.Vec.of_array a in
        a.(0) <- 99;
        check Alcotest.int "of_array copied" 1 (Engine.Vec.get v' 0);
        check Alcotest.(list int) "round-trip" [ 1; 2; 3; 4 ]
          (Engine.Vec.to_list v'));
    tc "clear keeps capacity and resets length" (fun () ->
        let v = Engine.Vec.of_list [ 1; 2; 3 ] in
        Engine.Vec.clear v;
        check Alcotest.int "length" 0 (Engine.Vec.length v);
        check Alcotest.(list int) "empty" [] (Engine.Vec.to_list v);
        Engine.Vec.push v 7;
        check Alcotest.int "reusable" 7 (Engine.Vec.get v 0));
  ]

let counter_value ctx name =
  Engine.Metrics.counter_value
    (Engine.Metrics.counter ctx.Engine.Ctx.metrics name)

let faults_tests =
  let cfg =
    {
      Engine.Faults.no_faults with
      Engine.Faults.llm_throttle = 0.5;
      io_failure = 0.5;
    }
  in
  let stream t site n = List.init n (fun _ -> Engine.Faults.fire t site) in
  [
    tc "per-site streams are independent of interleaving" (fun () ->
        let a = Engine.Faults.create ~seed:7 cfg in
        let b = Engine.Faults.create ~seed:7 cfg in
        (* draining io draws on [b] must not shift its llm stream *)
        let da = stream a Engine.Faults.Llm_throttle 50 in
        let db =
          List.init 50 (fun _ ->
              ignore (Engine.Faults.fire b Engine.Faults.Io_failure);
              Engine.Faults.fire b Engine.Faults.Llm_throttle)
        in
        check Alcotest.(list bool) "same llm decisions" da db;
        check Alcotest.bool "stream is non-trivial" true
          (List.mem true da && List.mem false da));
    tc "derive is stable per tag and consumes no parent state" (fun () ->
        let p = Engine.Faults.create ~seed:1 cfg in
        let c1 = Engine.Faults.derive p ~tag:5 in
        let c2 = Engine.Faults.derive p ~tag:5 in
        let s1 = stream c1 Engine.Faults.Llm_throttle 50 in
        check Alcotest.(list bool) "equal tags reproduce" s1
          (stream c2 Engine.Faults.Llm_throttle 50);
        check Alcotest.bool "distinct tags diverge" false
          (s1
          = stream (Engine.Faults.derive p ~tag:6) Engine.Faults.Llm_throttle 50);
        check
          Alcotest.(list bool)
          "parent stream untouched by derivation"
          (stream (Engine.Faults.create ~seed:1 cfg) Engine.Faults.Llm_throttle
             50)
          (stream p Engine.Faults.Llm_throttle 50));
    tc "zero-rate sites never fire" (fun () ->
        let t = Engine.Faults.create ~seed:3 Engine.Faults.no_faults in
        check Alcotest.bool "silent" false
          (List.mem true (stream t Engine.Faults.Worker_oom 100)));
    tc "fired faults bump the injected counter" (fun () ->
        let ctx = Engine.Ctx.create () in
        let t =
          Engine.Faults.create
            { Engine.Faults.no_faults with Engine.Faults.compile_hang = 1.0 }
        in
        for _ = 1 to 5 do
          ignore (Engine.Faults.fire ~ctx t Engine.Faults.Compile_hang)
        done;
        check Alcotest.int "counted" 5
          (counter_value ctx "faults.injected.compile_hang"));
    tc "spec parses, round-trips, and rejects junk" (fun () ->
        (match Engine.Faults.parse_spec "llm=0.25,hang=0.5,oom=0,io=1" with
        | Ok c ->
          check (Alcotest.float 1e-9) "llm" 0.25 c.Engine.Faults.llm_throttle;
          check (Alcotest.float 1e-9) "io" 1.0 c.Engine.Faults.io_failure;
          check Alcotest.bool "round-trip" true
            (Engine.Faults.parse_spec (Engine.Faults.spec_to_string c) = Ok c)
        | Error e -> Alcotest.failf "spec rejected: %s" e);
        check Alcotest.bool "off" true
          (Engine.Faults.parse_spec "off" = Ok Engine.Faults.no_faults);
        check Alcotest.string "off renders" "off"
          (Engine.Faults.spec_to_string Engine.Faults.no_faults);
        check Alcotest.bool "rate out of range" true
          (Result.is_error (Engine.Faults.parse_spec "llm=2"));
        check Alcotest.bool "unknown site" true
          (Result.is_error (Engine.Faults.parse_spec "bogus=0.1")));
    tc "shard-layer sites parse and round-trip canonically" (fun () ->
        (match
           Engine.Faults.parse_spec "frame=0.1,stall=0.05,oom=0.01,coord=0.02"
         with
        | Ok c ->
          check (Alcotest.float 1e-9) "frame" 0.1 c.Engine.Faults.frame_garble;
          check (Alcotest.float 1e-9) "stall" 0.05 c.Engine.Faults.frame_stall;
          check (Alcotest.float 1e-9) "oom" 0.01 c.Engine.Faults.worker_oom;
          check (Alcotest.float 1e-9) "coord" 0.02
            c.Engine.Faults.coordinator_crash;
          (* single-process sites stay silent *)
          check (Alcotest.float 1e-9) "llm untouched" 0.
            c.Engine.Faults.llm_throttle;
          check Alcotest.bool "round-trip" true
            (Engine.Faults.parse_spec (Engine.Faults.spec_to_string c) = Ok c)
        | Error e -> Alcotest.failf "shard spec rejected: %s" e);
        (* long names are accepted and canonicalize to the short keys *)
        check Alcotest.bool "long names accepted" true
          (Engine.Faults.parse_spec "frame_garble=0.1,worker_oom=0.01"
          = Engine.Faults.parse_spec "frame=0.1,oom=0.01");
        check Alcotest.int "seven sites" 7
          (List.length Engine.Faults.all_sites));
    tc "legacy specs parse as before; crash= is an unknown site" (fun () ->
        (match Engine.Faults.parse_spec "llm=0.2,hang=0.01,io=0.02" with
        | Ok c ->
          check (Alcotest.float 1e-9) "llm" 0.2 c.Engine.Faults.llm_throttle;
          check (Alcotest.float 1e-9) "hang" 0.01 c.Engine.Faults.compile_hang;
          check (Alcotest.float 1e-9) "io" 0.02 c.Engine.Faults.io_failure;
          List.iter
            (fun site ->
              check (Alcotest.float 1e-9)
                (Engine.Faults.site_to_string site ^ " defaults to zero")
                0. (Engine.Faults.rate c site))
            Engine.Faults.
              [ Frame_garble; Frame_stall; Worker_oom; Coordinator_crash ];
          (* the canonical string — and with it every fingerprint baked
             into existing checkpoints — is unchanged *)
          check Alcotest.string "canonical spec unchanged"
            "llm=0.2,hang=0.01,io=0.02"
            (Engine.Faults.spec_to_string c)
        | Error e -> Alcotest.failf "legacy spec rejected: %s" e);
        List.iter
          (fun spec ->
            match Engine.Faults.parse_spec spec with
            | Error e ->
              check Alcotest.bool (spec ^ " names the site") true
                (Astring.String.is_infix ~affix:"unknown site" e)
            | Ok _ -> Alcotest.failf "%s must be rejected" spec)
          [ "crash=0.1"; "worker_crash=0.1"; "llm=0.2,crash=0.05" ];
        (* the environment hook fails loudly too: CI must not run a
           silently fault-free job *)
        let saved = Sys.getenv_opt "METAMUT_FAULTS" in
        Unix.putenv "METAMUT_FAULTS" "hang=0.05,crash=0.2";
        let from_env =
          Fun.protect
            ~finally:(fun () ->
              Unix.putenv "METAMUT_FAULTS" (Option.value ~default:"" saved))
            (fun () ->
              match Engine.Faults.config_from_env () with
              | _ -> None
              | exception Invalid_argument msg -> Some msg)
        in
        match from_env with
        | Some msg ->
          check Alcotest.bool "METAMUT_FAULTS names the site" true
            (Astring.String.is_infix ~affix:"unknown site \"crash\"" msg)
        | None -> Alcotest.fail "METAMUT_FAULTS with crash= must raise");
    tc "METAMUT_FAULT_SEED must be an integer" (fun () ->
        let saved = Sys.getenv_opt "METAMUT_FAULT_SEED" in
        let seed_of v =
          Unix.putenv "METAMUT_FAULT_SEED" v;
          match Engine.Faults.seed_from_env () with
          | n -> Ok n
          | exception Invalid_argument msg -> Error msg
        in
        let parsed, blank, malformed =
          Fun.protect
            ~finally:(fun () ->
              Unix.putenv "METAMUT_FAULT_SEED"
                (Option.value ~default:"" saved))
            (fun () -> (seed_of " 17 ", seed_of "", seed_of "abc"))
        in
        check Alcotest.(result int string) "integer" (Ok 17) parsed;
        check Alcotest.(result int string) "blank is unset" (Ok 0) blank;
        match malformed with
        | Error msg ->
          check Alcotest.bool "names the variable" true
            (Astring.String.is_infix ~affix:"METAMUT_FAULT_SEED" msg)
        | Ok n -> Alcotest.failf "\"abc\" parsed as seed %d" n);
    tc "surviving sites keep their streams bit for bit" (fun () ->
        (* first 64 decisions at seed 42, rate 0.5, recorded before the
           in-process worker-crash site was removed: the site indices
           that salt each stream must not move *)
        let t =
          Engine.Faults.create ~seed:42
            {
              Engine.Faults.no_faults with
              Engine.Faults.io_failure = 0.5;
              worker_oom = 0.5;
            }
        in
        let bits site =
          String.concat ""
            (List.map
               (fun b -> if b then "1" else "0")
               (stream t site 64))
        in
        check Alcotest.string "io_failure"
          "1010011011001010101011100101001011110111101110001010110111000110"
          (bits Engine.Faults.Io_failure);
        check Alcotest.string "worker_oom"
          "0000100001111110010100001001110010110100100110001001010001110100"
          (bits Engine.Faults.Worker_oom));
  ]

let retry_tests =
  let p = Engine.Retry.default_policy in
  [
    tc "backoff doubles from the base and respects the cap" (fun () ->
        (* jitter01 = 0.5 is the centre of the 1±jitter window: factor 1 *)
        let d n = Engine.Retry.delay_for p ~attempt:n ~jitter01:0.5 in
        check (Alcotest.float 1e-9) "first" 1. (d 1);
        check (Alcotest.float 1e-9) "second" 2. (d 2);
        check (Alcotest.float 1e-9) "third" 4. (d 3);
        check (Alcotest.float 1e-9) "capped" 30. (d 10);
        check (Alcotest.float 1e-9) "jitter floor" 0.5
          (Engine.Retry.delay_for p ~attempt:1 ~jitter01:0.));
    tc "recovery stops retrying and reports waits" (fun () ->
        let ctx = Engine.Ctx.create () in
        let out =
          Engine.Retry.run ~ctx ~name:"t" p
            ~retryable:(fun v -> v < 3)
            ~jitter:(fun () -> 0.5)
            (fun ~attempt -> attempt)
        in
        check Alcotest.int "value" 3 out.Engine.Retry.value;
        check Alcotest.int "attempts" 3 out.Engine.Retry.attempts;
        check (Alcotest.float 1e-9) "waited 1+2" 3. out.Engine.Retry.waited_s;
        check Alcotest.bool "recovered" true out.Engine.Retry.recovered;
        check Alcotest.int "t.attempts" 3 (counter_value ctx "t.attempts");
        check Alcotest.int "t.retried" 2 (counter_value ctx "t.retried");
        check Alcotest.int "t.recovered" 1 (counter_value ctx "t.recovered");
        check Alcotest.int "t.wait_ms" 3000 (counter_value ctx "t.wait_ms"));
    tc "exhaustion keeps the last value and is not a recovery" (fun () ->
        let ctx = Engine.Ctx.create () in
        let out =
          Engine.Retry.run ~ctx ~name:"t" p
            ~retryable:(fun _ -> true)
            ~jitter:(fun () -> 0.5)
            (fun ~attempt -> attempt)
        in
        check Alcotest.int "all attempts" 4 out.Engine.Retry.attempts;
        check (Alcotest.float 1e-9) "waited 1+2+4" 7. out.Engine.Retry.waited_s;
        check Alcotest.bool "not recovered" false out.Engine.Retry.recovered;
        check Alcotest.int "t.exhausted" 1 (counter_value ctx "t.exhausted"));
  ]

let checkpoint_tests =
  let temp_dir () = Filename.temp_dir "metamut-ckpt" "" in
  [
    tc "save/load round-trips a payload atomically" (fun () ->
        let path = Filename.concat (temp_dir ()) "a.ckpt" in
        (match Engine.Checkpoint.save ~path ~fingerprint:"fp" (42, "x") with
        | Ok () -> ()
        | Error e -> Alcotest.failf "save: %s" e);
        check Alcotest.bool "no stray temp file" false
          (Sys.file_exists (path ^ ".tmp"));
        match Engine.Checkpoint.load ~path ~fingerprint:"fp" with
        | Ok v -> check (Alcotest.pair Alcotest.int Alcotest.string) "value"
                    (42, "x") v
        | Error e -> Alcotest.failf "load: %s" e);
    tc "mismatched fingerprints refuse to load" (fun () ->
        let path = Filename.concat (temp_dir ()) "b.ckpt" in
        (match Engine.Checkpoint.save ~path ~fingerprint:"old" () with
        | Ok () -> ()
        | Error e -> Alcotest.failf "save: %s" e);
        check Alcotest.bool "refused" true
          (Result.is_error
             (Engine.Checkpoint.load ~path ~fingerprint:"new" : (unit, _) result)));
    tc "corrupt files are errors, not exceptions" (fun () ->
        let path = Filename.concat (temp_dir ()) "c.ckpt" in
        let oc = open_out_bin path in
        output_string oc "not a checkpoint";
        close_out oc;
        check Alcotest.bool "rejected" true
          (Result.is_error
             (Engine.Checkpoint.load ~path ~fingerprint:"fp" : (unit, _) result)));
    tc "injected i/o failures exhaust the retry budget" (fun () ->
        let ctx = Engine.Ctx.create () in
        let faults =
          Engine.Faults.create
            { Engine.Faults.no_faults with Engine.Faults.io_failure = 1.0 }
        in
        let path = Filename.concat (temp_dir ()) "d.ckpt" in
        check Alcotest.bool "save fails" true
          (Result.is_error
             (Engine.Checkpoint.save ~faults ~ctx ~path ~fingerprint:"fp" ()));
        check Alcotest.bool "nothing written" false (Sys.file_exists path);
        check Alcotest.int "failure counted" 1
          (counter_value ctx "checkpoint.save_failed"));
  ]

(* The shard pool's supervision contract.  Every case runs inline
   (shards:1) and on three forked workers, and the verdicts must agree. *)
let verdicts =
  Alcotest.testable
    (fun ppf (v : Engine.Shard.verdict) ->
      match v with
      | Done b -> Fmt.pf ppf "Done %S" b
      | Failed m -> Fmt.pf ppf "Failed %S" m
      | Quarantined { q_reason; q_attempts } ->
        Fmt.pf ppf "Quarantined{%S after %d}" q_reason q_attempts)
    ( = )
  |> Alcotest.array

let pool ~shards ?limits ?faults ?ctx ?on_event f leases =
  Engine.Shard.run_pool ~shards ~backend:Engine.Shard.Fork ?limits ?faults
    ?ctx ?on_event ~f leases

let supervision_tests =
  [
    tc "flaky items recover behind the per-item barrier" (fun () ->
        (* every lease fails its first attempt and succeeds on the retry *)
        let f ~heartbeat:_ ~seq:_ ~attempt body =
          if attempt = 0 then failwith "flake" else "ok:" ^ body
        in
        let leases = Array.init 5 string_of_int in
        let run shards =
          let retries = ref 0 in
          let on_event ~seq:_ = function
            | Engine.Shard.Lease_retry _ -> incr retries
            | _ -> ()
          in
          let r, _ = pool ~shards ~on_event f leases in
          (r, !retries)
        in
        let seq_r, seq_retries = run 1 and par_r, par_retries = run 3 in
        check verdicts "all recovered"
          (Array.map (fun b -> Engine.Shard.Done ("ok:" ^ b)) leases)
          seq_r;
        check verdicts "shards:1 ≡ shards:3" seq_r par_r;
        check Alcotest.int "one retry per lease inline" 5 seq_retries;
        check Alcotest.int "one retry per lease pooled" 5 par_retries);
    tc "persistent failures surface without killing siblings" (fun () ->
        let f ~heartbeat:_ ~seq:_ ~attempt:_ body =
          if body = "1" then failwith "dead" else body ^ "0"
        in
        let run shards =
          fst
            (pool ~shards
               ~limits:{ Engine.Shard.default_limits with max_attempts = 3 }
               f [| "0"; "1"; "2" |])
        in
        let seq_r = run 1 in
        check verdicts "shards:1 ≡ shards:3" seq_r (run 3);
        (match seq_r.(1) with
        | Engine.Shard.Failed msg ->
          check Alcotest.string "last exception" "Failure(\"dead\")" msg
        | _ -> Alcotest.fail "expected a Failed verdict");
        check verdicts "siblings fine"
          [| Engine.Shard.Done "00"; Done "20" |]
          [| seq_r.(0); seq_r.(2) |]);
    tc "injected worker deaths requeue every orphaned item" (fun () ->
        (* worker OOM kills at a rate that hits several first attempts
           but lets every lease through within its attempt budget *)
        let faults () =
          Engine.Faults.create ~seed:5
            { Engine.Faults.no_faults with Engine.Faults.worker_oom = 0.3 }
        in
        let leases = Array.init 9 string_of_int in
        let run shards =
          let ctx = Engine.Ctx.create () in
          let r, stats =
            pool ~shards ~faults:(faults ()) ~ctx
              (fun ~heartbeat:_ ~seq:_ ~attempt:_ b -> b ^ "+1")
              leases
          in
          (r, stats, counter_value ctx "shard.requeued")
        in
        let seq_r, seq_stats, seq_requeued = run 1 in
        let par_r, par_stats, par_requeued = run 3 in
        check verdicts "all items completed"
          (Array.map (fun b -> Engine.Shard.Done (b ^ "+1")) leases)
          seq_r;
        check verdicts "shards:1 ≡ shards:3" seq_r par_r;
        check Alcotest.bool "deaths injected" true
          (seq_stats.Engine.Shard.st_died > 0);
        (* the same per-(lease, attempt) streams kill the same attempts *)
        check Alcotest.int "same deaths" seq_stats.Engine.Shard.st_died
          par_stats.Engine.Shard.st_died;
        check Alcotest.int "every death requeued"
          seq_stats.Engine.Shard.st_died seq_requeued;
        check Alcotest.int "same requeues" seq_requeued par_requeued);
    tc "healthy runs leave the registry untouched" (fun () ->
        List.iter
          (fun shards ->
            let ctx = Engine.Ctx.create () in
            ignore
              (pool ~shards ~ctx
                 (fun ~heartbeat:_ ~seq:_ ~attempt:_ b -> b)
                 (Array.init 8 string_of_int));
            check Alcotest.bool
              (Fmt.str "metrics-silent at shards:%d" shards)
              true
              (Engine.Metrics.snapshot ctx.Engine.Ctx.metrics = []))
          [ 1; 3 ]);
  ]

(* The acceptance-criterion guarantee: a campaign dealt to worker
   processes reproduces the inline per-cell results exactly.  The runs
   also differ in [cfg.jobs], which no longer schedules anything: the
   pairs pin that the retained field stays inert. *)
let small_campaign =
  {
    Fuzzing.Campaign.default_config with
    iterations = 12;
    seeds = 10;
    sample_every = 4;
    max_attempts = 4;
  }

let campaign ?(cfg = small_campaign) ?fuzzers ?engine ?faults ~jobs () =
  Fuzzing.Coordinator.run
    ~cfg:{ cfg with Fuzzing.Campaign.jobs }
    ?fuzzers ?engine ?faults ~shards:jobs ~backend:Engine.Shard.Fork ()

let determinism_tests =
  [
    tc "campaign jobs:1 and jobs:4 produce identical results" (fun () ->
        let fingerprint jobs =
          let t = campaign ~jobs () in
          List.map
            (fun (u, (r : Fuzzing.Fuzz_result.t)) ->
              ( Fuzzing.Coordinator.unit_tag u,
                ( List.sort compare
                    (Simcomp.Coverage.branch_ids r.Fuzzing.Fuzz_result.coverage),
                  List.sort compare (Fuzzing.Fuzz_result.crash_keys r),
                  r.Fuzzing.Fuzz_result.coverage_trend,
                  ( r.Fuzzing.Fuzz_result.total_mutants,
                    r.Fuzzing.Fuzz_result.compilable_mutants ) ) ))
            t.Fuzzing.Coordinator.results
        in
        let seq = fingerprint 1 and par = fingerprint 4 in
        check Alcotest.int "every cell" 12 (List.length seq);
        check Alcotest.bool "identical coverage/crash/trend sets" true
          (seq = par));
    tc "parallel metrics merge equals the sequential registry" (fun () ->
        let cfg = { small_campaign with iterations = 8; seeds = 6 } in
        let counters jobs =
          let engine = Engine.Ctx.create () in
          ignore
            (campaign ~cfg ~fuzzers:[ Fuzzing.Campaign.MuCFuzz_u ] ~engine
               ~jobs ());
          List.filter
            (function _, Engine.Metrics.Counter _ -> true | _ -> false)
            (Engine.Metrics.snapshot engine.Engine.Ctx.metrics)
        in
        let seq = counters 1 in
        check Alcotest.bool "compiles counted" true
          (List.mem_assoc "compile.total" seq);
        check Alcotest.bool "same counters" true (seq = counters 2));
    tc "faulted campaign is identical at any job count" (fun () ->
        (* the CI fault job raises these rates via METAMUT_FAULTS; the
           invariance must hold at whatever configuration is injected *)
        let config =
          match Engine.Faults.config_from_env () with
          | Some c -> c
          | None ->
            {
              Engine.Faults.no_faults with
              Engine.Faults.compile_hang = 0.05;
              worker_oom = 0.3;
            }
        in
        let cfg = { small_campaign with iterations = 10; seeds = 8 } in
        let run jobs =
          let faults =
            Engine.Faults.create ~seed:(Engine.Faults.seed_from_env ()) config
          in
          campaign ~cfg ~faults ~jobs ()
        in
        let a = run 1 and b = run 4 in
        let units (t : Fuzzing.Coordinator.t) =
          List.map (fun (u, _) -> Fuzzing.Coordinator.unit_name u)
            t.Fuzzing.Coordinator.results
        in
        let quarantined (t : Fuzzing.Coordinator.t) =
          List.map
            (fun (q : Fuzzing.Coordinator.quarantined_unit) ->
              Fuzzing.Coordinator.unit_name q.Fuzzing.Coordinator.qu_unit)
            t.Fuzzing.Coordinator.quarantined
        in
        check Alcotest.(list string) "same completed cells" (units a) (units b);
        check Alcotest.(list string) "same quarantined cells" (quarantined a)
          (quarantined b);
        List.iter2
          (fun (u, r1) (_, r2) ->
            check Alcotest.bool
              ("equal result for " ^ Fuzzing.Coordinator.unit_name u)
              true
              (Fuzzing.Fuzz_result.equal r1 r2))
          a.Fuzzing.Coordinator.results b.Fuzzing.Coordinator.results;
        check Alcotest.string "identical report"
          (Fuzzing.Coordinator.report a)
          (Fuzzing.Coordinator.report b));
  ]

let mucfuzz_engine_tests =
  [
    tc "trend starts with the seed baseline sample" (fun () ->
        let seeds = Fuzzing.Seeds.corpus ~n:8 (Cparse.Rng.create 3) in
        let r =
          Fuzzing.Mucfuzz.run
            ~cfg:
              {
                (Fuzzing.Mucfuzz.default_config ()) with
                Fuzzing.Mucfuzz.max_attempts_per_iteration = 4;
                sample_every = 5;
              }
            ~rng:(Cparse.Rng.create 11) ~compiler:Simcomp.Compiler.Gcc ~seeds
            ~iterations:10 ~name:"t" ()
        in
        match r.Fuzzing.Fuzz_result.coverage_trend with
        | (0, covered) :: rest ->
          check Alcotest.bool "baseline covered" true (covered > 0);
          check Alcotest.bool "later samples follow" true
            (List.for_all (fun (i, _) -> i > 0) rest)
        | _ -> Alcotest.fail "trend must start at iteration 0");
    tc "per-mutator counters balance: attempts = outcomes" (fun () ->
        let seeds = Fuzzing.Seeds.corpus ~n:8 (Cparse.Rng.create 3) in
        let cfg =
          {
            (Fuzzing.Mucfuzz.default_config ()) with
            Fuzzing.Mucfuzz.max_attempts_per_iteration = 6;
          }
        in
        let fuzz ~engine ~iterations =
          ignore
            (Fuzzing.Mucfuzz.run ~cfg ~engine ~rng:(Cparse.Rng.create 5)
               ~compiler:Simcomp.Compiler.Gcc ~seeds ~iterations ~name:"t" ())
        in
        (* a zero-iteration run compiles only the (parseable) seeds *)
        let seed_engine = Engine.Ctx.create () in
        fuzz ~engine:seed_engine ~iterations:0;
        let seed_compiles =
          Engine.Metrics.counter_value
            (Engine.Metrics.counter seed_engine.Engine.Ctx.metrics
               "compile.total")
        in
        check Alcotest.bool "seeds compiled" true (seed_compiles > 0);
        let engine = Engine.Ctx.create () in
        fuzz ~engine ~iterations:15;
        let reg = engine.Engine.Ctx.metrics in
        let sum prefix =
          List.fold_left
            (fun acc (_, n) -> acc + n)
            0
            (Engine.Metrics.counters_with_prefix reg ~prefix)
        in
        let attempts = sum "mucfuzz.attempt." in
        check Alcotest.bool "some attempts" true (attempts > 0);
        check Alcotest.int "attempt = accept + reject + inapplicable"
          attempts
          (sum "mucfuzz.accept." + sum "mucfuzz.reject."
          + sum "mucfuzz.inapplicable.");
        (* compile events were emitted for every produced mutant + seed *)
        let compiles =
          Engine.Metrics.counter_value
            (Engine.Metrics.counter reg "compile.total")
        in
        check Alcotest.int "compiles = seeds + produced mutants" compiles
          (seed_compiles + sum "mucfuzz.accept." + sum "mucfuzz.reject."));
  ]

let () =
  Alcotest.run "engine"
    [
      ("metrics", metrics_tests);
      ("events", event_tests);
      ("spans", span_tests);
      ("vec", vec_tests);
      ("faults", faults_tests);
      ("retry", retry_tests);
      ("checkpoint", checkpoint_tests);
      ("supervision", supervision_tests);
      ("determinism", determinism_tests);
      ("mucfuzz-engine", mucfuzz_engine_tests);
    ]
