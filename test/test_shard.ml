(* Tests for multi-process sharding: the frame protocol (round-trips,
   garbled/short/oversized frames rejected without hanging, timeouts),
   the worker pool (shards:1 ≡ shards:K, death-mid-lease requeue,
   deterministic failures), the sharded campaign coordinator
   (shards:1 ≡ shards:4 byte-identical report, opt-matrix determinism,
   resume from journals alone), and Status TTY ownership. *)

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let frame_eq (a : Engine.Shard.frame) (b : Engine.Shard.frame) = a = b

let frame_testable =
  Alcotest.testable
    (fun ppf (f : Engine.Shard.frame) ->
      Fmt.pf ppf "%s"
        (match f with
        | Hello { shard } -> Fmt.str "Hello %d" shard
        | Request -> "Request"
        | Lease { seq; attempt; body } ->
          Fmt.str "Lease %d/%d %S" seq attempt body
        | Result { seq; body } -> Fmt.str "Result %d %S" seq body
        | Heartbeat { execs; covered; crashes } ->
          Fmt.str "Heartbeat %d %d %d" execs covered crashes
        | Shutdown -> "Shutdown"))
    frame_eq

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () -> f (Engine.Shard.of_fd a) (Engine.Shard.of_fd b))

let recv_ok ?timeout_s c =
  match Engine.Shard.recv ?timeout_s c with
  | Ok f -> f
  | Error e -> Alcotest.fail ("recv: " ^ Engine.Shard.recv_error_to_string e)

(* ------------------------------------------------------------------ *)
(* Frame protocol                                                      *)
(* ------------------------------------------------------------------ *)

let protocol_tests =
  [
    tc "every frame round-trips over a socketpair" (fun () ->
        with_socketpair (fun a b ->
            let frames : Engine.Shard.frame list =
              [
                Hello { shard = 3 };
                Request;
                Lease { seq = 7; attempt = 1; body = "the lease body" };
                Result { seq = 7; body = String.make 5000 'x' };
                Heartbeat { execs = 123456; covered = 42; crashes = 7 };
                Lease { seq = 0; attempt = 0; body = "" };
                Shutdown;
              ]
            in
            List.iter (fun f -> Engine.Shard.send a f) frames;
            List.iter
              (fun f ->
                check frame_testable "frame" f (recv_ok ~timeout_s:5. b))
              frames));
    tc "garbled magic is rejected without hanging" (fun () ->
        with_socketpair (fun a b ->
            let junk = Bytes.of_string "NOTaframe-at-all" in
            ignore (Unix.write (Engine.Shard.fd a) junk 0 (Bytes.length junk));
            match Engine.Shard.recv ~timeout_s:2. b with
            | Error (Garbled _) -> ()
            | Ok _ | Error _ -> Alcotest.fail "expected Garbled"));
    tc "cross-version magic is garbled, not misparsed" (fun () ->
        with_socketpair (fun a b ->
            (* same "MSF" stem, different version byte *)
            let h = Bytes.of_string "MSF\xff\x01\x00\x00\x00\x00" in
            ignore (Unix.write (Engine.Shard.fd a) h 0 (Bytes.length h));
            match Engine.Shard.recv ~timeout_s:2. b with
            | Error (Garbled msg) ->
              check Alcotest.bool "mentions protocol"
                true
                (Astring.String.is_infix ~affix:"protocol" msg
                 || String.length msg > 0)
            | Ok _ | Error _ -> Alcotest.fail "expected Garbled"));
    tc "oversized length is garbled" (fun () ->
        with_socketpair (fun a b ->
            let h = Bytes.create 9 in
            Bytes.blit_string Engine.Shard.magic 0 h 0 4;
            Bytes.set_uint8 h 4 1 (* Request *);
            Bytes.set_int32_be h 5 0x7fffffffl;
            ignore (Unix.write (Engine.Shard.fd a) h 0 9);
            match Engine.Shard.recv ~timeout_s:2. b with
            | Error (Garbled _) -> ()
            | Ok _ | Error _ -> Alcotest.fail "expected Garbled"));
    tc "short frame (EOF mid-payload) is garbled, not a hang" (fun () ->
        with_socketpair (fun a b ->
            let h = Bytes.create 11 in
            Bytes.blit_string Engine.Shard.magic 0 h 0 4;
            Bytes.set_uint8 h 4 3 (* Result *);
            Bytes.set_int32_be h 5 100l (* promises 100 payload bytes *);
            (* ...delivers 2 *)
            ignore (Unix.write (Engine.Shard.fd a) h 0 11);
            Unix.close (Engine.Shard.fd a);
            match Engine.Shard.recv ~timeout_s:2. b with
            | Error (Garbled _) -> ()
            | Ok _ | Error _ -> Alcotest.fail "expected Garbled"));
    tc "stalled mid-frame peer times out" (fun () ->
        with_socketpair (fun a b ->
            let h = Bytes.create 9 in
            Bytes.blit_string Engine.Shard.magic 0 h 0 4;
            Bytes.set_uint8 h 4 3;
            Bytes.set_int32_be h 5 100l;
            ignore (Unix.write (Engine.Shard.fd a) h 0 9);
            (* peer stays connected but never sends the payload *)
            let t0 = Unix.gettimeofday () in
            (match Engine.Shard.recv ~timeout_s:0.3 b with
            | Error Timeout -> ()
            | Ok _ | Error _ -> Alcotest.fail "expected Timeout");
            check Alcotest.bool "returned promptly" true
              (Unix.gettimeofday () -. t0 < 2.)));
    tc "EOF at a frame boundary is an orderly Closed" (fun () ->
        with_socketpair (fun a b ->
            Unix.close (Engine.Shard.fd a);
            match Engine.Shard.recv ~timeout_s:2. b with
            | Error Closed -> ()
            | Ok _ | Error _ -> Alcotest.fail "expected Closed"));
    tc "encode/decode round-trips; truncated payload is an Error" (fun () ->
        let v = (42, "hello", [ 1.5; 2.5 ]) in
        let s = Engine.Shard.encode v in
        (match Engine.Shard.decode s with
        | Ok v' ->
          check
            Alcotest.(triple int string (list (float 1e-9)))
            "round-trip" v v'
        | Error msg -> Alcotest.fail msg);
        (match Engine.Shard.decode (String.sub s 0 (String.length s - 1)) with
        | Error _ -> ()
        | Ok (_ : int * string * float list) ->
          Alcotest.fail "truncated payload decoded");
        match Engine.Shard.decode "xx" with
        | Error _ -> ()
        | Ok (_ : int) -> Alcotest.fail "2-byte string decoded");
  ]

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

(* a pure work function: the pooled result must match the inline one *)
let upper_f ~heartbeat ~seq ~attempt:_ body =
  heartbeat ~execs:(seq + 1) ~covered:0 ~crashes:0;
  String.uppercase_ascii body ^ Fmt.str "#%d" seq

let verdict_testable =
  Alcotest.testable
    (fun ppf (v : Engine.Shard.verdict) ->
      match v with
      | Done b -> Fmt.pf ppf "Done %S" b
      | Failed m -> Fmt.pf ppf "Failed %S" m
      | Quarantined { q_reason; q_attempts } ->
        Fmt.pf ppf "Quarantined{%S after %d}" q_reason q_attempts)
    (fun (a : Engine.Shard.verdict) b -> a = b)

let verdicts_testable = Alcotest.array verdict_testable

let faults_of_spec ?(seed = 11) spec =
  match Engine.Faults.parse_spec spec with
  | Ok cfg -> Engine.Faults.create ~seed cfg
  | Error msg -> Alcotest.fail msg

let pool_tests =
  [
    tc "run_pool shards:1 ≡ shards:3 (fork)" (fun () ->
        let leases = Array.init 7 (fun i -> Fmt.str "lease-%d" i) in
        let seq_r, seq_stats =
          Engine.Shard.run_pool ~shards:1 ~f:upper_f leases
        in
        let par_r, _ =
          Engine.Shard.run_pool ~shards:3 ~f:upper_f leases
        in
        check verdicts_testable "results equal" seq_r par_r;
        check Alcotest.int "no deaths inline" 0 seq_stats.Engine.Shard.st_died;
        Array.iteri
          (fun i r ->
            check verdict_testable "computed"
              (Engine.Shard.Done (Fmt.str "LEASE-%d#%d" i i))
              r)
          seq_r);
    tc "heartbeats reach the coordinator" (fun () ->
        let beats = ref 0 in
        let leases = Array.init 3 (fun i -> string_of_int i) in
        let _, _ =
          Engine.Shard.run_pool ~shards:2
            ~on_heartbeat:(fun ~shard:_ ~execs:_ ~covered:_ ~crashes:_ ->
              incr beats)
            ~f:upper_f leases
        in
        check Alcotest.bool "got heartbeats" true (!beats >= 1));
    tc "worker death mid-lease: lease requeued, pool recovers" (fun () ->
        (* kill once: the lease carries its own poison, first attempt only *)
        let f ~heartbeat:_ ~seq:_ ~attempt body =
          if body = "die" && attempt = 0 && Engine.Shard.in_worker () then
            Unix._exit 42;
          "ok:" ^ body
        in
        let ctx = Engine.Ctx.create () in
        let leases = [| "a"; "die"; "b"; "c" |] in
        let r, stats =
          Engine.Shard.run_pool ~shards:2 ~ctx ~f
            leases
        in
        check verdicts_testable "all recovered"
          [|
            Engine.Shard.Done "ok:a"; Done "ok:die"; Done "ok:b"; Done "ok:c";
          |]
          r;
        check Alcotest.bool "death counted" true
          (stats.Engine.Shard.st_died >= 1);
        check Alcotest.bool "requeue counted" true
          (stats.Engine.Shard.st_requeued >= 1);
        (* interventions land in the metrics registry *)
        check Alcotest.bool "shard.worker_died bumped" true
          (Engine.Metrics.counter_value
             (Engine.Metrics.counter ctx.Engine.Ctx.metrics
                "shard.worker_died")
           >= 1));
    tc "deterministic failure burns attempts then lands in Error" (fun () ->
        let f ~heartbeat:_ ~seq:_ ~attempt:_ body =
          if body = "bad" then failwith "always broken";
          "ok:" ^ body
        in
        let r, stats =
          Engine.Shard.run_pool ~shards:2
            ~limits:{ Engine.Shard.default_limits with max_attempts = 2 }
            ~f [| "x"; "bad"; "y" |]
        in
        (match r.(1) with
        | Engine.Shard.Failed msg ->
          check Alcotest.bool "carries the exception" true
            (Astring.String.is_infix ~affix:"always broken" msg)
        | Done _ | Quarantined _ ->
          Alcotest.fail "deterministic failure did not land in Failed");
        check verdict_testable "siblings unaffected"
          (Engine.Shard.Done "ok:x") r.(0);
        check verdict_testable "siblings unaffected"
          (Engine.Shard.Done "ok:y") r.(2);
        (* healthy-worker failures are not deaths *)
        check Alcotest.int "no deaths" 0 stats.Engine.Shard.st_died);
  ]

(* ------------------------------------------------------------------ *)
(* Shard-layer chaos and the resource governor                         *)
(* ------------------------------------------------------------------ *)

(* Chaos verdicts are shard-count-invariant: every fault decision comes
   off a stream derived per (lease, attempt) from the root seed, so the
   inline degenerate mode and a real worker pool agree on which attempt
   of which lease gets hit — and therefore on every final verdict. *)
let chaos_tests =
  let quick_limits =
    { Engine.Shard.default_limits with hang_timeout_s = 1.0 }
  in
  let run ~shards ?limits ?faults ?ctx ?journal leases =
    Engine.Shard.run_pool ~shards
      ~limits:(Option.value ~default:quick_limits limits)
      ?faults ?ctx ?journal ~f:upper_f leases
  in
  [
    tc "injected oom/garble/stall: shards:1 ≡ shards:3 verdicts" (fun () ->
        let leases = Array.init 8 (fun i -> Fmt.str "lease-%d" i) in
        let spec = "oom=0.35,frame=0.25,stall=0.2" in
        let seq_r, _ = run ~shards:1 ~faults:(faults_of_spec spec) leases in
        let ctx = Engine.Ctx.create () in
        let par_r, stats =
          run ~shards:3 ~faults:(faults_of_spec spec) ~ctx leases
        in
        check verdicts_testable "verdicts equal under chaos" seq_r par_r;
        (* at these rates the stream provably hits something *)
        check Alcotest.bool "chaos actually fired" true
          (stats.Engine.Shard.st_died >= 1);
        Array.iter
          (function
            | Engine.Shard.Done _ | Quarantined _ -> ()
            | Failed msg -> Alcotest.fail ("chaos leaked a Failed: " ^ msg))
          par_r;
        (* every injected kill was recovered or quarantined, and the
           registry shows only intervention counters *)
        let counter name =
          Engine.Metrics.counter_value
            (Engine.Metrics.counter ctx.Engine.Ctx.metrics name)
        in
        check Alcotest.bool "shard.worker_died bumped" true
          (counter "shard.worker_died" >= 1);
        check Alcotest.int "requeues match stats"
          stats.Engine.Shard.st_requeued
          (counter "shard.requeued"));
    tc "worker-oom at rate 1.0 trips the circuit breaker" (fun () ->
        let ctx = Engine.Ctx.create () in
        let r, stats =
          run ~shards:2 ~faults:(faults_of_spec "oom=1.0") ~ctx
            [| "a"; "b" |]
        in
        Array.iter
          (function
            | Engine.Shard.Quarantined { q_reason; q_attempts } ->
              check Alcotest.bool "reason names the oom category" true
                (Astring.String.is_infix ~affix:"worker-oom" q_reason);
              check Alcotest.bool "attempts were burned" true (q_attempts >= 1)
            | Done _ | Failed _ ->
              Alcotest.fail "permanent oom must quarantine")
          r;
        check Alcotest.int "every lease quarantined" 2
          stats.Engine.Shard.st_quarantined;
        check Alcotest.bool "oom kills counted" true
          (stats.Engine.Shard.st_oom >= 1);
        check Alcotest.bool "breaker counter bumped" true
          (Engine.Metrics.counter_value
             (Engine.Metrics.counter ctx.Engine.Ctx.metrics
                "shard.breaker_tripped")
           >= 1));
    tc "coordinator_crash at rate 1.0: lossless, restarts counted"
      (fun () ->
        let leases = Array.init 5 (fun i -> Fmt.str "l%d" i) in
        let seq_r, _ = run ~shards:1 leases in
        let par_r, stats =
          run ~shards:2 ~faults:(faults_of_spec "coord=1.0") leases
        in
        check verdicts_testable "no committed result lost" seq_r par_r;
        check Alcotest.bool "the coordinator crash-restarted" true
          (stats.Engine.Shard.st_crash_restarts >= 1));
    tc "journal fires once per Done lease, before the join" (fun () ->
        let seen = Hashtbl.create 8 in
        let leases = Array.init 6 (fun i -> Fmt.str "j%d" i) in
        let r, _ =
          run ~shards:2
            ~journal:(fun ~seq body -> Hashtbl.replace seen seq body)
            leases
        in
        Array.iteri
          (fun seq v ->
            match v with
            | Engine.Shard.Done body ->
              check Alcotest.(option string) "journaled body" (Some body)
                (Hashtbl.find_opt seen seq)
            | Failed _ | Quarantined _ -> Alcotest.fail "healthy run failed")
          r);
    tc "lease deadline: a stuck lease is killed and quarantined" (fun () ->
        let f ~heartbeat:_ ~seq:_ ~attempt:_ body =
          if body = "stuck" && Engine.Shard.in_worker () then
            Unix.sleepf 30.;
          "ok:" ^ body
        in
        let ctx = Engine.Ctx.create () in
        let r, stats =
          Engine.Shard.run_pool ~shards:2
            ~limits:
              {
                Engine.Shard.default_limits with
                hang_timeout_s = 30.;
                lease_deadline_s = 0.4;
                max_attempts = 2;
              }
            ~ctx ~f [| "a"; "stuck"; "b" |]
        in
        (match r.(1) with
        | Engine.Shard.Quarantined { q_reason; q_attempts = 2 } ->
          check Alcotest.string "deadline category" "deadline" q_reason
        | v ->
          Alcotest.failf "expected deadline quarantine, got %a"
            (Alcotest.pp verdict_testable) v);
        check verdict_testable "siblings unaffected"
          (Engine.Shard.Done "ok:a") r.(0);
        check Alcotest.bool "deadline kills counted" true
          (stats.Engine.Shard.st_deadline >= 1);
        check Alcotest.bool "shard.deadline_killed bumped" true
          (Engine.Metrics.counter_value
             (Engine.Metrics.counter ctx.Engine.Ctx.metrics
                "shard.deadline_killed")
           >= 1));
    tc "allocation budget: a hog lease is OOM-killed by the governor"
      (fun () ->
        let f ~heartbeat:_ ~seq:_ ~attempt:_ body =
          if body = "hog" && Engine.Shard.in_worker () then
            for _ = 1 to 8 do
              ignore (Sys.opaque_identity (Bytes.create 8_000_000));
              Gc.full_major ()
            done;
          "ok:" ^ body
        in
        let r, stats =
          Engine.Shard.run_pool ~shards:2
            ~limits:
              {
                Engine.Shard.default_limits with
                alloc_budget_words = 1_000_000.;
              }
            ~f [| "a"; "hog"; "b" |]
        in
        (match r.(1) with
        | Engine.Shard.Quarantined { q_reason; _ } ->
          check Alcotest.bool "classified as worker-oom" true
            (Astring.String.is_infix ~affix:"worker-oom" q_reason)
        | v ->
          Alcotest.failf "expected oom quarantine, got %a"
            (Alcotest.pp verdict_testable) v);
        check verdict_testable "siblings unaffected"
          (Engine.Shard.Done "ok:b") r.(2);
        check Alcotest.bool "governor kills counted" true
          (stats.Engine.Shard.st_oom >= 1));
    tc "workers that die on every lease: breaker quarantines, none inline"
      (fun () ->
        (* the breaker trips before the attempt budget runs out; nothing
           but the per-lease limits stops the respawns *)
        let limits =
          { quick_limits with max_attempts = 6; breaker_deaths = 4 }
        in
        let f ~heartbeat ~seq ~attempt body =
          if Engine.Shard.in_worker () then Unix._exit 3;
          upper_f ~heartbeat ~seq ~attempt body
        in
        let leases = Array.init 6 (fun i -> Fmt.str "f%d" i) in
        let r, stats = Engine.Shard.run_pool ~shards:2 ~limits ~f leases in
        Array.iteri
          (fun i v ->
            check verdict_testable (Fmt.str "lease %d tripped the breaker" i)
              (Engine.Shard.Quarantined
                 {
                   q_reason = "circuit breaker: 4 worker deaths (worker-death)";
                   q_attempts = 4;
                 })
              v)
          r;
        check Alcotest.int "each lease charged its breaker's deaths"
          (Array.length leases * limits.breaker_deaths)
          stats.Engine.Shard.st_died;
        check Alcotest.int "nothing ran inline" 0 stats.Engine.Shard.st_inline);
    tc "a stalled peer does not get a healthy worker killed" (fun () ->
        (* the coordinator blocks for up to the hang timeout reading a
           stalled worker's partial frame; a healthy worker whose Result
           arrives meanwhile has spoken and must not be killed as silent *)
        let limits =
          { quick_limits with max_attempts = 5; breaker_deaths = 5 }
        in
        let f ~heartbeat ~seq ~attempt body =
          if Engine.Shard.in_worker () then
            Unix.sleepf (if seq = 0 then 0.1 else 0.3);
          upper_f ~heartbeat ~seq ~attempt body
        in
        let leases = [| "stalls"; "healthy" |] in
        let infra = Hashtbl.create 8 in
        let on_event ~seq = function
          | Engine.Shard.Lease_infra { category; attempt; _ } ->
            Hashtbl.add infra seq (category, attempt)
          | _ -> ()
        in
        (* a seed whose stream stalls lease 0 on its first attempt and
           never hits lease 1, read off the inline run's events *)
        let rec pick seed =
          if seed > 200 then Alcotest.fail "no seed stalls only lease 0";
          Hashtbl.reset infra;
          let r, _ =
            Engine.Shard.run_pool ~shards:1 ~limits
              ~faults:(faults_of_spec ~seed "stall=0.5")
              ~on_event ~f leases
          in
          if
            Hashtbl.find_all infra 0 |> List.mem ("stalled", 0)
            && Hashtbl.find_all infra 1 = []
          then (seed, r)
          else pick (seed + 1)
        in
        let seed, seq_r = pick 0 in
        Hashtbl.reset infra;
        let par_r, stats =
          Engine.Shard.run_pool ~shards:2 ~limits
            ~faults:(faults_of_spec ~seed "stall=0.5")
            ~on_event ~f leases
        in
        check Alcotest.bool "the stall fired" true
          (stats.Engine.Shard.st_hung >= 1);
        check
          Alcotest.(list (pair string int))
          "no attempt of the healthy lease was lost" []
          (Hashtbl.find_all infra 1);
        check verdicts_testable "verdicts equal the inline run" seq_r par_r);
    tc "a hang timeout that is not > 0 is refused up front" (fun () ->
        (* NaN first: a pool that accepted it would fail fast in select,
           while an accepted 0 would spin forever *)
        List.iter
          (fun hang_timeout_s ->
            match
              Engine.Shard.run_pool ~shards:2
                ~limits:{ Engine.Shard.default_limits with hang_timeout_s }
                ~f:upper_f [| "a"; "b" |]
            with
            | exception Invalid_argument _ -> ()
            | exception e ->
              Alcotest.failf "hang_timeout_s %g raised %s" hang_timeout_s
                (Printexc.to_string e)
            | _ -> Alcotest.failf "hang_timeout_s %g was accepted" hang_timeout_s)
          [ Float.nan; 0.; -1. ]);
    tc "allocation budget: every hog lease is quarantined, none inline"
      (fun () ->
        (* more deaths than shards × attempts: each lease must still die
           in a worker under the budget, never finish on the coordinator
           where the governor does not reach *)
        let f ~heartbeat:_ ~seq:_ ~attempt:_ body =
          if Engine.Shard.in_worker () then
            for _ = 1 to 8 do
              ignore (Sys.opaque_identity (Bytes.create 8_000_000));
              Gc.full_major ()
            done;
          "ok:" ^ body
        in
        let leases = Array.init 4 (fun i -> Fmt.str "hog%d" i) in
        let r, stats =
          Engine.Shard.run_pool ~shards:2
            ~limits:
              {
                Engine.Shard.default_limits with
                alloc_budget_words = 1_000_000.;
              }
            ~f leases
        in
        Array.iteri
          (fun i v ->
            match v with
            | Engine.Shard.Quarantined { q_reason; _ }
              when Astring.String.is_infix ~affix:"worker-oom" q_reason ->
              ()
            | v ->
              Alcotest.failf "lease %d: expected worker-oom quarantine, got %a"
                i (Alcotest.pp verdict_testable) v)
          r;
        check Alcotest.int "nothing ran inline" 0 stats.Engine.Shard.st_inline;
        check Alcotest.int "every attempt OOM-killed"
          (Array.length leases
          * Engine.Shard.default_limits.Engine.Shard.breaker_deaths)
          stats.Engine.Shard.st_oom);
  ]

(* ------------------------------------------------------------------ *)
(* Sharded campaign coordinator                                        *)
(* ------------------------------------------------------------------ *)

let small_cfg =
  {
    Fuzzing.Campaign.default_config with
    iterations = 60;
    seeds = 12;
    sample_every = 15;
  }

let some_fuzzers = Fuzzing.Campaign.[ MuCFuzz_s; AFLpp ]

let result_testable =
  Alcotest.testable
    (fun ppf (r : Fuzzing.Fuzz_result.t) ->
      Fmt.pf ppf "%s: %d mutants, %d covered, %d crashes" r.fuzzer_name
        r.total_mutants
        (Simcomp.Coverage.covered r.coverage)
        (Fuzzing.Fuzz_result.unique_crashes r))
    Fuzzing.Fuzz_result.equal

let run_coordinator ?opt_levels ?faults ?limits ?checkpoint ?resume ~shards
    () =
  Fuzzing.Coordinator.run ~cfg:small_cfg ~fuzzers:some_fuzzers ?opt_levels
    ?faults ?limits ?checkpoint ?resume ~shards ()

let coordinator_tests =
  [
    tc "shards:1 ≡ shards:4: results, coverage, crashes, report" (fun () ->
        let t1 = run_coordinator ~shards:1 () in
        let t4 = run_coordinator ~shards:4 () in
        check Alcotest.int "unit count"
          (List.length t1.Fuzzing.Coordinator.results)
          (List.length t4.Fuzzing.Coordinator.results);
        List.iter2
          (fun (u1, r1) (u4, r4) ->
            check Alcotest.string "unit order"
              (Fuzzing.Coordinator.unit_name u1)
              (Fuzzing.Coordinator.unit_name u4);
            check result_testable
              (Fuzzing.Coordinator.unit_name u1)
              r1 r4)
          t1.Fuzzing.Coordinator.results t4.Fuzzing.Coordinator.results;
        check Alcotest.(list string) "crash sets"
          (Fuzzing.Coordinator.all_crashes t1)
          (Fuzzing.Coordinator.all_crashes t4);
        check Alcotest.bool "aggregate coverage" true
          (Simcomp.Coverage.equal
             (Fuzzing.Coordinator.aggregate_coverage t1)
             (Fuzzing.Coordinator.aggregate_coverage t4));
        (* the campaign report (no engine: the span table is wall-clock)
           is byte-identical *)
        check Alcotest.string "campaign-report.md"
          (Fuzzing.Coordinator.report t1)
          (Fuzzing.Coordinator.report t4);
        check Alcotest.int "no failures" 0
          (List.length t4.Fuzzing.Coordinator.failures);
        check Alcotest.int "no interventions" 0
          t4.Fuzzing.Coordinator.shard_stats.Engine.Shard.st_died);
    tc "worker death mid-lease: same final result, requeue counted"
      (fun () ->
        let baseline = run_coordinator ~shards:1 () in
        Unix.putenv "METAMUT_SHARD_KILL" "uCFuzz.s-GCC";
        let killed =
          Fun.protect
            ~finally:(fun () -> Unix.putenv "METAMUT_SHARD_KILL" "")
            (fun () -> run_coordinator ~shards:2 ())
        in
        check Alcotest.bool "a worker died" true
          (killed.Fuzzing.Coordinator.shard_stats.Engine.Shard.st_died >= 1);
        check Alcotest.bool "the lease was requeued" true
          (killed.Fuzzing.Coordinator.shard_stats.Engine.Shard.st_requeued
           >= 1);
        check Alcotest.string "report identical after recovery"
          (Fuzzing.Coordinator.report baseline)
          (Fuzzing.Coordinator.report killed));
    tc "opt-matrix: deterministic across shard counts, levels differ"
      (fun () ->
        let t1 = run_coordinator ~opt_levels:[ 0; 2 ] ~shards:1 () in
        let t2 = run_coordinator ~opt_levels:[ 0; 2 ] ~shards:2 () in
        check Alcotest.string "opt-matrix report"
          (Fuzzing.Coordinator.report t1)
          (Fuzzing.Coordinator.report t2);
        check Alcotest.int "levels x cells" 8
          (List.length t1.Fuzzing.Coordinator.results);
        (* -O0 and -O2 run different pass pipelines: coverage differs *)
        let cov u =
          List.assoc_opt u t1.Fuzzing.Coordinator.results
          |> Option.map (fun (r : Fuzzing.Fuzz_result.t) ->
                 Simcomp.Coverage.covered r.coverage)
        in
        let u l =
          {
            Fuzzing.Coordinator.u_fuzzer = Fuzzing.Campaign.MuCFuzz_s;
            u_compiler = Simcomp.Compiler.Gcc;
            u_opt = Some l;
          }
        in
        check Alcotest.bool "distinct coverage across -O levels" true
          (cov (u 0) <> cov (u 2)));
    tc "checkpoint files are Campaign-compatible: journals alone restore \
        every unit across shard counts" (fun () ->
        (* journals sit under the stable cell names and are written at
           every shard count; they alone must restore each unit, in both
           directions between shard counts, and no done- file is left *)
        let tmp suffix =
          Filename.concat (Filename.get_temp_dir_name ())
            (Fmt.str "metamut-shard-ckpt-%d%s" (Unix.getpid ()) suffix)
        in
        let round_trip ~save ~resume dir =
          let saved = run_coordinator ~shards:save ~checkpoint:dir () in
          let files = Array.to_list (Sys.readdir dir) in
          check Alcotest.int
            (Fmt.str "one journal per unit (shards %d)" save)
            (List.length saved.Fuzzing.Coordinator.results)
            (List.length
               (List.filter (String.starts_with ~prefix:"journal-") files));
          check Alcotest.(list string) "no done- file written" []
            (List.filter (String.starts_with ~prefix:"done-") files);
          let resumed =
            run_coordinator ~shards:resume ~checkpoint:dir ~resume:true ()
          in
          check Alcotest.int
            (Fmt.str "all units restored (shards %d -> %d)" save resume)
            (List.length saved.Fuzzing.Coordinator.results)
            resumed.Fuzzing.Coordinator.resumed_units;
          List.iter2
            (fun (_, r_saved) (_, r_resumed) ->
              check result_testable "restored result" r_saved r_resumed)
            saved.Fuzzing.Coordinator.results
            resumed.Fuzzing.Coordinator.results
        in
        let dir = tmp "" and dir2 = tmp "-b" in
        round_trip ~save:1 ~resume:4 dir;
        round_trip ~save:2 ~resume:1 dir2;
        List.iter
          (fun d ->
            Array.iter
              (fun f -> try Sys.remove (Filename.concat d f) with _ -> ())
              (try Sys.readdir d with _ -> [||]);
            try Unix.rmdir d with _ -> ())
          [ dir; dir2 ]);
    tc "chaos-armed campaign: shards:1 ≡ shards:2, report identical"
      (fun () ->
        let faults () = faults_of_spec ~seed:7 "frame=0.3,oom=0.3,coord=0.5" in
        let t1 = run_coordinator ~shards:1 ~faults:(faults ()) () in
        let t2 = run_coordinator ~shards:2 ~faults:(faults ()) () in
        check Alcotest.string "report identical under chaos"
          (Fuzzing.Coordinator.report t1)
          (Fuzzing.Coordinator.report t2);
        check Alcotest.int "unit count"
          (List.length t1.Fuzzing.Coordinator.results
          + List.length t1.Fuzzing.Coordinator.quarantined)
          (List.length t2.Fuzzing.Coordinator.results
          + List.length t2.Fuzzing.Coordinator.quarantined);
        check Alcotest.int "nothing failed outright" 0
          (List.length t2.Fuzzing.Coordinator.failures));
    tc "permanent oom: every unit quarantined, report grows the table"
      (fun () ->
        let t =
          run_coordinator ~shards:2 ~faults:(faults_of_spec "oom=1.0") ()
        in
        check Alcotest.int "no results" 0
          (List.length t.Fuzzing.Coordinator.results);
        check Alcotest.int "all units quarantined" 4
          (List.length t.Fuzzing.Coordinator.quarantined);
        List.iter
          (fun (q : Fuzzing.Coordinator.quarantined_unit) ->
            check Alcotest.bool "reason names worker-oom" true
              (Astring.String.is_infix ~affix:"worker-oom" q.qu_reason);
            check Alcotest.bool "fingerprint recorded" true
              (String.length q.qu_fingerprint > 0))
          t.Fuzzing.Coordinator.quarantined;
        let report = Fuzzing.Coordinator.report t in
        check Alcotest.bool "quarantine table rendered" true
          (Astring.String.is_infix ~affix:"Quarantined units" report);
        check Alcotest.bool "unit named in the table" true
          (Astring.String.is_infix ~affix:"uCFuzz.s-GCC" report));
    tc "coordinator SIGKILL mid-campaign + resume ≡ uninterrupted \
        (opt-matrix)" (fun () ->
        let dir =
          Filename.concat (Filename.get_temp_dir_name ())
            (Fmt.str "metamut-shard-crash-%d" (Unix.getpid ()))
        in
        let baseline = run_coordinator ~opt_levels:[ 0; 2 ] ~shards:1 () in
        (* a real coordinator crash: fork one, SIGKILL it mid-run *)
        flush stdout;
        flush stderr;
        (match Unix.fork () with
        | 0 ->
          (try
             ignore
               (run_coordinator ~opt_levels:[ 0; 2 ] ~shards:2
                  ~checkpoint:dir ())
           with _ -> ());
          Unix._exit 0
        | pid ->
          Unix.sleepf 0.5;
          (try Unix.kill pid Sys.sigkill with _ -> ());
          ignore (Unix.waitpid [] pid));
        let resumed =
          run_coordinator ~opt_levels:[ 0; 2 ] ~shards:2 ~checkpoint:dir
            ~resume:true ()
        in
        check Alcotest.string "resumed report ≡ uninterrupted"
          (Fuzzing.Coordinator.report baseline)
          (Fuzzing.Coordinator.report resumed);
        check Alcotest.(list string) "crash sets survive the crash"
          (Fuzzing.Coordinator.all_crashes baseline)
          (Fuzzing.Coordinator.all_crashes resumed);
        check Alcotest.bool "aggregate coverage survives the crash" true
          (Simcomp.Coverage.equal
             (Fuzzing.Coordinator.aggregate_coverage baseline)
             (Fuzzing.Coordinator.aggregate_coverage resumed));
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
          (try Sys.readdir dir with _ -> [||]);
        (try Unix.rmdir dir with _ -> ()));
  ]

(* ------------------------------------------------------------------ *)
(* Status TTY ownership                                                *)
(* ------------------------------------------------------------------ *)

let status_tests =
  [
    tc "non-owners render nothing; the owner draws the aggregate line"
      (fun () ->
        Fun.protect
          ~finally:(fun () -> Engine.Status.set_tty_owner true)
          (fun () ->
            let buf = Buffer.create 64 in
            let ctx = Engine.Ctx.create () in
            let st =
              Engine.Status.attach ~out:(Buffer.add_string buf)
                ~interval_ns:0L ~label:"shardtest" ctx
            in
            Engine.Status.set_tty_owner false;
            Engine.Status.update st ~execs:100 ~covered:5 ~crashes:1 ();
            Engine.Status.finish st;
            check Alcotest.string "worker drew nothing" "" (Buffer.contents buf);
            (* state still folds while silent: the line is current the
               moment ownership returns *)
            check Alcotest.bool "line carries the numbers" true
              (Astring.String.is_infix ~affix:"100 execs"
                 (Engine.Status.line st));
            Engine.Status.set_tty_owner true;
            let st2 =
              Engine.Status.attach ~out:(Buffer.add_string buf)
                ~interval_ns:0L ~label:"coord" ctx
            in
            Engine.Status.update st2 ~execs:7 ~covered:3 ~crashes:0 ();
            check Alcotest.bool "owner drew the aggregated line" true
              (Astring.String.is_infix ~affix:"7 execs"
                 (Buffer.contents buf));
            Engine.Status.finish st2));
  ]

let () =
  Alcotest.run "shard"
    [
      ("protocol", protocol_tests);
      ("pool", pool_tests);
      ("chaos", chaos_tests);
      ("coordinator", coordinator_tests);
      ("status", status_tests);
    ]
