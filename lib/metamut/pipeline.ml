(* The end-to-end MetaMut pipeline (Fig. 1): invention → synthesis →
   validation/refinement, with cost accounting per step.

   [run_once] performs one full mutator-generation attempt;
   [run_many] reproduces the 100-invocation unsupervised experiment of
   §4 (system errors included). *)

open Cparse

type step_cost = {
  sc_tokens : int;
  sc_qa_rounds : int;
  sc_wait_s : float;
  sc_prepare_s : float;
}

let zero_cost = { sc_tokens = 0; sc_qa_rounds = 0; sc_wait_s = 0.; sc_prepare_s = 0. }

let add_usage (c : step_cost) (u : Llm_sim.usage) =
  {
    sc_tokens = c.sc_tokens + Llm_sim.tokens u;
    sc_qa_rounds = c.sc_qa_rounds + 1;
    sc_wait_s = c.sc_wait_s +. u.Llm_sim.u_wait_s;
    sc_prepare_s = c.sc_prepare_s +. u.Llm_sim.u_prepare_s;
  }

type outcome =
  | Valid of Mutators.Mutator.t
  | Invalid_refinement     (* did not survive goals #1-#6 *)
  | Invalid_manual of string (* survived the loop, rejected by review *)
  | System_error           (* API throttle / timeout *)

type run = {
  r_outcome : outcome;
  r_name : string;
  r_invention : step_cost;
  r_implementation : step_cost;
  r_bugfix : step_cost;
  r_retry : step_cost; (* backoff waits after throttled attempts *)
  r_attempts : int;    (* pipeline invocations incl. the successful one *)
  r_bugs_fixed : (int * int) list; (* goal -> count *)
}

let total_cost (r : run) =
  let add a b =
    {
      sc_tokens = a.sc_tokens + b.sc_tokens;
      sc_qa_rounds = a.sc_qa_rounds + b.sc_qa_rounds;
      sc_wait_s = a.sc_wait_s +. b.sc_wait_s;
      sc_prepare_s = a.sc_prepare_s +. b.sc_prepare_s;
    }
  in
  add (add (add r.r_invention r.r_implementation) r.r_bugfix) r.r_retry

(* Price per 1k tokens approximating the paper's GPT-4 pricing (~$0.5 for
   a mean of ~8.6k tokens). *)
let dollars_of_tokens tokens = float_of_int tokens *. 0.0582 /. 1000.

type config = {
  max_repair_attempts : int; (* the paper terminates after 27 *)
  unit_tests : int;
  system_error_rate : float; (* 24 of 100 invocations in §4 *)
  retry : Engine.Retry.policy;
  faults : Engine.Faults.t option; (* extra Llm_throttle injection *)
  pool : Mutators.Mutator.t list;
}

(* The paper treats its 24 throttled invocations as dead; the default
   retry budget (4 attempts) recovers ~98.6% of them (1 - 0.24^3), which
   the recovery test pins at >= 80%.  [retry.max_attempts = 1] restores
   the paper's no-retry behaviour exactly. *)
let default_config =
  {
    max_repair_attempts = 27;
    unit_tests = 5;
    system_error_rate = 0.24;
    retry = Engine.Retry.default_policy;
    faults = None;
    pool = Mutators.Registry.unsupervised;
  }

(* Per-step token-cost accounting into the engine registry. *)
let charge engine step (u : Llm_sim.usage) =
  match engine with
  | None -> ()
  | Some ctx ->
    Engine.Ctx.incr ~by:(Llm_sim.tokens u) ctx ("pipeline.tokens." ^ step);
    Engine.Ctx.incr ctx ("pipeline.qa_rounds." ^ step)

(* One pipeline invocation as the paper performs it: may terminate in
   [System_error] (the modelled §4 throttle rate, plus any injected
   [Llm_throttle] faults).  Retry orchestration lives in [run_once]. *)
let attempt_once ~cfg ?engine (llm : Llm_sim.t)
    ~(accepted_names : string list) : run =
  let span name f = Engine.Span.with_opt engine ~name f in
  let rng = Rng.split llm.Llm_sim.rng in
  let throttled =
    (* both draws happen unconditionally, so the session-RNG and
       fault-harness stream positions advance identically per attempt *)
    let modelled = Rng.flip rng cfg.system_error_rate in
    let injected =
      match cfg.faults with
      | Some f -> Engine.Faults.fire ?ctx:engine f Engine.Faults.Llm_throttle
      | None -> false
    in
    modelled || injected
  in
  if throttled then
    {
      r_outcome = System_error;
      r_name = "<system-error>";
      r_invention = zero_cost;
      r_implementation = zero_cost;
      r_bugfix = zero_cost;
      r_retry = zero_cost;
      r_attempts = 1;
      r_bugs_fixed = [];
    }
  else begin
    (* step 1: invention *)
    let inv, u1 = span "pipeline.invent" (fun () -> Llm_sim.invent llm ~pool:cfg.pool) in
    charge engine "invention" u1;
    let invention = add_usage zero_cost u1 in
    (* step 2: synthesis *)
    let impl, u2 = span "pipeline.synthesize" (fun () -> Llm_sim.synthesize llm inv) in
    charge engine "implementation" u2;
    let implementation = add_usage zero_cost u2 in
    (* step 3: validation and refinement *)
    (* the unit-test pool; each refinement round validates against a
       fresh sample, like the paper's regenerated test cases *)
    let test_pool = Llm_sim.generate_tests llm ~count:cfg.unit_tests in
    let sample_tests () =
      List.filteri (fun i _ -> i < 8) (Rng.shuffle rng test_pool)
    in
    let tests = ref (sample_tests ()) in
    let bugfix = ref zero_cost in
    let fixed : (int, int) Hashtbl.t = Hashtbl.create 6 in
    let rec refine impl attempts real_repairs =
      match
        span "pipeline.validate" (fun () ->
            Validation.validate ~rng ~pool:test_pool impl !tests)
      with
      | Validation.Pass -> Some impl
      | Validation.Fail gv ->
        if attempts >= cfg.max_repair_attempts then None
        else begin
          let goal = gv.Validation.gv_goal in
          (* each validation goal gets its own repair span, so the
             metrics table shows where refinement time goes per goal *)
          let impl', usage, success =
            span
              (Fmt.str "pipeline.goal%d" goal)
              (fun () -> Llm_sim.fix llm impl ~goal)
          in
          charge engine "bugfix" usage;
          (match engine with
          | None -> ()
          | Some ctx ->
            (* per-goal repair outcomes as a counter family, so metrics
               snapshots show *which* validation goals resist fixing *)
            Engine.Ctx.incr ctx
              (Fmt.str "pipeline.goal.%s.%d"
                 (if success then "fixed" else "unfixed")
                 goal));
          bugfix := add_usage !bugfix usage;
          if success then begin
            let g = gv.Validation.gv_goal in
            Hashtbl.replace fixed g
              (1 + Option.value ~default:0 (Hashtbl.find_opt fixed g))
          end;
          (* a *real* goal-5/6 failure (the intended mutator misbehaving
             on the concrete tests, not a flagged defect) is repaired by
             adjusting the implementation's checks and regenerating the
             unit tests; a few such repairs are allowed before giving up *)
          let real_failure =
            success && impl'.Llm_sim.im_defects = impl.Llm_sim.im_defects
          in
          if real_failure then begin
            if real_repairs >= 4 then None
            else begin
              tests := sample_tests ();
              refine impl' (attempts + 1) (real_repairs + 1)
            end
          end
          else refine impl' (attempts + 1) real_repairs
        end
    in
    let bugs_fixed () =
      Hashtbl.fold (fun g n acc -> (g, n) :: acc) fixed []
      |> List.sort compare
    in
    let r =
      match refine impl 0 0 with
    | None ->
      {
        r_outcome = Invalid_refinement;
        r_name = inv.Llm_sim.i_name;
        r_invention = invention;
        r_implementation = implementation;
        r_bugfix = !bugfix;
        r_retry = zero_cost;
        r_attempts = 1;
        r_bugs_fixed = bugs_fixed ();
      }
    | Some impl -> (
      match Validation.manual_review impl ~accepted_names with
      | Validation.Accepted -> (
        match impl.Llm_sim.im_invention.Llm_sim.i_intended with
        | Some m ->
          {
            r_outcome = Valid m;
            r_name = inv.Llm_sim.i_name;
            r_invention = invention;
            r_implementation = implementation;
            r_bugfix = !bugfix;
            r_retry = zero_cost;
            r_attempts = 1;
            r_bugs_fixed = bugs_fixed ();
          }
        | None ->
          {
            r_outcome = Invalid_manual "implementation does not match description";
            r_name = inv.Llm_sim.i_name;
            r_invention = invention;
            r_implementation = implementation;
            r_bugfix = !bugfix;
            r_retry = zero_cost;
            r_attempts = 1;
            r_bugs_fixed = bugs_fixed ();
          })
      | Validation.Rejected reason ->
        {
          r_outcome = Invalid_manual reason;
          r_name = inv.Llm_sim.i_name;
          r_invention = invention;
          r_implementation = implementation;
          r_bugfix = !bugfix;
          r_retry = zero_cost;
          r_attempts = 1;
          r_bugs_fixed = bugs_fixed ();
        })
    in
    r
  end

let outcome_key = function
  | Valid _ -> "valid"
  | Invalid_refinement -> "invalid_refinement"
  | Invalid_manual _ -> "invalid_manual"
  | System_error -> "system_error"

let run_once ?(cfg = default_config) ?engine (llm : Llm_sim.t)
    ~(accepted_names : string list) : run =
  let out =
    Engine.Retry.run ?ctx:engine ~name:"pipeline.retry" cfg.retry
      ~retryable:(fun r -> r.r_outcome = System_error)
      (* jitter comes from the session RNG, so faulted runs reproduce
         bit-for-bit from the seed *)
      ~jitter:(fun () -> Rng.float llm.Llm_sim.rng)
      (fun ~attempt:_ ->
        Engine.Span.with_opt engine ~name:"pipeline.attempt" (fun () ->
            attempt_once ~cfg ?engine llm ~accepted_names))
  in
  let r =
    {
      out.Engine.Retry.value with
      r_attempts = out.Engine.Retry.attempts;
      r_retry = { zero_cost with sc_wait_s = out.Engine.Retry.waited_s };
    }
  in
  (match engine with
  | None -> ()
  | Some ctx ->
    (* outcome counters count *invocations*, not attempts — transient
       throttles surface under pipeline.retry.* instead, and a run that
       needed retries to complete is also counted as recovered *)
    Engine.Ctx.incr ctx ("pipeline.outcome." ^ outcome_key r.r_outcome);
    if out.Engine.Retry.recovered then
      Engine.Ctx.incr ctx "pipeline.outcome.recovered_after_retry");
  r

(* The §4 unsupervised experiment: invoke the pipeline [n] times. *)
let run_many ?(cfg = default_config) ?(seed = 7) ?engine ~(n : int) () :
    run list =
  let llm = Llm_sim.create ~seed () in
  let accepted = ref [] in
  List.init n (fun _ ->
      let r = run_once ~cfg ?engine llm ~accepted_names:!accepted in
      (match r.r_outcome with
      | Valid m -> accepted := m.Mutators.Mutator.name :: !accepted
      | _ -> ());
      r)

(* ------------------------------------------------------------------ *)
(* Aggregates for Tables 1-3                                           *)
(* ------------------------------------------------------------------ *)

type summary = {
  s_runs : int;
  s_system_errors : int;
  s_valid : int;
  s_invalid_refinement : int;
  s_invalid_manual : int;
  s_bugs_fixed_by_goal : (int * int) list;
}

let summarize (runs : run list) : summary =
  let by_goal = Hashtbl.create 6 in
  List.iter
    (fun r ->
      List.iter
        (fun (g, n) ->
          Hashtbl.replace by_goal g
            (n + Option.value ~default:0 (Hashtbl.find_opt by_goal g)))
        r.r_bugs_fixed)
    runs;
  {
    s_runs = List.length runs;
    s_system_errors =
      List.length (List.filter (fun r -> r.r_outcome = System_error) runs);
    s_valid =
      List.length
        (List.filter (fun r -> match r.r_outcome with Valid _ -> true | _ -> false) runs);
    s_invalid_refinement =
      List.length (List.filter (fun r -> r.r_outcome = Invalid_refinement) runs);
    s_invalid_manual =
      List.length
        (List.filter
           (fun r -> match r.r_outcome with Invalid_manual _ -> true | _ -> false)
           runs);
    s_bugs_fixed_by_goal =
      List.init 6 (fun i ->
          (i + 1, Option.value ~default:0 (Hashtbl.find_opt by_goal (i + 1))));
  }

(* Distribution statistics over per-run values, as in Table 2. *)
let stats (values : float list) : float * float * float * float =
  match List.sort compare values with
  | [] -> (0., 0., 0., 0.)
  | sorted ->
    let n = List.length sorted in
    let min_v = List.hd sorted in
    let max_v = List.nth sorted (n - 1) in
    let median = List.nth sorted (n / 2) in
    let mean = List.fold_left ( +. ) 0. sorted /. float_of_int n in
    (min_v, max_v, median, mean)
