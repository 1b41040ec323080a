(** The end-to-end MetaMut pipeline (Fig. 1): invention → implementation
    synthesis → validation and refinement, with per-step cost accounting
    (Tables 1-3). *)

type step_cost = {
  sc_tokens : int;
  sc_qa_rounds : int;
  sc_wait_s : float;     (** time awaiting LLM responses *)
  sc_prepare_s : float;  (** request preparation: compile/run/collect *)
}

val zero_cost : step_cost

type outcome =
  | Valid of Mutators.Mutator.t
  | Invalid_refinement
      (** did not survive validation goals #1-#6 within the repair budget *)
  | Invalid_manual of string
      (** survived the loop, rejected by the authors' review (§4.1) *)
  | System_error  (** API throttle / timeout *)

type run = {
  r_outcome : outcome;
  r_name : string;
  r_invention : step_cost;
  r_implementation : step_cost;
  r_bugfix : step_cost;
  r_retry : step_cost;
      (** backoff waits after throttled attempts ([sc_wait_s] only) *)
  r_attempts : int;
      (** pipeline invocations made, including the terminal one *)
  r_bugs_fixed : (int * int) list;  (** validation goal -> fixes (Table 1) *)
}

val total_cost : run -> step_cost
(** Sums all four step costs, retry backoff included. *)

val dollars_of_tokens : int -> float
(** GPT-4 pricing approximation (the paper's ~$0.50 per mutator). *)

type config = {
  max_repair_attempts : int;  (** the paper terminates after 27 *)
  unit_tests : int;           (** generated programs per test pool *)
  system_error_rate : float;  (** 24 of 100 invocations in §4 *)
  retry : Engine.Retry.policy;
      (** backoff budget for [System_error]; [max_attempts = 1]
          restores the paper's no-retry behaviour *)
  faults : Engine.Faults.t option;
      (** extra [Llm_throttle] injection on top of the modelled rate *)
  pool : Mutators.Mutator.t list;
      (** design space the oracle invents from *)
}

val default_config : config
(** The paper's parameters plus {!Engine.Retry.default_policy}: with 4
    attempts at a 0.24 throttle rate, ~98.6 % of throttled invocations
    recover. *)

val run_once :
  ?cfg:config -> ?engine:Engine.Ctx.t -> Llm_sim.t ->
  accepted_names:string list -> run
(** One full mutator-generation invocation, retried through
    {!Engine.Retry} while it terminates in [System_error] (bounded by
    [cfg.retry]; jitter drawn from the session RNG, so runs reproduce
    from the seed; backoff waits are charged to [r_retry.sc_wait_s],
    not slept).  With [engine]: per-step token and QA-round counters
    ([pipeline.tokens.*], [pipeline.qa_rounds.*]), per-invocation
    outcome counters ([pipeline.outcome.*], including
    [.recovered_after_retry]), retry counters ([pipeline.retry.*]), a
    span per attempt ([span.pipeline.attempt]), spans around invention,
    synthesis, validation, and each per-goal repair
    ([span.pipeline.goal<N>]), and a per-goal repair outcome counter
    ([pipeline.goal.fixed.<N>] / [.unfixed.<N>]). *)

val run_many :
  ?cfg:config -> ?seed:int -> ?engine:Engine.Ctx.t -> n:int -> unit ->
  run list
(** The §4 unsupervised experiment: [n] independent invocations
    (deterministic per [seed]; instrumentation does not consume RNG). *)

type summary = {
  s_runs : int;
  s_system_errors : int;
  s_valid : int;
  s_invalid_refinement : int;
  s_invalid_manual : int;
  s_bugs_fixed_by_goal : (int * int) list;
}

val summarize : run list -> summary

val stats : float list -> float * float * float * float
(** [(min, max, median, mean)] of a sample, as reported in Table 2. *)
