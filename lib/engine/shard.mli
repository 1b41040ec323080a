(** Multi-process sharding: a length-prefixed binary frame protocol over
    Unix sockets, and a forked worker pool that deals leases from a
    shared work queue.

    The coordinator owns a queue of opaque lease bodies.  Idle workers
    {i pull}: each sends {!Request} and is granted the next {!Lease}
    (work-stealing — a straggler never serializes the tail, it just
    claims fewer leases).  A worker that dies, hangs past the timeout,
    garbles a frame, blows its allocation budget, or outlives its lease
    deadline is killed and its uncommitted lease is requeued with an
    incremented attempt counter; a lease that exhausts its attempts (or
    trips the circuit breaker by deterministically killing workers) is
    {!Quarantined} — recorded, skipped, campaign continues.  If no
    worker can be started at all, the remaining leases run on the
    calling process, so every lease still reaches a verdict.

    Chaos crosses the process boundary here: with a {!Faults} harness,
    the shard-layer sites ([frame_garble], [frame_stall], [worker_oom],
    [coordinator_crash]) are drawn from a child stream derived per
    (lease, attempt), identically on workers and on the inline path —
    so verdicts stay shard-count-invariant even under injected chaos.

    Framing is versioned: a peer speaking another protocol revision (or
    writing garbage) is detected by the magic check on the next frame
    boundary, never waited on. *)

(** {2 Wire format}

    Every frame is [magic(4) · type(1) · length(4, big-endian) ·
    payload(length)].  The magic's last byte is the protocol version, so
    a cross-version peer fails the magic check rather than being
    misparsed.  Integer payload fields are fixed-width big-endian; lease
    and result bodies are opaque strings (callers typically
    {!encode}/{!decode} them). *)

val protocol_version : int
val magic : string
(** 4 bytes, ["MSF" ^ version byte]. *)

val max_frame_len : int
(** Upper bound on a payload length; longer frames are garbled. *)

type frame =
  | Hello of { shard : int }  (** worker announces itself once *)
  | Request                   (** worker is idle and wants a lease *)
  | Lease of { seq : int; attempt : int; body : string }
  | Result of { seq : int; body : string }
  | Heartbeat of { execs : int; covered : int; crashes : int }
      (** liveness + progress: counters cumulative over the worker's
          lifetime, so the coordinator's per-shard fold is monotone *)
  | Shutdown                  (** coordinator: no more work, exit *)

type conn
(** One end of a worker socket. *)

val of_fd : Unix.file_descr -> conn
val fd : conn -> Unix.file_descr

type recv_error =
  | Timeout          (** no complete frame within the deadline *)
  | Closed           (** EOF at a frame boundary: orderly death *)
  | Garbled of string
      (** bad magic, foreign version, oversized length, or EOF mid-frame *)

val recv_error_to_string : recv_error -> string

val send : conn -> frame -> unit
(** Write one frame.  Raises [Unix.Unix_error] (e.g. [EPIPE]) when the
    peer is gone — {!run_pool} treats that as a worker death. *)

val recv : ?timeout_s:float -> conn -> (frame, recv_error) result
(** Read one complete frame, waiting at most [timeout_s] (default: wait
    forever).  Never blocks past the deadline: a peer that stalls
    mid-frame is a {!Timeout}, one that wrote junk is {!Garbled}. *)

(** {2 Marshal helpers for lease/result bodies} *)

val encode : 'a -> string
val decode : string -> ('a, string) result
(** [decode] catches truncated/corrupt input as [Error] instead of
    raising.  As with any [Marshal], the type is the caller's claim. *)

(** {2 Verdicts and limits} *)

type verdict =
  | Done of string  (** the result body *)
  | Failed of string
      (** the work function failed on its own merits after the full
          attempt budget: a campaign-level failure *)
  | Quarantined of { q_reason : string; q_attempts : int }
      (** infrastructure failed the lease [q_attempts] times (worker
          death/OOM, garbled frame, stall, deadline) or the circuit
          breaker tripped; the lease is set aside and the run continues.
          [q_reason] is a stable category string, identical between the
          pooled and inline paths for injected faults *)

type limits = {
  hang_timeout_s : float;
      (** silence while holding a lease before the worker is killed
          (default 120) *)
  lease_deadline_s : float;
      (** total wall-clock per lease attempt, enforced from grant time
          on the coordinator (default [infinity] = off) *)
  alloc_budget_words : float;
      (** per-lease allocation watermark in the worker ([Gc] alarm);
          a lease that allocates past it is OOM-killed with exit 137
          (default [infinity] = off) *)
  max_attempts : int;  (** deal budget per lease (default 3) *)
  breaker_deaths : int;
      (** worker deaths charged to one lease before the circuit breaker
          quarantines it instead of respawning again (default 3) *)
}

val default_limits : limits

(** {2 Worker side} *)

val in_worker : unit -> bool
(** True inside a forked pool worker process.  Test hooks that
    deliberately kill a worker guard on this so they can never take down
    the coordinator. *)

(** {2 Coordinator side} *)

type pool_event =
  | Lease_infra of { category : string; attempt : int; requeued : bool }
      (** an attempt was lost to infrastructure (death / garbled frame /
          stall / OOM / deadline); [requeued] is false when the loss
          quarantined the lease *)
  | Lease_retry of { attempt : int; msg : string }
      (** the work function failed on a healthy worker; lease requeued *)
  | Lease_verdict of verdict  (** final, exactly once per lease *)
(** Supervision notifications for the structured log and the flight
    recorder.  The pooled and inline paths emit them from the same call
    sites over the same per-(lease, attempt) fault streams, so per-lease
    event streams are shard-count-invariant (modulo the wall-clock
    categories: real stalls and deadline kills). *)

type stats = {
  mutable st_spawned : int;       (** workers started, incl. respawns *)
  mutable st_died : int;          (** deaths: EOF, kill, garble, hang *)
  mutable st_garbled : int;       (** frames rejected by the magic/length check *)
  mutable st_hung : int;          (** workers killed by the hang timeout *)
  mutable st_oom : int;           (** workers dead with the OOM status (137) *)
  mutable st_deadline : int;      (** workers killed by the lease deadline *)
  mutable st_requeued : int;      (** leases re-dealt after a death *)
  mutable st_quarantined : int;   (** leases set aside by the governor *)
  mutable st_crash_restarts : int;(** simulated coordinator crash-restarts *)
  mutable st_inline : int;
      (** lease attempts run on the calling process at [shards > 1]
          because no worker could be started *)
}

val run_pool :
  shards:int ->
  ?limits:limits ->
  ?faults:Faults.t ->
  ?ctx:Ctx.t ->
  ?on_heartbeat:(shard:int -> execs:int -> covered:int -> crashes:int -> unit) ->
  ?on_result:(seq:int -> unit) ->
  ?on_event:(seq:int -> pool_event -> unit) ->
  ?on_tick:(unit -> unit) ->
  ?journal:(seq:int -> string -> unit) ->
  f:
    (heartbeat:(execs:int -> covered:int -> crashes:int -> unit) ->
    seq:int ->
    attempt:int ->
    string ->
    string) ->
  string array ->
  verdict array * stats
(** Deal the lease bodies to [shards] worker processes and collect the
    verdicts in input order.  [shards <= 1] runs every lease on the
    calling process — the degenerate mode sharded runs are compared
    against for determinism, including under injected chaos.

    Workers are [Unix.fork]ed children of the calling process.  Each
    requests a lease, runs [f] on its body (with a [heartbeat] it may
    call during long work) and replies with the return value, until
    {!Shutdown} or a dead coordinator socket.  Workers mark
    {!in_worker} and relinquish {!Status} TTY ownership.

    Raises [Invalid_argument] unless [limits.hang_timeout_s > 0]: with
    no positive read window the pool could never consume a request.

    Failure handling: a worker that EOFs, garbles a frame, goes silent
    for [limits.hang_timeout_s] while holding a lease (a frame waiting
    unread on its socket is not silence), exceeds
    [limits.lease_deadline_s] since its grant, or dies with the OOM
    status (exit 137, as the allocation governor does) is killed
    ([SIGKILL] + reap) and the lease requeued; a replacement worker is
    spawned while work remains.  A lease dealt [limits.max_attempts]
    times without a result — or charged [limits.breaker_deaths] worker
    deaths — is {!Quarantined}; only a work-function exception after
    the full attempt budget yields {!Failed}.  These per-lease limits
    are the only bound on respawns: every death of a worker holding a
    lease is charged to it.  The pool stops spawning only when
    [socketpair] or [fork] fails; the queue left then runs on the
    calling process, as at [shards <= 1], and each such attempt counts
    in [st_inline] and [shard.inline].  The allocation budget and the
    lease deadline do not apply to those attempts.

    [faults] arms the shard-layer chaos sites; [coordinator_crash]
    triggers a simulated coordinator crash-restart (workers lost,
    committed results kept, in-flight leases re-dealt without charging
    their attempt).

    [journal] fires with the result body as each lease commits — before
    the join barrier — so a caller can persist results incrementally
    and survive a real coordinator death.

    With [ctx], bumps [shard.worker_died], [shard.requeued],
    [shard.garbled], [shard.hung], [shard.oom_killed],
    [shard.deadline_killed], [shard.quarantined],
    [shard.breaker_tripped], [shard.crash_restart], [shard.inline],
    [shard.respawned] {i only when the event occurs} — a healthy pool
    is metrics-silent, so merged registries stay shard-count-invariant.

    [on_heartbeat] observes worker progress (for an aggregated status
    line); [on_result] fires as each lease commits; [on_event] receives
    every {!pool_event}; [on_tick] fires once per supervision round
    (at most every select timeout — where a live scrape server polls
    its socket).  All are called on the coordinator, never
    concurrently. *)
