(* Multi-process sharding: framed IPC over Unix sockets plus the
   coordinator/worker pool.

   The wire format is deliberately dumb: a 4-byte magic whose last byte
   is the protocol version, a type byte, a big-endian length, and the
   payload.  Dumb is what makes a hung or garbled peer detectable — the
   coordinator validates every header before trusting the length, and
   every read carries a deadline, so a worker that writes junk (or
   nothing) is killed and its lease requeued instead of being waited on
   forever.

   Work distribution is pull-based: idle workers send Request and the
   coordinator deals the next lease off one queue.  That is the whole
   work-stealing story — a slow worker simply claims fewer leases, so
   the tail of a campaign never serializes behind a straggler.

   Chaos crosses the process boundary here: the shard-layer fault sites
   (frame_garble / frame_stall / worker_oom / coordinator_crash) are
   drawn from a child harness derived per (lease, attempt), so which
   attempt of which lease a fault hits is a pure function of the root
   seed — the inline degenerate mode draws the identical stream, which
   keeps verdicts shard-count-invariant even under injected chaos. *)

let protocol_version = 1
let magic = Printf.sprintf "MSF%c" (Char.chr protocol_version)
let max_frame_len = 1 lsl 28 (* 256 MB: far above any real lease/result *)

type frame =
  | Hello of { shard : int }
  | Request
  | Lease of { seq : int; attempt : int; body : string }
  | Result of { seq : int; body : string }
  | Heartbeat of { execs : int; covered : int; crashes : int }
  | Shutdown

(* An internal frame: a lease that failed on its own merits (the work
   function raised).  Distinct from a worker death — the worker is
   healthy and immediately requests more work. *)
type internal_frame = Plain of frame | Failed of { seq : int; msg : string }

type conn = { c_fd : Unix.file_descr }

let of_fd fd = { c_fd = fd }
let fd (c : conn) = c.c_fd

type recv_error = Timeout | Closed | Garbled of string

let recv_error_to_string = function
  | Timeout -> "timeout"
  | Closed -> "connection closed"
  | Garbled msg -> "garbled frame: " ^ msg

(* ------------------------------------------------------------------ *)
(* Wire encoding                                                       *)
(* ------------------------------------------------------------------ *)

let tag_of = function
  | Plain (Hello _) -> 0
  | Plain Request -> 1
  | Plain (Lease _) -> 2
  | Plain (Result _) -> 3
  | Plain (Heartbeat _) -> 4
  | Plain Shutdown -> 5
  | Failed _ -> 6

let payload_of = function
  | Plain (Hello { shard }) ->
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int shard);
    Bytes.unsafe_to_string b
  | Plain Request | Plain Shutdown -> ""
  | Plain (Lease { seq; attempt; body }) ->
    let b = Bytes.create (8 + String.length body) in
    Bytes.set_int32_be b 0 (Int32.of_int seq);
    Bytes.set_int32_be b 4 (Int32.of_int attempt);
    Bytes.blit_string body 0 b 8 (String.length body);
    Bytes.unsafe_to_string b
  | Plain (Result { seq; body }) ->
    let b = Bytes.create (4 + String.length body) in
    Bytes.set_int32_be b 0 (Int32.of_int seq);
    Bytes.blit_string body 0 b 4 (String.length body);
    Bytes.unsafe_to_string b
  | Plain (Heartbeat { execs; covered; crashes }) ->
    let b = Bytes.create 16 in
    Bytes.set_int64_be b 0 (Int64.of_int execs);
    Bytes.set_int32_be b 8 (Int32.of_int covered);
    Bytes.set_int32_be b 12 (Int32.of_int crashes);
    Bytes.unsafe_to_string b
  | Failed { seq; msg } ->
    let b = Bytes.create (4 + String.length msg) in
    Bytes.set_int32_be b 0 (Int32.of_int seq);
    Bytes.blit_string msg 0 b 4 (String.length msg);
    Bytes.unsafe_to_string b

let i32 b off = Int32.to_int (Bytes.get_int32_be b off)

let parse_payload tag (p : Bytes.t) : (internal_frame, string) result =
  let len = Bytes.length p in
  let body off = Bytes.sub_string p off (len - off) in
  match tag with
  | 0 when len = 4 -> Ok (Plain (Hello { shard = i32 p 0 }))
  | 1 when len = 0 -> Ok (Plain Request)
  | 2 when len >= 8 ->
    Ok (Plain (Lease { seq = i32 p 0; attempt = i32 p 4; body = body 8 }))
  | 3 when len >= 4 -> Ok (Plain (Result { seq = i32 p 0; body = body 4 }))
  | 4 when len = 16 ->
    Ok
      (Plain
         (Heartbeat
            {
              execs = Int64.to_int (Bytes.get_int64_be p 0);
              covered = i32 p 8;
              crashes = i32 p 12;
            }))
  | 5 when len = 0 -> Ok (Plain Shutdown)
  | 6 when len >= 4 -> Ok (Failed { seq = i32 p 0; msg = body 4 })
  | t when t >= 0 && t <= 6 ->
    Error (Printf.sprintf "frame type %d with bad payload length %d" t len)
  | t -> Error (Printf.sprintf "unknown frame type %d" t)

let write_all fd (b : Bytes.t) =
  let n = Bytes.length b in
  let pos = ref 0 in
  while !pos < n do
    match Unix.write fd b !pos (n - !pos) with
    | k -> pos := !pos + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let send_internal (c : conn) fr =
  let payload = payload_of fr in
  let plen = String.length payload in
  let b = Bytes.create (9 + plen) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_uint8 b 4 (tag_of fr);
  Bytes.set_int32_be b 5 (Int32.of_int plen);
  Bytes.blit_string payload 0 b 9 plen;
  write_all c.c_fd b

let send (c : conn) (f : frame) = send_internal c (Plain f)

(* Read exactly [len] bytes, honouring the shared [deadline].  [eof]
   and [stall] name the error for a peer that closes or goes silent at
   this position — EOF at a frame boundary is an orderly [Closed], EOF
   or junk inside a frame is [Garbled]. *)
let read_exact fd buf off len ~deadline ~eof ~stall =
  let pos = ref off and remaining = ref len in
  let result = ref (Ok ()) in
  let continue = ref true in
  while !continue && !remaining > 0 do
    let timeout =
      match deadline with
      | None -> -1.
      | Some d -> d -. Unix.gettimeofday ()
    in
    if deadline <> None && timeout <= 0. then begin
      result := Error stall;
      continue := false
    end
    else begin
      match Unix.select [ fd ] [] [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> () (* select timed out; the deadline check above decides *)
      | _ -> (
        match Unix.read fd buf !pos !remaining with
        | 0 ->
          result := Error eof;
          continue := false
        | k ->
          pos := !pos + k;
          remaining := !remaining - k
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          result := Error eof;
          continue := false)
    end
  done;
  !result

let recv_internal ?timeout_s (c : conn) : (internal_frame, recv_error) result =
  let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) timeout_s in
  let header = Bytes.create 9 in
  (* the first header byte decides boundary-vs-midframe errors; read it
     separately so a clean EOF is Closed, not Garbled *)
  match
    read_exact c.c_fd header 0 1 ~deadline ~eof:Closed ~stall:Timeout
  with
  | Error e -> Error e
  | Ok () -> (
    match
      read_exact c.c_fd header 1 8 ~deadline
        ~eof:(Garbled "EOF inside frame header") ~stall:Timeout
    with
    | Error e -> Error e
    | Ok () ->
      if Bytes.sub_string header 0 4 <> magic then
        Error
          (Garbled
             (Printf.sprintf "bad magic %S (speaking protocol %d?)"
                (Bytes.sub_string header 0 4)
                protocol_version))
      else begin
        let tag = Bytes.get_uint8 header 4 in
        let len = i32 header 5 in
        if len < 0 || len > max_frame_len then
          Error (Garbled (Printf.sprintf "frame length %d out of bounds" len))
        else begin
          let payload = Bytes.create len in
          match
            read_exact c.c_fd payload 0 len ~deadline
              ~eof:(Garbled "EOF inside frame payload") ~stall:Timeout
          with
          | Error e -> Error e
          | Ok () -> (
            match parse_payload tag payload with
            | Ok f -> Ok f
            | Error msg -> Error (Garbled msg))
        end
      end)

let recv ?timeout_s (c : conn) : (frame, recv_error) result =
  match recv_internal ?timeout_s c with
  | Ok (Plain f) -> Ok f
  | Ok (Failed _) -> Error (Garbled "unexpected Failed frame")
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Marshal helpers                                                     *)
(* ------------------------------------------------------------------ *)

let encode v = Marshal.to_string v []

let decode (s : string) =
  if String.length s < Marshal.header_size then
    Error "decode: input shorter than a Marshal header"
  else if Marshal.total_size (Bytes.unsafe_of_string s) 0 > String.length s
  then Error "decode: truncated Marshal payload"
  else
    match Marshal.from_string s 0 with
    | v -> Ok v
    | exception Failure msg -> Error ("decode: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Verdicts and limits                                                 *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Done of string
  | Failed of string
  | Quarantined of { q_reason : string; q_attempts : int }

type limits = {
  hang_timeout_s : float;
  lease_deadline_s : float;
  alloc_budget_words : float;
  max_attempts : int;
  breaker_deaths : int;
}

let default_limits =
  {
    hang_timeout_s = 120.;
    lease_deadline_s = infinity;
    alloc_budget_words = infinity;
    max_attempts = 3;
    breaker_deaths = 3;
  }

(* Per-(lease, attempt) chaos stream, derived identically by workers and
   by the inline path: which attempt of which lease a shard-layer fault
   hits is a pure function of the root seed, never of scheduling.  The
   tag space (0x5EED +) sits far above the campaign-cell tags derived
   from the same root. *)
let lease_faults root ~seq ~attempt =
  Faults.derive root ~tag:(0x5EED + (seq * 101) + attempt)

let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)
(* ------------------------------------------------------------------ *)

let in_worker_flag = ref false
let in_worker () = !in_worker_flag

(* A forked worker's protocol: request, execute, reply, repeat until
   Shutdown or a dead coordinator socket.  [faults] is the coordinator's
   root harness; the worker derives each (lease, attempt) stream from
   it, as [run_inline] does. *)
let worker_loop ?faults ~alloc_budget_words (c : conn) ~f =
  in_worker_flag := true;
  (* K workers share the coordinator's stderr: none of them may draw *)
  Status.set_tty_owner false;
  let lease_base = ref infinity in
  if alloc_budget_words < infinity then
    (* End-of-major-cycle watermark: a lease that allocates past its
       budget exits with the kernel's OOM-kill status.  The alarm stays
       armed for the worker's lifetime; [lease_base] is +inf between
       leases so it can only trip while work is in flight. *)
    ignore
      (Gc.create_alarm (fun () ->
           if allocated_words () -. !lease_base > alloc_budget_words then
             Unix._exit 137));
  let continue = ref true in
  let safe_send fr = try send_internal c fr with _ -> continue := false in
  safe_send (Plain (Hello { shard = Unix.getpid () }));
  while !continue do
    safe_send (Plain Request);
    if !continue then begin
      match recv c with
      | Ok (Lease { seq; attempt; body }) -> (
        let fh = Option.map (fun r -> lease_faults r ~seq ~attempt) faults in
        let inj site =
          match fh with Some h -> Faults.fire h site | None -> false
        in
        (* simulated OOM kill before any work: the coordinator reaps
           exit 137 and classifies the death as worker-oom *)
        if inj Faults.Worker_oom then Unix._exit 137;
        lease_base := allocated_words ();
        let heartbeat ~execs ~covered ~crashes =
          try send c (Heartbeat { execs; covered; crashes }) with _ -> ()
        in
        match f ~heartbeat ~seq ~attempt body with
        | r ->
          lease_base := infinity;
          if inj Faults.Frame_garble then begin
            (* junk where the Result frame belongs: the magic check on
               the coordinator rejects it and kills us *)
            (try write_all c.c_fd (Bytes.of_string "GARBLEDFRAME")
             with _ -> ());
            Unix._exit 1
          end
          else if inj Faults.Frame_stall then begin
            (* a partial header, then silence: a mid-frame stall only
               the coordinator's hang scan can clear *)
            (try write_all c.c_fd (Bytes.of_string (String.sub magic 0 3))
             with _ -> ());
            while true do
              Unix.sleepf 3600.
            done
          end
          else safe_send (Plain (Result { seq; body = r }))
        | exception e ->
          lease_base := infinity;
          safe_send (Failed { seq; msg = Printexc.to_string e }))
      | Ok Shutdown -> continue := false
      | Ok _ | Error _ -> continue := false (* dead or confused coordinator *)
    end
  done

(* ------------------------------------------------------------------ *)
(* Coordinator side                                                    *)
(* ------------------------------------------------------------------ *)

(* Supervision notifications, for the structured log and the flight
   recorder.  Emitted identically by the pooled and inline paths (same
   call sites, same fault streams), so a consumer that renders them per
   lease sees the same stream at any shard count — modulo the
   wall-clock-driven categories (stalls on healthy workers, deadline
   kills), which only occur under those real-time limits. *)
type pool_event =
  | Lease_infra of { category : string; attempt : int; requeued : bool }
      (** an attempt was lost to infrastructure (death/garble/stall/OOM/
          deadline); [requeued] is false when the loss quarantined it *)
  | Lease_retry of { attempt : int; msg : string }
      (** the work function failed on a healthy worker; lease requeued *)
  | Lease_verdict of verdict  (** final, exactly once per lease *)

type stats = {
  mutable st_spawned : int;
  mutable st_died : int;
  mutable st_garbled : int;
  mutable st_hung : int;
  mutable st_oom : int;
  mutable st_deadline : int;
  mutable st_requeued : int;
  mutable st_quarantined : int;
  mutable st_crash_restarts : int;
  mutable st_inline : int;
}

type worker = {
  w_shard : int;
  w_pid : int;
  w_conn : conn;
  mutable w_lease : (int * int) option; (* seq, attempt *)
  mutable w_granted : float; (* when the current lease was dealt *)
  mutable w_last_active : float;
  mutable w_alive : bool;
}

let run_pool ~shards ?(limits = default_limits) ?faults ?ctx ?on_heartbeat
    ?on_result ?on_event ?on_tick ?journal ~f (leases : string array) :
    verdict array * stats =
  (* a timeout that is not > 0 leaves no read window: at 0 or below
     every read's deadline has passed before it starts, so no Request is
     consumed and the pool spins forever; NaN makes select fail *)
  if not (limits.hang_timeout_s > 0.) then
    invalid_arg
      (Printf.sprintf "Shard.run_pool: hang_timeout_s must be > 0, got %g"
         limits.hang_timeout_s);
  let n = Array.length leases in
  let results : verdict option array = Array.make n None in
  let attempts = Array.make n 0 in
  let deaths = Array.make n 0 in
  let stats =
    {
      st_spawned = 0;
      st_died = 0;
      st_garbled = 0;
      st_hung = 0;
      st_oom = 0;
      st_deadline = 0;
      st_requeued = 0;
      st_quarantined = 0;
      st_crash_restarts = 0;
      st_inline = 0;
    }
  in
  let bump name = Option.iter (fun c -> Ctx.incr c name) ctx in
  let notify seq ev = Option.iter (fun g -> g ~seq ev) on_event in
  let tick () = Option.iter (fun g -> g ()) on_tick in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    Queue.add i queue
  done;
  let commit seq (v : verdict) =
    if results.(seq) = None then begin
      results.(seq) <- Some v;
      (match v with
      | Done body ->
        Option.iter (fun j -> j ~seq body) journal;
        Option.iter (fun g -> g ~seq) on_result
      | Quarantined _ ->
        stats.st_quarantined <- stats.st_quarantined + 1;
        bump "shard.quarantined"
      | Failed _ -> ());
      notify seq (Lease_verdict v)
    end
  in
  (* One infrastructure-caused attempt loss (death, garble, stall, OOM,
     deadline).  The campaign never fails on infrastructure: a lease
     that exhausts its attempts — or trips the circuit breaker by
     deterministically killing workers — is quarantined, recorded, and
     the rest of the run continues. *)
  let infra_failure seq ~category =
    if results.(seq) = None then begin
      deaths.(seq) <- deaths.(seq) + 1;
      let breaker = deaths.(seq) >= limits.breaker_deaths in
      let exhausted = attempts.(seq) >= limits.max_attempts in
      notify seq
        (Lease_infra
           {
             category;
             attempt = attempts.(seq) - 1;
             requeued = not (breaker || exhausted);
           });
      if breaker then begin
        bump "shard.breaker_tripped";
        commit seq
          (Quarantined
             {
               q_reason =
                 Printf.sprintf "circuit breaker: %d worker deaths (%s)"
                   deaths.(seq) category;
               q_attempts = attempts.(seq);
             })
      end
      else if exhausted then
        commit seq
          (Quarantined { q_reason = category; q_attempts = attempts.(seq) })
      else begin
        stats.st_requeued <- stats.st_requeued + 1;
        bump "shard.requeued";
        Queue.add seq queue
      end
    end
  in
  (* A worker death (or its inline stand-in) by category, into [stats]
     and the [shard.*] counters. *)
  let count_death ~category =
    (match category with
    | "worker-oom" ->
      stats.st_oom <- stats.st_oom + 1;
      bump "shard.oom_killed"
    | "stalled" ->
      stats.st_hung <- stats.st_hung + 1;
      bump "shard.hung"
    | "deadline" ->
      stats.st_deadline <- stats.st_deadline + 1;
      bump "shard.deadline_killed"
    | "garbled-frame" ->
      stats.st_garbled <- stats.st_garbled + 1;
      bump "shard.garbled"
    | _ -> ());
    stats.st_died <- stats.st_died + 1;
    bump "shard.worker_died"
  in
  (* The work function raised: the lease retries until its attempts run
     out, then fails — a fault of the work, not of the infrastructure. *)
  let work_failed seq msg =
    if results.(seq) = None then begin
      if attempts.(seq) >= limits.max_attempts then commit seq (Failed msg)
      else begin
        notify seq (Lease_retry { attempt = attempts.(seq) - 1; msg });
        Queue.add seq queue
      end
    end
  in
  (* One inline attempt on the calling process.  Draws the same
     per-(lease, attempt) fault stream as a worker would and mirrors the
     death accounting, so the final verdict per lease is identical to
     the pooled path. *)
  let run_inline seq =
    attempts.(seq) <- attempts.(seq) + 1;
    let attempt = attempts.(seq) - 1 in
    let fh = Option.map (fun r -> lease_faults r ~seq ~attempt) faults in
    let inj site =
      match fh with Some h -> Faults.fire ?ctx h site | None -> false
    in
    let die ~category =
      count_death ~category;
      infra_failure seq ~category
    in
    if inj Faults.Worker_oom then die ~category:"worker-oom"
    else begin
      let heartbeat ~execs ~covered ~crashes =
        Option.iter
          (fun g -> g ~shard:0 ~execs ~covered ~crashes)
          on_heartbeat
      in
      match f ~heartbeat ~seq ~attempt leases.(seq) with
      | r ->
        if inj Faults.Frame_garble then die ~category:"garbled-frame"
        else if inj Faults.Frame_stall then die ~category:"stalled"
        else commit seq (Done r)
      | exception e -> work_failed seq (Printexc.to_string e)
    end
  in
  if shards > 1 then begin
    let previous_sigpipe =
      (* a worker dying mid-write must surface as EPIPE, not kill us *)
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    let workers : worker list ref = ref [] in
    let alive () = List.filter (fun w -> w.w_alive) !workers in
    let parent_fds () = List.map (fun w -> w.w_conn.c_fd) (alive ()) in
    let spawn shard =
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      flush stdout;
      flush stderr;
      let pid =
        match Unix.fork () with
        | 0 ->
          (* the child serves leases on [b]; every inherited parent end
             is closed so a sibling's death is visible as EOF in the
             coordinator, not masked by our copy of its fd *)
          List.iter
            (fun fd -> try Unix.close fd with _ -> ())
            (a :: parent_fds ());
          (try
             worker_loop ?faults ~alloc_budget_words:limits.alloc_budget_words
               (of_fd b) ~f
           with _ -> ());
          Unix._exit 0
        | pid -> pid
      in
      Unix.close b;
      stats.st_spawned <- stats.st_spawned + 1;
      let w =
        {
          w_shard = shard;
          w_pid = pid;
          w_conn = of_fd a;
          w_lease = None;
          w_granted = Unix.gettimeofday ();
          w_last_active = Unix.gettimeofday ();
          w_alive = true;
        }
      in
      workers := w :: !workers;
      w
    in
    let reap w =
      (try Unix.close w.w_conn.c_fd with _ -> ());
      match Unix.waitpid [] w.w_pid with
      | _, st -> Some st
      | exception _ -> None
    in
    (* orderly retirement after Shutdown: not a death, nothing requeued *)
    let retire w =
      w.w_alive <- false;
      ignore (reap w)
    in
    (* Whether a reaped worker died of OOM, whichever path found it
       dead: the OOM status says so, and a worker we SIGKILLed before it
       could exit (the hang scan can race its OOM exit under load) is
       judged by its lease's own Worker_oom draw, the draw [run_inline]
       makes for that (lease, attempt). *)
    let oom_death w status =
      match (status, w.w_lease, faults) with
      | Some (Unix.WEXITED 137), _, _ -> true
      | Some (Unix.WSIGNALED s), Some (seq, attempt), Some r
        when s = Sys.sigkill ->
        Faults.fire (lease_faults r ~seq ~attempt) Faults.Worker_oom
      | _ -> false
    in
    let kill_worker ?(category = "worker-death") w =
      if w.w_alive then begin
        w.w_alive <- false;
        (try Unix.kill w.w_pid Sys.sigkill with _ -> ());
        let status = reap w in
        let category = if oom_death w status then "worker-oom" else category in
        count_death ~category;
        match w.w_lease with
        | None -> ()
        | Some (seq, _) ->
          w.w_lease <- None;
          infra_failure seq ~category
      end
    in
    let deal w =
      if Queue.is_empty queue then begin
        match try Some (send w.w_conn Shutdown) with _ -> None with
        | Some () -> retire w
        | None -> kill_worker w
      end
      else begin
        let seq = Queue.pop queue in
        attempts.(seq) <- attempts.(seq) + 1;
        w.w_lease <- Some (seq, attempts.(seq) - 1);
        w.w_granted <- Unix.gettimeofday ();
        w.w_last_active <- Unix.gettimeofday ();
        try
          send w.w_conn
            (Lease { seq; attempt = attempts.(seq) - 1; body = leases.(seq) })
        with _ -> kill_worker w
      end
    in
    (* coordinator_crash draws on its own derived stream, one draw per
       Result frame received; the restart is processed between select
       rounds, never mid-iteration *)
    let coord_faults =
      Option.map (fun r -> Faults.derive r ~tag:0xC0DE) faults
    in
    let restart_requested = ref false in
    let recv_timeout = Float.min 10. limits.hang_timeout_s in
    let handle w =
      match recv_internal ~timeout_s:recv_timeout w.w_conn with
      | Ok (Plain (Hello _)) -> w.w_last_active <- Unix.gettimeofday ()
      | Ok (Plain Request) ->
        w.w_last_active <- Unix.gettimeofday ();
        deal w
      | Ok (Plain (Result { seq; body })) ->
        w.w_last_active <- Unix.gettimeofday ();
        w.w_lease <- None;
        commit seq (Done body);
        (match coord_faults with
        | Some h when Faults.fire ?ctx h Faults.Coordinator_crash ->
          restart_requested := true
        | _ -> ())
      | Ok (Failed { seq; msg }) ->
        w.w_last_active <- Unix.gettimeofday ();
        w.w_lease <- None;
        work_failed seq msg
      | Ok (Plain (Heartbeat { execs; covered; crashes })) ->
        w.w_last_active <- Unix.gettimeofday ();
        Option.iter
          (fun g -> g ~shard:w.w_shard ~execs ~covered ~crashes)
          on_heartbeat
      | Ok (Plain (Lease _)) | Ok (Plain Shutdown) | Error (Garbled _) ->
        kill_worker w ~category:"garbled-frame"
      | Error Closed -> kill_worker w
      | Error Timeout -> () (* partial frame in flight; hang scan decides *)
    in
    (* Keep one worker per queued lease, up to [shards].  Respawns need
       no budget of their own: every death of a worker holding a lease
       is charged to that lease's attempts and breaker.  Once
       [socketpair] or [fork] fails, the pool spawns no more and the
       queue drains on the calling process. *)
    let spawnable = ref true in
    let maybe_spawn () =
      let want = min shards (Queue.length queue + List.length (alive ())) in
      while !spawnable && List.length (alive ()) < want do
        match spawn (List.length (alive ())) with
        | (_ : worker) ->
          if stats.st_spawned > shards then bump "shard.respawned"
        | exception _ -> spawnable := false
      done
    in
    (* Simulated coordinator crash-restart: the "new" coordinator keeps
       every committed (journaled) result, loses its workers, and
       re-deals in-flight leases.  The attempt charge on those leases is
       refunded so each retry re-draws the same (lease, attempt) fault
       stream an uninterrupted coordinator would have. *)
    let crash_restart () =
      stats.st_crash_restarts <- stats.st_crash_restarts + 1;
      bump "shard.crash_restart";
      List.iter
        (fun w ->
          if w.w_alive then begin
            w.w_alive <- false;
            (match w.w_lease with
            | Some (seq, _) when results.(seq) = None ->
              attempts.(seq) <- attempts.(seq) - 1;
              Queue.add seq queue
            | _ -> ());
            w.w_lease <- None;
            (try Unix.kill w.w_pid Sys.sigkill with _ -> ());
            ignore (reap w)
          end)
        !workers
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun w -> kill_worker w) (alive ());
        match previous_sigpipe with
        | Some b -> (try Sys.set_signal Sys.sigpipe b with _ -> ())
        | None -> ())
      (fun () ->
        (* every uncommitted lease is queued or held by a live worker,
           so an empty pool means the work is done or nothing spawns *)
        maybe_spawn ();
        while alive () <> [] do
          tick ();
          let live = alive () in
          let fds = List.map (fun w -> w.w_conn.c_fd) live in
          let readable =
            match Unix.select fds [] [] 0.25 with
            | r, _, _ -> r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          in
          List.iter
            (fun w ->
              if w.w_alive && List.mem w.w_conn.c_fd readable then handle w)
            live;
          if !restart_requested then begin
            restart_requested := false;
            crash_restart ()
          end;
          (* a frame waiting unread means the worker spoke while this
             loop was blocked in another worker's [handle] (up to
             [recv_timeout]): not silence, so it is read next round *)
          let pending w =
            match Unix.select [ w.w_conn.c_fd ] [] [] 0. with
            | [], _, _ -> false
            | _ -> true
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
          in
          let now = Unix.gettimeofday () in
          List.iter
            (fun w ->
              if w.w_alive && w.w_lease <> None then begin
                if now -. w.w_last_active > limits.hang_timeout_s then begin
                  if not (pending w) then kill_worker w ~category:"stalled"
                end
                else if now -. w.w_granted > limits.lease_deadline_s then
                  kill_worker w ~category:"deadline"
              end)
            (alive ());
          if not (Queue.is_empty queue) then maybe_spawn ()
        done)
  end;
  (* The queue left for the calling process: every lease at
     [shards <= 1], and at [shards > 1] whatever remains once no worker
     can be started (counted as [shard.inline]). *)
  while not (Queue.is_empty queue) do
    tick ();
    if shards > 1 then begin
      stats.st_inline <- stats.st_inline + 1;
      bump "shard.inline"
    end;
    run_inline (Queue.pop queue)
  done;
  tick ();
  ( Array.map (function Some r -> r | None -> Failed "lease never ran") results,
    stats )
