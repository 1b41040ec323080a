(* The execution context threaded through the compiler, the fuzzers and
   the MetaMut pipeline: one metrics registry + a clock + the progress
   tick, plus (when telemetry is enabled) a span-trace buffer and a GC
   probe.

   The registry is the only progress record.  Observers (status line,
   telemetry flushes, worker heartbeats) hang off one list that fires
   once per compile and once per coverage-trend sample; they read the
   counts they need from the registry and the latest sample held here.

   A context is owned by a single domain.  Parallel campaigns give each
   worker its own context and Metrics.merge the registries (and
   Trace.merge the buffers) at the join barrier. *)

type tick = Compiled | Sampled

type t = {
  metrics : Metrics.t;
  clock : unit -> int64;  (* monotonic-enough wall clock, nanoseconds *)
  mutable trace : Trace.t option;  (* span instances, for Chrome export *)
  mutable probe : Probe.t option;  (* GC sampling, per compile batch *)
  mutable log : Log.t option;      (* structured records, for --log *)
  mutable observers : (tick -> unit) list;
  mutable sample_iteration : int;  (* latest coverage-trend sample *)
  mutable sample_covered : int;
  mutable samples : int;           (* trend samples taken so far *)
}

let default_clock () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let create ?(clock = default_clock) () =
  {
    metrics = Metrics.create ();
    clock;
    trace = None;
    probe = None;
    log = None;
    observers = [];
    sample_iteration = 0;
    sample_covered = 0;
    samples = 0;
  }

let observe (t : t) f = t.observers <- t.observers @ [ f ]

let unobserve (t : t) f =
  t.observers <- List.filter (fun g -> g != f) t.observers

(* A direct walk, not [List.iter] with a closure: a tick allocates
   nothing, and a bare context pays one match per compile. *)
let rec fire tick = function
  | [] -> ()
  | f :: rest ->
    f tick;
    fire tick rest

let compiled (t : t) = fire Compiled t.observers

let sample (t : t) ~iteration ~covered =
  t.sample_iteration <- iteration;
  t.sample_covered <- covered;
  t.samples <- t.samples + 1;
  fire Sampled t.observers

let now_ns (t : t) = t.clock ()

let incr ?(by = 1) (t : t) name =
  Metrics.incr ~by (Metrics.counter t.metrics name)

let counter_value (t : t) name =
  Metrics.counter_value (Metrics.counter t.metrics name)

let enable_trace ?(tid = 0) (t : t) : Trace.t =
  match t.trace with
  | Some tr -> tr
  | None ->
    let tr = Trace.create ~tid () in
    t.trace <- Some tr;
    tr

let enable_probe ?batch (t : t) : Probe.t =
  match t.probe with
  | Some p -> p
  | None ->
    let p = Probe.create ?batch t.metrics in
    t.probe <- Some p;
    p

let enable_log ?level (t : t) : Log.t =
  match t.log with
  | Some lg -> lg
  | None ->
    let lg = Log.create ?level () in
    t.log <- Some lg;
    lg

let log_event (t : t) ?scope ?phase ~level ~event fields =
  match t.log with
  | None -> ()
  | Some lg -> Log.record lg ?scope ?phase ~level ~event fields
