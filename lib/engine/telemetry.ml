(* The telemetry export layer: machine-readable artifacts over the
   existing metrics/span machinery.

   Attaching telemetry to a context enables span tracing and the GC
   probe and observes the progress tick, rewriting the metrics
   snapshot files every few coverage-trend samples; finalize writes
   the at-exit snapshot, the Chrome trace, and (optionally) the
   post-run markdown report.

   Determinism rules: wall-clock timestamps appear only in exported
   artifacts (the trace, snapshot mtimes), never in checkpoint
   snapshots or RNG-visible state, so enabling --telemetry cannot
   change fuzz results.  GC and span values are machine-dependent;
   [deterministic_snapshot] strips those families for the shards:K
   invariance checks. *)

type t = {
  dir : string;
  ctx : Ctx.t;
  flush_every : int;          (* metrics flush per N trend samples *)
  mutable observer : Ctx.tick -> unit;
  c_flushes : Metrics.counter;
}

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                          *)
(* ------------------------------------------------------------------ *)

(* Prometheus metric names admit [a-zA-Z0-9_:]; the registry's dotted
   families (and per-mutator name suffixes) map onto that with '_'. *)
let prom_name name =
  let buf = Buffer.create (String.length name + 8) in
  Buffer.add_string buf "metamut_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

(* %.17g-style shortest-exact is overkill for counters; render floats
   compactly but losslessly enough for round-trip tests. *)
let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Fmt.str "%.0f" v
  else Fmt.str "%g" v

(* HELP text is a pure function of the family name, so adding it keeps
   every byte-identity contract (shards:K, resume) intact. *)
let prom_help name =
  let pre p = String.starts_with ~prefix:p name in
  if pre "compile." then "compile pipeline outcome and stage tallies"
  else if pre "mucfuzz.fresh_edges." then
    "fresh coverage edges credited to the mutator's accepted mutants"
  else if pre "mucfuzz." then "muCFuzz loop tallies (aggregate and per-mutator)"
  else if pre "opt." then "optimizer pass tallies"
  else if pre "span." then "span duration histogram, nanoseconds (wall clock)"
  else if pre "gc." then "GC probe reading (machine-dependent)"
  else if pre "shard." then "shard pool supervision tally"
  else if pre "faults.injected." then
    "deterministic fault injections fired at this site"
  else if pre "checkpoint." then "checkpoint store operation tally"
  else if pre "pipeline." then "MetaMut pipeline progress tally"
  else if pre "telemetry." then "telemetry exporter bookkeeping (wall clock)"
  else if pre "bisect." then "culprit-pass bisection tally"
  else "metamut engine metric"

let prometheus_of_snapshot (snapshot : (string * Metrics.value) list) : string
    =
  let buf = Buffer.create 2048 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter
    (fun (name, v) ->
      let pn = prom_name name in
      line "# HELP %s %s" pn (prom_help name);
      match v with
      | Metrics.Counter n ->
        line "# TYPE %s counter" pn;
        line "%s %d" pn n
      | Metrics.Gauge g ->
        line "# TYPE %s gauge" pn;
        line "%s %s" pn (prom_float g)
      | Metrics.Histogram { edges; counts; sum; total } ->
        line "# TYPE %s histogram" pn;
        let cum = ref 0 in
        Array.iteri
          (fun i edge ->
            cum := !cum + counts.(i);
            line "%s_bucket{le=\"%s\"} %d" pn (prom_float edge) !cum)
          edges;
        line "%s_bucket{le=\"+Inf\"} %d" pn total;
        line "%s_sum %s" pn (prom_float sum);
        line "%s_count %d" pn total)
    snapshot;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON snapshot                                                       *)
(* ------------------------------------------------------------------ *)

let json_of_snapshot (snapshot : (string * Metrics.value) list) : string =
  let buf = Buffer.create 2048 in
  let items kind f =
    List.filter_map
      (fun (name, v) -> Option.map (Fmt.str "    %S: %s" name) (f v))
      (List.filter (fun (_, v) -> kind v) snapshot)
  in
  let section last title lines =
    Buffer.add_string buf (Fmt.str "  %S: {\n" title);
    Buffer.add_string buf (String.concat ",\n" lines);
    if lines <> [] then Buffer.add_char buf '\n';
    Buffer.add_string buf (if last then "  }\n" else "  },\n")
  in
  Buffer.add_string buf "{\n";
  section false "counters"
    (items
       (function Metrics.Counter _ -> true | _ -> false)
       (function Metrics.Counter n -> Some (string_of_int n) | _ -> None));
  section false "gauges"
    (items
       (function Metrics.Gauge _ -> true | _ -> false)
       (function Metrics.Gauge g -> Some (prom_float g) | _ -> None));
  let histogram = function
    | Metrics.Histogram { edges; counts; sum; total } ->
      let arr f xs =
        "[" ^ String.concat "," (List.map f (Array.to_list xs)) ^ "]"
      in
      Some
        (Fmt.str
           "{\"edges\": %s, \"counts\": %s, \"sum\": %s, \"total\": %d, \
            \"p50\": %s, \"p95\": %s}"
           (arr prom_float edges)
           (arr string_of_int counts)
           (prom_float sum) total
           (prom_float (Metrics.quantile_of ~edges ~counts ~total 0.5))
           (prom_float (Metrics.quantile_of ~edges ~counts ~total 0.95)))
    | _ -> None
  in
  section true "histograms"
    (items (function Metrics.Histogram _ -> true | _ -> false) histogram);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Determinism filter                                                  *)
(* ------------------------------------------------------------------ *)

(* Families whose values are wall-clock or machine state: span duration
   histograms, GC probe readings, and telemetry's own flush counter
   (periodic flushes ride the trend samples of the context telemetry
   observes, which worker contexts never reach).  Everything else —
   counters, outcome tallies, per-mutator families — must be identical
   at any job count. *)
let nondeterministic_family name =
  String.starts_with ~prefix:"span." name
  || String.starts_with ~prefix:"gc." name
  || String.starts_with ~prefix:"telemetry." name

let deterministic_snapshot (m : Metrics.t) : (string * Metrics.value) list =
  List.filter (fun (name, _) -> not (nondeterministic_family name))
    (Metrics.snapshot m)

(* ------------------------------------------------------------------ *)
(* Per-mutator yield                                                   *)
(* ------------------------------------------------------------------ *)

(* The accept / fresh-edge series a bandit scheduler would consume
   (ROADMAP item 4), sorted by yield so the artifact doubles as a
   leaderboard.  [None] when the registry has no mutator families (a
   run that never fuzzed). *)
let mutator_yield_json (m : Metrics.t) : string option =
  let fam prefix = Metrics.counters_with_prefix m ~prefix in
  let attempts = fam "mucfuzz.attempt." in
  let accepts = fam "mucfuzz.accept." in
  let rejects = fam "mucfuzz.reject." in
  let inapplicable = fam "mucfuzz.inapplicable." in
  let fresh = fam "mucfuzz.fresh_edges." in
  if attempts = [] then None
  else begin
    let names =
      List.concat [ attempts; accepts; rejects; inapplicable; fresh ]
      |> List.map fst |> List.sort_uniq compare
    in
    let get assoc n = Option.value ~default:0 (List.assoc_opt n assoc) in
    let rows =
      names
      |> List.map (fun n ->
             ( n,
               get attempts n,
               get accepts n,
               get rejects n,
               get inapplicable n,
               get fresh n ))
      |> List.sort (fun (na, _, aca, _, _, fa) (nb, _, acb, _, _, fb) ->
             match compare fb fa with
             | 0 -> ( match compare acb aca with 0 -> compare na nb | c -> c)
             | c -> c)
    in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i (n, at, ac, rj, inap, fr) ->
        Buffer.add_string buf
          (Fmt.str
             "  {\"mutator\": %S, \"attempts\": %d, \"accepts\": %d, \
              \"rejects\": %d, \"inapplicable\": %d, \"fresh_edges\": %d}%s\n"
             n at ac rj inap fr
             (if i = List.length rows - 1 then "" else ",")))
      rows;
    Buffer.add_string buf "]\n";
    Some (Buffer.contents buf)
  end

(* ------------------------------------------------------------------ *)
(* File output                                                         *)
(* ------------------------------------------------------------------ *)

let trace_file = "trace.jsonl"
let prom_file = "metrics.prom"
let json_file = "metrics.json"
let report_file = "campaign-report.md"
let folded_file = "profile.folded"
let yield_file = "mutator-yield.json"

let write_file path contents =
  (* snapshot rewrites race nothing (single writer) but a reader tailing
     the file mid-write should never see a torn snapshot *)
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc contents;
  close_out oc;
  Sys.rename tmp path

let flush_metrics (t : t) =
  Metrics.incr t.c_flushes;
  let snapshot = Metrics.snapshot t.ctx.Ctx.metrics in
  write_file (Filename.concat t.dir prom_file)
    (prometheus_of_snapshot snapshot);
  write_file (Filename.concat t.dir json_file) (json_of_snapshot snapshot)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let attach ?(flush_every = 4) ?(tid = 0) ?probe_batch ~dir (ctx : Ctx.t) : t =
  mkdir_p dir;
  ignore (Ctx.enable_trace ~tid ctx);
  ignore (Ctx.enable_probe ?batch:probe_batch ctx);
  let t =
    {
      dir;
      ctx;
      flush_every = max 1 flush_every;
      observer = ignore;
      c_flushes = Metrics.counter ctx.Ctx.metrics "telemetry.flushes";
    }
  in
  (* periodic snapshots ride the coverage-trend cadence: one metrics
     rewrite every [flush_every]-th sample keeps long campaigns
     observable without touching the per-mutant hot path *)
  let observer = function
    | Ctx.Sampled when ctx.Ctx.samples mod t.flush_every = 0 -> flush_metrics t
    | Ctx.Sampled | Ctx.Compiled -> ()
  in
  t.observer <- observer;
  Ctx.observe ctx observer;
  t

let write_trace (t : t) =
  match t.ctx.Ctx.trace with
  | None -> ()
  | Some tr ->
    write_file (Filename.concat t.dir trace_file) (Trace.to_chrome_string tr);
    let folded = Trace.to_folded tr in
    if folded <> "" then
      write_file (Filename.concat t.dir folded_file) folded

let finalize ?report (t : t) =
  Option.iter Probe.sample t.ctx.Ctx.probe;
  Ctx.unobserve t.ctx t.observer;
  (* the flush counter is part of the snapshot, so bump before writing *)
  flush_metrics t;
  write_trace t;
  Option.iter
    (fun yield -> write_file (Filename.concat t.dir yield_file) yield)
    (mutator_yield_json t.ctx.Ctx.metrics);
  Option.iter
    (fun md -> write_file (Filename.concat t.dir report_file) md)
    report
