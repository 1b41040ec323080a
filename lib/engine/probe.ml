(* GC/allocation probes: Gc.quick_stat deltas per compile batch, so the
   allocation profile of the hot path (the thing PR 2 optimised) is
   visible in every telemetry snapshot without a bench run.

   quick_stat reads counters without walking the heap, so a sample every
   [batch] compiles is noise even at bench iteration counts.  The
   instruments use the explicit gauge merge policies: accumulated deltas
   (promoted words, major collections) are Sum gauges, the heap size is
   a Max high-water mark — either way the merged campaign value is
   independent of worker join order. *)

type t = {
  p_batch : int;
  mutable p_compiles : int;       (* since the last sample *)
  mutable p_last_minor : float;
  mutable p_last_promoted : float;
  mutable p_last_major : int;
  h_minor_per_compile : Metrics.histogram;
  g_promoted : Metrics.gauge;
  g_major : Metrics.gauge;
  g_heap : Metrics.gauge;
}

(* Minor words allocated per compile: ~1e4 (cached hit) .. ~1e7 (large
   mutant); decade-ish buckets centred on that range. *)
let minor_words_edges =
  [| 1e2; 1e3; 1e4; 3e4; 1e5; 3e5; 1e6; 3e6; 1e7; 1e8 |]

let create ?(batch = 64) (m : Metrics.t) : t =
  let qs = Gc.quick_stat () in
  {
    p_batch = max 1 batch;
    p_compiles = 0;
    (* Gc.minor_words (not quick_stat.minor_words): the dedicated
       primitive includes the words behind the live allocation pointer,
       while quick_stat's field only advances at collection boundaries —
       a small batch would read a delta of zero *)
    p_last_minor = Gc.minor_words ();
    p_last_promoted = qs.Gc.promoted_words;
    p_last_major = qs.Gc.major_collections;
    h_minor_per_compile =
      Metrics.histogram ~edges:minor_words_edges m "gc.minor_words_per_compile";
    g_promoted = Metrics.gauge ~policy:Metrics.Sum m "gc.promoted_words";
    g_major = Metrics.gauge ~policy:Metrics.Sum m "gc.major_collections";
    g_heap = Metrics.gauge ~policy:Metrics.Max m "gc.heap_words";
  }

let sample (t : t) =
  if t.p_compiles > 0 then begin
    let qs = Gc.quick_stat () in
    let minor_now = Gc.minor_words () in
    let minor = minor_now -. t.p_last_minor in
    Metrics.observe t.h_minor_per_compile (minor /. float_of_int t.p_compiles);
    Metrics.add t.g_promoted (qs.Gc.promoted_words -. t.p_last_promoted);
    Metrics.add t.g_major
      (float_of_int (qs.Gc.major_collections - t.p_last_major));
    let heap = float_of_int qs.Gc.heap_words in
    if heap > Metrics.gauge_value t.g_heap then Metrics.set t.g_heap heap;
    t.p_last_minor <- minor_now;
    t.p_last_promoted <- qs.Gc.promoted_words;
    t.p_last_major <- qs.Gc.major_collections;
    t.p_compiles <- 0
  end

let on_compile (t : t) =
  t.p_compiles <- t.p_compiles + 1;
  if t.p_compiles >= t.p_batch then sample t

let minor_words_mean (t : t) = Metrics.histogram_mean t.h_minor_per_compile
