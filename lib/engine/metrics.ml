(* The metrics registry: counters, gauges and fixed-bucket histograms.

   Hot paths pre-resolve their instruments once (a Hashtbl lookup at
   set-up time) and then pay a single unboxed mutation per event;
   snapshotting and merging are cold paths used only for reporting and
   for joining per-worker registries after a parallel campaign. *)

type counter = { c_name : string; mutable c_count : int }

(* How a gauge joins its per-worker copies at the merge barrier.  A
   last-writer-wins gauge depends on worker join order (and on
   supervised_map requeues), so [Last] is only for values where any
   worker's reading is as good as another's; order-independent campaigns
   want [Max] (high-water marks) or [Sum] (accumulated deltas). *)
type gauge_policy = Max | Sum | Last

type gauge = {
  g_name : string;
  mutable g_value : float;
  g_policy : gauge_policy;
}

type histogram = {
  h_name : string;
  h_edges : float array;  (* strictly increasing upper bounds *)
  h_counts : int array;   (* length = |edges| + 1; last = overflow *)
  mutable h_sum : float;
  mutable h_total : int;
}

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let counter (t : t) name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_count = 0 } in
    Hashtbl.replace t.counters name c;
    c

let incr ?(by = 1) (c : counter) = c.c_count <- c.c_count + by
let counter_value (c : counter) = c.c_count

let gauge ?(policy = Max) (t : t) name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0.; g_policy = policy } in
    Hashtbl.replace t.gauges name g;
    g

let set (g : gauge) v = g.g_value <- v
let add (g : gauge) v = g.g_value <- g.g_value +. v
let gauge_value (g : gauge) = g.g_value
let gauge_policy (g : gauge) = g.g_policy

(* Wall-clock span buckets: 1us .. 10s, in decades of nanoseconds. *)
let default_time_edges_ns =
  [| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10 |]

let validate_edges edges =
  let n = Array.length edges in
  if n = 0 then invalid_arg "Metrics.histogram: empty bucket edges";
  for i = 1 to n - 1 do
    if edges.(i) <= edges.(i - 1) then
      invalid_arg "Metrics.histogram: bucket edges must strictly increase"
  done

let histogram ?(edges = default_time_edges_ns) (t : t) name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    validate_edges edges;
    let h =
      {
        h_name = name;
        h_edges = Array.copy edges;
        h_counts = Array.make (Array.length edges + 1) 0;
        h_sum = 0.;
        h_total = 0;
      }
    in
    Hashtbl.replace t.histograms name h;
    h

(* Smallest bucket whose upper bound admits [v]; |edges| = overflow. *)
let bucket_index (h : histogram) v =
  let n = Array.length h.h_edges in
  if v > h.h_edges.(n - 1) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= h.h_edges.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

let observe (h : histogram) v =
  let i = bucket_index h v in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_total <- h.h_total + 1

let histogram_mean (h : histogram) =
  if h.h_total = 0 then 0. else h.h_sum /. float_of_int h.h_total

(* Prometheus-style quantile estimate from bucket counts: find the
   bucket holding the q-th observation and interpolate linearly inside
   it.  The overflow bucket has no upper bound, so values landing there
   clamp to the top edge — like `histogram_quantile` over `+Inf`. *)
let quantile_of ~(edges : float array) ~(counts : int array) ~total q =
  if total = 0 then 0.
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = q *. float_of_int total in
    let n = Array.length edges in
    let rec go i cum =
      if i >= n then edges.(n - 1)
      else begin
        let cum' = cum + counts.(i) in
        if float_of_int cum' >= rank then begin
          let lo = if i = 0 then 0. else edges.(i - 1) in
          let hi = edges.(i) in
          if counts.(i) = 0 then hi
          else
            lo
            +. (hi -. lo)
               *. ((rank -. float_of_int cum) /. float_of_int counts.(i))
        end
        else go (i + 1) cum'
      end
    in
    go 0 0
  end

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      edges : float array;
      counts : int array;
      sum : float;
      total : int;
    }

let snapshot (t : t) : (string * value) list =
  let acc = ref [] in
  Hashtbl.iter (fun k c -> acc := (k, Counter c.c_count) :: !acc) t.counters;
  Hashtbl.iter (fun k g -> acc := (k, Gauge g.g_value) :: !acc) t.gauges;
  Hashtbl.iter
    (fun k h ->
      acc :=
        ( k,
          Histogram
            {
              edges = Array.copy h.h_edges;
              counts = Array.copy h.h_counts;
              sum = h.h_sum;
              total = h.h_total;
            } )
        :: !acc)
    t.histograms;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

let counters_with_prefix (t : t) ~prefix : (string * int) list =
  Hashtbl.fold
    (fun k c acc ->
      if String.starts_with ~prefix k then
        (String.sub k (String.length prefix)
           (String.length k - String.length prefix),
         c.c_count)
        :: acc
      else acc)
    t.counters []
  |> List.sort compare

(* Join a worker's registry into the main one (counters and histogram
   buckets add; gauges join under their declared policy, so the merged
   value is independent of worker join order for Max and Sum). *)
let merge ~into:(dst : t) (src : t) =
  Hashtbl.iter
    (fun k (c : counter) -> incr ~by:c.c_count (counter dst k))
    src.counters;
  Hashtbl.iter
    (fun k (g : gauge) ->
      let d = gauge ~policy:g.g_policy dst k in
      match d.g_policy with
      | Max -> if g.g_value > d.g_value then set d g.g_value
      | Sum -> add d g.g_value
      | Last -> set d g.g_value)
    src.gauges;
  Hashtbl.iter
    (fun k (h : histogram) ->
      let d = histogram ~edges:h.h_edges dst k in
      if d.h_edges <> h.h_edges then
        invalid_arg
          (Fmt.str "Metrics.merge: histogram %s has mismatched bucket edges" k);
      Array.iteri
        (fun i n -> d.h_counts.(i) <- d.h_counts.(i) + n)
        h.h_counts;
      d.h_sum <- d.h_sum +. h.h_sum;
      d.h_total <- d.h_total + h.h_total)
    src.histograms
