(* End-to-end metrics of a timed run. *)

open Perfbench

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let sum_int f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sum_float f l = List.fold_left (fun acc x -> acc +. f x) 0. l

let words_to_mib w = w *. float_of_int (Sys.word_size / 8) /. 1048576.

type e2e = {
  values : (string * float) list;  (** every end-to-end metric by name *)
  findings : int;
      (** unique crashes, or distinct miscompilations, in the prefix:
          printed, but not an end-to-end metric — a count of a few to a
          few dozen varies too much from seed to seed to hold a bound *)
  p50 : float;
      (** median step latency, ms: printed, but not an end-to-end
          metric — the latency distribution is wide enough that its
          median moves by 11-27 % from seed to seed *)
  tail : Stats.tail;
  attempted : int;
  failed : int;
  problems : string list;  (** failed output checks *)
}

let e2e (w : Timed.workload) (r : Timed.run) =
  let all = r.Timed.chunks in
  let prefix = take w.min_chunks all in
  let steps = Array.concat (List.map (fun (c : Timed.chunk) -> c.steps_ms) all) in
  let wall = sum_float (fun (c : Timed.chunk) -> c.wall_s) all in
  let findings =
    List.sort_uniq compare (List.concat_map (fun (c : Timed.chunk) -> c.findings) prefix)
  in
  let problems =
    List.concat_map (fun (c : Timed.chunk) -> c.problems) all
    @ if r.replay_ok then [] else [ w.name ^ ": chunk 0 gave different outputs when run again" ]
  in
  let attempted = sum_int (fun (c : Timed.chunk) -> c.attempted) all in
  let failed =
    sum_int (fun (c : Timed.chunk) -> c.failed) all + if r.replay_ok then 0 else 1
  in
  let tail = Stats.tail steps in
  let values =
    [
      ("setup_s", Stats.median (Array.of_list (List.map (fun (c : Timed.chunk) -> c.setup_s) all)));
      ("mutants_per_s", float_of_int (sum_int (fun (c : Timed.chunk) -> c.mutants) all) /. wall);
      ("step_tail_ms", tail.value);
      ("wall_s", wall /. float_of_int (List.length all));
      ( "minor_words_per_compile",
        sum_float (fun (c : Timed.chunk) -> c.minor_words) prefix
        /. float_of_int (max 1 (sum_int (fun (c : Timed.chunk) -> c.compiles) prefix)) );
      ("peak_heap_mb", words_to_mib (float_of_int (Gc.quick_stat ()).Gc.top_heap_words));
      ("covered_branches", float_of_int (Simcomp.Coverage.covered r.prefix_coverage));
      ("ok_op_pct", Stats.pct (float_of_int (attempted - failed)) (float_of_int attempted));
    ]
  in
  { values; findings = List.length findings; p50 = Stats.median steps; tail; attempted; failed; problems }
