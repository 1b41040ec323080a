(* The benchmark driver: one workload per invocation.

     bench --workload {mucfuzz,wrongcode,campaign} --seed N --seconds N --trace {0,1}

   --trace 0 measures the end-to-end metrics untraced; --trace 1 makes
   the separate traced run that breaks the workload down by layer.  The
   last line of standard output is the JSON result. *)

open Perfbench

let workload_names = List.map (fun (w : Timed.workload) -> w.name) Timed.workloads

(* Failed checks and known program defects go to stderr: the first few
   in full, the rest by their first line. *)
let report_problems ?(label = "CHECK FAILED") problems =
  List.iteri
    (fun i p ->
      let p = if i < 3 then p else List.hd (String.split_on_char '\n' p) in
      prerr_endline (label ^ ": " ^ p))
    problems

(* The spec's metrics with their values.  A name the spec does not list
   is a bug in the driver; a listed name without a value reads
   [default] when one is given. *)
let metrics_of ?default (spec : Spec.metric list) values =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : Spec.metric) -> m.name = name) spec) then
        invalid_arg ("bench: metric missing from the spec: " ^ name))
    values;
  List.map
    (fun (m : Spec.metric) ->
      let value =
        match (List.assoc_opt m.name values, default) with
        | Some v, _ | None, Some v -> v
        | None, None -> invalid_arg ("bench: no value for " ^ m.name)
      in
      { Summary.name = m.name; value; unit_ = m.unit_ })
    spec

let print_result ~problems ~attempted ~failed metrics =
  List.iter
    (fun (m : Summary.metric) -> Printf.printf "  %-38s %14.6g %s\n" m.name m.value m.unit_)
    metrics;
  print_endline (Summary.to_json { Summary.correct = problems = []; attempted; failed; metrics })

let timed (args : Cli.t) =
  let w = Timed.find args.workload in
  let r = Timed.run w ~seed:args.seed ~seconds:args.seconds in
  let e = Report.e2e w r in
  report_problems e.problems;
  Printf.printf "workload %s, seed %d: %d chunks, %d unique findings%s\n" w.name args.seed
    (List.length r.chunks) e.findings
    (if w.name = "campaign" then "; peak_heap_mb is the coordinator's heap only" else "");
  Printf.printf "  %d steps: median %.4g ms; step_tail_ms is p%.2f (%d samples beyond)\n" e.tail.samples
    e.p50 e.tail.pct e.tail.beyond;
  print_result ~problems:e.problems ~attempted:e.attempted ~failed:e.failed
    (metrics_of Spec.end_to_end e.values)

let traced (args : Cli.t) =
  let r = Traced.run ~workload:args.workload ~seed:args.seed ~seconds:args.seconds in
  report_problems r.problems;
  report_problems ~label:"PROGRAM DEFECT" r.defects;
  if r.defects <> [] then
    Printf.printf "%d program defects found (listed on stderr; see simcomp.interp.differential_disagree_pct)\n"
      (List.length r.defects);
  Printf.printf "workload %s, seed %d, traced; self time by span:\n" args.workload args.seed;
  List.sort (fun (_, (a : Spans.total)) (_, b) -> Int64.compare b.self_ns a.self_ns) r.totals
  |> List.iteri (fun i (name, (t : Spans.total)) ->
         if i < 8 then
           Printf.printf "  %-38s %10.1f ms self in %d calls\n" name (Int64.to_float t.self_ns /. 1e6) t.calls);
  print_endline "per-layer metrics (0 = layer not broken down on this workload):";
  print_result ~problems:r.problems ~attempted:r.attempted ~failed:r.failed
    (metrics_of ~default:0. Spec.per_layer r.layers)

let () =
  Engine.Runtime.tune ();
  match Cli.parse ~workloads:workload_names (List.tl (Array.to_list Sys.argv)) with
  | Error msg ->
    prerr_endline ("bench: " ^ msg);
    prerr_endline (Cli.usage ~workloads:workload_names);
    exit 2
  | Ok args -> if args.trace then traced args else timed args
