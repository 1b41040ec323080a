(* Span-instance buffer behind the Chrome trace-event export.

   The metrics registry keeps only per-name histograms; loading a run in
   Perfetto/chrome://tracing needs the individual span instances with
   their wall-clock timestamps.  Each context owns one buffer (a Vec of
   unboxed-ish records, appended on the Span hot path only when tracing
   was explicitly enabled); parallel campaigns give each worker its own
   buffer tagged with the cell's stable tid and merge them in canonical
   cell order at the join barrier, so the merged event list is
   deterministic up to the timestamps themselves. *)

type span_rec = {
  sr_name : string;
  sr_ts_ns : int64;   (* wall-clock start, nanoseconds *)
  sr_dur_ns : int64;
  sr_tid : int;       (* Chrome thread id: the stable cell/worker tag *)
}

type t = {
  tid : int;  (* tid stamped on recorded spans *)
  spans : span_rec Vec.t;
  mutable labels : (int * string) list;  (* tid -> display name *)
}

let create ?(tid = 0) () = { tid; spans = Vec.create (); labels = [] }

let label_tid (t : t) ~tid ~label =
  if not (List.mem_assoc tid t.labels) then
    t.labels <- t.labels @ [ (tid, label) ]

let record (t : t) ~name ~ts_ns ~dur_ns =
  Vec.push t.spans
    { sr_name = name; sr_ts_ns = ts_ns; sr_dur_ns = dur_ns; sr_tid = t.tid }

let length (t : t) = Vec.length t.spans
let spans (t : t) = Vec.to_list t.spans

(* Append a worker buffer, retagging its spans with the worker's stable
   tid (the worker recorded under its own [tid], usually the same value,
   but the barrier is authoritative). *)
let merge ~into:(dst : t) ?tid (src : t) =
  Vec.iter
    (fun (r : span_rec) ->
      let tid = Option.value ~default:r.sr_tid tid in
      Vec.push dst.spans { r with sr_tid = tid })
    src.spans;
  List.iter (fun (tid, l) -> label_tid dst ~tid ~label:l) src.labels

(* ------------------------------------------------------------------ *)
(* Chrome trace-event rendering                                        *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Chrome trace timestamps are microseconds. *)
let us ns = Int64.to_float ns /. 1e3

(* The JSON Array Format: one complete ("ph":"X") event object per line,
   metadata events naming the process and each tid, wrapped in [ ].  The
   line orientation is what makes the file streamable and greppable; the
   wrapping keeps it a single valid JSON document for jq and Perfetto. *)
let to_chrome_lines ?(pid = 1) ?(process_name = "metamut") (t : t) :
    string list =
  let meta =
    Fmt.str
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}"
      pid (json_escape process_name)
    :: List.map
         (fun (tid, label) ->
           Fmt.str
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
             pid tid (json_escape label))
         t.labels
  in
  let events =
    List.map
      (fun (r : span_rec) ->
        Fmt.str
          "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
          (json_escape r.sr_name) pid r.sr_tid (us r.sr_ts_ns) (us r.sr_dur_ns))
      (spans t)
  in
  let body = meta @ events in
  let n = List.length body in
  ("[" :: List.mapi (fun i l -> if i = n - 1 then l else l ^ ",") body) @ [ "]" ]

let to_chrome_string ?pid ?process_name (t : t) =
  String.concat "\n" (to_chrome_lines ?pid ?process_name t) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Folded-stack export (flamegraph.pl / speedscope)                    *)
(* ------------------------------------------------------------------ *)

(* Span records carry no parent pointers, so nesting is reconstructed
   per tid from interval containment: sorted by (start asc, duration
   desc), a span's ancestors are exactly the stack entries that have not
   yet ended when it starts.  [fold_self] charges each span's duration
   to its own path and subtracts it from its parent's, so the values are
   *self* times — by construction, a parent's self time plus its
   children's totals equals the parent's total, which is the invariant
   the "Where the time goes" table and the acceptance check rely on. *)
let fold_self (t : t) : (string list * int64) list =
  let by_tid : (int, span_rec Vec.t) Hashtbl.t = Hashtbl.create 8 in
  Vec.iter
    (fun (r : span_rec) ->
      let v =
        match Hashtbl.find_opt by_tid r.sr_tid with
        | Some v -> v
        | None ->
          let v = Vec.create () in
          Hashtbl.add by_tid r.sr_tid v;
          v
      in
      Vec.push v r)
    t.spans;
  let self : (string list, int64 ref) Hashtbl.t = Hashtbl.create 64 in
  let charge path by =
    match Hashtbl.find_opt self path with
    | Some r -> r := Int64.add !r by
    | None -> Hashtbl.add self path (ref by)
  in
  let tids = Hashtbl.fold (fun tid _ acc -> tid :: acc) by_tid [] in
  List.iter
    (fun tid ->
      let root =
        match List.assoc_opt tid t.labels with
        | Some l -> l
        | None -> if tid = 0 then "main" else Fmt.str "tid-%d" tid
      in
      let spans =
        List.sort
          (fun (a : span_rec) (b : span_rec) ->
            match Int64.compare a.sr_ts_ns b.sr_ts_ns with
            | 0 -> Int64.compare b.sr_dur_ns a.sr_dur_ns
            | c -> c)
          (Vec.to_list (Hashtbl.find by_tid tid))
      in
      (* stack: (path, end_ts) with the deepest open span on top *)
      let stack = ref [] in
      List.iter
        (fun (r : span_rec) ->
          let rec unwind () =
            match !stack with
            | (_, end_ns) :: rest when end_ns <= r.sr_ts_ns ->
              stack := rest;
              unwind ()
            | _ -> ()
          in
          unwind ();
          let parent =
            match !stack with [] -> [ root ] | (p, _) :: _ -> p
          in
          let path = parent @ [ r.sr_name ] in
          charge path r.sr_dur_ns;
          charge parent (Int64.neg r.sr_dur_ns);
          stack := (path, Int64.add r.sr_ts_ns r.sr_dur_ns) :: !stack)
        spans)
    (List.sort compare tids);
  Hashtbl.fold (fun path r acc -> (path, !r) :: acc) self []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* One "a;b;c <microseconds>" line per stack with positive self time.
   flamegraph.pl and speedscope both take this directly. *)
let to_folded (t : t) : string =
  let lines =
    fold_self t
    |> List.filter_map (fun (path, ns) ->
           let us = Int64.div ns 1000L in
           if Int64.compare us 0L > 0 then
             Some (Fmt.str "%s %Ld" (String.concat ";" path) us)
           else None)
  in
  match lines with [] -> "" | ls -> String.concat "\n" ls ^ "\n"

(* Self time per span *name* (summed over every stack the name appears
   at the tip of), for the report's "Where the time goes" table. *)
let self_time_by_name (t : t) : (string * int64) list =
  let acc : (string, int64 ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (path, ns) ->
      match List.rev path with
      | [] -> ()
      | name :: _ -> (
        match Hashtbl.find_opt acc name with
        | Some r -> r := Int64.add !r ns
        | None -> Hashtbl.add acc name (ref ns)))
    (fold_self t);
  Hashtbl.fold (fun name r l -> (name, !r) :: l) acc []
  |> List.sort (fun (_, a) (_, b) -> Int64.compare b a)
