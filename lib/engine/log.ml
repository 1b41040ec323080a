(* Leveled structured logging with deterministic rendering.

   A record carries no wall clock: its identity is (scope, phase,
   emission order), and the monotonic [seq] field is assigned at render
   time, after records have been grouped by scope.  That is what lets
   the determinism contracts of the campaign layer extend to the log
   body: a cell's records are a pure function of the cell's inputs, the
   supervision records of a lease are a pure function of its fault
   stream, and only the *interleaving* of scopes across workers is
   timing-dependent — which the scope grouping erases.

   Phases order records within a scope: phase 0 is the unit body (what
   the cell itself logged), phase 1 is
   supervision (verdicts, requeues, journal saves logged by the
   coordinator as they commit).  Sorting by phase makes the inline
   degenerate pool and the multi-process pool render identically even
   though they interleave body and supervision work differently. *)

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type record = {
  lr_level : level;
  lr_event : string;                   (* dotted event name, e.g. "lease.verdict" *)
  lr_scope : string;                   (* unit/cell name; "" is the driver *)
  lr_phase : int;                      (* render order within a scope *)
  lr_fields : (string * string) list;  (* deterministic payload *)
}

type t = {
  mutable min_level : level;
  mutable cur_scope : string;  (* stamped on subsequently emitted records *)
  records : record Vec.t;
}

let create ?(level = Info) () =
  { min_level = level; cur_scope = ""; records = Vec.create () }

let level (t : t) = t.min_level
let set_scope (t : t) scope = t.cur_scope <- scope
let enabled (t : t) l = severity l >= severity t.min_level
let length (t : t) = Vec.length t.records
let records (t : t) = Vec.to_list t.records

let record (t : t) ?scope ?(phase = 0) ~level ~event fields =
  if enabled t level then
    Vec.push t.records
      {
        lr_level = level;
        lr_event = event;
        lr_scope = Option.value ~default:t.cur_scope scope;
        lr_phase = phase;
        lr_fields = fields;
      }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let record_to_json ~seq (r : record) =
  let buf = Buffer.create 128 in
  let field k v =
    Buffer.add_string buf ",\"";
    Buffer.add_string buf (Trace.json_escape k);
    Buffer.add_string buf "\":\"";
    Buffer.add_string buf (Trace.json_escape v);
    Buffer.add_string buf "\""
  in
  Buffer.add_string buf (Fmt.str "{\"seq\":%d" seq);
  field "level" (level_to_string r.lr_level);
  field "scope" r.lr_scope;
  field "event" r.lr_event;
  List.iter (fun (k, v) -> field k v) r.lr_fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

(* Scope render order: the driver first, then [scope_order] (the
   canonical unit order the campaign registered), then any scope neither
   mentioned, alphabetically.  Within a scope, a stable sort by phase
   keeps body records ahead of supervision records while preserving
   emission order inside each phase. *)
let to_json_lines ?(scope_order = []) (t : t) : string list =
  let by_scope : (string, record Vec.t) Hashtbl.t = Hashtbl.create 16 in
  let scopes_seen = Vec.create () in
  Vec.iter
    (fun (r : record) ->
      let v =
        match Hashtbl.find_opt by_scope r.lr_scope with
        | Some v -> v
        | None ->
          let v = Vec.create () in
          Hashtbl.add by_scope r.lr_scope v;
          Vec.push scopes_seen r.lr_scope;
          v
      in
      Vec.push v r)
    t.records;
  let known = "" :: scope_order in
  let extras =
    Vec.to_list scopes_seen
    |> List.filter (fun s -> not (List.mem s known))
    |> List.sort_uniq compare
  in
  let seq = ref 0 in
  let lines = Vec.create () in
  List.iter
    (fun scope ->
      match Hashtbl.find_opt by_scope scope with
      | None -> ()
      | Some v ->
        let rs = List.stable_sort
            (fun a b -> compare a.lr_phase b.lr_phase)
            (Vec.to_list v)
        in
        List.iter
          (fun r ->
            Vec.push lines (record_to_json ~seq:!seq r);
            incr seq)
          rs)
    (known @ extras);
  Vec.to_list lines

let to_string ?scope_order (t : t) =
  match to_json_lines ?scope_order t with
  | [] -> ""
  | lines -> String.concat "\n" lines ^ "\n"

(* Atomic tmp+rename, mirroring the telemetry writers: a tail -f or a
   crashed run never sees a half-written log. *)
let write ?scope_order ~path (t : t) =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (to_string ?scope_order t);
  close_out oc;
  Sys.rename tmp path

(* --log FILE[:LEVEL] — the suffix is only a level when it parses as
   one, so plain paths containing ':' stay usable. *)
let parse_spec (s : string) : (string * level, string) result =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
    let suffix = String.sub s (i + 1) (String.length s - i - 1) in
    match level_of_string suffix with
    | Some l -> Ok (String.sub s 0 i, l)
    | None -> Ok (s, Info))
  | _ -> if String.trim s = "" then Error "empty --log spec" else Ok (s, Info)
