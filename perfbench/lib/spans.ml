(* In-memory span recorder for the traced run. *)

type span = {
  id : int;
  name : string;
  parent : int;
  t0_ns : int64;
  t1_ns : int64;
  words : float;
}

type t = {
  clock : unit -> int64;
  alloc : unit -> float;
  mutable recorded : span list;  (* newest first *)
  mutable count : int;
  mutable stack : int list;  (* open span ids, innermost first *)
  mutable next_id : int;
}

let create ?(clock = Monotonic_clock.now) ?(words = Gc.minor_words) () =
  { clock; alloc = words; recorded = []; count = 0; stack = []; next_id = 0 }

let with_ t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let w0 = t.alloc () in
  let t0 = t.clock () in
  let finish () =
    let t1 = t.clock () in
    let w1 = t.alloc () in
    t.stack <- List.tl t.stack;
    t.recorded <-
      { id; name; parent; t0_ns = t0; t1_ns = t1; words = w1 -. w0 }
      :: t.recorded;
    t.count <- t.count + 1
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let by_start a b = compare a.id b.id
let spans t = List.sort by_start t.recorded
let length t = t.count

(* Children are grouped by parent once per query set; [self_ns] on a
   single span rebuilds the index, which is fine for tests and small
   traces. *)
let children_index recorded =
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace tbl s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.parent)))
    recorded;
  tbl

(* Length of the union of the children's intervals clipped to the
   parent's. *)
let covered_ns (p : span) (kids : span list) =
  let ivs =
    List.filter_map
      (fun k ->
        let a = max k.t0_ns p.t0_ns and b = min k.t1_ns p.t1_ns in
        if Int64.compare b a > 0 then Some (a, b) else None)
      kids
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> (
      match cur with None -> acc | Some (a, b) -> Int64.add acc (Int64.sub b a))
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if Int64.compare a cb <= 0 then go acc (Some (ca, max cb b)) rest
        else go (Int64.add acc (Int64.sub cb ca)) (Some (a, b)) rest)
  in
  go 0L None ivs

let self_of idx (s : span) =
  let kids = Option.value ~default:[] (Hashtbl.find_opt idx s.id) in
  let dur = Int64.sub s.t1_ns s.t0_ns in
  let self = Int64.sub dur (covered_ns s kids) in
  let kid_words = List.fold_left (fun acc k -> acc +. k.words) 0. kids in
  (self, s.words -. kid_words)

let self_ns t s = fst (self_of (children_index t.recorded) s)

type total = {
  calls : int;
  total_ns : int64;
  self_ns : int64;
  total_words : float;
  self_words : float;
}

let zero =
  { calls = 0; total_ns = 0L; self_ns = 0L; total_words = 0.; self_words = 0. }

let totals t =
  let idx = children_index t.recorded in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self, self_words = self_of idx s in
      let a = Option.value ~default:zero (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name
        {
          calls = a.calls + 1;
          total_ns = Int64.add a.total_ns (Int64.sub s.t1_ns s.t0_ns);
          self_ns = Int64.add a.self_ns self;
          total_words = a.total_words +. s.words;
          self_words = a.self_words +. self_words;
        })
    t.recorded;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find totals name = Option.value ~default:zero (List.assoc_opt name totals)
