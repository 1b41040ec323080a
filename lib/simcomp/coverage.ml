(* Branch-coverage instrumentation for the simulated compilers.

   Each decision point in the pipeline reports a (site, context) pair;
   context captures what the real compiler's branch would depend on (node
   kind, type class, pass decision...), so coverage grows with program
   diversity exactly as it does when fuzzing an instrumented GCC/Clang.

   The representation is AFL's edge map taken literally: a fixed byte
   array of [map_size] saturating 8-bit hit counters.  [hit] is a
   branch-predictable unboxed byte bump — no tuple, no [Hashtbl.hash],
   no heap traffic of any kind — because it fires thousands of times per
   compile (the feature-pair loop alone is O(n²) in feature buckets).

   Beside the bytes the map keeps the list of its nonzero cells
   ([cells.(0 .. distinct-1)], in first-touch order): a cell is appended
   when its counter leaves zero, so [distinct] is the list's length by
   construction and [covered] is O(1).  A compile touches a few thousand
   of the 2^20 cells, and every whole-map operation ([merge], [reset],
   [iter_nonzero], ...) walks that list instead of scanning the map, so
   its cost follows the branches touched, not the map size. *)

type t = {
  map : Bytes.t;             (* map_size saturating 8-bit hit counters *)
  mutable cells : int array; (* cells.(0 .. distinct-1): the nonzero cells *)
  mutable hits : int;        (* total branch events, unsaturated *)
  mutable distinct : int;    (* number of nonzero cells *)
}

let map_bits = 20
let map_size = 1 lsl map_bits

(* Larger than [Max_young_wosize], so the list is born (and regrown) in
   the major heap and never shows up in minor-word counts. *)
let initial_cells = 1024

let create () =
  {
    map = Bytes.make map_size '\000';
    cells = Array.make initial_cells 0;
    hits = 0;
    distinct = 0;
  }

(* Record that cell [i] just left zero.  The list doubles when full; it
   can never outgrow [map_size], since each cell is listed at most once. *)
let add_cell cov i =
  let n = cov.distinct in
  if n = Array.length cov.cells then begin
    let a = Array.make (2 * n) 0 in
    Array.blit cov.cells 0 a 0 n;
    cov.cells <- a
  end;
  Array.unsafe_set cov.cells n i;
  cov.distinct <- n + 1

let hit cov id =
  let i = id land (map_size - 1) in
  cov.hits <- cov.hits + 1;
  let c = Char.code (Bytes.unsafe_get cov.map i) in
  if c = 0 then add_cell cov i;
  if c < 255 then Bytes.unsafe_set cov.map i (Char.unsafe_chr (c + 1))

(* An integer mixer over the (site, a, b) triple: xmix/murmur-style
   multiply-shift rounds, entirely on immediates.  Replaces
   [Hashtbl.hash (site, a, b)], which boxed the triple on every event. *)
let[@inline] mix3 site a b =
  let h = site * 0x9E3779B1 in
  let h = (h lxor a) * 0x85EBCA77 in
  let h = (h lxor b) * 0xC2B2AE3D in
  let h = h lxor (h lsr 16) in
  let h = h * 0x27D4EB2F in
  h lxor (h lsr 13)

(* Report a branch at [site] with contextual values.  [branch3] is the
   hot-path spelling: without flambda, [branch]'s optional arguments box
   a [Some] per supplied value at every call site — thousands of events
   per compile, all allocating for nothing.  Instrumentation sites that
   fire per token/node/instruction must use [branch3]. *)
let branch3 cov site a b = hit cov (mix3 site a b)
let branch cov ~site ?(a = 0) ?(b = 0) () = branch3 cov site a b

let covered cov = cov.distinct

let total_hits cov = cov.hits

(* The touched list in increasing cell order (a sorted copy: the list
   itself stays in first-touch order). *)
let sorted_cells cov =
  let a = Array.sub cov.cells 0 cov.distinct in
  Array.sort Int.compare a;
  a

let branch_ids cov = Array.to_list (sorted_cells cov)

let iter_nonzero cov f = Array.iter f (sorted_cells cov)

(* Merge [src] into [dst] (the macro fuzzer's shared coverage map).
   Returns the number of branches new to [dst] — [fresh > 0] is the
   acceptance test of the paper's Algorithm 1, so callers need exactly
   one pass for both the accept decision and the accumulation. *)
let merge ~into:dst src =
  let fresh = ref 0 in
  for k = 0 to src.distinct - 1 do
    let i = Array.unsafe_get src.cells k in
    let s = Char.code (Bytes.unsafe_get src.map i) in
    let d = Char.code (Bytes.unsafe_get dst.map i) in
    if d = 0 then begin
      incr fresh;
      add_cell dst i
    end;
    let sum = d + s in
    Bytes.unsafe_set dst.map i (Char.unsafe_chr (if sum > 255 then 255 else sum))
  done;
  dst.hits <- dst.hits + src.hits;
  !fresh

let reset cov =
  for k = 0 to cov.distinct - 1 do
    Bytes.unsafe_set cov.map (Array.unsafe_get cov.cells k) '\000'
  done;
  cov.hits <- 0;
  cov.distinct <- 0

(* kept for existing callers; new code says [reset] *)
let drain = reset

(* [merge], then [reset] of the source: the per-mutant scratch map ends
   every compile pristine, ready for the next. *)
let merge_consume ~into src =
  let fresh = merge ~into src in
  reset src;
  fresh

(* Does [src] cover any branch absent from [seen]?  Read-only, with an
   early exit; accept-and-accumulate paths use [merge]'s return. *)
let has_new_coverage ~seen src =
  let rec go k =
    k < src.distinct
    && (Bytes.unsafe_get seen.map (Array.unsafe_get src.cells k) = '\000'
       || go (k + 1))
  in
  go 0

let copy cov = { cov with map = Bytes.copy cov.map; cells = Array.copy cov.cells }

(* Exact structural equality, for the checkpoint/resume tests: a resumed
   run must reproduce the uninterrupted run's map bit-for-bit.  The
   touched lists hold the same cells whenever the maps are equal, so
   their order is not compared. *)
let equal a b =
  a.hits = b.hits && a.distinct = b.distinct && Bytes.equal a.map b.map
