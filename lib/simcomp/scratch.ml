(* The per-process compile arena.

   The compile pipeline used to allocate its working state afresh on
   every compile: an instruction list rebuilt per block in [Lower], a
   constant table per block in [Opt.constfold], liveness/assignment
   tables per function in [Backend.regalloc], and a [Buffer] per
   function/program/render.  None of that state survives a compile, so
   fuzz loops — hundreds of thousands of compiles per campaign — paid
   steady GC tax for structurally identical garbage.

   This module centralises those scratch structures in one module-level
   record.  Tables are recycled with [Hashtbl.clear]
   (which keeps the grown bucket array, unlike [Hashtbl.reset]) and
   buffers with [Buffer.clear], so after warm-up the hot path allocates
   only what escapes the compile (the outcome itself).

   Determinism: every structure is fully cleared by its user before (or
   after) each use, so a warm arena and a cold one produce byte-identical
   output — [reset] exists so tests can pin that.  Parallel campaign
   workers are separate processes, each with its own arena. *)

type t = {
  (* Lower: per-block instruction staging (blocks are built strictly
     sequentially, so one vector serves the whole function). *)
  instrs : Ir.instr Engine.Vec.t;
  (* Opt: per-block constant table (constfold), per-function used-reg
     set (dce) and jump-threading/reachability tables (simplify-cfg). *)
  consts : (int, int64) Hashtbl.t;
  used : (int, unit) Hashtbl.t;
  forward : (int, int) Hashtbl.t;
  reach : (int, unit) Hashtbl.t;
  (* Backend: per-function live-interval endpoints and the vreg → phys
     assignment (array indexed by vreg; -2 = unassigned, -1 = spilled). *)
  live_first : (int, int) Hashtbl.t;
  live_last : (int, int) Hashtbl.t;
  mutable regmap : int array;
  (* Backend: whole-program assembly buffer. *)
  asm_buf : Buffer.t;
  (* Mutant rendering (Pretty/Fragility). *)
  render_buf : Buffer.t;
  (* Typecheck context reuse: the expression-id → type table threaded
     into [Typecheck.check ~types] by the compile hot path. *)
  types : (int, Cparse.Ast.ty) Hashtbl.t;
}

let create () =
  {
    instrs = Engine.Vec.create ();
    consts = Hashtbl.create 64;
    used = Hashtbl.create 256;
    forward = Hashtbl.create 64;
    reach = Hashtbl.create 64;
    live_first = Hashtbl.create 256;
    live_last = Hashtbl.create 256;
    regmap = Array.make 256 (-2);
    asm_buf = Buffer.create 4096;
    render_buf = Buffer.create 4096;
    types = Hashtbl.create 1024;
  }

let arena : t option ref = ref None

let get () : t =
  match !arena with
  | Some s -> s
  | None ->
    let s = create () in
    arena := Some s;
    s

(* Drop the arena; the next [get] builds a cold one.  Lets the
   byte-identity tests compare warm-arena output against a fresh arena. *)
let reset () = arena := None

(* Ensure [regmap] covers vregs [1..n] and is filled with the unassigned
   sentinel over that range. *)
let regmap_for (s : t) (n : int) : int array =
  if Array.length s.regmap <= n then
    s.regmap <- Array.make (max (n + 1) (2 * Array.length s.regmap)) (-2)
  else Array.fill s.regmap 0 (n + 1) (-2);
  s.regmap

(* Render a translation unit through the recycled buffer: same bytes as
   [Pretty.tu_to_string], without per-render buffer growth garbage. *)
let render_tu (tu : Cparse.Ast.tu) : string =
  let s = get () in
  Buffer.clear s.render_buf;
  Cparse.Pretty.tu_to_buf s.render_buf tu;
  Buffer.contents s.render_buf
