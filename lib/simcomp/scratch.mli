(** The per-process compile arena: reusable buffers, IR instruction
    vectors, and pre-sized recycled hashtables shared by the compile hot
    path ({!Lower}, {!Opt}, {!Backend}, {!Typecheck} context reuse) so a
    steady-state compile allocates only what escapes it.

    Every structure is fully cleared by its user around each use, so a
    warm arena produces byte-identical output to a cold one (pinned by
    the scratch-reuse tests via {!reset}).  Parallel campaign workers
    are separate processes, each with its own arena. *)

type t = {
  instrs : Ir.instr Engine.Vec.t;
  consts : (int, int64) Hashtbl.t;
  used : (int, unit) Hashtbl.t;
  forward : (int, int) Hashtbl.t;
  reach : (int, unit) Hashtbl.t;
  live_first : (int, int) Hashtbl.t;
  live_last : (int, int) Hashtbl.t;
  mutable regmap : int array;
  asm_buf : Buffer.t;
  render_buf : Buffer.t;
  types : (int, Cparse.Ast.ty) Hashtbl.t;
}

val get : unit -> t
(** The arena (created on first use). *)

val reset : unit -> unit
(** Drop the arena so the next {!get} builds a cold one — for
    tests that compare warm-arena output against fresh allocation. *)

val regmap_for : t -> int -> int array
(** The vreg assignment array, grown to cover [0..n] and filled with the
    unassigned sentinel (-2) over that range. *)

val render_tu : Cparse.Ast.tu -> string
(** Render a translation unit through the recycled buffer: byte-identical
    to [Pretty.tu_to_string]. *)
