(** Back-end of the simulated compiler: instruction selection to a small
    RISC-flavoured target, linear-scan register allocation over
    {!phys_regs} physical registers, and assembly emission.  Selection
    patterns and allocation decisions report branch coverage.

    Selection and emission are fused into one buffer-writing pass over
    the IR (no per-instruction records, no per-operand strings); the
    working tables and the output buffer come from the
    {!Scratch} arena, so a steady-state compile allocates little beyond
    the returned assembly string. *)

val phys_regs : int
(** Number of physical registers (8). *)

val regalloc : ?cov:Coverage.t -> Ir.func -> (int * int) list * int
(** Linear-scan allocation over live intervals.  Returns the
    [(virtual, physical)] assignment (-1 = spilled; untouched vregs are
    absent) and the spill count. *)

val emit_function : ?cov:Coverage.t -> Ir.func -> string * int
(** Assembly text and spill count for one function. *)

val emit_program : ?cov:Coverage.t -> Ir.program -> string * int
(** Assembly for the whole program (data directives + functions). *)
