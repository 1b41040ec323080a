(** IR interpreter.

    Executes the register-machine IR produced by {!Lower}, before or
    after optimizer passes.  Together with the AST-level {!Interp} this
    enables differential testing: for a deterministic program, the AST
    semantics, the freshly lowered IR, and the optimized IR must agree —
    the optimizer-soundness property exercised by the test suite.

    Scope: the integer/float scalar subset with named slots and arrays.
    Programs outside the subset report [o_unsupported] rather than a
    wrong answer.

    {b Prepared form.}  Each {!run} first translates the program into an
    indexed form and then interprets that form.  Block labels become
    indices into the function's block array (a label carried by several
    blocks resolves to the first); callee names become function indices
    (again the first function of that name), or a builtin when no
    function has the name; slot names become ints, and the slots live in
    one array.  A jump to a label no block carries becomes an empty
    block that raises [Unsupported "missing block L<n>"] when entered.
    The translation is redone on every call, never cached: the
    optimizer mutates blocks in place between two interpretations of
    the same program.

    {b Fuel.}  One tick per call, one per block entered and one per
    instruction executed; the program hangs on the tick that brings the
    fuel to 0, so a run needing exactly [T] ticks hangs at [~fuel:T] and
    completes at [~fuel:(T + 1)].  More than 100 nested calls (counting
    [main]) also count as a hang.

    {b Slots.}  A slot is one per name for the whole run, not one per
    call frame: globals are created up front with their initializer,
    and any other name gets one zero cell when first touched.  A
    recursive call therefore overwrites its caller's parameters and
    locals; in [int fib(int n)] at -O0 the inner call writes slot [n.1]
    before the caller reloads it, which is why a [main] returning
    [fib(10)] exits 176 here where the AST interpreter exits 55. *)

exception Trap
exception Out_of_fuel
exception Unsupported of string

type outcome = {
  o_exit : int;              (** low 8 bits of [main]'s return value *)
  o_trapped : bool;          (** division by zero, OOB, null deref, abort *)
  o_hang : bool;             (** fuel or frame limit exhausted *)
  o_unsupported : string option;
      (** the program used a feature outside the interpreter's subset *)
}

val run : ?fuel:int -> Ir.program -> outcome
(** Execute from [main] (default fuel 500_000). *)

val observable : ?fuel:int -> Ir.program -> (int * bool) option
(** The program's observable behaviour [(exit, trapped)], or [None] when
    the program hangs or falls outside the interpreter's subset.  The
    comparison key used by wrong-code detection and the per-pass
    differential check. *)
