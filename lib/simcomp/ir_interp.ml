(* IR interpreter.

   Executes the register-machine IR produced by Lower, before or after
   optimization passes.  Together with the AST-level Interp this enables
   differential testing: for a deterministic program, the AST semantics,
   the freshly lowered IR, and the optimized IR must all agree — the
   soundness property of the optimizer exercised by the test suite.

   Scope: the integer/float scalar subset plus named slots and arrays
   (what Lower produces for generator output).  Calls reach user
   functions and a few numeric builtins; string-manipulating builtins are
   out of scope and reported as [Unsupported].

   Each [run] first translates the program into a prepared form in which
   every name is an index (block labels, callees, slots), then
   interprets that form.  The translation is redone per run: the
   optimizer mutates blocks in place between runs of the same program. *)

open Ir

exception Trap            (* division by zero, out-of-bounds, null deref *)
exception Out_of_fuel
exception Unsupported of string

(* An address is a slot index and a cell offset into it. *)
type value = VI of int64 | VF of float | VAddr of int * int

type outcome = {
  o_exit : int;
  o_trapped : bool;
  o_hang : bool;
  o_unsupported : string option;
}

(* ------------------------------------------------------------------ *)
(* Prepared form                                                       *)
(* ------------------------------------------------------------------ *)

type pop =
  | Preg of int                 (* within the function's register file *)
  | Pconst of value
  | Psym of int * value         (* slot, and its address [VAddr (slot, 0)] *)
  | Pbad_reg                    (* past the function's register file *)

type paddr = Pvar of int | Pindex of int * pop | Pptr of pop

type pinstr =
  | Pbin of Cparse.Ast.binop * reg * pop * pop
  | Pun of Cparse.Ast.unop * reg * pop
  | Pmov of reg * pop
  | Pcast of reg * Cparse.Ast.ty * pop
  | Pload of reg * paddr
  | Pstore of paddr * pop
  | Paddr of reg * paddr
  | Pcall of reg option * int * pop array        (* callee's index *)
  | Pbuiltin of reg option * string * pop array

(* Jump targets are indices into [pf_blocks]. *)
type pterm =
  | Pret of pop option
  | Pjmp of int
  | Pbr of pop * int * int
  | Pswitch of pop * (int64 * int) list * int
  | Punreachable
  | Pmissing of string          (* the [Unsupported] message *)

type pblock = { pb_instrs : pinstr array; pb_term : pterm }

type pfunc = {
  pf_params : int array;        (* parameter slots *)
  pf_nregs : int;               (* register file size *)
  pf_blocks : pblock array;
      (* the function's blocks in order, entry first, then one empty
         block per label jumped to but carried by no block *)
}

type state = {
  funcs : pfunc array;
  slots : value array array;    (* [||] until the slot is first touched *)
  mutable fuel : int;
  mutable depth : int;
}

let zero = VI 0L

(* Intern [name] as a slot index. *)
let slot_id ids name =
  match Hashtbl.find_opt ids name with
  | Some id -> id
  | None ->
    let id = Hashtbl.length ids in
    Hashtbl.add ids name id;
    id

let prepare_func ids ~callee (f : func) : pfunc =
  let nregs = f.fn_nregs + 1 in
  let op = function
    | Reg r -> if r < nregs then Preg r else Pbad_reg
    | Imm v -> Pconst (VI v)
    | Fimm x -> Pconst (VF x)
    | Sym s ->
      let id = slot_id ids s in
      Psym (id, VAddr (id, 0))
  in
  let addr = function
    | Avar s -> Pvar (slot_id ids s)
    | Aindex (s, idx, _) -> Pindex (slot_id ids s, op idx)
    | Areg o -> Pptr (op o)
  in
  let instr = function
    | Ibin (o, r, a, b) -> Pbin (o, r, op a, op b)
    | Iun (o, r, a) -> Pun (o, r, op a)
    | Imov (r, a) -> Pmov (r, op a)
    | Icast (r, ty, a) -> Pcast (r, ty, op a)
    | Iload (r, a) -> Pload (r, addr a)
    | Istore (a, v) -> Pstore (addr a, op v)
    | Iaddr (r, a) -> Paddr (r, addr a)
    | Icall (r, name, args) -> (
      let args = Array.of_list (List.map op args) in
      match callee name with
      | Some i -> Pcall (r, i, args)
      | None -> Pbuiltin (r, name, args))
  in
  (* the first block carrying a label is the one a jump reaches *)
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i b -> if not (Hashtbl.mem index b.b_label) then Hashtbl.add index b.b_label i)
    f.fn_blocks;
  let missing = ref [] in
  let target l =
    match Hashtbl.find_opt index l with
    | Some i -> i
    | None ->
      let i = List.length f.fn_blocks + List.length !missing in
      Hashtbl.add index l i;
      missing :=
        { pb_instrs = [||]; pb_term = Pmissing (Fmt.str "missing block L%d" l) }
        :: !missing;
      i
  in
  let term = function
    | Tret o -> Pret (Option.map op o)
    | Tjmp l -> Pjmp (target l)
    | Tbr (c, lt, lf) -> Pbr (op c, target lt, target lf)
    | Tswitch (c, cases, d) ->
      Pswitch (op c, List.map (fun (v, l) -> (v, target l)) cases, target d)
    | Tunreachable -> Punreachable
  in
  let blocks =
    List.map
      (fun b ->
        let pb_instrs = Array.of_list (List.map instr b.b_instrs) in
        { pb_instrs; pb_term = term b.b_term })
      f.fn_blocks
  in
  {
    pf_params = Array.of_list (List.map (slot_id ids) f.fn_params);
    pf_nregs = nregs;
    pf_blocks = Array.of_list (blocks @ List.rev !missing);
  }

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let as_int = function
  | VI v -> v
  | VF f -> Int64.of_float f
  | VAddr _ -> 1L

let as_float = function
  | VI v -> Int64.to_float v
  | VF f -> f
  | VAddr _ -> 1.

let tick st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel

let slot st id =
  let cells = Array.unsafe_get st.slots id in
  if Array.length cells > 0 then cells
  else begin
    (* locals are declared lazily: a slot gets one cell on first touch *)
    let cells = [| zero |] in
    Array.unsafe_set st.slots id cells;
    cells
  end

let operand_value st (regs : value array) (op : pop) : value =
  match op with
  | Preg r -> regs.(r)
  | Pconst v -> v
  | Psym (id, a) ->
    ignore (slot st id);
    a
  | Pbad_reg -> raise (Unsupported "register out of range")

let load st (regs : value array) (addr : paddr) : value =
  match addr with
  | Pvar id -> (slot st id).(0)
  | Pindex (id, idx) ->
    let cells = slot st id in
    let i = Int64.to_int (as_int (operand_value st regs idx)) in
    if i < 0 || i >= Array.length cells then raise Trap;
    cells.(i)
  | Pptr op -> (
    match operand_value st regs op with
    | VAddr (id, i) ->
      let cells = slot st id in
      if i < 0 || i >= Array.length cells then raise Trap;
      cells.(i)
    | VI 0L -> raise Trap
    | _ -> raise (Unsupported "load through a non-address value"))

let store st (regs : value array) (addr : paddr) (v : value) : unit =
  match addr with
  | Pvar id -> (slot st id).(0) <- v
  | Pindex (id, idx) ->
    let cells = slot st id in
    let i = Int64.to_int (as_int (operand_value st regs idx)) in
    if i < 0 || i >= Array.length cells then raise Trap;
    cells.(i) <- v
  | Pptr op -> (
    match operand_value st regs op with
    | VAddr (id, i) ->
      let cells = slot st id in
      if i < 0 || i >= Array.length cells then raise Trap;
      cells.(i) <- v
    | VI 0L -> raise Trap
    | _ -> raise (Unsupported "store through a non-address value"))

let int_binop op a b =
  let open Int64 in
  let bool_ x = if x then 1L else 0L in
  match (op : Cparse.Ast.binop) with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div -> if equal b 0L then raise Trap else div a b
  | Mod -> if equal b 0L then raise Trap else rem a b
  | Shl -> shift_left a (to_int (logand b 63L))
  | Shr -> shift_right a (to_int (logand b 63L))
  | Lt -> bool_ (compare a b < 0)
  | Gt -> bool_ (compare a b > 0)
  | Le -> bool_ (compare a b <= 0)
  | Ge -> bool_ (compare a b >= 0)
  | Eq -> bool_ (equal a b)
  | Ne -> bool_ (not (equal a b))
  | Band -> logand a b
  | Bxor -> logxor a b
  | Bor -> logor a b
  | Land -> bool_ ((not (equal a 0L)) && not (equal b 0L))
  | Lor -> bool_ ((not (equal a 0L)) || not (equal b 0L))

let float_binop op a b : value =
  let bool_ x = VI (if x then 1L else 0L) in
  match (op : Cparse.Ast.binop) with
  | Add -> VF (a +. b)
  | Sub -> VF (a -. b)
  | Mul -> VF (a *. b)
  | Div -> VF (a /. b)
  | Mod -> VF (Float.rem a b)
  | Lt -> bool_ (a < b)
  | Gt -> bool_ (a > b)
  | Le -> bool_ (a <= b)
  | Ge -> bool_ (a >= b)
  | Eq -> bool_ (a = b)
  | Ne -> bool_ (a <> b)
  | Land -> bool_ (a <> 0. && b <> 0.)
  | Lor -> bool_ (a <> 0. || b <> 0.)
  | (Shl | Shr | Band | Bxor | Bor) as op ->
    VI (int_binop op (Int64.of_float a) (Int64.of_float b))

(* Pointer arithmetic: address +/- byte offset scaled by the element size
   recorded in the addressing mode is approximated by element-count
   arithmetic (lowering multiplies indices by sizeof, so divide back at
   8-byte granularity like the lowered code uses). *)
let addr_arith op (id, i) k =
  match (op : Cparse.Ast.binop) with
  | Add -> VAddr (id, i + Int64.to_int k)
  | Sub -> VAddr (id, i - Int64.to_int k)
  | _ -> raise (Unsupported "pointer arithmetic")

let eval_binop op (a : value) (b : value) : value =
  match a, b with
  | VF x, _ | _, VF x ->
    ignore x;
    float_binop op (as_float a) (as_float b)
  | VAddr (n, i), VI k -> addr_arith op (n, i) k
  | VI k, VAddr (n, i) -> addr_arith op (n, i) k
  | VAddr (n1, i1), VAddr (n2, i2) -> (
    match op with
    | Sub when n1 = n2 -> VI (Int64.of_int (i1 - i2))
    | Eq -> VI (if n1 = n2 && i1 = i2 then 1L else 0L)
    | Ne -> VI (if n1 = n2 && i1 = i2 then 0L else 1L)
    | _ -> raise (Unsupported "address-address arithmetic"))
  | VI x, VI y -> VI (int_binop op x y)

let eval_unop op (v : value) : value =
  match (op : Cparse.Ast.unop), v with
  | Neg, VF f -> VF (-.f)
  | Neg, v -> VI (Int64.neg (as_int v))
  | Uplus, v -> v
  | Bitnot, v -> VI (Int64.lognot (as_int v))
  | Lognot, VF f -> VI (if f = 0. then 1L else 0L)
  | Lognot, VAddr _ -> VI 0L
  | Lognot, v -> VI (if Int64.equal (as_int v) 0L then 1L else 0L)

let eval_cast (ty : Cparse.Ast.ty) (v : value) : value =
  match ty with
  | Cparse.Ast.Tfloat | Cparse.Ast.Tdouble -> VF (as_float v)
  | Cparse.Ast.Tbool -> VI (if Int64.equal (as_int v) 0L then 0L else 1L)
  | Cparse.Ast.Tint (Ichar, true) ->
    let x = Int64.to_int (as_int v) land 0xff in
    VI (Int64.of_int (if x land 0x80 <> 0 then x - 0x100 else x))
  | Cparse.Ast.Tint (Ichar, false) ->
    VI (Int64.of_int (Int64.to_int (as_int v) land 0xff))
  | Cparse.Ast.Tint (Ishort, true) ->
    let x = Int64.to_int (as_int v) land 0xffff in
    VI (Int64.of_int (if x land 0x8000 <> 0 then x - 0x10000 else x))
  | Cparse.Ast.Tint (Ishort, false) ->
    VI (Int64.of_int (Int64.to_int (as_int v) land 0xffff))
  | Cparse.Ast.Tint _ -> VI (as_int v)
  | Cparse.Ast.Tptr _ -> v
  | _ -> v

let call_builtin name (args : value array) : value =
  match name, args with
  | "abs", [| v |] -> VI (Int64.abs (as_int v))
  | "rand", [||] -> VI 42L
  | "abort", _ -> raise Trap
  | _ -> raise (Unsupported ("builtin " ^ name))

(* Fuel: one tick per call, one per block entered and one per
   instruction. *)
let rec call_function st (f : pfunc) (args : value array) : value =
  tick st;
  st.depth <- st.depth + 1;
  if st.depth > 100 then raise Out_of_fuel;
  (* bind arguments to parameter slots; missing ones read 0 *)
  Array.iteri
    (fun i id ->
      (slot st id).(0) <- (if i < Array.length args then args.(i) else zero))
    f.pf_params;
  let regs = Array.make f.pf_nregs zero in
  let result = run_block st f regs f.pf_blocks.(0) in
  st.depth <- st.depth - 1;
  result

and run_block st (f : pfunc) (regs : value array) (b : pblock) : value =
  tick st;
  let instrs = b.pb_instrs in
  for k = 0 to Array.length instrs - 1 do
    tick st;
    exec st regs (Array.unsafe_get instrs k)
  done;
  match b.pb_term with
  | Pret None -> zero
  | Pret (Some op) -> operand_value st regs op
  | Pjmp t -> run_block st f regs f.pf_blocks.(t)
  | Pbr (c, lt, lf) ->
    let truthy =
      match operand_value st regs c with
      | VI x -> not (Int64.equal x 0L)
      | VF x -> x <> 0.
      | VAddr _ -> true
    in
    run_block st f regs f.pf_blocks.(if truthy then lt else lf)
  | Pswitch (c, cases, d) ->
    let v = as_int (operand_value st regs c) in
    let t = match List.assoc_opt v cases with Some t -> t | None -> d in
    run_block st f regs f.pf_blocks.(t)
  | Punreachable -> raise Trap
  | Pmissing what -> raise (Unsupported what)

and exec st (regs : value array) (i : pinstr) : unit =
  match i with
  | Pbin (op, r, a, b) ->
    regs.(r) <- eval_binop op (operand_value st regs a) (operand_value st regs b)
  | Pun (op, r, a) -> regs.(r) <- eval_unop op (operand_value st regs a)
  | Pmov (r, a) -> regs.(r) <- operand_value st regs a
  | Pcast (r, ty, a) -> regs.(r) <- eval_cast ty (operand_value st regs a)
  | Pload (r, addr) -> regs.(r) <- load st regs addr
  | Pstore (addr, v) -> store st regs addr (operand_value st regs v)
  | Paddr (r, addr) -> (
    match addr with
    | Pvar id ->
      ignore (slot st id);
      regs.(r) <- VAddr (id, 0)
    | Pindex (id, idx) ->
      ignore (slot st id);
      regs.(r) <- VAddr (id, Int64.to_int (as_int (operand_value st regs idx)))
    | Pptr op -> regs.(r) <- operand_value st regs op)
  | Pcall (r, callee, args) -> (
    let v = call_function st st.funcs.(callee) (Array.map (operand_value st regs) args) in
    match r with Some r -> regs.(r) <- v | None -> ())
  | Pbuiltin (r, name, args) -> (
    let v = call_builtin name (Array.map (operand_value st regs) args) in
    match r with Some r -> regs.(r) <- v | None -> ())

let run ?(fuel = 500_000) (p : program) : outcome =
  let ids = Hashtbl.create 64 in
  (* duplicate function names resolve to the first *)
  let by_name = Hashtbl.create 16 in
  List.iteri
    (fun i f -> if not (Hashtbl.mem by_name f.fn_name) then Hashtbl.add by_name f.fn_name i)
    p.p_funcs;
  let callee = Hashtbl.find_opt by_name in
  let funcs = Array.of_list (List.map (prepare_func ids ~callee) p.p_funcs) in
  let globals = List.map (fun g -> (slot_id ids g.g_name, g)) p.p_globals in
  let st = { funcs; slots = Array.make (Hashtbl.length ids) [||]; fuel; depth = 0 } in
  List.iter
    (fun (id, g) ->
      let init =
        if g.g_float then VF (Option.value ~default:0. g.g_finit)
        else VI (Option.value ~default:0L g.g_init)
      in
      st.slots.(id) <- Array.make (max 1 g.g_size) init)
    globals;
  let finish exit trapped hang unsupported =
    { o_exit = exit; o_trapped = trapped; o_hang = hang; o_unsupported = unsupported }
  in
  match callee "main" with
  | None -> finish 0 false false None
  | Some main -> (
    match call_function st funcs.(main) [||] with
    | v -> finish (Int64.to_int (as_int v) land 0xff) false false None
    | exception Trap -> finish 134 true false None
    | exception Out_of_fuel -> finish 124 false true None
    | exception Unsupported what -> finish 0 false false (Some what))

let observable ?fuel (p : program) : (int * bool) option =
  let o = run ?fuel p in
  if o.o_hang || Option.is_some o.o_unsupported then None
  else Some (o.o_exit, o.o_trapped)
