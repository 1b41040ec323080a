(** Leveled structured JSON-lines logging with a deterministic body.

    Records carry no wall clock.  Identity is (scope, phase, emission
    order); the monotonic [seq] is assigned at render time after
    grouping records by scope, so the rendered body is byte-identical
    across job and shard counts whenever each scope's record stream is
    (which the fault/verdict determinism contracts guarantee). *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
val level_of_string : string -> level option
val severity : level -> int

type record = {
  lr_level : level;
  lr_event : string;  (** dotted event name, e.g. ["lease.verdict"] *)
  lr_scope : string;  (** unit/cell name; [""] is the driver *)
  lr_phase : int;  (** render order within a scope: 0 body, 1 supervision *)
  lr_fields : (string * string) list;
}

type t

val create : ?level:level -> unit -> t
(** [level] defaults to [Info]. *)

val level : t -> level
val set_scope : t -> string -> unit
(** Scope stamped on subsequently emitted records. *)

val enabled : t -> level -> bool
val length : t -> int
val records : t -> record list

val record :
  t ->
  ?scope:string ->
  ?phase:int ->
  level:level ->
  event:string ->
  (string * string) list ->
  unit
(** Emit one record; dropped when below the logger's level.  [scope]
    defaults to the current scope, [phase] to 0. *)

val record_to_json : seq:int -> record -> string
(** One JSON object, no trailing newline.  All field values render as
    JSON strings. *)

val to_json_lines : ?scope_order:string list -> t -> string list
(** Scope render order: driver ([""]) first, then [scope_order], then
    unmentioned scopes alphabetically; within a scope, stable-sorted by
    phase.  [seq] is assigned in output order. *)

val to_string : ?scope_order:string list -> t -> string

val write : ?scope_order:string list -> path:string -> t -> unit
(** Atomic tmp+rename write of {!to_string}. *)

val parse_spec : string -> (string * level, string) result
(** Parse a [--log FILE[:LEVEL]] argument.  A suffix that is not a
    known level is treated as part of the path. *)
