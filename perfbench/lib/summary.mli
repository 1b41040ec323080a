(** The result line: the last line the benchmark prints. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

val valid_name : string -> bool
(** 1-64 characters of [A-Za-z0-9_.-], starting with a letter or digit. *)

val valid_unit : string -> bool
(** 1-16 characters of [A-Za-z0-9_/%.-]. *)

val to_json : t -> string
(** [{"correct": ..., "attempted": ..., "failed": ..., "metrics":
    {"<name>": {"value": ..., "unit": "..."}, ...}}] on one line.
    @raise Invalid_argument on an invalid or repeated name or unit, or
    a non-finite value. *)

val of_json : string -> (t, string) result
(** Inverse of {!to_json}. *)
