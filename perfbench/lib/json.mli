(** The JSON subset the benchmark prints and reads back. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, one line.  Floats print with 17 significant digits, so
    they read back bit-identical.
    @raise Invalid_argument on a NaN or infinite float. *)

val of_string : string -> (t, string) result
(** Numbers without a fraction or exponent read as [Int]. *)
