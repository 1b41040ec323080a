(* The result line: the last line the benchmark prints. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let is_alnum c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

let to_json t =
  let seen = Hashtbl.create 64 in
  let metric m =
    if not (valid_name m.name) then invalid_arg ("Summary: bad metric name " ^ m.name);
    if not (valid_unit m.unit_) then invalid_arg ("Summary: bad unit " ^ m.unit_);
    if Hashtbl.mem seen m.name then invalid_arg ("Summary: repeated metric " ^ m.name);
    Hashtbl.add seen m.name ();
    (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool t.correct);
         ("attempted", Json.Int t.attempted);
         ("failed", Json.Int t.failed);
         ("metrics", Json.Obj (List.map metric t.metrics));
       ])

let of_json s =
  let ( let* ) = Result.bind in
  let num = function
    | Json.Num f -> Ok f
    | Json.Int i -> Ok (float_of_int i)
    | _ -> Error "value is not a number"
  in
  let* v = Json.of_string s in
  match v with
  | Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics", Json.Obj ms);
      ] ->
    let* metrics =
      List.fold_right
        (fun (name, m) acc ->
          let* acc = acc in
          match m with
          | Json.Obj [ ("value", v); ("unit", Json.Str unit_) ] ->
            let* value = num v in
            Ok ({ name; value; unit_ } :: acc)
          | _ -> Error ("malformed metric " ^ name))
        ms (Ok [])
    in
    Ok { correct; attempted; failed; metrics }
  | _ -> Error "not a summary object"
