(* Strict command line: every flag exactly once, nothing else. *)

type t = { workload : string; seed : int; seconds : int; trace : bool }

let usage ~workloads =
  Printf.sprintf
    "usage: bench --workload {%s} --seed N --seconds N --trace {0,1}"
    (String.concat "," workloads)

let flags = [ "--workload"; "--seed"; "--seconds"; "--trace" ]

let parse ~workloads argv =
  let ( let* ) = Result.bind in
  let rec collect acc = function
    | [] -> Ok acc
    | flag :: _ when not (List.mem flag flags) -> Error ("unknown argument: " ^ flag)
    | flag :: _ when List.mem_assoc flag acc -> Error ("repeated flag: " ^ flag)
    | [ flag ] -> Error ("missing value for " ^ flag)
    | flag :: v :: rest -> collect ((flag, v) :: acc) rest
  in
  let* kv = collect [] argv in
  let get flag =
    match List.assoc_opt flag kv with
    | Some v -> Ok v
    | None -> Error ("missing flag: " ^ flag)
  in
  let int flag ~min =
    let* v = get flag in
    match int_of_string_opt v with
    | Some i when i >= min && String.for_all (fun c -> c >= '0' && c <= '9') v -> Ok i
    | _ -> Error (Printf.sprintf "%s wants an integer >= %d, got %S" flag min v)
  in
  let* workload = get "--workload" in
  let* () =
    if List.mem workload workloads then Ok ()
    else Error ("unknown workload: " ^ workload)
  in
  let* seed = int "--seed" ~min:0 in
  let* seconds = int "--seconds" ~min:1 in
  let* trace =
    match get "--trace" with
    | Ok "0" -> Ok false
    | Ok "1" -> Ok true
    | Ok v -> Error ("--trace wants 0 or 1, got " ^ v)
    | Error e -> Error e
  in
  Ok { workload; seed; seconds; trace }
