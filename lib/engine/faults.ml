(* Deterministic fault injection.

   Each harness owns seven independent draw streams, one per fault site.
   A draw at site S is a pure function of (harness seed, site, per-site
   draw index), NOT of a shared mutable RNG state — so the sequence of
   decisions a given site sees is independent of how draws at other
   sites interleave with it.  That is what makes faulted campaigns
   byte-identical at any job count: a cell's compile-hang stream does
   not shift because a sibling worker consulted its own crash stream
   first.

   The first three sites live inside one process (pipeline, compiler,
   checkpoint); the last four cross the process boundary and
   are consulted by the shard layer (Engine.Shard): garbled frames,
   mid-frame stalls, worker OOM kills, and coordinator crash-restarts.

   A harness is single-domain by construction (the per-site counters are
   plain mutable ints).  Parallel consumers must [derive] a child
   harness per worker / per campaign cell; derivation mixes the tag into
   the seed without consuming parent state, so children are stable
   regardless of creation order. *)

type site =
  | Llm_throttle
  | Compile_hang
  | Io_failure
  | Frame_garble
  | Frame_stall
  | Worker_oom
  | Coordinator_crash

let all_sites =
  [
    Llm_throttle; Compile_hang; Io_failure; Frame_garble; Frame_stall;
    Worker_oom; Coordinator_crash;
  ]

let site_to_string = function
  | Llm_throttle -> "llm_throttle"
  | Compile_hang -> "compile_hang"
  | Io_failure -> "io_failure"
  | Frame_garble -> "frame_garble"
  | Frame_stall -> "frame_stall"
  | Worker_oom -> "worker_oom"
  | Coordinator_crash -> "coordinator_crash"

(* Index 2 belonged to a removed site.  The indices salt each site's
   stream, so the survivors keep theirs: renumbering would move every
   later stream and every faulted campaign with it. *)
let site_index = function
  | Llm_throttle -> 0
  | Compile_hang -> 1
  | Io_failure -> 3
  | Frame_garble -> 4
  | Frame_stall -> 5
  | Worker_oom -> 6
  | Coordinator_crash -> 7

let site_count = 8

type config = {
  llm_throttle : float;
  compile_hang : float;
  io_failure : float;
  frame_garble : float;
  frame_stall : float;
  worker_oom : float;
  coordinator_crash : float;
}

let no_faults =
  {
    llm_throttle = 0.;
    compile_hang = 0.;
    io_failure = 0.;
    frame_garble = 0.;
    frame_stall = 0.;
    worker_oom = 0.;
    coordinator_crash = 0.;
  }

let rate (c : config) = function
  | Llm_throttle -> c.llm_throttle
  | Compile_hang -> c.compile_hang
  | Io_failure -> c.io_failure
  | Frame_garble -> c.frame_garble
  | Frame_stall -> c.frame_stall
  | Worker_oom -> c.worker_oom
  | Coordinator_crash -> c.coordinator_crash

let with_rate (c : config) site r =
  match site with
  | Llm_throttle -> { c with llm_throttle = r }
  | Compile_hang -> { c with compile_hang = r }
  | Io_failure -> { c with io_failure = r }
  | Frame_garble -> { c with frame_garble = r }
  | Frame_stall -> { c with frame_stall = r }
  | Worker_oom -> { c with worker_oom = r }
  | Coordinator_crash -> { c with coordinator_crash = r }

type t = {
  config : config;
  seed : int64;
  counts : int array; (* per-site draw index; single-domain *)
}

let create ?(seed = 0) config =
  { config; seed = Int64.of_int seed; counts = Array.make site_count 0 }

(* splitmix64 finalizer: full avalanche over the 64-bit input. *)
let mix64 (z : int64) : int64 =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let golden = 0x9E3779B97F4A7C15L

let derive (t : t) ~tag =
  {
    config = t.config;
    seed = mix64 (Int64.add t.seed (Int64.mul golden (Int64.of_int (tag + 1))));
    counts = Array.make site_count 0;
  }

(* Uniform float in [0,1) from the (seed, site, k) triple: two rounds of
   the finalizer over seed + site·φ + k·φ², 53 mantissa bits. *)
let draw (t : t) site k =
  let open Int64 in
  let salt = mul golden (of_int (site_index site + 11)) in
  let x = add t.seed (add salt (mul (mul golden golden) (of_int (k + 1)))) in
  let bits = shift_right_logical (mix64 (mix64 x)) 11 in
  Int64.to_float bits /. 9007199254740992. (* 2^53 *)

(* The shard-layer sites are drawn with the coordinator's context in the
   inline degenerate pool but with no context at all in a real worker
   process, so logging them here would make log bodies depend on the
   shard count.  Their injections surface through the pool's supervision
   events instead; only the in-process sites log at the draw. *)
let in_process_site = function
  | Llm_throttle | Compile_hang | Io_failure -> true
  | Frame_garble | Frame_stall | Worker_oom | Coordinator_crash -> false

let fire ?ctx (t : t) site =
  let r = rate t.config site in
  if r <= 0. then false
  else begin
    let i = site_index site in
    let k = t.counts.(i) in
    t.counts.(i) <- k + 1;
    let hit = draw t site k < r in
    if hit then
      Option.iter
        (fun c ->
          Ctx.incr c ("faults.injected." ^ site_to_string site);
          if in_process_site site then
            Ctx.log_event c ~level:Log.Warn ~event:"fault.injected"
              [ ("site", site_to_string site); ("draw", string_of_int k) ])
        ctx;
    hit
  end

(* ------------------------------------------------------------------ *)
(* Spec syntax:                                                        *)
(*   "llm=0.2,hang=0.01,io=0.02,frame=0.1,stall=0.05,oom=0.01,         *)
(*    coord=0.02"                                                      *)
(* ------------------------------------------------------------------ *)

let key_of_site = function
  | Llm_throttle -> "llm"
  | Compile_hang -> "hang"
  | Io_failure -> "io"
  | Frame_garble -> "frame"
  | Frame_stall -> "stall"
  | Worker_oom -> "oom"
  | Coordinator_crash -> "coord"

let site_of_key = function
  | "llm" | "llm_throttle" -> Some Llm_throttle
  | "hang" | "compile_hang" -> Some Compile_hang
  | "io" | "io_failure" -> Some Io_failure
  | "frame" | "frame_garble" -> Some Frame_garble
  | "stall" | "frame_stall" -> Some Frame_stall
  | "oom" | "worker_oom" -> Some Worker_oom
  | "coord" | "coordinator_crash" -> Some Coordinator_crash
  | _ -> None

let parse_spec (s : string) : (config, string) result =
  let s = String.trim s in
  if s = "" || s = "off" || s = "none" then Ok no_faults
  else
    let parts = String.split_on_char ',' s in
    List.fold_left
      (fun acc part ->
        match acc with
        | Error _ -> acc
        | Ok cfg -> (
          match String.index_opt part '=' with
          | None -> Error (Fmt.str "fault spec %S: expected key=rate" part)
          | Some i -> (
            let key = String.trim (String.sub part 0 i) in
            let v = String.trim (String.sub part (i + 1) (String.length part - i - 1)) in
            match (site_of_key key, float_of_string_opt v) with
            | None, _ -> Error (Fmt.str "fault spec: unknown site %S" key)
            | _, None -> Error (Fmt.str "fault spec: bad rate %S" v)
            | Some _, Some r when r < 0. || r > 1. ->
              Error (Fmt.str "fault spec: rate %g outside [0,1]" r)
            | Some site, Some r -> Ok (with_rate cfg site r))))
      (Ok no_faults) parts

let spec_to_string (c : config) : string =
  all_sites
  |> List.filter_map (fun s ->
         let r = rate c s in
         if r > 0. then Some (Fmt.str "%s=%g" (key_of_site s) r) else None)
  |> function
  | [] -> "off"
  | kvs -> String.concat "," kvs

let fingerprint (t : t) = Fmt.str "%s#%Ld" (spec_to_string t.config) t.seed

(* CI hook: METAMUT_FAULTS holds a spec, METAMUT_FAULT_SEED the harness
   seed.  An unset or empty variable means "no override"; a malformed
   spec is an error worth failing loudly on (a CI job that silently ran
   fault-free would defeat its purpose). *)
let config_from_env () : config option =
  match Sys.getenv_opt "METAMUT_FAULTS" with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> (
    match parse_spec s with
    | Ok c -> Some c
    | Error msg -> invalid_arg ("METAMUT_FAULTS: " ^ msg))

let seed_from_env () : int =
  match Sys.getenv_opt "METAMUT_FAULT_SEED" with
  | None -> 0
  | Some s when String.trim s = "" -> 0
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> invalid_arg (Fmt.str "METAMUT_FAULT_SEED: %S is not an integer" s))
