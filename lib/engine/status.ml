(* The live TTY status line: a one-line summary (execs/s, covered edges,
   crashes, retry recoveries) rewritten in place with \r.

   Its one input is [update] (absolute totals).  Attached to a context,
   it feeds [update] on every progress tick from the registry's compile
   counters and the context's latest trend sample; the sharded
   coordinator feeds it folded worker heartbeats instead.

   Long campaigns plateau; the line calls it out by counting consecutive
   trend samples with no new edges.  Rendering is throttled by the
   context clock so a hot fuzz loop pays one comparison per compile,
   not one terminal write. *)

type t = {
  ctx : Ctx.t;
  out : string -> unit;
  interval_ns : int64;
  label : string;
  mutable observer : Ctx.tick -> unit;
  mutable last_render_ns : int64;
  mutable started_ns : int64;
  mutable execs : int;            (* compiles *)
  mutable crashes : int;          (* crashed compile outcomes *)
  mutable covered : int;          (* highest covered count seen *)
  mutable iteration : int;        (* last sampled iteration *)
  mutable plateau : int;          (* consecutive flat coverage samples *)
  mutable rendered : bool;        (* something was written (needs clearing) *)
}

(* Exactly one process may own the terminal.  Sharded campaigns set
   this to false in every worker so K processes sharing a stderr don't
   interleave K \r-rewriting lines; the coordinator keeps ownership and
   renders the one aggregated line. *)
let tty_owner_flag = ref true
let set_tty_owner b = tty_owner_flag := b
let tty_owner () = !tty_owner_flag

(* Recoveries across the retry/supervision layers, surfaced as one
   number: transient failures the run absorbed rather than died from. *)
let recoveries (ctx : Ctx.t) =
  Ctx.counter_value ctx "pipeline.retry.recovered"
  + Ctx.counter_value ctx "shard.requeued"

let line (t : t) : string =
  let elapsed_s =
    Int64.to_float (Int64.sub (Ctx.now_ns t.ctx) t.started_ns) /. 1e9
  in
  let rate =
    if elapsed_s <= 0. then 0. else float_of_int t.execs /. elapsed_s
  in
  let buf = Buffer.create 96 in
  Buffer.add_string buf
    (Fmt.str "%s it %d | %d execs (%.0f/s) | %d edges | %d crashes" t.label
       t.iteration t.execs rate t.covered t.crashes);
  let rec_ = recoveries t.ctx in
  if rec_ > 0 then Buffer.add_string buf (Fmt.str " | %d recovered" rec_);
  (* units the governor set aside: visible the moment it happens, since
     the report only lands at the end of the run *)
  let quarantined = Ctx.counter_value t.ctx "shard.quarantined" in
  if quarantined > 0 then
    Buffer.add_string buf (Fmt.str " | %d quarantined" quarantined);
  if t.plateau >= 3 then
    Buffer.add_string buf (Fmt.str " | plateau x%d" t.plateau);
  Buffer.contents buf

let render (t : t) =
  if tty_owner () then begin
    t.rendered <- true;
    t.out ("\r\027[K" ^ line t)
  end

let maybe_render (t : t) =
  let now = Ctx.now_ns t.ctx in
  if Int64.sub now t.last_render_ns >= t.interval_ns then begin
    t.last_render_ns <- now;
    render t
  end

let default_out s =
  output_string stderr s;
  flush stderr

(* Absolute totals in.  Coverage is monotone: a heartbeat fold can
   transiently regress (a crashed shard's last beat drops out of the
   table), and the line must not un-count edges. *)
let update (t : t) ?iteration ~execs ~covered ~crashes () =
  t.execs <- execs;
  t.crashes <- crashes;
  (match iteration with Some i -> t.iteration <- i | None -> ());
  if covered > t.covered then begin
    t.plateau <- 0;
    t.covered <- covered
  end;
  maybe_render t

let attach ?(out = default_out) ?(interval_ns = 200_000_000L)
    ?(label = "fuzz") (ctx : Ctx.t) : t =
  let now = Ctx.now_ns ctx in
  let t =
    {
      ctx;
      out;
      interval_ns;
      label;
      observer = ignore;
      last_render_ns = now;
      started_ns = now;
      execs = 0;
      crashes = 0;
      covered = 0;
      iteration = 0;
      plateau = 0;
      rendered = false;
    }
  in
  let observer tick =
    let iteration =
      match tick with
      | Ctx.Compiled -> None
      | Ctx.Sampled ->
        (* a sample that gains nothing extends the streak; one that
           gains resets it inside [update] *)
        if ctx.Ctx.sample_covered <= t.covered then t.plateau <- t.plateau + 1;
        Some ctx.Ctx.sample_iteration
    in
    update t ?iteration
      ~execs:(Ctx.counter_value ctx "compile.total")
      ~covered:ctx.Ctx.sample_covered
      ~crashes:(Ctx.counter_value ctx "compile.outcome.crash")
      ()
  in
  t.observer <- observer;
  Ctx.observe ctx observer;
  t

(* Heartbeat folding: execs and crashes are per-shard disjoint work, so
   they add; covered is each shard's view of one global coverage map, so
   the fold takes the max — summing would double-count every edge two
   shards both hit.  A shard that has not compiled anything yet
   contributes (0, 0, 0) and must not drag the fold down. *)
let fold_heartbeats (beats : (int * int * int) list) : int * int * int =
  List.fold_left
    (fun (ae, ac, ak) (e, c, k) -> (ae + e, max ac c, ak + k))
    (0, 0, 0) beats

(* Final render + clear: leave the summary as an ordinary stderr line so
   the terminal scrollback keeps the last state. *)
let finish (t : t) =
  Ctx.unobserve t.ctx t.observer;
  if t.rendered && tty_owner () then t.out ("\r\027[K" ^ line t ^ "\n")
