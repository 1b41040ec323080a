(* Order statistics over latency samples. *)

let sorted (xs : float array) =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median (xs : float array) =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = {
  pct : float;  (** the nearest-rank percentile the value sits at *)
  value : float;
  beyond : int;  (** samples strictly above it in sorted order *)
  samples : int;
}

let min_beyond = 10

(* The highest nearest-rank percentile with at least [min_beyond]
   samples beyond it is the sample with exactly [min_beyond] after it:
   rank n-10, i.e. percentile 100(n-10)/n.  With fewer than 2*10
   samples that rank is at or below the median and says nothing about
   the tail, so the slowest sample (0 beyond) stands in and the record
   says so. *)
let tail (xs : float array) =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let a = sorted xs in
  if n < 2 * min_beyond then
    { pct = 100.; value = a.(n - 1); beyond = 0; samples = n }
  else
    {
      pct = 100. *. float_of_int (n - min_beyond) /. float_of_int n;
      value = a.(n - min_beyond - 1);
      beyond = min_beyond;
      samples = n;
    }

let sum (xs : float array) = Array.fold_left ( +. ) 0. xs

(* Percentage [part / whole]; 0 for an empty whole. *)
let pct part whole = if whole = 0. then 0. else 100. *. part /. whole
