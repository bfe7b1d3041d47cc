(* Running sums and extremes. A record of floats only is stored flat, so
   updating it allocates nothing. *)
type moments = {
  mutable sum : float;
  mutable sum_sq : float;
  mutable min : float;
  mutable max : float;
}

type t = {
  mutable values : Float.Array.t; (* insertion order; the first [count] are samples *)
  mutable count : int;
  moments : moments;
  mutable sorted : Float.Array.t option; (* cache, invalidated by [add] *)
}

let create () =
  {
    values = Float.Array.create 0;
    count = 0;
    moments = { sum = 0.; sum_sq = 0.; min = infinity; max = neg_infinity };
    sorted = None;
  }

(* Never inlined: [add] and [merge] run this one compiled copy, so they
   meet NaNs in the same operand order and a merged sum carries the same
   NaN as one built by [add]. *)
let[@inline never] record m x =
  m.sum <- m.sum +. x;
  m.sum_sq <- m.sum_sq +. (x *. x);
  if x < m.min then m.min <- x;
  if x > m.max then m.max <- x

let add t x =
  let capacity = Float.Array.length t.values in
  if t.count = capacity then begin
    let grown = Float.Array.create (Stdlib.max 16 (2 * capacity)) in
    Float.Array.blit t.values 0 grown 0 t.count;
    t.values <- grown
  end;
  Float.Array.set t.values t.count x;
  t.count <- t.count + 1;
  t.sorted <- None;
  record t.moments x

let add_time t d = add t (Time.to_ms d)
let count t = t.count
let mean t = if t.count = 0 then 0. else t.moments.sum /. float_of_int t.count

let stdev t =
  if t.count < 2 then 0.
  else
    let n = float_of_int t.count in
    let { sum; sum_sq; _ } = t.moments in
    let var = (sum_sq -. (sum *. sum /. n)) /. (n -. 1.) in
    sqrt (Float.max var 0.)

let min t =
  if t.count = 0 then invalid_arg "Stats.min: empty accumulator";
  t.moments.min

let max t =
  if t.count = 0 then invalid_arg "Stats.max: empty accumulator";
  t.moments.max

(* --- sorting unboxed floats in [Float.compare] order --- *)

let swap a i j =
  let x = Float.Array.get a i in
  Float.Array.set a i (Float.Array.get a j);
  Float.Array.set a j x

let insertion_sort a lo hi =
  for i = lo + 1 to hi do
    let x = Float.Array.get a i in
    let j = ref (i - 1) in
    while !j >= lo && x < Float.Array.get a !j do
      Float.Array.set a (!j + 1) (Float.Array.get a !j);
      decr j
    done;
    Float.Array.set a (!j + 1) x
  done

(* Quicksort of the NaN-free slice [lo..hi]. The median of three moves
   the slice's ends to either side of the pivot, so neither scan can run
   off the slice. Both scans stop on elements equal to the pivot, so
   all-equal slices split in half. Recursing into the smaller part and
   looping on the larger bounds the stack at log2 of the length. *)
let rec quicksort a lo hi =
  if hi - lo + 1 < 16 then insertion_sort a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if Float.Array.get a mid < Float.Array.get a lo then swap a lo mid;
    if Float.Array.get a hi < Float.Array.get a lo then swap a lo hi;
    if Float.Array.get a hi < Float.Array.get a mid then swap a mid hi;
    let pivot = Float.Array.get a mid in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while Float.Array.get a !i < pivot do incr i done;
      while pivot < Float.Array.get a !j do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    if !j - lo < hi - !i then begin
      quicksort a lo !j;
      quicksort a !i hi
    end
    else begin
      quicksort a !i hi;
      quicksort a lo !j
    end
  end

(* [Float.compare] puts NaN below every other float and treats -0. and
   0. as equal, as [<] does; so NaNs go to the front first and the rest
   sorts with [<]. *)
let sort a =
  let nans = ref 0 in
  for i = 0 to Float.Array.length a - 1 do
    if Float.is_nan (Float.Array.get a i) then begin
      swap a !nans i;
      incr nans
    end
  done;
  quicksort a !nans (Float.Array.length a - 1)

let sorted_samples t =
  match t.sorted with
  | Some arr -> arr
  | None ->
      let arr = Float.Array.sub t.values 0 t.count in
      sort arr;
      t.sorted <- Some arr;
      arr

let percentile t p =
  if t.count = 0 then invalid_arg "Stats.percentile: empty accumulator";
  let arr = sorted_samples t in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int t.count)) in
  let idx = Stdlib.max 0 (Stdlib.min (t.count - 1) (rank - 1)) in
  Float.Array.get arr idx

let percentile_opt t p = if t.count = 0 then None else Some (percentile t p)

let samples t = List.init t.count (Float.Array.get t.values)

let merge ts =
  let count = List.fold_left (fun n t -> n + t.count) 0 ts in
  let m = { (create ()) with values = Float.Array.create count; count } in
  ignore
    (List.fold_left
       (fun at t ->
         Float.Array.blit t.values 0 m.values at t.count;
         at + t.count)
       0 ts);
  for i = 0 to count - 1 do
    record m.moments (Float.Array.get m.values i)
  done;
  m

let pp_summary fmt t =
  Format.fprintf fmt "%.2f ± %.2f (n=%d)" (mean t) (stdev t) t.count

let pp_percentiles fmt t =
  if t.count = 0 then Format.fprintf fmt "p50/p95/p99 -/-/-"
  else
    Format.fprintf fmt "p50/p95/p99 %.2f/%.2f/%.2f" (percentile t 50.)
      (percentile t 95.) (percentile t 99.)
