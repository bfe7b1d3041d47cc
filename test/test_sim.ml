(* Unit and property tests for the simulation substrate: time arithmetic,
   the deterministic RNG, statistics accumulators, the event queue's
   ordering guarantees, and the engine's two usage styles. *)

open Sea_sim

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- Time --- *)

let test_time_units () =
  checki "1 us = 1000 ns" 1000 (Time.to_ns (Time.us 1.));
  checki "1 ms = 1e6 ns" 1_000_000 (Time.to_ns (Time.ms 1.));
  checki "1 s = 1e9 ns" 1_000_000_000 (Time.to_ns (Time.s 1.));
  check (Alcotest.float 1e-9) "roundtrip ms" 177.52 (Time.to_ms (Time.ms 177.52));
  checki "rounding" 1 (Time.to_ns (Time.us 0.0006))

let test_time_arith () =
  let a = Time.ms 2. and b = Time.us 500. in
  checki "add" 2_500_000 (Time.to_ns (Time.add a b));
  checki "sub" 1_500_000 (Time.to_ns (Time.sub a b));
  checki "scale" 10_000_000 (Time.to_ns (Time.scale a 5));
  checki "scale_f" 3_000_000 (Time.to_ns (Time.scale_f a 1.5));
  checkb "compare" true (Time.compare a b > 0);
  checki "min" (Time.to_ns b) (Time.to_ns (Time.min a b));
  checki "max" (Time.to_ns a) (Time.to_ns (Time.max a b))

let test_time_pp () =
  check Alcotest.string "ms rendering" "177.52 ms" (Time.to_string (Time.ms 177.52));
  check Alcotest.string "us rendering" "1.500 us" (Time.to_string (Time.us 1.5));
  check Alcotest.string "ns rendering" "42 ns" (Time.to_string (Time.ns 42));
  check Alcotest.string "s rendering" "1.500 s" (Time.to_string (Time.s 1.5))

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L () and b = Rng.create ~seed:42L () in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1L () and b = Rng.create ~seed:2L () in
  checkb "different seeds diverge" true (Rng.int64 a <> Rng.int64 b)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7L () in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int64 a) in
  let ys = List.init 10 (fun _ -> Rng.int64 b) in
  checkb "split streams differ" true (xs <> ys)

let test_rng_bounds () =
  let rng = Rng.create () in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    checkb "int in range" true (v >= 0 && v < 17);
    let f = Rng.float rng 3.5 in
    checkb "float in range" true (f >= 0. && f < 3.5)
  done;
  Alcotest.check_raises "nonpositive bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_gaussian_moments () =
  let rng = Rng.create ~seed:99L () in
  let n = 20_000 in
  let acc = Stats.create () in
  for _ = 1 to n do
    Stats.add acc (Rng.gaussian rng ~mean:10. ~stdev:2.)
  done;
  checkb "mean near 10" true (abs_float (Stats.mean acc -. 10.) < 0.1);
  checkb "stdev near 2" true (abs_float (Stats.stdev acc -. 2.) < 0.1)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:5L () in
  let acc = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add acc (Rng.exponential rng ~mean:4.)
  done;
  checkb "mean near 4" true (abs_float (Stats.mean acc -. 4.) < 0.15)

let test_rng_split_n_pairwise () =
  (* The cluster layer hands every machine a stream carved off one
     master: streams must be pairwise independent — no shared values at
     all in the first 10k draws of any pair. *)
  let streams = Rng.split_n (Rng.create ~seed:2024L ()) 8 in
  let draws =
    Array.map
      (fun s ->
        let tbl = Hashtbl.create 10_000 in
        for _ = 1 to 10_000 do
          Hashtbl.replace tbl (Rng.int64 s) ()
        done;
        tbl)
      streams
  in
  Array.iteri
    (fun i ti ->
      Array.iteri
        (fun j tj ->
          if i < j then begin
            let overlap =
              Hashtbl.fold
                (fun k () acc -> if Hashtbl.mem tj k then acc + 1 else acc)
                ti 0
            in
            checki (Printf.sprintf "streams %d/%d share draws" i j) 0 overlap
          end)
        draws)
    draws

let test_rng_split_n_stable () =
  (* Stream [i] depends only on the parent's state and [i], never on how
     many siblings were carved alongside it — this is what makes a
     4-machine fleet's machine 2 identical to an 8-machine fleet's. *)
  let streams_of n = Rng.split_n (Rng.create ~seed:99L ()) n in
  let a = streams_of 4 and b = streams_of 8 in
  for i = 0 to 3 do
    let x = List.init 100 (fun _ -> Rng.int64 a.(i)) in
    let y = List.init 100 (fun _ -> Rng.int64 b.(i)) in
    checkb (Printf.sprintf "stream %d same under n=4 and n=8" i) true (x = y)
  done;
  checki "zero streams" 0 (Array.length (Rng.split_n (Rng.create ()) 0));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Rng.split_n: negative count") (fun () ->
      ignore (Rng.split_n (Rng.create ()) (-1)))

let test_rng_bytes () =
  let rng = Rng.create () in
  let b = Rng.bytes rng 64 in
  checki "length" 64 (Bytes.length b);
  checkb "not all equal" true
    (Bytes.exists (fun c -> c <> Bytes.get b 0) b)

(* --- Stats --- *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  checki "count" 5 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 3. (Stats.mean s);
  check (Alcotest.float 1e-9) "stdev" (sqrt 2.5) (Stats.stdev s);
  check (Alcotest.float 1e-9) "min" 1. (Stats.min s);
  check (Alcotest.float 1e-9) "max" 5. (Stats.max s);
  check (Alcotest.float 1e-9) "median" 3. (Stats.percentile s 50.);
  check (Alcotest.float 1e-9) "p100" 5. (Stats.percentile s 100.)

let test_stats_empty_and_single () =
  let s = Stats.create () in
  check (Alcotest.float 0.) "empty mean" 0. (Stats.mean s);
  check (Alcotest.float 0.) "empty stdev" 0. (Stats.stdev s);
  Stats.add s 7.;
  check (Alcotest.float 0.) "single stdev" 0. (Stats.stdev s);
  check (Alcotest.float 0.) "single mean" 7. (Stats.mean s)

let test_stats_add_time () =
  let s = Stats.create () in
  Stats.add_time s (Time.ms 12.5);
  check (Alcotest.float 1e-9) "stored in ms" 12.5 (Stats.mean s)

let test_stats_samples_order () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 3.; 1.; 2. ];
  check Alcotest.(list (float 0.)) "insertion order" [ 3.; 1.; 2. ] (Stats.samples s)

(* The boxed-list accumulator Stats used before its samples were unboxed,
   kept as the reference the buffer and its sort are checked against. *)
module Ref_stats = struct
  type t = {
    mutable values : float list; (* reverse insertion order *)
    mutable count : int;
    mutable sum : float;
    mutable sum_sq : float;
    mutable min : float;
    mutable max : float;
    mutable sorted : float array option; (* cache, invalidated by [add] *)
  }

  let create () =
    { values = []; count = 0; sum = 0.; sum_sq = 0.; min = infinity; max = neg_infinity;
      sorted = None }

  let add t x =
    t.values <- x :: t.values;
    t.sorted <- None;
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    t.sum_sq <- t.sum_sq +. (x *. x);
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

  let stdev t =
    if t.count < 2 then 0.
    else
      let n = float_of_int t.count in
      let var = (t.sum_sq -. (t.sum *. t.sum /. n)) /. (n -. 1.) in
      sqrt (Float.max var 0.)

  let percentile t p =
    let arr =
      match t.sorted with
      | Some arr -> arr
      | None ->
          let arr = Array.of_list t.values in
          Array.sort Float.compare arr;
          t.sorted <- Some arr;
          arr
    in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int t.count)) in
    arr.(Stdlib.max 0 (Stdlib.min (t.count - 1) (rank - 1)))

  let samples t = List.rev t.values

  let merge ts =
    let m = create () in
    List.iter (fun t -> List.iter (add m) (samples t)) ts;
    m
end

let ref_percentiles = [ 0.; 0.1; 50.; 95.; 99.; 99.9; 100. ]
let bits = Int64.bits_of_float

(* [None] if [s] matches [r], else the first observable that differs. *)
let stats_mismatch s r =
  let n = r.Ref_stats.count in
  let differs name ok = if ok then None else Some name in
  let first = List.find_map Fun.id in
  first
    [
      differs "count" (Stats.count s = n);
      differs "samples" (List.map bits (Stats.samples s) = List.map bits (Ref_stats.samples r));
      differs "mean" (bits (Stats.mean s) = bits (Ref_stats.mean r));
      differs "stdev" (bits (Stats.stdev s) = bits (Ref_stats.stdev r));
      (if n = 0 then differs "empty percentile" (Stats.percentile_opt s 50. = None)
       else
         first
           ([ differs "min" (bits (Stats.min s) = bits r.min);
              differs "max" (bits (Stats.max s) = bits r.max) ]
           @ List.map
               (fun p ->
                 differs (Printf.sprintf "p%g" p)
                   (Float.equal (Stats.percentile s p) (Ref_stats.percentile r p)))
               ref_percentiles));
    ]

(* Samples with duplicates, negatives, both zeros, both infinities and
   NaN, in runs of 0, 1, 15-17 or over 1000: the buffer starts at 16 and
   doubles, and the sort hands slices under 16 to insertion sort. *)
let gen_samples =
  QCheck.Gen.(
    let sample =
      frequency
        [ (2, oneofl [ 0.; -0.; infinity; neg_infinity; nan ]);
          (4, map float_of_int (int_range (-20) 20));
          (3, float) ]
    in
    frequency [ (4, oneofl [ 0; 1; 15; 16; 17 ]); (1, int_range 1001 1300) ] >>= fun n ->
    list_repeat n sample)

type stats_tree = Leaf of float list | Merge of stats_tree list

let gen_stats_tree =
  QCheck.Gen.(
    sized_size (int_bound 2)
    @@ fix (fun self depth ->
           if depth = 0 then map (fun xs -> Leaf xs) gen_samples
           else
             frequency
               [ (1, map (fun xs -> Leaf xs) gen_samples);
                 (2, map (fun ts -> Merge ts) (list_size (int_bound 3) (self (depth - 1)))) ]))

let rec print_stats_tree = function
  | Leaf xs -> "[" ^ String.concat "; " (List.map (Printf.sprintf "%h") xs) ^ "]"
  | Merge ts -> "merge (" ^ String.concat ", " (List.map print_stats_tree ts) ^ ")"

let rec build_stats = function
  | Leaf xs ->
      let s = Stats.create () and r = Ref_stats.create () in
      List.iter (fun x -> Stats.add s x; Ref_stats.add r x) xs;
      (s, r)
  | Merge ts ->
      let built = List.map build_stats ts in
      (Stats.merge (List.map fst built), Ref_stats.merge (List.map snd built))

let prop_stats_match_reference =
  QCheck.Test.make ~name:"list reference, random merge trees" ~count:300
    (QCheck.make ~print:print_stats_tree gen_stats_tree)
    (fun tree ->
      let s, r = build_stats tree in
      match stats_mismatch s r with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "%s differs" what)

let prop_stats_merge_is_a_copy =
  QCheck.Test.make ~name:"merge copies, shares nothing" ~count:200
    QCheck.(make ~print:(fun (a, b) -> print_stats_tree (Merge [ Leaf a; Leaf b ]))
              Gen.(pair gen_samples gen_samples))
    (fun (xs, ys) ->
      let (a, ra), (b, rb) = (build_stats (Leaf xs), build_stats (Leaf ys)) in
      let m = Stats.merge [ a; b ] and rm = Ref_stats.merge [ ra; rb ] in
      (* Sort every side first, so a stale cached view would show. *)
      List.iter (fun s -> ignore (Stats.percentile_opt s 50.)) [ a; b; m ];
      Stats.add m 1e9;
      Ref_stats.add rm 1e9;
      Stats.add a (-1e9);
      Ref_stats.add ra (-1e9);
      List.for_all (fun (s, r) -> stats_mismatch s r = None) [ (a, ra); (b, rb); (m, rm) ])

let test_stats_sorts_large_inputs () =
  (* Inputs that make a naive quicksort quadratic: about 5e9 comparisons
     each at this size, against about 2e6 for n log n. *)
  let n = 100_000 in
  List.iter
    (fun (name, f) ->
      let s = Stats.create () and r = Ref_stats.create () in
      for i = 0 to n - 1 do
        Stats.add s (f i);
        Ref_stats.add r (f i)
      done;
      for k = 0 to 1000 do
        let p = float_of_int k /. 10. in
        check (Alcotest.float 0.)
          (Printf.sprintf "%s p%g" name p)
          (Ref_stats.percentile r p) (Stats.percentile s p)
      done)
    [ ("sorted", float_of_int);
      ("reversed", fun i -> float_of_int (n - i));
      ("all equal", fun _ -> 42.) ]

let test_stats_words_per_sample () =
  (* Regression: boxed list samples took 6 words each, 5 in the list and
     1 in the sorted view. *)
  let per_sample what s =
    ignore (Stats.percentile s 50.);
    let w = float_of_int (Obj.reachable_words (Obj.repr s)) /. float_of_int (Stats.count s) in
    checkb (Printf.sprintf "%s: %.2f words per sample <= 2.5" what w) true (w <= 2.5)
  in
  let filled k n =
    let s = Stats.create () in
    for i = 1 to n do
      Stats.add s (float_of_int (i * k mod 1009))
    done;
    s
  in
  per_sample "100k added" (filled 1 100_000);
  per_sample "two 50k merged" (Stats.merge [ filled 3 50_000; filled 7 50_000 ])

(* --- Event queue --- *)

let test_queue_ordering () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:(Time.ms 3.) "c";
  Event_queue.push q ~time:(Time.ms 1.) "a";
  Event_queue.push q ~time:(Time.ms 2.) "b";
  let pop () = match Event_queue.pop q with Some (_, x) -> x | None -> "?" in
  check Alcotest.string "first" "a" (pop ());
  check Alcotest.string "second" "b" (pop ());
  check Alcotest.string "third" "c" (pop ());
  checkb "empty" true (Event_queue.is_empty q)

let test_queue_fifo_at_same_time () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:(Time.ms 1.) i
  done;
  let order = List.init 10 (fun _ -> snd (Option.get (Event_queue.pop q))) in
  check Alcotest.(list int) "FIFO among equal timestamps" (List.init 10 Fun.id) order

let test_queue_peek_clear () =
  let q = Event_queue.create () in
  checkb "peek empty" true (Event_queue.peek_time q = None);
  Event_queue.push q ~time:(Time.ms 5.) ();
  checkb "peek" true (Event_queue.peek_time q = Some (Time.ms 5.));
  checki "length" 1 (Event_queue.length q);
  Event_queue.clear q;
  checkb "cleared" true (Event_queue.is_empty q)

let test_stats_min_max_empty_raise () =
  (* Regression: min/max used to return the infinity / neg_infinity fold
     identities on an empty accumulator, leaking [inf] into reports. *)
  let s = Stats.create () in
  Alcotest.check_raises "empty min"
    (Invalid_argument "Stats.min: empty accumulator") (fun () ->
      ignore (Stats.min s));
  Alcotest.check_raises "empty max"
    (Invalid_argument "Stats.max: empty accumulator") (fun () ->
      ignore (Stats.max s));
  Stats.add s 2.;
  check (Alcotest.float 0.) "min after add" 2. (Stats.min s);
  check (Alcotest.float 0.) "max after add" 2. (Stats.max s)

let test_queue_drained_drops_references () =
  (* Regression: pop used to leave the last heap slot aliasing the popped
     entry, so a drained queue pinned the payloads of everything that
     ever passed through it. *)
  let q = Event_queue.create () in
  let w = Weak.create 8 in
  for i = 0 to 7 do
    let payload = Bytes.make 64 (Char.chr (Char.code 'a' + i)) in
    Weak.set w i (Some payload);
    Event_queue.push q ~time:i payload
  done;
  while not (Event_queue.is_empty q) do
    ignore (Event_queue.pop q)
  done;
  Gc.full_major ();
  for i = 0 to 7 do
    checkb
      (Printf.sprintf "payload %d collected after drain" i)
      false
      (Weak.check w i)
  done;
  (* Keep the queue live past the weak checks: otherwise the GC may
     collect the whole queue (payloads and all) and mask a leak. *)
  checkb "queue still empty" true (Event_queue.is_empty (Sys.opaque_identity q))

let prop_queue_sorted =
  QCheck.Test.make ~name:"event queue pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 1_000_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t ()) times;
      let rec drain last =
        match Event_queue.pop q with
        | None -> true
        | Some (t, ()) -> t >= last && drain t
      in
      drain min_int)

(* --- Engine --- *)

let test_engine_advance () =
  let e = Engine.create () in
  checki "starts at zero" 0 (Time.to_ns (Engine.now e));
  Engine.advance e (Time.ms 2.);
  checki "advanced" 2_000_000 (Time.to_ns (Engine.now e));
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Engine.advance: negative duration") (fun () ->
      Engine.advance e (Time.ns (-1)))

let test_engine_elapse_to () =
  let e = Engine.create () in
  Engine.elapse_to e (Time.ms 5.);
  checki "moved forward" 5_000_000 (Time.to_ns (Engine.now e));
  Engine.elapse_to e (Time.ms 1.);
  checki "never moves back" 5_000_000 (Time.to_ns (Engine.now e))

let test_engine_events_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~after:(Time.ms 2.) (fun _ -> log := "b" :: !log);
  Engine.schedule e ~after:(Time.ms 1.) (fun _ -> log := "a" :: !log);
  Engine.schedule e ~after:(Time.ms 3.) (fun _ -> log := "c" :: !log);
  Engine.run e;
  check Alcotest.(list string) "order" [ "a"; "b"; "c" ] (List.rev !log);
  checki "clock at last event" 3_000_000 (Time.to_ns (Engine.now e))

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~after:(Time.ms 1.) (fun _ -> incr fired);
  Engine.schedule e ~after:(Time.ms 10.) (fun _ -> incr fired);
  Engine.run ~until:(Time.ms 5.) e;
  checki "only first fired" 1 !fired;
  checki "one pending" 1 (Engine.pending e);
  checki "clock at limit" 5_000_000 (Time.to_ns (Engine.now e));
  Engine.run e;
  checki "second fired" 2 !fired

let prop_engine_fifo_at_equal_times =
  (* The serving loop's determinism rests on this: events scheduled for
     the same instant fire in insertion order, however many collide. *)
  QCheck.Test.make
    ~name:"engine fires identical-timestamp events in FIFO insertion order"
    ~count:200
    QCheck.(list (int_bound 5))
    (fun times ->
      let e = Engine.create () in
      let log = ref [] in
      List.iteri
        (fun i t ->
          Engine.schedule_at e
            ~time:(Time.ms (float_of_int t))
            (fun _ -> log := (t, i) :: !log))
        times;
      Engine.run e;
      let fired = List.rev !log in
      let rec ordered = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && i1 < i2)) && ordered rest
        | _ -> true
      in
      List.length fired = List.length times && ordered fired)

let prop_engine_run_until_partitions =
  (* [run ~until] fires exactly the events at or before the cutoff,
     leaves the rest queued, and parks the clock at the cutoff when
     anything remains. *)
  QCheck.Test.make
    ~name:"run ~until fires events at or before the cutoff, queues the rest"
    ~count:200
    QCheck.(pair (list (int_bound 100)) (int_bound 100))
    (fun (times, until) ->
      let e = Engine.create () in
      let fired = ref 0 in
      List.iter
        (fun t ->
          Engine.schedule_at e ~time:(Time.ms (float_of_int t)) (fun _ ->
              incr fired))
        times;
      Engine.run ~until:(Time.ms (float_of_int until)) e;
      let expected = List.length (List.filter (fun t -> t <= until) times) in
      let clock_ok =
        if Engine.pending e > 0 then Engine.now e = Time.ms (float_of_int until)
        else
          (* Queue drained: the clock rests at the last event fired. *)
          Engine.now e
          = Time.ms (float_of_int (List.fold_left Stdlib.max 0 (0 :: times)))
      in
      !fired = expected
      && Engine.pending e = List.length times - expected
      && clock_ok)

let test_engine_cascading_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick engine =
    incr count;
    if !count < 5 then Engine.schedule engine ~after:(Time.ms 1.) tick
  in
  Engine.schedule e ~after:(Time.ms 1.) tick;
  Engine.run e;
  checki "chain of 5" 5 !count;
  checki "clock after chain" 5_000_000 (Time.to_ns (Engine.now e))

let test_engine_step () =
  let e = Engine.create () in
  checkb "step on empty" false (Engine.step e);
  Engine.schedule e ~after:(Time.ms 1.) (fun _ -> ());
  checkb "step fires" true (Engine.step e)

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
          Alcotest.test_case "pretty-printing" `Quick test_time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "split_n pairwise independence" `Quick
            test_rng_split_n_pairwise;
          Alcotest.test_case "split_n stable across counts" `Quick
            test_rng_split_n_stable;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "gaussian moments" `Slow test_rng_gaussian_moments;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "bytes" `Quick test_rng_bytes;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary statistics" `Quick test_stats_basic;
          Alcotest.test_case "empty and single" `Quick test_stats_empty_and_single;
          Alcotest.test_case "add_time unit" `Quick test_stats_add_time;
          Alcotest.test_case "samples order" `Quick test_stats_samples_order;
          Alcotest.test_case "empty min/max raise" `Quick
            test_stats_min_max_empty_raise;
          QCheck_alcotest.to_alcotest prop_stats_match_reference;
          QCheck_alcotest.to_alcotest prop_stats_merge_is_a_copy;
          Alcotest.test_case "sorted, reversed, all-equal 100k" `Quick
            test_stats_sorts_large_inputs;
          Alcotest.test_case "words per sample" `Quick test_stats_words_per_sample;
        ] );
      ( "event-queue",
        [
          Alcotest.test_case "ordering" `Quick test_queue_ordering;
          Alcotest.test_case "FIFO at equal times" `Quick test_queue_fifo_at_same_time;
          Alcotest.test_case "peek and clear" `Quick test_queue_peek_clear;
          Alcotest.test_case "drained queue drops references" `Quick
            test_queue_drained_drops_references;
          QCheck_alcotest.to_alcotest prop_queue_sorted;
        ] );
      ( "engine",
        [
          Alcotest.test_case "advance" `Quick test_engine_advance;
          Alcotest.test_case "elapse_to" `Quick test_engine_elapse_to;
          Alcotest.test_case "events in order" `Quick test_engine_events_in_order;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          QCheck_alcotest.to_alcotest prop_engine_fifo_at_equal_times;
          QCheck_alcotest.to_alcotest prop_engine_run_until_partitions;
          Alcotest.test_case "cascading events" `Quick test_engine_cascading_events;
          Alcotest.test_case "step" `Quick test_engine_step;
        ] );
    ]
