open Sea_serve

type policy = Round_robin | Hash_tenant | Least_loaded | Cost_weighted

let policies =
  [
    ("round-robin", Round_robin);
    ("hash", Hash_tenant);
    ("least-loaded", Least_loaded);
    ("cost-weighted", Cost_weighted);
  ]

let policy_name = function
  | Round_robin -> "round-robin"
  | Hash_tenant -> "hash"
  | Least_loaded -> "least-loaded"
  | Cost_weighted -> "cost-weighted"

(* FNV-1a, 64-bit: a stable string hash under our control, so routing
   does not shift with the compiler's [Hashtbl.hash] across versions. *)
let fnv1a s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

(* splitmix64 finalizer. FNV-1a diffuses its low bits well but barely
   avalanches the high ones, and ring placement sorts by the FULL hash:
   raw FNV over the structured ["machine:m:v"] keys leaves each
   machine's 32 points in two or three tight clumps, clumps sorted by
   machine index — machine 0 then owns one giant arc that survives any
   weight in [1, 32], so resizes move (almost) nothing and the "ring"
   degenerates to a fixed partition. Finalizing with splitmix64 spreads
   the points (and tenant keys) uniformly over the 64-bit circle, which
   is what both the ≤ 2/N resize-stability bound and load spreading
   assume. *)
let mix h =
  let h = Int64.logxor h (Int64.shift_right_logical h 30) in
  let h = Int64.mul h 0xBF58476D1CE4E5B9L in
  let h = Int64.logxor h (Int64.shift_right_logical h 27) in
  let h = Int64.mul h 0x94D049BB133111EBL in
  Int64.logxor h (Int64.shift_right_logical h 31)

(* Every hash that positions something on the ring goes through the
   finalizer. *)
let ring_key s = mix (fnv1a s)

(* Unsigned comparison of the full 64-bit hash space. *)
let ucompare a b = Int64.unsigned_compare a b

let virtual_points = 32

let ring_lookup points h =
  (* First point with hash >= h, wrapping to the ring's start. *)
  let n = Array.length points in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if ucompare (fst points.(mid)) h < 0 then search (mid + 1) hi
      else search lo mid
  in
  let i = search 0 n in
  snd points.(if i = n then 0 else i)

(* The ring: virtual points sorted by hash, and a tenant lands on the
   first point at or clockwise of its own hash. It spans the given
   machine indices, each at a capacity weight in [1, virtual_points]
   (full weight by default): machine [m] at weight [w]
   contributes its first [w] canonical point hashes, unchanged. This is
   the consistent-hashing stability both failover and autoscale ring
   resizing depend on: removing a machine, or shrinking one machine's
   weight, perturbs only the arcs owned by the points that disappeared —
   a tenant on any other arc keeps its previous home. (Rehashing points
   as a function of the weight — e.g. "machine:m:w:v" — would reshuffle
   the whole ring on every resize; keeping the canonical prefix is the
   fix that bounds the moved-tenant fraction.) *)
type ring = (int64 * int) array

let make_ring ?weights alive =
  if alive = [] then invalid_arg "Router.make_ring: no machines";
  let weight m =
    match weights with
    | None -> virtual_points
    | Some w ->
        if m < 0 || m >= Array.length w then
          invalid_arg "Router.make_ring: machine index outside weights";
        if w.(m) < 1 || w.(m) > virtual_points then
          invalid_arg "Router.make_ring: weights must be in [1, 32]";
        w.(m)
  in
  let total = List.fold_left (fun acc m -> acc + weight m) 0 alive in
  let points = Array.make total (0L, 0) in
  let next = ref 0 in
  List.iter
    (fun m ->
      for v = 0 to weight m - 1 do
        points.(!next) <- (ring_key (Printf.sprintf "machine:%d:%d" m v), m);
        incr next
      done)
    alive;
  Array.sort
    (fun (h1, m1) (h2, m2) ->
      match ucompare h1 h2 with 0 -> compare m1 m2 | c -> c)
    points;
  points

let lookup ring (t : Workload.tenant) =
  ring_lookup ring (ring_key t.Workload.name)

let offered_rate (t : Workload.tenant) =
  match t.Workload.process with
  | Workload.Open_loop { rate_per_s } -> rate_per_s
  | Workload.Closed_loop { clients; think } ->
      let think_ms = Sea_sim.Time.to_ms think in
      if think_ms <= 0. then float_of_int clients *. 1000.
      else float_of_int clients *. 1000. /. think_ms

(* Mean static admission cost of one of this tenant's requests under
   its weighted mix, from the kinds' cost certificates (cached, so the
   first tenant prices each kind and the rest look up). *)
let mix_cost (t : Workload.tenant) =
  let num, den =
    List.fold_left
      (fun (num, den) (k, w) ->
        ( num +. (float_of_int w *. float_of_int (Workload.static_cost k)),
          den +. float_of_int w ))
      (0., 0.) t.Workload.mix
  in
  num /. den

let assign policy ~machines tenants =
  if machines < 1 then invalid_arg "Router.assign: machines must be positive";
  match policy with
  | Round_robin -> Array.init (List.length tenants) (fun i -> i mod machines)
  | Hash_tenant ->
      let ring = make_ring (List.init machines Fun.id) in
      Array.of_list (List.map (lookup ring) tenants)
  | Least_loaded | Cost_weighted ->
      let load = Array.make machines 0. in
      let pick () =
        (* Lowest accumulated load, ties to the lowest index. *)
        let best = ref 0 in
        for m = 1 to machines - 1 do
          if load.(m) < load.(!best) then best := m
        done;
        !best
      in
      let contribution t =
        match policy with
        | Cost_weighted ->
            (* Certificate-priced balance: a tenant's load is its offered
               rate scaled by the mean static cost of its request mix, so
               loop-heavy/TPM-heavy tenants spread out even when raw
               request rates are equal. *)
            offered_rate t *. mix_cost t
        | _ -> offered_rate t
      in
      (* fold_left, not map: placement must accumulate in list order
         ([List.map] does not specify its application order). *)
      let rev =
        List.fold_left
          (fun acc t ->
            let m = pick () in
            load.(m) <- load.(m) +. contribution t;
            m :: acc)
          [] tenants
      in
      Array.of_list (List.rev rev)
