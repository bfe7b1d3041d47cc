open Sea_sim

(* Arrivals are stored in chunks of four flat columns; [client] holds -1
   for an open-loop arrival. Arrays of ints and constant constructors
   hold no pointers, so the GC never scans them and a store is a plain
   write. Fixed-size chunks grow the store without copying it: doubling
   one array per column instead left the outgrown copies behind as
   garbage and raised proposed-steady's peak RSS by about 20 MB. They
   are small because most runs are: a fleet epoch's serve draws a few
   dozen arrivals, and 4096-slot chunks raised fleet-churn's peak RSS by
   about 3 MB. *)
type columns = {
  time : Time.t array;
  tenant : int array;
  kind : Workload.kind array;
  client : int array;
}

let chunk_bits = 8
let chunk = 1 lsl chunk_bits

let columns () =
  {
    time = Array.make chunk Time.zero;
    tenant = Array.make chunk 0;
    kind = Array.make chunk Workload.Ssh_auth;
    client = Array.make chunk (-1);
  }

(* Arrival [i] is slot [i land (chunk - 1)] of chunk [i lsr chunk_bits]. *)
let cols chunks i = chunks.(i lsr chunk_bits)
let slot i = i land (chunk - 1)
let time_at chunks i = (cols chunks i).time.(slot i)

type builder = {
  mutable drawn : columns list;  (* newest chunk first *)
  mutable count : int;
}

let builder () = { drawn = []; count = 0 }

let add b ~time ~tenant ~kind ~client =
  let j = slot b.count in
  if j = 0 then b.drawn <- columns () :: b.drawn;
  let c = List.hd b.drawn in
  c.time.(j) <- time;
  c.tenant.(j) <- tenant;
  c.kind.(j) <- kind;
  c.client.(j) <- Option.value client ~default:(-1);
  b.count <- b.count + 1

(* The builder's arrivals fall into stretches of non-decreasing time
   (one per tenant train as Server draws them). The run is their stable
   k-way merge, taken lazily so the arrivals are never copied: [next] is
   the stretch whose head is the earliest, the first stretch winning a
   tie, so equal instants keep the order they were added in. A linear
   scan over the heads is enough: there are as many stretches as
   tenants. *)
type t = {
  chunks : columns array;
  heads : int array;  (* next arrival of each stretch *)
  stops : int array;  (* end of each stretch, exclusive *)
  mutable next : int;  (* stretch holding the next arrival; -1 once drained *)
}

let pick r =
  let best = ref (-1) in
  for s = 0 to Array.length r.heads - 1 do
    let h = r.heads.(s) in
    if h < r.stops.(s)
       && (!best < 0 || time_at r.chunks h < time_at r.chunks r.heads.(!best))
    then best := s
  done;
  r.next <- !best

let run b =
  let chunks = Array.of_list (List.rev b.drawn) and n = b.count in
  let starts = ref [] in
  for i = n - 1 downto 1 do
    if time_at chunks i < time_at chunks (i - 1) then starts := i :: !starts
  done;
  let heads = Array.of_list (0 :: !starts) in
  let k = Array.length heads in
  let stops = Array.init k (fun s -> if s + 1 < k then heads.(s + 1) else n) in
  let r = { chunks; heads; stops; next = -1 } in
  pick r;
  r

let head r = r.heads.(r.next)

let due r events =
  r.next >= 0
  &&
  match Event_queue.peek_time events with
  | None -> true
  | Some t -> t >= time_at r.chunks (head r)

let time r = time_at r.chunks (head r)
let tenant r = let i = head r in (cols r.chunks i).tenant.(slot i)
let kind r = let i = head r in (cols r.chunks i).kind.(slot i)

let client r =
  let i = head r in
  let c = (cols r.chunks i).client.(slot i) in
  if c < 0 then None else Some c

let advance r =
  r.heads.(r.next) <- r.heads.(r.next) + 1;
  pick r
