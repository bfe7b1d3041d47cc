(** Pre-drawn arrivals, served as one time-ordered run beside the event
    heap.

    {!Server} draws each open-loop tenant's whole arrival train, and
    each closed-loop client's first arrival, before serving starts:
    about 144k arrivals per machine for a 360 s window at 400 req/s.
    Kept in an {!Sea_sim.Event_queue}, every one of the run's pops would
    sift through that many boxed entries (about 1 µs per event, host
    time). Here they sit in chunks of flat int arrays instead, read in
    time order by a merge of the tenants' trains (tens of ns per event),
    and the heap keeps only what serving pushes: a handful of core
    releases and reissues at a time.

    The two are drained as one stream by {!due}. The order is exactly
    the one a single [Event_queue] would give had the arrivals been
    pushed into it, in {!add} order, before any event of serving:
    by time, and at one instant every pre-drawn arrival (smaller
    sequence numbers) before any event of the heap, and pre-drawn
    arrivals in the order they were added. *)

type builder
(** Arrivals in the order they were drawn. *)

val builder : unit -> builder

val add :
  builder ->
  time:Sea_sim.Time.t ->
  tenant:int ->
  kind:Workload.kind ->
  client:int option ->
  unit
(** Append one arrival. Any order is accepted; the run is cheapest to
    merge when arrivals come in a few stretches of non-decreasing time
    (one per tenant's train). *)

type t
(** The merged run and its read cursor. *)

val run : builder -> t
(** Merge the builder's arrivals into one run ordered by time, ties in
    the order they were added: with each tenant's train added in time
    order, tenant by tenant, that is (time, tenant index, draw order). *)

val due : t -> 'a Sea_sim.Event_queue.t -> bool
(** The run's next arrival comes before everything in the heap: the run
    is not exhausted, and the heap is empty or its earliest event is not
    strictly earlier. Ties go to the run. *)

(** The next arrival's fields. The run must not be exhausted: read them
    when {!due} holds. *)

val time : t -> Sea_sim.Time.t
val tenant : t -> int
val kind : t -> Workload.kind
val client : t -> int option

val advance : t -> unit
(** Move past the next arrival. *)
