type discipline = Fifo | Weighted | Cost of int

let discipline_name = function
  | Fifo -> "fifo"
  | Weighted -> "weighted"
  | Cost _ -> "cost"

type 'a t = {
  discipline : discipline;
  depth : int;
  tenants : int;
  weights : int array;
  queues : 'a Queue.t array; (* Fifo uses only queues.(0)'s sibling below *)
  fifo : (int * 'a) Queue.t;
  credits : int array;
  mutable cursor : int;
  mutable length : int;
  mutable high_water : int;
  tenant_lengths : int array;
  tenant_high_water : int array;
  (* [Cost] bookkeeping: per-request static costs queued in lockstep
     with [queues], the per-tenant total in flight, and how many offers
     the budget (rather than the depth) turned away. *)
  cost_queues : int Queue.t array;
  tenant_cost : int array;
  mutable cost_shed : int;
}

let create ~discipline ~depth ~weights =
  if depth <= 0 then invalid_arg "Admission.create: depth must be positive";
  (match discipline with
  | Cost budget when budget <= 0 ->
      invalid_arg "Admission.create: cost budget must be positive"
  | _ -> ());
  let tenants = Array.length weights in
  if tenants = 0 then invalid_arg "Admission.create: no tenants";
  Array.iter
    (fun w ->
      if w <= 0 then invalid_arg "Admission.create: weights must be positive")
    weights;
  {
    discipline;
    depth;
    tenants;
    weights = Array.copy weights;
    queues = Array.init tenants (fun _ -> Queue.create ());
    fifo = Queue.create ();
    credits = Array.copy weights;
    cursor = 0;
    length = 0;
    high_water = 0;
    tenant_lengths = Array.make tenants 0;
    tenant_high_water = Array.make tenants 0;
    cost_queues = Array.init tenants (fun _ -> Queue.create ());
    tenant_cost = Array.make tenants 0;
    cost_shed = 0;
  }

let length t = t.length
let high_water t = t.high_water
let tenant_high_water t i = t.tenant_high_water.(i)
let cost_shed t = t.cost_shed

let full t ~tenant =
  match t.discipline with
  | Fifo -> t.length >= t.depth
  | Weighted | Cost _ -> t.tenant_lengths.(tenant) >= t.depth

let offer ?(cost = 0) t ~tenant x =
  if tenant < 0 || tenant >= t.tenants then
    invalid_arg "Admission.offer: unknown tenant";
  if cost < 0 then invalid_arg "Admission.offer: negative cost";
  if full t ~tenant then false
  else begin
    let over_budget =
      match t.discipline with
      | Cost budget -> t.tenant_cost.(tenant) + cost > budget
      | Fifo | Weighted -> false
    in
    if over_budget then begin
      t.cost_shed <- t.cost_shed + 1;
      false
    end
    else begin
      (match t.discipline with
      | Fifo -> Queue.push (tenant, x) t.fifo
      | Weighted -> Queue.push x t.queues.(tenant)
      | Cost _ ->
          Queue.push x t.queues.(tenant);
          Queue.push cost t.cost_queues.(tenant);
          t.tenant_cost.(tenant) <- t.tenant_cost.(tenant) + cost);
      t.length <- t.length + 1;
      if t.length > t.high_water then t.high_water <- t.length;
      t.tenant_lengths.(tenant) <- t.tenant_lengths.(tenant) + 1;
      if t.tenant_lengths.(tenant) > t.tenant_high_water.(tenant) then
        t.tenant_high_water.(tenant) <- t.tenant_lengths.(tenant);
      true
    end
  end

let took t tenant x =
  t.length <- t.length - 1;
  t.tenant_lengths.(tenant) <- t.tenant_lengths.(tenant) - 1;
  Some (tenant, x)

let take t =
  if t.length = 0 then None
  else
    match t.discipline with
    | Fifo ->
        let tenant, x = Queue.pop t.fifo in
        took t tenant x
    | Weighted ->
        (* Weighted round-robin: the cursor tenant is served while it has
           backlog and credit; otherwise the cursor advances, refilling
           the next tenant's credit from its weight. A tenant with
           weight [w] gets up to [w] consecutive dequeues per visit, so
           service shares follow the weights while empty queues donate
           their turn. Terminates: some queue is non-empty, and
           advancing onto a tenant refills its credit. *)
        let rec find () =
          if t.tenant_lengths.(t.cursor) > 0 && t.credits.(t.cursor) > 0 then
            t.cursor
          else begin
            t.cursor <- (t.cursor + 1) mod t.tenants;
            t.credits.(t.cursor) <- t.weights.(t.cursor);
            find ()
          end
        in
        let i = find () in
        t.credits.(i) <- t.credits.(i) - 1;
        let x = Queue.pop t.queues.(i) in
        took t i x
    | Cost _ ->
        (* Cheapest backlog first: the non-empty tenant with the least
           static cost in flight drains next (ties to the lowest
           index), so tenants queueing expensive work wait behind cheap
           ones instead of starving them. Purely a function of offer
           history — no clock, no randomness. *)
        let best = ref (-1) in
        for i = t.tenants - 1 downto 0 do
          if
            t.tenant_lengths.(i) > 0
            && (!best < 0 || t.tenant_cost.(i) <= t.tenant_cost.(!best))
          then best := i
        done;
        let i = !best in
        let x = Queue.pop t.queues.(i) in
        let c = Queue.pop t.cost_queues.(i) in
        t.tenant_cost.(i) <- t.tenant_cost.(i) - c;
        took t i x
