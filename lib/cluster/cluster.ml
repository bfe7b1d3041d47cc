open Sea_sim
open Sea_serve
module Machine_fault = Sea_fault.Machine_fault

type config = {
  machines : int;
  shards : int;
  policy : Router.policy;
}

let config ?(shards = 1) ?(policy = Router.Round_robin) ~machines () =
  if machines < 1 then invalid_arg "--machines must be positive";
  if shards < 1 then invalid_arg "--shards must be positive";
  if shards > machines then
    invalid_arg "--shards must not exceed --machines (idle shards)";
  { machines; shards; policy }

type churn_config = {
  plan : Machine_fault.spec;
  failover : bool;
}

let churn ?(failover = true) plan () = { plan; failover }
let failover_on = function Some c -> c.failover | None -> false

(* The failure detector's clock: a heartbeat every 100 ms, and a machine
   is declared dead at its third consecutive miss. *)
let heartbeat = Time.ms 100.
let dead_after = 3

(* Force every lazily-built shared value (the per-kind application PALs)
   on the calling domain before any shard domain can race to force it:
   concurrent [Lazy.force] of the same suspension is unsafe under
   OCaml 5. Under cost-aware admission the per-kind certificates are
   forced too, so every image is analyzed here, once, rather than by
   whichever shard domain first prices an arrival (the cache is
   mutex-guarded either way; this keeps the work off the serving
   domains entirely). *)
let prewarm ~serve () =
  List.iter
    (fun k ->
      ignore (Workload.pal k : Sea_core.Pal.t);
      ignore (Workload.resident_pal k : Sea_core.Pal.t);
      ignore (Workload.work k : Time.t);
      match serve.Server.discipline with
      | Admission.Cost _ -> ignore (Workload.static_cost k : int)
      | Admission.Fifo | Admission.Weighted -> ())
    Workload.kinds

(* --- the virtual-time heartbeat failure detector --- *)

(* One outage as the detector sees it. All instants are ticks of the
   heartbeat clock or outage endpoints, clamped to the serving horizon;
   everything below is integer arithmetic on Time.t nanoseconds, so the
   detection schedule is exact and wall-clock-free. *)
type outage_view = {
  ov_machine : int;
  ov_kind : Machine_fault.kind;
  ov_start : Time.t;
  ov_until : Time.t;  (** Actual recovery, clamped to the horizon. *)
  ov_detect : Time.t option;
      (** Instant the detector declares the machine dead (the
          [dead_after]'th consecutive missed heartbeat), when that
          happens before the machine recovers; [None] for blips the
          detector never promotes past suspicion. *)
  ov_heal : Time.t;
      (** First heartbeat tick at or after recovery: the machine is
          routed back from here (meaningful only under [ov_detect]). *)
  ov_misses : int;  (** Heartbeat ticks missed, capped at [dead_after]. *)
}

let view_outages ~duration outages_per_machine =
  let hb = Time.to_ns heartbeat in
  let tick_after t = ((Time.to_ns t / hb) + 1) * hb in
  let views = ref [] in
  Array.iteri
    (fun m outages ->
      List.iter
        (fun (o : Machine_fault.outage) ->
          if Time.compare o.start duration < 0 then begin
            let until = Time.min o.until duration in
            let first_miss = tick_after o.start in
            let raw_detect = first_miss + ((dead_after - 1) * hb) in
            let detect =
              (* The detector fires only if the machine is still silent
                 at the threshold tick and the run is still going. *)
              if raw_detect < Time.to_ns until && raw_detect < Time.to_ns duration
              then Some (Time.ns raw_detect)
              else None
            in
            let heal =
              Time.min duration
                (Time.ns (((Time.to_ns until + hb - 1) / hb) * hb))
            in
            let misses =
              if first_miss >= Time.to_ns until then 0
              else
                Stdlib.min dead_after
                  (((Time.to_ns until - first_miss) / hb) + 1)
            in
            views :=
              { ov_machine = m; ov_kind = o.kind; ov_start = o.start;
                ov_until = until; ov_detect = detect; ov_heal = heal;
                ov_misses = misses }
              :: !views
          end)
        outages)
    outages_per_machine;
  List.rev !views

(* Whether the router routes around [v]'s machine at instant [at]: from
   detection until the first heartbeat that sees it back. *)
let reroute_active at v =
  match v.ov_detect with
  | Some d -> Time.compare d at <= 0 && Time.compare at v.ov_heal < 0
  | None -> false

(* Cut [0, duration) at every instant a machine's availability, the
   router's belief about it, the autoscaler's control loop or a
   workload shape changes. Within one epoch all of them are constant,
   so each machine's serve is again a self-contained, shardable run. *)
let epoch_bounds ?(extra = []) ~duration views =
  let add s t = if Time.compare t Time.zero > 0 && Time.compare t duration < 0 then t :: s else s in
  let instants =
    List.fold_left
      (fun acc v ->
        let acc = add acc v.ov_start in
        let acc = add acc v.ov_until in
        let acc =
          match v.ov_detect with Some d -> add (add acc d) v.ov_heal | None -> acc
        in
        acc)
      [] views
  in
  let instants = List.fold_left add instants extra in
  let sorted = List.sort_uniq Time.compare (Time.zero :: duration :: instants) in
  let rec pair = function
    | a :: (b :: _ as rest) -> (a, b) :: pair rest
    | _ -> []
  in
  pair sorted

(* Epoch cuts a tenant's traffic shape needs: a flash crowd's exact
   step instants, plus a sampling grid for the continuous diurnal curve
   (8 cuts per cycle, never finer than duration/64) so the sinusoid is
   approximated by rate steps instead of collapsing to its value at
   zero. *)
let shape_cuts ~duration tenants =
  List.concat_map
    (fun (t : Workload.tenant) ->
      match t.Workload.shape with
      | Workload.Steady -> []
      | Workload.Flash _ -> Workload.shape_instants t.Workload.shape
      | Workload.Diurnal { period; _ } ->
          let step =
            Stdlib.max (Time.to_ns period / 8) (Time.to_ns duration / 64)
          in
          let step = Stdlib.max 1 step in
          let rec go k acc =
            let inst = k * step in
            if inst >= Time.to_ns duration then acc
            else go (k + 1) (Time.ns inst :: acc)
          in
          go 1 [])
    tenants

(* --- the orchestration: create, then per epoch control tick →
   placement → barrier moves → sharded serve → collect, then finish --- *)

(* Everything one fleet run owns. The outage schedule, detection
   instants and epoch cuts are precomputed from the plan's seed, the
   autoscale interval and the workload shapes alone — independent of
   workload execution and of the shard count. The rest is what the epoch
   barriers carry from one epoch to the next: all of it lives on the
   calling domain and changes only at barriers. *)
type state = {
  cfg : config;
  serve : Server.config;
  trace : (int -> Sea_trace.Trace.sink) option;
  churn : churn_config option;
  auto : Autoscale.config option;
  tenants : Workload.tenant array;
  assignment : int array;  (* static routing, by tenant index *)
  machines : Sea_hw.Machine.t array;
  fault_specs : Sea_fault.Fault.spec option array;
  outages : Machine_fault.outage list array;
  views : outage_view list;
  tick_ns : int list;  (* autoscale control-tick instants *)
  epochs : (Time.t * Time.t) list;
  churn_rng : Rng.t;
  link : Link.t;
  reports : Report.t list array;  (* per machine, newest epoch first *)
  lost : int array;
  base_prev : int array;
  host_prev : int array;
  weights : int array;  (* autoscaler ring weights *)
  offered_since : int array;  (* per machine, since the last tick *)
  mutable last_tick : Time.t;
  mutable first_err : string option;
  mutable failovers : int;
  mutable migrations : int;
  mutable cold_restarts : int;
  mutable torn : int;
  mutable link_retries : int;
  mutable recovered : int;
  mutable ticks : int;
  mutable hot : int;
  mutable resizes : int;
  mutable moved : int;
  mutable warm : int;
  mutable cold : int;
  mutable respawns : int;
}

let under_sink st m f =
  match st.trace with
  | None -> f ()
  | Some sink_for -> Sea_trace.Trace.with_sink (sink_for m) f

let create ~seed ~trace ~churn ~auto (cfg : config) ~machine_config ~serve
    tenant_list =
  prewarm ~serve ();
  let n = cfg.machines in
  let assignment = Router.assign cfg.policy ~machines:n tenant_list in
  (* Everything seed-derived is carved out up front, in index order,
     so machine [i]'s streams depend only on (master seed, i). *)
  let engine_seeds = Array.map Rng.int64 (Rng.split_n (Rng.create ~seed ()) n) in
  let fault_specs =
    match serve.Server.faults with
    | None -> Array.make n None
    | Some spec ->
        let streams =
          Rng.split_n
            (Rng.create ~seed:(Int64.of_int spec.Sea_fault.Fault.seed) ())
            n
        in
        Array.map
          (fun s ->
            Some { spec with Sea_fault.Fault.seed = Rng.int s 0x3FFFFFFF })
          streams
  in
  (* Machines are built sequentially on this domain, by explicit loop
     ([Array.init] order is unspecified): construction touches
     process-wide state (key vault, TPM instance numbering) and must
     happen in a deterministic order. *)
  let build i =
    Sea_hw.Machine.create
      ~engine:(Engine.create ~seed:engine_seeds.(i) ())
      machine_config
  in
  let machines = Array.make n (build 0) in
  for i = 1 to n - 1 do
    machines.(i) <- build i
  done;
  let duration = serve.Server.duration in
  let outages, views =
    match churn with
    | None -> (Array.make n [], [])
    | Some c ->
        let o = Machine_fault.plans c.plan ~duration ~machines:n in
        (o, view_outages ~duration o)
  in
  let ticks =
    match auto with
    | None -> []
    | Some a -> Autoscale.tick_instants a ~duration
  in
  (* Streams for the churn layer's own draws (durable-blob survival)
     and the shared migration link, carved off the plan seed under a
     distinct label so they perturb neither the outage walk nor any
     engine stream. An autoscale-only run still needs the link
     (sealed-state rebalancing crosses it); it is lossless then, seeded
     off the master seed. *)
  let churn_rng, loss =
    match churn with
    | Some c ->
        ( Rng.create
            ~seed:(Int64.add (Int64.of_int c.plan.Machine_fault.seed)
                     0x6368_75726eL)
            (),
          c.plan.Machine_fault.link_loss )
    | None -> (Rng.create ~seed:(Int64.add seed 0x6175_746fL) (), 0.)
  in
  {
    cfg; serve; trace; churn; auto;
    tenants = Array.of_list tenant_list;
    assignment;
    machines;
    fault_specs; outages; views;
    tick_ns = List.map Time.to_ns ticks;
    epochs =
      epoch_bounds ~extra:(ticks @ shape_cuts ~duration tenant_list)
        ~duration views;
    churn_rng;
    link = Link.create ~loss (Rng.split churn_rng);
    reports = Array.make n [];
    lost = Array.make n 0;
    base_prev = Array.copy assignment;
    host_prev = Array.copy assignment;
    weights = Array.make n Router.virtual_points;
    offered_since = Array.make n 0;
    last_tick = Time.zero;
    first_err = None;
    failovers = 0; migrations = 0; cold_restarts = 0; torn = 0;
    link_retries = 0; recovered = 0;
    ticks = 0; hot = 0; resizes = 0; moved = 0; warm = 0; cold = 0;
    respawns = 0;
  }

(* Autoscale control tick: sample each machine's measured load since the
   last tick, detect hot spots against the fleet mean and resize the ring
   weights. Runs before placement, so this epoch routes on the new ring. *)
let control_tick st a ~down ~dead =
  match st.auto with
  | Some acfg when List.mem (Time.to_ns a) st.tick_ns ->
      let n = st.cfg.machines in
      st.ticks <- st.ticks + 1;
      let dt = Time.to_s (Time.sub a st.last_tick) in
      let alive = Array.init n (fun m -> not dead.(m) && not down.(m)) in
      let loads =
        Array.init n (fun m ->
            if dt <= 0. then 0. else float_of_int st.offered_since.(m) /. dt)
      in
      let d = Autoscale.decide acfg ~weights:st.weights ~alive ~loads in
      st.hot <- st.hot + List.length d.Autoscale.hot;
      (* Static = sample and detect only: the observability baseline
         never touches the ring, so its placement (and its capacity) is
         exactly the no-controller fleet's. *)
      if acfg.Autoscale.policy <> Autoscale.Static then begin
        for m = 0 to n - 1 do
          if d.Autoscale.weights.(m) <> st.weights.(m) then
            st.resizes <- st.resizes + 1
        done;
        Array.blit d.Autoscale.weights 0 st.weights 0 n
      end;
      Array.fill st.offered_since 0 n 0;
      st.last_tick <- a
  | _ -> ()

(* Routing for this epoch. [base] is the autoscaler's weighted-ring
   placement over all machines (the static assignment without a
   controller); [host] overlays failover — a detected-dead machine's
   tenants ride the ring minus the dead nodes; everyone else stays
   home. *)
let placement st ~dead =
  let all = List.init st.cfg.machines Fun.id in
  let weights = Option.map (fun _ -> st.weights) st.auto in
  let base =
    match weights with
    | None -> st.assignment
    | Some weights ->
        Array.map (Router.lookup (Router.make_ring ~weights all)) st.tenants
  in
  let alive = List.filter (fun m -> not dead.(m)) all in
  let survivors = lazy (Router.make_ring ?weights alive) in
  let host =
    Array.mapi
      (fun ti home ->
        if dead.(home) && alive <> [] then
          Router.lookup (Lazy.force survivors) st.tenants.(ti)
        else home)
      base
  in
  (base, host)

(* Move tenant [ti]'s [kind] resident from [src] to [dst] by sealed-state
   migration, in [dst]'s trace sink. The resumed resident is disposed
   at once: the next epoch's serve starts from scratch. *)
let move st ~src ~dst ~source_alive ~blob_available ti kind =
  under_sink st dst (fun () ->
      let r =
        Migrate.failover ~source:st.machines.(src) ~target:st.machines.(dst)
          ~link:st.link ~source_alive ~blob_available
          ~preemption_timer:st.serve.Server.preemption_timer
          ~tenant:st.tenants.(ti).Workload.name
          ~kind_name:(Workload.kind_name kind) (Workload.resident_pal kind) ()
      in
      Result.iter Migrate.dispose r;
      r)

let trace_heartbeat_misses st a =
  List.iter
    (fun v ->
      if Time.compare v.ov_start a = 0 then
        under_sink st v.ov_machine (fun () ->
            let engine = Sea_hw.Machine.engine st.machines.(v.ov_machine) in
            for j = 1 to v.ov_misses do
              Sea_trace.Trace.instant engine ~cat:"churn"
                ~args:(fun () ->
                  [
                    ("machine", Sea_trace.Trace.Int v.ov_machine);
                    ("miss", Sea_trace.Trace.Int j);
                    ("outage",
                     Sea_trace.Trace.Str (Machine_fault.kind_name v.ov_kind));
                  ])
                "heartbeat-miss"
            done))
    st.views

(* Sealed-state failover of every tenant leaving a machine declared dead
   at [a]. Only proposed-hw residents have sealed sePCR-bound state worth
   moving over the link. Current hw has no residents; an SFI resident
   cold-relaunches on the survivor at near-zero cost, so nothing crosses
   the wire for it either. *)
let fail_over st a ~down ~host =
  List.iter
    (fun v ->
      if v.ov_detect = Some a then
        let src = v.ov_machine in
        Array.iteri
          (fun ti dst ->
            if st.host_prev.(ti) = src && dst <> src then begin
              st.failovers <- st.failovers + 1;
              if st.serve.Server.mode = Server.Proposed && not down.(dst) then
                List.iter
                  (fun (kind, _w) ->
                    let source_alive = v.ov_kind = Machine_fault.Partition in
                    let blob_available =
                      source_alive || Rng.float st.churn_rng 1.0 < 0.5
                    in
                    match
                      move st ~src ~dst ~source_alive ~blob_available ti kind
                    with
                    | Ok r ->
                        (match r.Migrate.outcome with
                        | Migrate.Warm -> st.migrations <- st.migrations + 1
                        | Migrate.Cold -> st.cold_restarts <- st.cold_restarts + 1);
                        if r.Migrate.torn then st.torn <- st.torn + 1;
                        st.link_retries <- st.link_retries + r.Migrate.link_retries
                    | Error _ -> st.cold_restarts <- st.cold_restarts + 1)
                  st.tenants.(ti).Workload.mix
            end)
          host)
    st.views

(* Autoscale rebalancing: every tenant whose weighted-ring home moved
   this tick re-homes its residents, by the paper's sealed-state
   migration on proposed hardware or by kill-and-respawn spreading where
   launches are cheap (or state-free). Tenants displaced by a machine
   death are the failover path's job, not ours. *)
let rebalance st ~down ~dead ~base =
  match st.auto with
  | Some acfg when acfg.Autoscale.policy <> Autoscale.Static ->
      let action =
        match (acfg.Autoscale.policy, st.serve.Server.mode) with
        | _, Server.Current -> `None (* no residents: pure routing *)
        | Autoscale.Spread, Server.Proposed -> `Spread `Slaunch
        | _, Server.Proposed -> `Migrate
        | _, Server.Sfi -> `Spread (`Software (Time.us 25.))
      in
      let up m = (not down.(m)) && not dead.(m) in
      Array.iteri
        (fun ti dst ->
          let src = st.base_prev.(ti) in
          if dst <> src then begin
            st.moved <- st.moved + 1;
            if up src && up dst then
              List.iter
                (fun (kind, _w) ->
                  match action with
                  | `None -> ()
                  | `Migrate -> (
                      match
                        move st ~src ~dst ~source_alive:true
                          ~blob_available:true ti kind
                      with
                      | Ok { Migrate.outcome = Migrate.Warm; _ } ->
                          st.warm <- st.warm + 1
                      | Ok _ | Error _ -> st.cold <- st.cold + 1)
                  | `Spread cost ->
                      under_sink st dst (fun () ->
                          match
                            Migrate.respawn ~target:st.machines.(dst)
                              ~preemption_timer:st.serve.Server.preemption_timer
                              ~cost ~tenant:st.tenants.(ti).Workload.name
                              ~kind_name:(Workload.kind_name kind)
                              (Workload.resident_pal kind) ()
                          with
                          | Ok () -> st.respawns <- st.respawns + 1
                          | Error _ -> ()))
                st.tenants.(ti).Workload.mix
          end)
        base
  | _ -> ()

(* Barrier work, main domain, machine-index order: heartbeat suspicion
   for outages starting here, sealed-state failover for machines
   declared dead here, then autoscale rebalancing for tenants whose arc
   moved. Trace events land in the affected machine's own sink. *)
let barrier_moves st a ~down ~dead ~base ~host =
  trace_heartbeat_misses st a;
  if failover_on st.churn then fail_over st a ~down ~host;
  rebalance st ~down ~dead ~base

(* Shares for this epoch, each tenant's open-loop rate specialized to its
   shape at the epoch's start; a tenant whose host is down (crashed but
   not yet detected, or failover off) is black-holed: its offered load
   is charged to the dead machine as offered-and-failed. *)
let epoch_shares st (a, b) ~down ~host =
  let shares = Array.make st.cfg.machines [] in
  let len = Time.to_s (Time.sub b a) in
  for ti = Array.length st.tenants - 1 downto 0 do
    let t = Workload.at_time a st.tenants.(ti) in
    let h = host.(ti) in
    if down.(h) then
      st.lost.(h) <-
        st.lost.(h) + int_of_float (Float.round (Router.offered_rate t *. len))
    else shares.(h) <- t :: shares.(h)
  done;
  shares

(* Serve every machine's share for one epoch of length [len]. Machine i
   runs on shard (i mod shards); within a shard, machines run in
   increasing index order. Each machine is self-contained, so the
   partition affects wall-clock only. *)
let serve_sharded st len shares =
  let n = st.cfg.machines in
  let results = Array.make n None in
  let serve_one i =
    match shares.(i) with
    | [] -> () (* idle machine: nothing routed here *)
    | share ->
        let cfg_i =
          { st.serve with Server.faults = st.fault_specs.(i); duration = len }
        in
        results.(i) <-
          Some
            (under_sink st i (fun () ->
                 match Server.run st.machines.(i) cfg_i share with
                 | r -> r
                 | exception e ->
                     Error ("unexpected exception: " ^ Printexc.to_string e)))
  in
  let rec shard i =
    if i < n then begin
      serve_one i;
      shard (i + st.cfg.shards)
    end
  in
  if st.cfg.shards = 1 then shard 0
  else begin
    let domains =
      List.init (st.cfg.shards - 1) (fun s ->
          Domain.spawn (fun () -> shard (s + 1)))
    in
    shard 0;
    List.iter Domain.join domains
  end;
  results

(* Collect one epoch in machine order; the first failure wins. *)
let collect st results ~base ~host =
  Array.iteri
    (fun i result ->
      match result with
      | None -> ()
      | Some (Ok r) ->
          st.reports.(i) <- r :: st.reports.(i);
          st.offered_since.(i) <-
            st.offered_since.(i) + r.Report.aggregate.Report.offered;
          (* Completions by churn-displaced tenants on this survivor are
             goodput failover recovered (an autoscale move changes
             [base] itself, so it does not count). *)
          Array.iteri
            (fun ti h ->
              if h = i && base.(ti) <> i then
                List.iter
                  (fun (row : Report.row) ->
                    if row.Report.tenant = st.tenants.(ti).Workload.name then
                      st.recovered <- st.recovered + row.Report.completed)
                  r.Report.rows)
            host
      | Some (Error e) ->
          if st.first_err = None then
            st.first_err <- Some (Printf.sprintf "machine %d: %s" i e))
    results

let run_epoch st (a, b) =
  let n = st.cfg.machines in
  let down = Array.init n (fun m -> Machine_fault.down_at st.outages.(m) a) in
  let dead =
    Array.init n (fun m ->
        failover_on st.churn
        && List.exists (fun v -> v.ov_machine = m && reroute_active a v) st.views)
  in
  control_tick st a ~down ~dead;
  let base, host = placement st ~dead in
  barrier_moves st a ~down ~dead ~base ~host;
  let shares = epoch_shares st (a, b) ~down ~host in
  collect st (serve_sharded st (Time.sub b a) shares) ~base ~host;
  Array.blit host 0 st.host_prev 0 (Array.length host);
  Array.blit base 0 st.base_prev 0 (Array.length base)

let finish st =
  match st.first_err with
  | Some e -> Error e
  | None ->
      let rows =
        List.init st.cfg.machines (fun i ->
            {
              Fleet_report.index = i;
              tenants =
                Array.fold_left
                  (fun c m -> if m = i then c + 1 else c)
                  0 st.assignment;
              report =
                (match List.rev st.reports.(i) with
                | [] -> None
                | rs -> Some (Report.merge_seq rs));
              lost = st.lost.(i);
            })
      in
      let count kind =
        List.length (List.filter (fun v -> v.ov_kind = kind) st.views)
      in
      let churn_stats =
        Option.map
          (fun (c : churn_config) ->
            {
              Fleet_report.failover = c.failover;
              crashes = count Machine_fault.Crash;
              partitions = count Machine_fault.Partition;
              heartbeat_misses =
                List.fold_left (fun acc v -> acc + v.ov_misses) 0 st.views;
              failovers = st.failovers;
              migrations = st.migrations;
              cold_restarts = st.cold_restarts;
              torn_backouts = st.torn;
              link_drops = Link.drops st.link;
              link_retries = st.link_retries;
              lost_requests = Array.fold_left ( + ) 0 st.lost;
              recovered = st.recovered;
            })
          st.churn
      in
      let autoscale_stats =
        Option.map
          (fun (a : Autoscale.config) ->
            {
              Fleet_report.as_policy = Autoscale.policy_name a.Autoscale.policy;
              interval = a.Autoscale.interval;
              hot_threshold = a.Autoscale.hot_threshold;
              ticks = st.ticks;
              hot_events = st.hot;
              resizes = st.resizes;
              tenants_moved = st.moved;
              warm_moves = st.warm;
              cold_moves = st.cold;
              respawns = st.respawns;
            })
          st.auto
      in
      (try
         Ok
           (Fleet_report.merge ?churn:churn_stats ?autoscale:autoscale_stats
              ~policy:(Router.policy_name st.cfg.policy) rows)
       with Invalid_argument _ ->
         Error
           "cluster: every machine was down for the whole window — \
            nothing served (raise --mttf or shorten --mttr)")

let run ?(seed = 1L) ?trace ?churn ?autoscale (cfg : config) ~machine_config
    ~serve tenants =
  if tenants = [] then invalid_arg "Cluster.run: no tenants";
  if Option.is_some autoscale && cfg.policy <> Router.Hash_tenant then
    Error
      "cluster: --autoscale needs --policy hash — ring resizing is \
       consistent-hash based"
  else if Option.is_some autoscale && cfg.machines < 2 then
    Error "cluster: --autoscale needs at least 2 machines"
  else if failover_on churn && cfg.machines < 2 then
    Error "cluster: --failover on needs at least 2 machines"
  else begin
    let st =
      create ~seed ~trace ~churn ~auto:autoscale cfg ~machine_config ~serve
        tenants
    in
    List.iter (fun e -> if st.first_err = None then run_epoch st e) st.epochs;
    finish st
  end
