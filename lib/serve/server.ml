open Sea_sim
open Sea_tpm
open Sea_hw
open Sea_core

(* Re-exporting the backend's kind keeps [Server.Current]/[Server.Proposed]
   valid everywhere while the actual dispatch lives in one Backend value. *)
type mode = Backend.kind = Current | Proposed | Sfi

let mode_name = Backend.kind_name
let mode_names = List.map Backend.cli_name Backend.all
let mode_of_name = Backend.of_cli_name

type config = {
  mode : mode;
  duration : Time.t;
  queue_depth : int;
  discipline : Admission.discipline;
  analyze : Sea_analysis.Analyzer.gate;
  preemption_timer : Time.t;
  faults : Sea_fault.Fault.spec option;
  vtpm : int option;
}

let config ?(queue_depth = 16) ?(discipline = Admission.Fifo)
    ?(analyze = Sea_analysis.Analyzer.Off) ?(preemption_timer = Time.ms 10.)
    ?faults ?vtpm ~mode ~duration () =
  if Time.compare duration Time.zero <= 0 then
    invalid_arg "Server.config: duration must be positive";
  if queue_depth <= 0 then
    invalid_arg "Server.config: queue depth must be positive";
  if Time.compare preemption_timer Time.zero <= 0 then
    invalid_arg "Server.config: preemption timer must be positive";
  (match vtpm with
  | Some k when k <= 0 ->
      invalid_arg "Server.config: vtpm instances must be positive"
  | _ -> ());
  { mode; duration; queue_depth; discipline; analyze; preemption_timer;
    faults; vtpm }

(* One queued request. [client] is the closed-loop client slot that will
   reissue once this request is answered ([None] for open-loop). *)
type req = {
  tenant : int;
  kind : Workload.kind;
  arrival : Time.t;
  client : int option;
}

type ev =
  | Arrival of { tenant : int; kind : Workload.kind; client : int option }
  | Core_free of int

(* A PAL kept hosted between requests on a resident backend (suspended in
   access-controlled memory on the proposed hardware, sandboxed under
   SFI). [busy_until] is virtual time: the moment its current burst of
   requests will have drained. *)
type resident = {
  inst : Backend.instance;
  mutable busy_until : Time.t;
  mutable last_core : int;
  mutable last_used : Time.t;
}

exception Serve_error of string

(* A resident's resume faulted even after retries: recoverable by
   quarantining the resident and cold-starting a replacement, unlike the
   general Serve_error failure paths. *)
exception Resume_failed of string

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e
let fail e = raise (Serve_error e)

(* One tenant's accounting: its row of the report. *)
type tally = {
  mutable offered : int;
  mutable completed : int;
  mutable shed : int;
  mutable timed_out : int;
  mutable failed : int;
  latency : Stats.t;
}

(* Everything one serving run owns, from bootstrap to report. *)
type state = {
  m : Machine.t;
  cfg : config;
  engine : Engine.t;
  backend : Backend.t;
  tenants : Workload.tenant array;
  vtpm : Sea_vtpm.Vtpm.t option;
  breakers : Breaker.t array option;
      (* One per (tenant, kind) key, present exactly when faults are
         injected; the fault plan and its retry policy live on the TPM. *)
  sealed : (int, string) Hashtbl.t;
      (* Per key, the state kept outside the PAL between uses: created at
         bootstrap on today's hardware, sealed out at eviction on a
         resident backend. *)
  residents : (int, resident) Hashtbl.t;
  base : Time.t;
  finish_line : Time.t;
  rngs : Rng.t array;
  events : ev Event_queue.t;
  queue : req Admission.t;
  request_cost : Workload.kind -> int;
  cores : int;
  idle : int Queue.t;
  parked : (int * int) Queue.t;
  tally : tally array;
  seqs : int array;
  mutable pal_busy : Time.t;
  mutable stalled : Time.t;
  stall_ms : Stats.t;
  mutable cold_starts : int;
  mutable warm_hits : int;
  mutable evictions : int;
  mutable sepcr_waits : int;
  sepcr_wait_ms : Stats.t;
  mutable recoveries : int;
  mutable last_completion : Time.t;
}

let nkinds = List.length Workload.kinds
let key tenant kind = (tenant * nkinds) + Workload.kind_index kind
let cap_for vtpm tenant = Option.map (fun v -> Sea_vtpm.Vtpm.cap v ~tenant) vtpm

(* --- phase 1: create and bootstrap --- *)

(* On today's hardware every (tenant, kind) needs its sealed state
   created by a full init session before serving. On a resident backend
   state lives with the hosted PAL instead. *)
let bootstrap m cfg ~vtpm tenants =
  let sealed = Hashtbl.create 16 in
  let boot acc (i, (kind, _)) =
    let* () = acc in
    let k = key i kind in
    if Hashtbl.mem sealed k then Ok ()
    else
      let input =
        Workload.init_input kind ~tenant:tenants.(i).Workload.name
      in
      let* outcome =
        Session.execute m ~cpu:0 ~analyze:cfg.analyze ?tpm_cap:(cap_for vtpm i)
          (Workload.pal kind) ~input
      in
      let* state =
        Workload.init_state_of_output kind outcome.Session.output
      in
      Ok (Hashtbl.add sealed k state)
  in
  let mixes =
    match cfg.mode with
    | Proposed | Sfi -> []
    | Current ->
        List.concat
          (List.mapi
             (fun i t -> List.map (fun kw -> (i, kw)) t.Workload.mix)
             (Array.to_list tenants))
  in
  let* () = List.fold_left boot (Ok ()) mixes in
  Ok sealed

let create (m : Machine.t) cfg tenant_list =
  let tenants = Array.of_list tenant_list in
  let n = Array.length tenants in
  if n = 0 then invalid_arg "Server.run: no tenants";
  let engine = m.Machine.engine in
  let* tpm =
    match m.Machine.tpm with
    | Some tpm -> Ok tpm
    | None -> Error "serving requires a TPM (sealed state and attestation)"
  in
  let backend = Backend.of_kind cfg.mode in
  let* () = backend.Backend.check_machine m in
  (* Faults come with their recovery: the retry policy is installed with
     the plan below, and every (tenant, kind) stream gets a breaker. *)
  let breakers =
    Option.map
      (fun _ -> Array.init (n * nkinds) (fun _ -> Breaker.create ()))
      cfg.faults
  in
  (* The vTPM multiplexer is provisioned before bootstrap (provisioning
     is part of machine setup, like bootstrap itself) so every session
     in the run — bootstrap included — executes against its tenant's
     capability. *)
  let* vtpm =
    match cfg.vtpm with
    | None -> Ok None
    | Some count ->
        Result.map Option.some
          (Sea_vtpm.Vtpm.create ~tpm ~instances:count ())
  in
  let* sealed = bootstrap m cfg ~vtpm tenants in
  (* The fault plan is installed only after bootstrap (bootstrap models
     provisioning, not the serving window) and draws from its own seeded
     stream, so the tenant streams split below are unperturbed: a rate-0
     or no-fault run replays the exact pre-fault-machinery timeline. *)
  Tpm.set_faults tpm (Option.map Sea_fault.Fault.of_spec cfg.faults);
  (* The serving window starts after bootstrap, on a clean clock. *)
  let base = Engine.now engine in
  let rngs = Array.map (fun _ -> Rng.split (Engine.rng engine)) tenants in
  let cores =
    match cfg.mode with
    | Current -> 1 (* one server: a session owns the whole platform *)
    | Proposed | Sfi -> Array.length m.Machine.cpus
  in
  (* Static request costs (certificate admission costs, via the
     content-addressed cache) are priced only when the cost discipline
     is active: other disciplines never consult them. *)
  let request_cost =
    match cfg.discipline with
    | Admission.Cost _ ->
        let costs =
          Array.of_list (List.map Workload.static_cost Workload.kinds)
        in
        fun kind -> costs.(Workload.kind_index kind)
    | Admission.Fifo | Admission.Weighted -> fun _ -> 0
  in
  Ok
    {
      m; cfg; engine; backend; tenants; vtpm; breakers; sealed;
      residents = Hashtbl.create 16;
      base;
      finish_line = Time.add base cfg.duration;
      rngs;
      events = Event_queue.create ();
      queue =
        Admission.create ~discipline:cfg.discipline ~depth:cfg.queue_depth
          ~weights:(Array.map (fun t -> t.Workload.weight) tenants);
      request_cost; cores;
      idle = Queue.of_seq (Seq.init cores Fun.id);
      parked = Queue.create ();
      tally =
        Array.map
          (fun _ ->
            { offered = 0; completed = 0; shed = 0; timed_out = 0;
              failed = 0; latency = Stats.create () })
          tenants;
      seqs = Array.make (n * nkinds) 0;
      pal_busy = Time.zero;
      stalled = Time.zero;
      stall_ms = Stats.create ();
      cold_starts = 0;
      warm_hits = 0;
      evictions = 0;
      sepcr_waits = 0;
      sepcr_wait_ms = Stats.create ();
      recoveries = 0;
      last_completion = base;
    }

(* --- phase 2: draw arrivals. Open-loop tenants: the whole Poisson
   arrival train is drawn up front from the tenant's stream. Closed-loop
   tenants: one initial arrival per client; reissues are scheduled as
   responses land. What is drawn here lives outside the event heap, in
   one time-ordered run of flat arrays ({!Arrivals}), and the heap keeps
   only what serving pushes. A 360 s train is about 144k arrivals per
   machine: replaying its pushes and pops through one heap cost 0.97–1.15
   µs of host time per event, and reading it from a sorted run beside a
   small heap 33–44 ns. At one instant the run goes first (see
   [event_loop]). --- *)

(* An arrival scheduled while serving: a closed-loop reissue, a parked
   client's retry or a breaker retry. *)
let push_arrival st tenant client time =
  if Time.compare time st.finish_line < 0 then
    Event_queue.push st.events ~time
      (Arrival
         {
           tenant;
           kind = Workload.draw_kind st.rngs.(tenant) st.tenants.(tenant);
           client;
         })

(* An arrival's kind is drawn from its tenant's stream right after its
   interval, and only before the finish line: each seed's traffic is
   this sequence of draws. *)
let draw_arrivals st =
  let drawn = Arrivals.builder () in
  let add tenant client time =
    if Time.compare time st.finish_line < 0 then
      Arrivals.add drawn ~time ~tenant ~client
        ~kind:(Workload.draw_kind st.rngs.(tenant) st.tenants.(tenant))
  in
  Array.iteri
    (fun i ten ->
      match ten.Workload.process with
      | Workload.Open_loop { rate_per_s } ->
          let mean_ms = 1000. /. rate_per_s in
          let t = ref st.base in
          while Time.compare !t st.finish_line < 0 do
            t :=
              Time.add !t (Time.ms (Rng.exponential st.rngs.(i) ~mean:mean_ms));
            add i None !t
          done
      | Workload.Closed_loop { clients; _ } ->
          for c = 0 to clients - 1 do
            add i (Some c) st.base
          done)
    st.tenants;
  Arrivals.run drawn

(* --- phase 3: execution and the event loop, which drains the pre-drawn
   run and the heap as one stream, the run first at equal instants. --- *)

let next_seq st k =
  let s = st.seqs.(k) in
  st.seqs.(k) <- s + 1;
  s

(* A quarantined vTPM is healed on the next request routed to it: the
   repair (hardware checkpoint seal, retried) happens on the request's
   clock, and if it still fails only this tenant's requests fail — its
   breaker opens while every other vTPM keeps serving. *)
let ensure_healthy st tenant =
  match st.vtpm with
  | None -> true
  | Some v ->
      let inst = Sea_vtpm.Vtpm.for_tenant v ~tenant in
      if Sea_vtpm.Vtpm.broken inst then
        match Sea_vtpm.Vtpm.heal inst with Ok () -> true | Error _ -> false
      else true

(* Execution on today's hardware: one full SKINIT session per request,
   whole platform stalled for its duration. *)
let serve_current st ~t r =
  Engine.elapse_to st.engine t;
  let t0 = Engine.now st.engine in
  let k = key r.tenant r.kind in
  let state = Hashtbl.find st.sealed k in
  let input =
    Workload.request_input r.kind ~tenant:st.tenants.(r.tenant).Workload.name
      ~state ~seq:(next_seq st k)
  in
  let ok =
    ensure_healthy st r.tenant
    &&
    match
      st.backend.Backend.oneshot st.m ~cpu:0 ~analyze:st.cfg.analyze
        ?tpm_cap:(cap_for st.vtpm r.tenant) (Workload.pal r.kind) ~input
    with
    | Ok output ->
        if Workload.updates_state r.kind then
          Hashtbl.replace st.sealed k output;
        true
    | Error _ -> false
  in
  let d = Time.sub (Engine.now st.engine) t0 in
  st.stalled <- Time.add st.stalled d;
  Stats.add_time st.stall_ms d;
  (d, ok)

(* Execution on a resident backend: requests run against a hosted PAL
   (same measured bytes as the application PAL), consuming the request's
   compute in preemption-timer slices. A cold start pays the backend's
   launch (SLAUNCH measurement on proposed hardware, the SFI loader
   hash); the backend's pool bounds how many residents can exist — the
   sePCR bank on proposed hardware, unbounded under SFI — so beyond it
   cold starts evict the resident whose burst drains earliest, waiting
   for it if busy. *)
let evict st ~t =
  let victim =
    Hashtbl.fold
      (fun k res acc ->
        let rank r kk = (r.busy_until, r.last_used, kk) in
        match acc with
        | None -> Some (k, res)
        | Some (k', res') ->
            if compare (rank res k) (rank res' k') < 0 then Some (k, res)
            else acc)
      st.residents None
  in
  match victim with
  | None -> Time.zero
  | Some (vkey, vres) ->
      let wait = Time.max Time.zero (Time.sub vres.busy_until t) in
      if Time.compare wait Time.zero > 0 then begin
        st.sepcr_waits <- st.sepcr_waits + 1;
        Stats.add_time st.sepcr_wait_ms wait
      end;
      st.evictions <- st.evictions + 1;
      (* The state hand-off seal the PAL performs at the end of its
         final burst, accounted at eviction time; the blob is what a
         future cold start of the same code identity will unseal. *)
      (match
         vres.inst.Backend.save_state ~cpu:vres.last_core
           ~tag:("resident-state:" ^ string_of_int vkey)
       with
      | Ok (Some blob) -> Hashtbl.replace st.sealed vkey blob
      | Ok None -> ()
      | Error e -> fail ("sealing resident state: " ^ e));
      (match vres.inst.Backend.kill () with
      | Ok () -> ()
      | Error e -> fail ("evicting resident: " ^ e));
      vres.inst.Backend.release ();
      Hashtbl.remove st.residents vkey;
      wait

(* Drop a broken or suspect resident: the next request for this key
   takes a clean cold start instead of warm-hitting a broken session. *)
let quarantine st k =
  match Hashtbl.find_opt st.residents k with
  | Some res ->
      Backend.discard res.inst;
      Hashtbl.remove st.residents k
  | None -> ()

(* The resident for key [k]: the hosted one (a warm hit, serialized
   behind its in-flight burst via [wait]) or a cold start, evicting first
   when the pool is full. *)
let resident_for st ~core ~t ~wait r k =
  match Hashtbl.find_opt st.residents k with
  | Some res ->
      st.warm_hits <- st.warm_hits + 1;
      wait := Time.max Time.zero (Time.sub res.busy_until t);
      res
  | None ->
      st.cold_starts <- st.cold_starts + 1;
      let pool = st.backend.Backend.pool st.m in
      if Hashtbl.length st.residents >= pool then begin
        wait := Time.add !wait (evict st ~t);
        assert (Hashtbl.length st.residents < pool)
      end;
      let inst =
        match
          st.backend.Backend.launch st.m ~cpu:core
            ~preemption_timer:st.cfg.preemption_timer ~analyze:st.cfg.analyze
            ?tpm_cap:(cap_for st.vtpm r.tenant) (Workload.resident_pal r.kind)
            ~input:""
        with
        | Ok i -> i
        | Error e -> fail ("cold start: " ^ e)
      in
      (* A re-launch after eviction unseals the durable state the
         previous incarnation sealed out — same code identity, so the
         identity-bound blob opens. *)
      (match Hashtbl.find_opt st.sealed k with
      | Some blob -> (
          match inst.Backend.load_state ~cpu:core blob with
          | Ok _ -> ()
          | Error e -> fail ("reloading durable state: " ^ e))
      | None -> ());
      let res = { inst; busy_until = t; last_core = core; last_used = t } in
      Hashtbl.add st.residents k res;
      res

let serve_resident st ~core ~t r =
  Engine.elapse_to st.engine t;
  let e0 = Engine.now st.engine in
  let k = key r.tenant r.kind in
  if not (ensure_healthy st r.tenant) then
    (Time.sub (Engine.now st.engine) e0, false)
  else
    let wait = ref Time.zero in
    let rec attempt ~recovering =
      wait := Time.zero;
      try
        let res = resident_for st ~core ~t ~wait r k in
        (if res.inst.Backend.suspended () then
           match res.inst.Backend.resume ~cpu:core with
           | Ok () -> ()
           | Error e -> raise (Resume_failed e));
        let rec consume remaining =
          if Time.compare remaining Time.zero > 0 then begin
            let budget = Time.min st.cfg.preemption_timer remaining in
            match res.inst.Backend.run_slice ~cpu:core ~budget () with
            | Ok `Yielded ->
                let remaining = Time.sub remaining budget in
                if Time.compare remaining Time.zero > 0 then begin
                  (match res.inst.Backend.resume ~cpu:core with
                  | Ok () -> ()
                  | Error e -> fail ("resume: " ^ e));
                  consume remaining
                end
            | Ok `Finished -> fail "resident PAL ran out of work"
            | Error e -> fail ("run slice: " ^ e)
          end
        in
        consume (Workload.work r.kind);
        let d = Time.add !wait (Time.sub (Engine.now st.engine) e0) in
        res.busy_until <- Time.add t d;
        res.last_used <- res.busy_until;
        res.last_core <- core;
        (d, true)
      with
      | Resume_failed _ when not recovering ->
          (* The resident's resume faulted even after retries: instead of
             failing the request, quarantine (SKILL) the resident and
             serve it with a fresh cold start — a full re-measure, so the
             replacement's identity is rebuilt from scratch. *)
          st.warm_hits <- st.warm_hits - 1;
          st.recoveries <- st.recoveries + 1;
          quarantine st k;
          attempt ~recovering:true
      | Serve_error _ | Resume_failed _ ->
          quarantine st k;
          (Time.add !wait (Time.sub (Engine.now st.engine) e0), false)
    in
    attempt ~recovering:false

(* Apply [step] to breaker [b] and trace the state change it caused. *)
let breaker_step st b step =
  let before = Breaker.state b in
  let result = step b in
  let after = Breaker.state b in
  if before <> after then begin
    Sea_trace.Trace.instant st.engine ~cat:"serve"
      ~args:(fun () ->
        [
          ("from", Sea_trace.Trace.Str (Breaker.state_name before));
          ("to", Sea_trace.Trace.Str (Breaker.state_name after));
        ])
      "breaker-transition";
    Sea_trace.Trace.count st.engine "serve.breaker_transitions" 1
  end;
  result

let tenant_arg st tenant =
  [ ("tenant", Sea_trace.Trace.Str st.tenants.(tenant).Workload.name) ]

(* Count an arrival turned away ([why] names the trace instant) as shed,
   so the accounting invariant holds. *)
let shed st tenant why =
  let tl = st.tally.(tenant) in
  tl.shed <- tl.shed + 1;
  Sea_trace.Trace.instant st.engine ~cat:"serve"
    ~args:(fun () -> tenant_arg st tenant)
    why;
  Sea_trace.Trace.count st.engine "serve.shed" 1

(* Closed-loop clients shed with a zero think-time draw cannot reissue
   at the same virtual instant: the queue is still full then (no
   Core_free can interleave), so they would shed and reissue forever.
   Park them and retry when a core frees — the only moment a queue slot
   can have opened. *)
let reissue ?(on_shed = false) st tenant client t =
  match client with
  | None -> ()
  | Some c -> (
      match st.tenants.(tenant).Workload.process with
      | Workload.Open_loop _ -> ()
      | Workload.Closed_loop { think; _ } ->
          let delay =
            if Time.compare think Time.zero > 0 then
              Time.ms
                (Rng.exponential st.rngs.(tenant) ~mean:(Time.to_ms think))
            else Time.zero
          in
          if on_shed && Time.compare delay Time.zero <= 0 then
            Queue.push (tenant, c) st.parked
          else push_arrival st tenant client (Time.add t delay))

(* Account one served request: its breaker, its tenant's row and the
   core-time it occupied. *)
let account st ~tenant r ~finish ~d ~ok =
  (match st.breakers with
  | Some bs ->
      breaker_step st bs.(key tenant r.kind) (fun b ->
          if ok then Breaker.record_success b ~now:finish
          else Breaker.record_failure b ~now:finish)
  | None -> ());
  let tl = st.tally.(tenant) in
  if ok then begin
    tl.completed <- tl.completed + 1;
    Sea_trace.Trace.count st.engine "serve.completed" 1;
    Stats.add tl.latency (Time.to_ms (Time.sub finish r.arrival))
  end
  else begin
    tl.failed <- tl.failed + 1;
    Sea_trace.Trace.count st.engine "serve.failed" 1
  end;
  let occupied =
    match st.cfg.mode with
    | Current -> Time.scale d (Array.length st.m.Machine.cpus)
    | Proposed | Sfi -> d
  in
  st.pal_busy <- Time.add st.pal_busy occupied;
  if Time.compare finish st.last_completion > 0 then
    st.last_completion <- finish

let rec dispatch st t =
  if not (Queue.is_empty st.idle) then
    match Admission.take st.queue with
    | None -> ()
    | Some (tenant, r) -> (
        match st.tenants.(tenant).Workload.deadline with
        | Some d when Time.compare (Time.sub t r.arrival) d > 0 ->
            let tl = st.tally.(tenant) in
            tl.timed_out <- tl.timed_out + 1;
            reissue st tenant r.client t;
            dispatch st t
        | _ ->
            let core = Queue.pop st.idle in
            Sea_trace.Trace.complete st.engine ~cat:"serve"
              ~args:(fun () -> tenant_arg st tenant)
              ~start:r.arrival ~stop:t "queue-wait";
            let d, ok =
              Sea_trace.Trace.with_span st.engine ~cat:"serve"
                ~args:(fun () ->
                  tenant_arg st tenant
                  @ [
                      ("kind", Sea_trace.Trace.Str (Workload.kind_name r.kind));
                      ("mode", Sea_trace.Trace.Str (mode_name st.cfg.mode));
                    ])
                "request"
                (fun () ->
                  match st.cfg.mode with
                  | Current -> serve_current st ~t r
                  | Proposed | Sfi -> serve_resident st ~core ~t r)
            in
            let finish = Time.add t d in
            account st ~tenant r ~finish ~d ~ok;
            Event_queue.push st.events ~time:finish (Core_free core);
            reissue st tenant r.client finish;
            dispatch st t)

let arrive st t ~tenant ~kind ~client =
  let tl = st.tally.(tenant) in
  tl.offered <- tl.offered + 1;
  let open_breaker =
    match st.breakers with
    | Some bs ->
        let b = bs.(key tenant kind) in
        if breaker_step st b (fun b -> Breaker.allow b ~now:t) then None
        else Some b
    | None -> None
  in
  match open_breaker with
  | Some b -> (
      (* A closed-loop client shed by the breaker comes back when the
         open interval ends, not instantly. *)
      shed st tenant "breaker-shed";
      match client with
      | None -> ()
      | Some _ ->
          push_arrival st tenant client
            (Time.max (Breaker.retry_at b) (Time.add t (Time.ms 1.))))
  | None ->
      let r = { tenant; kind; arrival = t; client } in
      if Admission.offer st.queue ~cost:(st.request_cost kind) ~tenant r then
        dispatch st t
      else begin
        shed st tenant "queue-shed";
        reissue ~on_shed:true st tenant client t
      end

(* Virtual-time queueing over real executions. The pre-drawn run and
   the heap drain as one stream: the run's next arrival goes first
   unless the heap's earliest event is strictly earlier. Ties go to the
   run because every pre-drawn arrival was drawn before serving pushed
   anything, so a single heap would have given it the smaller sequence
   number. *)
let rec event_loop st arrivals =
  if Arrivals.due arrivals st.events then begin
    let t = Arrivals.time arrivals in
    let tenant = Arrivals.tenant arrivals
    and kind = Arrivals.kind arrivals
    and client = Arrivals.client arrivals in
    Arrivals.advance arrivals;
    arrive st t ~tenant ~kind ~client;
    event_loop st arrivals
  end
  else
    match Event_queue.pop st.events with
    | None -> ()
    | Some (t, ev) ->
        (match ev with
        | Arrival { tenant; kind; client } -> arrive st t ~tenant ~kind ~client
        | Core_free core ->
            Queue.push core st.idle;
            dispatch st t;
            for _ = 1 to Queue.length st.parked do
              let tenant, c = Queue.pop st.parked in
              push_arrival st tenant (Some c) t
            done);
        event_loop st arrivals

(* --- phase 4: finish and report --- *)

let finish st =
  (* Robustness accounting is cut at the end of serving, before teardown
     advances the clock further. *)
  let serve_end = Engine.now st.engine in
  let breaker_shed, breaker_transitions, degraded =
    match st.breakers with
    | None -> (0, 0, Time.zero)
    | Some bs ->
        Array.fold_left
          (fun (sh, tr, dg) b ->
            ( sh + Breaker.rejected b,
              tr + Breaker.transitions b,
              Time.add dg (Breaker.degraded b ~now:serve_end) ))
          (0, 0, Time.zero) bs
  in
  (* Tear down: kill any remaining residents so the machine is clean. *)
  Hashtbl.iter (fun _ res -> Backend.discard res.inst) st.residents;
  Hashtbl.reset st.residents;
  (* Drain the anchor pipeline (post-window: accounting is already cut)
     so the hardware PCR covers every state change before the plan is
     removed. *)
  Option.iter Sea_vtpm.Vtpm.sync st.vtpm;
  (* The plan's counts and its policy's counters go with the plan, so
     read them before clearing it. *)
  let tpm = Machine.tpm_exn st.m in
  let faults_injected, fault_stall, retries, retry_give_ups =
    match (Tpm.faults tpm, Tpm.retry tpm) with
    | Some plan, Some retry ->
        ( List.map
            (fun (k, c) -> (Sea_fault.Fault.kind_name k, c))
            (Sea_fault.Fault.counts plan),
          Sea_fault.Fault.stall_injected plan,
          Sea_fault.Retry.retries retry,
          Sea_fault.Retry.give_ups retry )
    | _ -> ([], Time.zero, 0, 0)
  in
  Tpm.set_faults tpm None;
  let window =
    Time.max st.cfg.duration (Time.sub st.last_completion st.base)
  in
  let row i ten =
    let tl = st.tally.(i) in
    {
      Report.tenant = ten.Workload.name;
      weight = ten.Workload.weight;
      offered = tl.offered;
      completed = tl.completed;
      shed = tl.shed;
      timed_out = tl.timed_out;
      failed = tl.failed;
      latency_ms = tl.latency;
      queue_high_water = Admission.tenant_high_water st.queue i;
    }
  in
  let rows = Array.to_list (Array.mapi row st.tenants) in
  (* The aggregate is the tenants' rows summed; only the queue's high
     water is machine-wide rather than a per-tenant maximum. *)
  let aggregate =
    { (Report.merge_rows ~tenant:"aggregate" rows) with
      Report.queue_high_water = Admission.high_water st.queue }
  in
  let total_core_time = Time.scale window (Array.length st.m.Machine.cpus) in
  let legacy_utilization =
    if Time.compare total_core_time Time.zero <= 0 then 0.
    else
      Float.max 0.
        (Time.to_ms (Time.sub total_core_time st.pal_busy)
        /. Time.to_ms total_core_time)
  in
  {
    Report.mode = mode_name st.cfg.mode;
    machine = st.m.Machine.config.Machine.name;
    cores = st.cores;
    discipline = Admission.discipline_name st.cfg.discipline;
    depth = st.cfg.queue_depth;
    cost_budget =
      (match st.cfg.discipline with
      | Admission.Cost b -> Some b
      | Admission.Fifo | Admission.Weighted -> None);
    cost_shed = Admission.cost_shed st.queue;
    window;
    rows;
    aggregate;
    pal_busy = st.pal_busy;
    legacy_utilization;
    stalled = st.stalled;
    stall_ms = st.stall_ms;
    cold_starts = st.cold_starts;
    warm_hits = st.warm_hits;
    evictions = st.evictions;
    sepcr_waits = st.sepcr_waits;
    sepcr_wait_ms = st.sepcr_wait_ms;
    faults_injected;
    fault_stall;
    retries;
    retry_give_ups;
    breaker_shed;
    breaker_transitions;
    degraded;
    recoveries = st.recoveries;
    vtpm =
      Option.map
        (fun v ->
          let c = Sea_vtpm.Vtpm.counters v in
          {
            Report.instances = Sea_vtpm.Vtpm.instances v;
            extends = c.Sea_vtpm.Vtpm.extends;
            seals = c.Sea_vtpm.Vtpm.seals;
            unseals = c.Sea_vtpm.Vtpm.unseals;
            resets = c.Sea_vtpm.Vtpm.resets;
          })
        st.vtpm;
  }

let run m cfg tenants =
  let* st = create m cfg tenants in
  event_loop st (draw_arrivals st);
  Ok (finish st)
