(* Tests for the serving subsystem: admission queues, workload
   generators, the serving loop on both hardware modes, resource
   contention on the sePCR pool, and report determinism. *)

open Sea_sim
open Sea_serve

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let machine ?(seed = 11L) ?(cores = 2) ?sepcr_count proposed =
  let config = Sea_hw.Machine.low_fidelity Sea_hw.Machine.hp_dc5750 in
  let config =
    if proposed then Sea_hw.Machine.proposed_variant ?sepcr_count config
    else config
  in
  let config = { config with Sea_hw.Machine.cpu_count = cores } in
  Sea_hw.Machine.create ~engine:(Engine.create ~seed ()) config

let serve ?seed ?cores ?sepcr_count ?(depth = 16) ?discipline ?analyze ?timer
    ~mode ~duration tenants =
  let proposed_hw =
    match mode with
    | Server.Proposed -> true
    | Server.Current | Server.Sfi -> false
  in
  let m = machine ?seed ?cores ?sepcr_count proposed_hw in
  let cfg =
    Server.config ~queue_depth:depth ?discipline ?analyze
      ?preemption_timer:timer ~mode ~duration ()
  in
  match Server.run m cfg tenants with
  | Ok r -> r
  | Error e -> Alcotest.fail ("serve: " ^ e)

let row_consistent (r : Report.t) =
  List.for_all
    (fun (row : Report.row) ->
      row.Report.offered
      = row.Report.completed + row.Report.shed + row.Report.timed_out
        + row.Report.failed)
    (r.Report.aggregate :: r.Report.rows)

let aggregate_sums (r : Report.t) =
  let sum f = List.fold_left (fun acc row -> acc + f row) 0 r.Report.rows in
  let a = r.Report.aggregate in
  a.Report.offered = sum (fun (x : Report.row) -> x.Report.offered)
  && a.Report.completed = sum (fun x -> x.Report.completed)
  && a.Report.shed = sum (fun x -> x.Report.shed)
  && a.Report.timed_out = sum (fun x -> x.Report.timed_out)
  && a.Report.failed = sum (fun x -> x.Report.failed)

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- admission --- *)

let test_admission_fifo () =
  let q = Admission.create ~discipline:Admission.Fifo ~depth:3 ~weights:[| 1; 1 |] in
  checkb "a" true (Admission.offer q ~tenant:0 "a");
  checkb "b" true (Admission.offer q ~tenant:1 "b");
  checkb "c" true (Admission.offer q ~tenant:0 "c");
  checkb "full" false (Admission.offer q ~tenant:1 "d");
  checki "high water" 3 (Admission.high_water q);
  checkb "fifo order" true
    (List.init 3 (fun _ -> Admission.take q)
    = [ Some (0, "a"); Some (1, "b"); Some (0, "c") ]);
  checkb "empty" true (Admission.take q = None);
  checki "length" 0 (Admission.length q)

let test_admission_weighted_shares () =
  let q =
    Admission.create ~discipline:Admission.Weighted ~depth:16
      ~weights:[| 1; 2 |]
  in
  for i = 0 to 5 do
    ignore (Admission.offer q ~tenant:(i mod 2) i)
  done;
  let order =
    List.init 6 (fun _ ->
        match Admission.take q with Some (t, _) -> t | None -> -1)
  in
  (* Weight 1 vs 2: one dequeue for tenant 0 per two for tenant 1 while
     both are backlogged; tenant 1 drains after its third item, so the
     final slot falls back to tenant 0. *)
  checkb "wrr order" true (order = [ 0; 1; 1; 0; 1; 0 ])

let test_admission_weighted_donates () =
  let q =
    Admission.create ~discipline:Admission.Weighted ~depth:4 ~weights:[| 3; 1 |]
  in
  (* Only the light tenant is backlogged: it gets every slot. *)
  for i = 0 to 3 do
    ignore (Admission.offer q ~tenant:1 i)
  done;
  let order =
    List.init 4 (fun _ ->
        match Admission.take q with Some (t, _) -> t | None -> -1)
  in
  checkb "idle tenant donates" true (order = [ 1; 1; 1; 1 ])

let test_admission_weighted_per_tenant_depth () =
  let q =
    Admission.create ~discipline:Admission.Weighted ~depth:2 ~weights:[| 1; 1 |]
  in
  checkb "t0 1" true (Admission.offer q ~tenant:0 0);
  checkb "t0 2" true (Admission.offer q ~tenant:0 1);
  checkb "t0 full" false (Admission.offer q ~tenant:0 2);
  checkb "t1 unaffected" true (Admission.offer q ~tenant:1 3);
  checki "t0 high water" 2 (Admission.tenant_high_water q 0)

let test_admission_cost_budget () =
  let q =
    Admission.create ~discipline:(Admission.Cost 10) ~depth:16
      ~weights:[| 1; 1 |]
  in
  checkb "fits" true (Admission.offer q ~cost:6 ~tenant:0 "a");
  checkb "fills the budget" true (Admission.offer q ~cost:4 ~tenant:0 "b");
  (* 10 units already in flight: one more unit is a budget shed, and it
     is counted separately from depth sheds. *)
  checkb "over budget" false (Admission.offer q ~cost:1 ~tenant:0 "c");
  checki "counted as a cost shed" 1 (Admission.cost_shed q);
  (* Budgets are per tenant. *)
  checkb "t1 has its own budget" true (Admission.offer q ~cost:10 ~tenant:1 "d");
  (* Draining releases budget: both tenants hold 10 units, so the tie
     goes to tenant 0, whose head request (6 units) frees room. *)
  checkb "tie to the lowest index" true (Admission.take q = Some (0, "a"));
  checkb "released budget readmits" true
    (Admission.offer q ~cost:6 ~tenant:0 "e");
  checki "no further cost sheds" 1 (Admission.cost_shed q)

let test_admission_cost_cheapest_first () =
  let q =
    Admission.create ~discipline:(Admission.Cost 100) ~depth:16
      ~weights:[| 1; 1; 1 |]
  in
  (* Tenant 0 queues the expensive backlog; tenants 1 and 2 tie cheap. *)
  checkb "t0" true (Admission.offer q ~cost:30 ~tenant:0 "exp");
  checkb "t1" true (Admission.offer q ~cost:5 ~tenant:1 "cheap1");
  checkb "t2" true (Admission.offer q ~cost:5 ~tenant:2 "cheap2");
  (* Cheapest backlog drains first, ties to the lowest index, and the
     expensive tenant waits without being starved forever. *)
  checkb "cheapest-first order" true
    (List.init 3 (fun _ -> Admission.take q)
    = [ Some (1, "cheap1"); Some (2, "cheap2"); Some (0, "exp") ]);
  checkb "empty" true (Admission.take q = None)

let test_admission_cost_validation () =
  Alcotest.check_raises "zero budget"
    (Invalid_argument "Admission.create: cost budget must be positive")
    (fun () ->
      ignore
        (Admission.create ~discipline:(Admission.Cost 0) ~depth:1
           ~weights:[| 1 |]));
  let q =
    Admission.create ~discipline:(Admission.Cost 5) ~depth:1 ~weights:[| 1 |]
  in
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Admission.offer: negative cost") (fun () ->
      ignore (Admission.offer q ~cost:(-1) ~tenant:0 "x"))

(* --- workload --- *)

let test_workload_validation () =
  Alcotest.check_raises "zero rate"
    (Invalid_argument "Workload.tenant: rate must be positive") (fun () ->
      ignore
        (Workload.tenant ~name:"x" (Workload.Open_loop { rate_per_s = 0. })));
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Workload.tenant: weight must be positive") (fun () ->
      ignore
        (Workload.tenant ~weight:0 ~name:"x"
           (Workload.Open_loop { rate_per_s = 1. })));
  Alcotest.check_raises "bad clients"
    (Invalid_argument "Workload.tenant: clients must be positive") (fun () ->
      ignore
        (Workload.tenant ~name:"x"
           (Workload.Closed_loop { clients = 0; think = Time.zero })))

let test_sepcr_count_validation () =
  Alcotest.check_raises "zero sePCRs"
    (Invalid_argument "Machine.proposed_variant: sepcr_count must be >= 1")
    (fun () ->
      ignore
        (Sea_hw.Machine.proposed_variant ~sepcr_count:0
           Sea_hw.Machine.hp_dc5750))

let test_config_validation () =
  Alcotest.check_raises "bad duration"
    (Invalid_argument "Server.config: duration must be positive") (fun () ->
      ignore (Server.config ~mode:Server.Current ~duration:Time.zero ()));
  Alcotest.check_raises "bad depth"
    (Invalid_argument "Server.config: queue depth must be positive") (fun () ->
      ignore
        (Server.config ~queue_depth:0 ~mode:Server.Current
           ~duration:(Time.s 1.) ()));
  (* Proposed mode needs the proposed hardware. *)
  let m = machine false in
  let cfg = Server.config ~mode:Server.Proposed ~duration:(Time.s 1.) () in
  checkb "mode/machine mismatch" true
    (match Server.run m cfg (Workload.preset ~tenants:1 (`Open 1.)) with
    | Error _ -> true
    | Ok _ -> false)

(* --- serving: overload behaviour on today's hardware --- *)

let test_current_sheds_on_overflow () =
  let r =
    serve ~mode:Server.Current ~depth:2 ~duration:(Time.s 2.)
      (Workload.preset ~tenants:2 (`Open 10.))
  in
  checkb "sheds under overload" true (r.Report.aggregate.Report.shed > 0);
  checkb "rows consistent" true (row_consistent r);
  checkb "aggregate sums rows" true (aggregate_sums r);
  checkb "queue hit its bound" true (r.Report.aggregate.Report.queue_high_water = 2)

let test_current_deadline_timeouts () =
  let r =
    serve ~mode:Server.Current ~depth:64 ~duration:(Time.s 2.)
      (Workload.preset ~deadline:(Time.ms 200.) ~tenants:1 (`Open 4.))
  in
  checkb "timeouts under overload" true
    (r.Report.aggregate.Report.timed_out > 0);
  checkb "deep queue does not shed" true (r.Report.aggregate.Report.shed = 0);
  checkb "rows consistent" true (row_consistent r)

let test_current_stalls_platform () =
  let r =
    serve ~mode:Server.Current ~duration:(Time.s 1.)
      (Workload.preset ~tenants:1 (`Open 2.))
  in
  checkb "platform stalled" true
    (Time.compare r.Report.stalled Time.zero > 0);
  checki "one stall interval per request served"
    (r.Report.aggregate.Report.completed + r.Report.aggregate.Report.failed)
    (Stats.count r.Report.stall_ms);
  checkb "no residents on current hw" true
    (r.Report.cold_starts = 0 && r.Report.warm_hits = 0);
  checkb "rows consistent" true (row_consistent r)

(* --- serving: the proposed hardware --- *)

let test_proposed_warm_reuse () =
  let r =
    serve ~mode:Server.Proposed ~duration:(Time.s 2.)
      [ Workload.tenant ~name:"t0" (Workload.Open_loop { rate_per_s = 20. }) ]
  in
  let a = r.Report.aggregate in
  checki "one cold start" 1 r.Report.cold_starts;
  checki "everything else warm" (a.Report.offered - 1) r.Report.warm_hits;
  checkb "nothing lost" true (a.Report.completed = a.Report.offered);
  checkb "platform never stalls" true
    (Time.compare r.Report.stalled Time.zero = 0
    && Stats.count r.Report.stall_ms = 0);
  checkb "rows consistent" true (row_consistent r)

let test_proposed_sepcr_pool_blocks () =
  (* One sePCR, two tenants of different kinds, two concurrent clients
     each: every switch of kind must evict the other tenant's resident,
     and concurrent bursts force waits on the busy victim. *)
  let tenants =
    [
      Workload.tenant ~name:"a"
        ~mix:[ (Workload.Ssh_auth, 1) ]
        (Workload.Closed_loop { clients = 2; think = Time.zero });
      Workload.tenant ~name:"b"
        ~mix:[ (Workload.Ca_sign, 1) ]
        (Workload.Closed_loop { clients = 2; think = Time.zero });
    ]
  in
  let r =
    serve ~mode:Server.Proposed ~sepcr_count:1 ~duration:(Time.ms 500.) tenants
  in
  checkb "evictions happened" true (r.Report.evictions > 0);
  checkb "cold starts beyond the first two" true (r.Report.cold_starts > 2);
  checkb "some cold starts waited on the pool" true (r.Report.sepcr_waits > 0);
  checki "one wait sample per blocked start" r.Report.sepcr_waits
    (Stats.count r.Report.sepcr_wait_ms);
  checkb "rows consistent" true (row_consistent r)

let test_proposed_ample_pool_never_waits () =
  let r =
    serve ~mode:Server.Proposed ~sepcr_count:8 ~duration:(Time.s 1.)
      (Workload.preset ~tenants:3 (`Open 12.))
  in
  checkb "no eviction with an ample bank" true
    (r.Report.evictions = 0 && r.Report.sepcr_waits = 0);
  checki "one cold start per (tenant, kind)" 3 r.Report.cold_starts;
  checkb "rows consistent" true (row_consistent r)

(* --- generators --- *)

let test_open_vs_closed_loop () =
  (* Open loop keeps offering regardless of service speed; a single
     closed-loop client is paced by it. On today's ~1 s/request
     hardware the difference is stark. *)
  let duration = Time.s 2. in
  let open_r =
    serve ~mode:Server.Current ~duration
      [ Workload.tenant ~name:"t" (Workload.Open_loop { rate_per_s = 5. }) ]
  in
  let closed_r =
    serve ~mode:Server.Current ~duration
      [
        Workload.tenant ~name:"t"
          (Workload.Closed_loop { clients = 1; think = Time.zero });
      ]
  in
  checkb "open loop overruns service" true
    (open_r.Report.aggregate.Report.offered
    > closed_r.Report.aggregate.Report.offered);
  checkb "closed loop never sheds" true
    (closed_r.Report.aggregate.Report.shed = 0);
  checkb "closed loop served everything it sent" true
    (closed_r.Report.aggregate.Report.completed
    = closed_r.Report.aggregate.Report.offered);
  checkb "rows consistent (open)" true (row_consistent open_r);
  checkb "rows consistent (closed)" true (row_consistent closed_r)

let test_closed_loop_shed_with_zero_think_terminates () =
  (* Regression: a shed closed-loop client with zero think time used to
     reissue at the same virtual instant against a still-full queue,
     livelocking the event loop. Shed clients must instead retry once a
     core frees, so the run terminates and every client keeps cycling. *)
  let r =
    serve ~mode:Server.Current ~depth:2 ~duration:(Time.s 1.)
      [
        Workload.tenant ~name:"t"
          (Workload.Closed_loop { clients = 10; think = Time.zero });
      ]
  in
  checkb "overflowed the queue" true (r.Report.aggregate.Report.shed > 0);
  checkb "still made progress" true (r.Report.aggregate.Report.completed > 0);
  checkb "rows consistent" true (row_consistent r)

let test_closed_loop_self_paces () =
  (* A single closed-loop client can never queue behind itself. *)
  let r =
    serve ~mode:Server.Proposed ~duration:(Time.s 1.)
      [
        Workload.tenant ~name:"t"
          (Workload.Closed_loop { clients = 1; think = Time.ms 5. });
      ]
  in
  checkb "no queueing" true (r.Report.aggregate.Report.queue_high_water <= 1);
  checkb "served all" true
    (r.Report.aggregate.Report.completed = r.Report.aggregate.Report.offered);
  checkb "rows consistent" true (row_consistent r)

(* --- per-tenant accounting --- *)

let test_per_tenant_accounting () =
  let tenants =
    [
      Workload.tenant ~name:"slow" (Workload.Open_loop { rate_per_s = 4. });
      Workload.tenant ~name:"fast" (Workload.Open_loop { rate_per_s = 16. });
    ]
  in
  let r = serve ~mode:Server.Proposed ~duration:(Time.s 2.) tenants in
  let row name =
    List.find (fun (x : Report.row) -> x.Report.tenant = name) r.Report.rows
  in
  checkb "offered follows rate" true
    ((row "fast").Report.offered > (row "slow").Report.offered);
  checkb "aggregate sums rows" true (aggregate_sums r);
  checkb "rows consistent" true (row_consistent r);
  checkb "latency recorded per tenant" true
    (Stats.count (row "slow").Report.latency_ms = (row "slow").Report.completed)

(* --- the headline comparison --- *)

let test_proposed_10x_goodput () =
  (* Same seed, same workload, at a rate where today's hardware is deep
     into shedding: the proposed hardware must sustain >= 10x the
     goodput (the ISSUE's acceptance criterion). *)
  let tenants () = Workload.preset ~tenants:3 (`Open 16.) in
  let duration = Time.s 3. in
  let current =
    serve ~seed:5L ~mode:Server.Current ~depth:8 ~duration (tenants ())
  in
  let proposed =
    serve ~seed:5L ~mode:Server.Proposed ~depth:8 ~duration (tenants ())
  in
  checkb "current hardware is shedding" true
    (current.Report.aggregate.Report.shed > 0);
  checkb "rows consistent (current)" true (row_consistent current);
  checkb "rows consistent (proposed)" true (row_consistent proposed);
  checkb "aggregate sums rows (current)" true (aggregate_sums current);
  checkb "aggregate sums rows (proposed)" true (aggregate_sums proposed);
  let goodput r = Report.goodput_per_s r r.Report.aggregate in
  checkb "proposed sustains >= 10x goodput" true
    (goodput proposed >= 10. *. goodput current)

(* --- determinism --- *)

let test_identical_seeds_identical_reports () =
  let go mode =
    let r1 =
      serve ~seed:9L ~mode ~duration:(Time.s 1.)
        (Workload.preset ~tenants:3 (`Open 12.))
    in
    let r2 =
      serve ~seed:9L ~mode ~duration:(Time.s 1.)
        (Workload.preset ~tenants:3 (`Open 12.))
    in
    checkb "rows consistent" true (row_consistent r1);
    Alcotest.(check string)
      ("bit-identical replay, " ^ Server.mode_name mode)
      (Report.render r1) (Report.render r2)
  in
  go Server.Current;
  go Server.Proposed

let test_different_seeds_differ () =
  let go seed =
    let r =
      serve ~seed ~mode:Server.Proposed ~duration:(Time.s 1.)
        (Workload.preset ~tenants:3 (`Open 12.))
    in
    checkb "rows consistent" true (row_consistent r);
    r
  in
  checkb "different seeds give different traffic" true
    (Report.render (go 1L) <> Report.render (go 2L))

(* --- pre-drawn arrivals beside the event heap --- *)

(* The server serves pre-drawn arrivals from [Arrivals] and everything
   else from a small heap. Draining both must give exactly the order of
   one [Event_queue] into which the same trains were pushed, tenant by
   tenant, before any event of serving. Instants come from a narrow
   range, so they repeat within a tenant and across tenants; some trains
   are long enough to span several of the run's storage chunks. After
   each pop the script pushes events at the popped instant or after it
   (a delay of 0 included) into the heap and the reference alike. *)
let prop_arrivals_merge_order =
  let trains =
    QCheck.(
      list_of_size Gen.(int_range 0 5)
        (list_of_size
           Gen.(frequency [ (4, int_range 0 12); (1, int_range 200 700) ])
           (int_bound 8)))
  and script =
    QCheck.(
      list_of_size Gen.(int_range 0 60)
        (list_of_size Gen.(int_range 0 3) (int_bound 3)))
  in
  QCheck.Test.make ~name:"run and heap drain in single-heap order" ~count:500
    (QCheck.pair trains script) (fun (trains, script) ->
      let reference = Event_queue.create () and heap = Event_queue.create () in
      let drawn = Arrivals.builder () in
      List.iteri
        (fun tenant train ->
          List.iteri
            (fun draw time ->
              let kind = List.nth Workload.kinds ((tenant + draw) mod 3) in
              let client = if tenant mod 2 = 0 then None else Some draw in
              Event_queue.push reference ~time (`Drawn (tenant, kind, client));
              Arrivals.add drawn ~time ~tenant ~kind ~client)
            (List.sort compare train))
        trains;
      let run = Arrivals.run drawn in
      let pop_merged () =
        if Arrivals.due run heap then begin
          let ev =
            `Drawn (Arrivals.tenant run, Arrivals.kind run, Arrivals.client run)
          in
          let t = Arrivals.time run in
          Arrivals.advance run;
          Some (t, ev)
        end
        else Event_queue.pop heap
      in
      let rec drain n script =
        match (Event_queue.pop reference, pop_merged ()) with
        | None, None -> true
        | Some (t, ev), Some got when got = (t, ev) ->
            let delays, rest =
              match script with d :: rest -> (d, rest) | [] -> ([], [])
            in
            List.iteri
              (fun j d ->
                let ev = `Pushed (n, j) in
                Event_queue.push reference ~time:(t + d) ev;
                Event_queue.push heap ~time:(t + d) ev)
              delays;
            drain (n + 1) rest
        | _ -> false
      in
      drain 0 script)

(* --- analysis gate and cost-aware admission --- *)

let test_analysis_cache_exactly_once () =
  (* The certificate cache is process-wide and content-addressed, so a
     gated serve run analyzes each distinct workload image at most
     once, and a second run (even with a different seed) re-analyzes
     nothing. *)
  let gated seed =
    serve ~seed ~analyze:Sea_analysis.Analyzer.Enforce ~mode:Server.Proposed
      ~duration:(Time.s 1.)
      (Workload.preset ~tenants:3 (`Open 8.))
  in
  let r = gated 3L in
  checkb "gated run completes work" true
    (r.Report.aggregate.Report.completed > 0);
  let after_first = Sea_core.Pal.analysis_runs () in
  checkb "something was analyzed" true (after_first > 0);
  let (_ : Report.t) = gated 4L in
  checki "second run is all cache hits" after_first
    (Sea_core.Pal.analysis_runs ());
  (* Certificate pricing rides the same cache as the launch gate. *)
  List.iter (fun k -> ignore (Workload.static_cost k)) Workload.kinds;
  checki "certificates are cache hits too" after_first
    (Sea_core.Pal.analysis_runs ())

let test_enforce_gate_byte_identical_report () =
  (* All shipped workload images are clean and bounded, so turning the
     gate on must not change a single byte of the report. *)
  let go analyze =
    Report.render
      (serve ?analyze ~seed:7L ~mode:Server.Proposed ~duration:(Time.s 1.)
         (Workload.preset ~tenants:3 (`Open 10.)))
  in
  Alcotest.(check string) "enforce leaves the report byte-identical"
    (go None)
    (go (Some Sea_analysis.Analyzer.Enforce))

let test_cost_admission_serves_and_reports () =
  (* A budget with room for every kind: nothing is cost-shed, and the
     report grows the cost line with the configured budget. *)
  let budget = 4_000_000 in
  let r =
    serve ~discipline:(Admission.Cost budget) ~mode:Server.Proposed
      ~duration:(Time.s 2.)
      (Workload.preset ~tenants:3 (`Open 10.))
  in
  checkb "rows consistent" true (row_consistent r);
  checkb "work completes under cost admission" true
    (r.Report.aggregate.Report.completed > 0);
  checkb "budget surfaced in the report" true
    (r.Report.cost_budget = Some budget);
  checkb "cost line renders" true
    (contains "cost admission: budget" (Report.render r))

let test_cost_admission_sheds_expensive_kinds () =
  (* A budget below the CA and KV certificate costs: only SSH requests
     fit, the rest are cost-shed and counted both as sheds and in the
     dedicated cost_shed counter. *)
  let r =
    serve ~discipline:(Admission.Cost 1_000) ~mode:Server.Proposed
      ~duration:(Time.s 2.)
      (Workload.preset ~tenants:3 (`Open 10.))
  in
  checkb "rows consistent" true (row_consistent r);
  checkb "expensive kinds are cost-shed" true (r.Report.cost_shed > 0);
  checkb "cost sheds are visible as sheds" true
    (r.Report.aggregate.Report.shed >= r.Report.cost_shed);
  checkb "cheap work still completes" true
    (r.Report.aggregate.Report.completed > 0)

(* --- zero-completion rendering --- *)

let test_zero_completion_report_renders () =
  (* An all-shed run leaves every latency accumulator empty; the report
     must render dashes for the percentiles instead of raising. *)
  let empty_row tenant =
    {
      Report.tenant;
      weight = 1;
      offered = 5;
      completed = 0;
      shed = 5;
      timed_out = 0;
      failed = 0;
      latency_ms = Stats.create ();
      queue_high_water = 1;
    }
  in
  let r =
    {
      Report.mode = "current";
      machine = "synthetic";
      cores = 2;
      discipline = "fifo";
      depth = 1;
      cost_budget = None;
      cost_shed = 0;
      window = Time.s 1.;
      rows = [ empty_row "t0" ];
      aggregate = empty_row "all";
      pal_busy = Time.zero;
      legacy_utilization = 1.;
      stalled = Time.zero;
      stall_ms = Stats.create ();
      cold_starts = 0;
      warm_hits = 0;
      evictions = 0;
      sepcr_waits = 0;
      sepcr_wait_ms = Stats.create ();
      faults_injected = [];
      fault_stall = Time.zero;
      retries = 0;
      retry_give_ups = 0;
      breaker_shed = 0;
      breaker_transitions = 0;
      degraded = Time.zero;
      recoveries = 0;
      vtpm = None;
    }
  in
  let s = Report.render r in
  checkb "renders" true (String.length s > 0);
  checkb "empty percentiles render as dashes" true (contains "-/-/-" s);
  checkb "no robustness lines on a fault-free report" true
    (not (Report.robustness_active r));
  checkb "rows consistent" true (row_consistent r)

let test_starved_deadline_run_renders () =
  (* End-to-end: a run where nearly everything dies at the deadline
     still produces a consistent, renderable report. *)
  let r =
    serve ~mode:Server.Current ~depth:64 ~duration:(Time.s 2.)
      (Workload.preset ~deadline:(Time.us 1.) ~tenants:1 (`Open 4.))
  in
  checkb "requests timed out" true (r.Report.aggregate.Report.timed_out > 0);
  checkb "rows consistent" true (row_consistent r);
  checkb "renders" true (String.length (Report.render r) > 0)

(* --- launch digests ---

   A launch reports the digest the TPM computed while the image crossed
   the bus; a PAL carries the digest computed when it was built. The two
   must agree for every serving kind on both launch paths, or sealed
   state would not round-trip. *)

module Pal = Sea_core.Pal

let test_session_measurement_is_the_pals () =
  let m = machine false in
  List.iter
    (fun k ->
      let pal = Workload.pal k and name = Workload.kind_name k in
      checks (name ^ ": built digest is SHA-1 of the code")
        (Sea_crypto.Sha1.digest pal.Pal.code) (Pal.measurement pal);
      match
        Sea_core.Session.execute m ~cpu:0 pal
          ~input:(Workload.init_input k ~tenant:"t")
      with
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
      | Ok o ->
          checks (name ^ ": SKINIT measurement") (Pal.measurement pal)
            o.Sea_core.Session.measurement)
    Workload.kinds

let test_slaunch_digest_is_the_pals () =
  let open Sea_hw in
  let m = machine ~sepcr_count:8 true in
  let tpm = Machine.tpm_exn m in
  List.iter
    (fun k ->
      let pal = Workload.resident_pal k and name = Workload.kind_name k in
      let pages = Machine.alloc_pages m (1 + Pal.pages_needed pal) in
      let secb =
        Secb.create ~id:(Machine.fresh_secb_id m) ~pages ~entry_point:0
          ~pal_length:(Pal.code_size pal) ()
      in
      Memory.write_span (Memctrl.memory m.Machine.memctrl)
        ~pages:(Secb.data_pages secb) ~off:0 pal.Pal.code;
      (match Insn.slaunch m ~cpu:0 secb with
      | Ok (Insn.Launched d) -> checks (name ^ ": Launched d") (Pal.measurement pal) d
      | Ok Insn.Resumed -> Alcotest.fail (name ^ ": resumed a fresh SECB")
      | Error e -> Alcotest.fail (name ^ ": " ^ e));
      let h = Option.get secb.Secb.sepcr in
      checks (name ^ ": sePCR = extend(0, d)")
        (Sea_core.Slaunch_session.expected_sepcr pal)
        (Result.get_ok (Sea_tpm.Tpm.sepcr_read tpm ~caller:(Sea_tpm.Tpm.Cpu 0) h));
      checkb (name ^ ": SFREE") true (Insn.sfree m ~cpu:0 secb = Ok ()))
    Workload.kinds

let test_resident_pal_shared () =
  List.iter
    (fun k ->
      let r = Workload.resident_pal k and name = Workload.kind_name k in
      checkb (name ^ ": one resident per kind") true (r == Workload.resident_pal k);
      checks (name ^ ": resident measurement")
        (Pal.measurement (Workload.pal k)) (Pal.measurement r))
    Workload.kinds

let () =
  Alcotest.run "serve"
    [
      ( "admission",
        [
          Alcotest.test_case "fifo order and bound" `Quick test_admission_fifo;
          Alcotest.test_case "weighted shares" `Quick
            test_admission_weighted_shares;
          Alcotest.test_case "idle tenant donates" `Quick
            test_admission_weighted_donates;
          Alcotest.test_case "per-tenant depth" `Quick
            test_admission_weighted_per_tenant_depth;
          Alcotest.test_case "cost budget sheds" `Quick
            test_admission_cost_budget;
          Alcotest.test_case "cheapest backlog first" `Quick
            test_admission_cost_cheapest_first;
          Alcotest.test_case "cost validation" `Quick
            test_admission_cost_validation;
        ] );
      ( "workload",
        [
          Alcotest.test_case "tenant validation" `Quick
            test_workload_validation;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "sePCR count validation" `Quick
            test_sepcr_count_validation;
        ] );
      ( "current-hw",
        [
          Alcotest.test_case "sheds on overflow" `Quick
            test_current_sheds_on_overflow;
          Alcotest.test_case "deadline timeouts" `Quick
            test_current_deadline_timeouts;
          Alcotest.test_case "stalls the platform" `Quick
            test_current_stalls_platform;
        ] );
      ( "proposed-hw",
        [
          Alcotest.test_case "warm resident reuse" `Quick
            test_proposed_warm_reuse;
          Alcotest.test_case "sePCR pool blocks" `Quick
            test_proposed_sepcr_pool_blocks;
          Alcotest.test_case "ample pool never waits" `Quick
            test_proposed_ample_pool_never_waits;
        ] );
      ( "generators",
        [
          Alcotest.test_case "open vs closed loop" `Quick
            test_open_vs_closed_loop;
          Alcotest.test_case "closed loop self-paces" `Quick
            test_closed_loop_self_paces;
          Alcotest.test_case "shed with zero think terminates" `Quick
            test_closed_loop_shed_with_zero_think_terminates;
        ] );
      ( "arrivals",
        [ QCheck_alcotest.to_alcotest prop_arrivals_merge_order ] );
      ( "end-to-end",
        [
          Alcotest.test_case "per-tenant accounting" `Quick
            test_per_tenant_accounting;
          Alcotest.test_case "proposed >= 10x goodput" `Quick
            test_proposed_10x_goodput;
          Alcotest.test_case "identical seeds, identical reports" `Quick
            test_identical_seeds_identical_reports;
          Alcotest.test_case "different seeds differ" `Quick
            test_different_seeds_differ;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "analysis cache hits exactly once" `Quick
            test_analysis_cache_exactly_once;
          Alcotest.test_case "enforce gate byte-identical" `Quick
            test_enforce_gate_byte_identical_report;
          Alcotest.test_case "cost admission serves and reports" `Quick
            test_cost_admission_serves_and_reports;
          Alcotest.test_case "cost admission sheds expensive kinds" `Quick
            test_cost_admission_sheds_expensive_kinds;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "zero-completion report renders" `Quick
            test_zero_completion_report_renders;
          Alcotest.test_case "starved-deadline run renders" `Quick
            test_starved_deadline_run_renders;
        ] );
      ( "launch-digest",
        [
          Alcotest.test_case "session measurement is the PAL's" `Quick
            test_session_measurement_is_the_pals;
          Alcotest.test_case "SLAUNCH digest is the PAL's" `Quick
            test_slaunch_digest_is_the_pals;
          Alcotest.test_case "one resident per kind" `Quick
            test_resident_pal_shared;
        ] );
    ]
