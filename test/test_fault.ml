(* Tests for the fault-injection subsystem: deterministic fault plans,
   bounded retry with virtual-time backoff, the recovery an installed
   plan brings to every hardware path, the serving loop's circuit
   breakers, resident-PAL recovery, and fault-schedule determinism
   (replayed across every seed in SEA_FAULT_SEEDS). *)

open Sea_sim
open Sea_fault
open Sea_serve

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- fault plans --- *)

let test_spec_validation () =
  Alcotest.check_raises "rate > 1"
    (Invalid_argument "Fault.create: rate must be in [0, 1]") (fun () ->
      ignore (Fault.spec ~rate:1.5 ()));
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Fault.create: rate must be in [0, 1]") (fun () ->
      ignore (Fault.spec ~rate:(-0.1) ()));
  Alcotest.check_raises "empty kinds"
    (Invalid_argument "Fault.create: kinds must be non-empty") (fun () ->
      ignore (Fault.spec ~kinds:[] ~rate:0.5 ()))

let test_kind_names_round_trip () =
  List.iter
    (fun k ->
      checkb (Fault.kind_name k) true
        (Fault.kind_of_name (Fault.kind_name k) = Some k))
    Fault.all_kinds;
  checkb "unknown name" true (Fault.kind_of_name "warp-core-breach" = None)

let test_transient_tagging () =
  let e = Fault.transient "TPM busy" in
  checkb "tagged transient" true (Fault.is_transient e);
  checkb "prefix carried" true (e = Fault.transient_prefix ^ ": TPM busy");
  checkb "plain errors are permanent" true
    (not (Fault.is_transient "bad measurement"))

let test_fires_rate_extremes () =
  let plan0 = Fault.of_spec (Fault.spec ~rate:0. ()) in
  for _ = 1 to 100 do
    checkb "rate 0 never fires" false (Fault.fires plan0 Fault.Tpm_busy)
  done;
  checki "rate 0 injects nothing" 0 (Fault.total plan0);
  let plan1 = Fault.of_spec (Fault.spec ~rate:1. ()) in
  for _ = 1 to 10 do
    checkb "rate 1 always fires" true (Fault.fires plan1 Fault.Tpm_busy)
  done;
  checki "every fire counted" 10 (Fault.injected plan1 Fault.Tpm_busy);
  checki "total tracks" 10 (Fault.total plan1)

let test_disabled_kind_never_fires () =
  let plan =
    Fault.of_spec (Fault.spec ~kinds:[ Fault.Seal_fail ] ~rate:1. ())
  in
  checkb "disabled kind" false (Fault.fires plan Fault.Tpm_busy);
  checkb "enabled kind" true (Fault.fires plan Fault.Seal_fail)

let test_max_injections_caps () =
  let rng = Rng.create ~seed:3L () in
  let plan = Fault.create ~max_injections:2 ~rate:1. rng in
  checkb "1st" true (Fault.fires plan Fault.Tpm_busy);
  checkb "2nd" true (Fault.fires plan Fault.Tpm_busy);
  checkb "capped" false (Fault.fires plan Fault.Tpm_busy);
  checki "exactly the cap" 2 (Fault.total plan)

let test_plan_determinism () =
  let draw seed =
    let plan = Fault.of_spec (Fault.spec ~seed ~rate:0.3 ()) in
    List.init 200 (fun _ -> Fault.fires plan Fault.Lpc_stall)
  in
  checkb "same seed, same schedule" true (draw 7 = draw 7);
  checkb "different seed, different schedule" true (draw 7 <> draw 8)

let test_stall_accumulates () =
  let plan = Fault.of_spec (Fault.spec ~rate:1. ()) in
  let base = Time.us 13. in
  let d1 = Fault.stall plan ~base in
  let d2 = Fault.stall plan ~base in
  checkb "stall is positive" true (Time.compare d1 Time.zero > 0);
  checkb "stall accumulated" true
    (Fault.stall_injected plan = Time.add d1 d2)

(* --- retry --- *)

let engine () = Engine.create ~seed:5L ()

let test_retry_transient_then_success () =
  let e = engine () in
  let policy = Retry.policy () in
  let calls = ref 0 in
  let t0 = Engine.now e in
  let r =
    Retry.run ~policy ~engine:e (fun () ->
        incr calls;
        if !calls < 3 then Error (Fault.transient "busy") else Ok "done")
  in
  checkb "succeeded" true (r = Ok "done");
  checki "third attempt won" 3 !calls;
  checki "two retries counted" 2 (Retry.retries policy);
  checki "no give-up" 0 (Retry.give_ups policy);
  checkb "backoff advanced virtual time" true
    (Time.compare (Engine.now e) t0 > 0)

let test_retry_permanent_not_retried () =
  let e = engine () in
  let policy = Retry.policy () in
  let calls = ref 0 in
  let r =
    Retry.run ~policy ~engine:e (fun () ->
        incr calls;
        Error "bad measurement")
  in
  checkb "error returned unchanged" true (r = Error "bad measurement");
  checki "exactly one attempt" 1 !calls;
  checki "no retries" 0 (Retry.retries policy)

let test_retry_exhaustion () =
  let e = engine () in
  let policy = Retry.policy () in
  let calls = ref 0 in
  let r =
    Retry.run ~policy ~engine:e (fun () ->
        incr calls;
        Error (Fault.transient "busy"))
  in
  checkb "still transient after exhaustion" true
    (match r with Error m -> Fault.is_transient m | Ok _ -> false);
  checki "all attempts spent" Retry.attempts !calls;
  checki "retries counted" (Retry.attempts - 1) (Retry.retries policy);
  checki "gave up once" 1 (Retry.give_ups policy)

let test_default_policies_are_independent () =
  (* Regression: the default policy used to be one shared module-level
     value, so its mutable retries/give_ups counters aliased across every
     caller — retries performed through one default policy showed up in
     another's statistics. *)
  let e = engine () in
  let p1 = Retry.policy () and p2 = Retry.policy () in
  let calls = ref 0 in
  ignore
    (Retry.run ~policy:p1 ~engine:e (fun () ->
         incr calls;
         if !calls < 3 then Error (Fault.transient "busy") else Ok ()));
  checki "p1 counted its retries" 2 (Retry.retries p1);
  checki "p2 unaffected" 0 (Retry.retries p2);
  checki "a third policy starts clean" 0 (Retry.retries (Retry.policy ()))

let test_retry_without_policy_runs_once () =
  let e = engine () in
  let calls = ref 0 in
  let r =
    Retry.run ~engine:e (fun () ->
        incr calls;
        Error (Fault.transient "busy"))
  in
  checkb "no policy, no retry" true (Result.is_error r);
  checki "single attempt" 1 !calls

(* --- circuit breaker --- *)

let test_breaker_opens_at_threshold () =
  let b = Breaker.create () in
  let now = Time.zero in
  checkb "starts closed" true (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b ~now;
  Breaker.record_failure b ~now;
  checkb "still closed below threshold" true
    (Breaker.state b = Breaker.Closed);
  Breaker.record_failure b ~now;
  checkb "open at threshold" true (Breaker.state b = Breaker.Open);
  checkb "rejects while open" false (Breaker.allow b ~now);
  checki "rejection counted" 1 (Breaker.rejected b);
  checkb "retry_at is cooldown away" true
    (Breaker.retry_at b = Time.add now (Time.ms 100.))

let test_breaker_probe_success_closes () =
  let b = Breaker.create () in
  for _ = 1 to 3 do
    Breaker.record_failure b ~now:Time.zero
  done;
  let later = Time.ms 150. in
  checkb "probe admitted" true (Breaker.allow b ~now:later);
  checkb "half-open during probe" true (Breaker.state b = Breaker.Half_open);
  checkb "probe budget spent" false (Breaker.allow b ~now:later);
  Breaker.record_success b ~now:later;
  checkb "success closes" true (Breaker.state b = Breaker.Closed);
  checkb "admits again" true (Breaker.allow b ~now:later);
  checki "closed -> open -> half-open -> closed" 3 (Breaker.transitions b);
  checkb "degraded time covers the open interval" true
    (Time.compare (Breaker.degraded b ~now:later) Time.zero > 0)

let test_breaker_probe_failure_reopens () =
  let b = Breaker.create () in
  for _ = 1 to 3 do
    Breaker.record_failure b ~now:Time.zero
  done;
  let later = Time.ms 150. in
  checkb "probe admitted" true (Breaker.allow b ~now:later);
  Breaker.record_failure b ~now:later;
  checkb "probe failure reopens" true (Breaker.state b = Breaker.Open);
  checkb "fresh cooldown from the probe" true
    (Breaker.retry_at b = Time.add later (Time.ms 100.));
  checkb "rejects again" false (Breaker.allow b ~now:later)

let machine ?(seed = 11L) proposed =
  let config = Sea_hw.Machine.low_fidelity Sea_hw.Machine.hp_dc5750 in
  let config =
    if proposed then Sea_hw.Machine.proposed_variant config else config
  in
  Sea_hw.Machine.create ~engine:(Engine.create ~seed ()) config

(* --- every hardware path retries under an installed plan --- *)

(* Install a plan that injects exactly one transient [kind] fault, make
   the call with no policy of its own, and check that it succeeded after
   exactly one retry under the policy installed with the plan. *)
let retries_once tpm kind call =
  let plan =
    Fault.create ~kinds:[ kind ] ~max_injections:1 ~rate:1.
      (Rng.create ~seed:42L ())
  in
  Sea_tpm.Tpm.set_faults tpm (Some plan);
  let result = call () in
  let retries = Retry.retries (Option.get (Sea_tpm.Tpm.retry tpm)) in
  Sea_tpm.Tpm.set_faults tpm None;
  checki "fault injected" 1 (Fault.total plan);
  checkb "call succeeded" true (Result.is_ok result);
  checki "one retry" 1 retries

(* A resident that yields at its first 2 ms slice, leaving it suspended. *)
let suspended_resident m =
  let pal =
    Sea_core.Pal.create ~name:"resident" ~compute_time:(Time.ms 10.)
      (fun _ _ -> Ok "done")
  in
  match
    Sea_core.Backend.proposed.Sea_core.Backend.launch m ~cpu:0
      ~preemption_timer:(Time.ms 2.) pal ~input:""
  with
  | Error e -> Alcotest.fail ("launch: " ^ e)
  | Ok inst -> (
      match inst.Sea_core.Backend.run_slice ~cpu:0 () with
      | Ok `Yielded -> inst
      | Ok `Finished | Error _ -> Alcotest.fail "resident did not yield")

let test_session_retries_late_launch () =
  let m = machine false in
  retries_once (Sea_hw.Machine.tpm_exn m) Fault.Hash_abort (fun () ->
      Sea_core.Session.execute m ~cpu:0 (Sea_core.Generic.pal_gen ())
        ~input:"")

let test_slaunch_resume_retries_rebind () =
  let m = machine true in
  let inst = suspended_resident m in
  retries_once (Sea_hw.Machine.tpm_exn m) Fault.Tpm_busy (fun () ->
      inst.Sea_core.Backend.resume ~cpu:0)

let test_backend_save_state_retries_seal () =
  let m = machine true in
  let inst = suspended_resident m in
  retries_once (Sea_hw.Machine.tpm_exn m) Fault.Seal_fail (fun () ->
      inst.Sea_core.Backend.save_state ~cpu:0 ~tag:"resident-state")

let test_vtpm_checkpoint_retries_seal () =
  let tpm = Sea_hw.Machine.tpm_exn (machine false) in
  match Sea_vtpm.Vtpm.create ~tpm ~instances:1 () with
  | Error e -> Alcotest.fail ("vtpm: " ^ e)
  | Ok v ->
      retries_once tpm Fault.Seal_fail (fun () ->
          Sea_vtpm.Vtpm.checkpoint (Sea_vtpm.Vtpm.instance v 0))

let test_transport_retries_busy () =
  let tpm = Sea_hw.Machine.tpm_exn (machine false) in
  match Sea_tpm.Transport.establish tpm ~client_entropy:"retry" with
  | Error e -> Alcotest.fail ("transport: " ^ e)
  | Ok s ->
      retries_once tpm Fault.Tpm_busy (fun () ->
          Sea_tpm.Transport.execute tpm s (Sea_tpm.Transport.Get_random 16))

(* --- serving under injected faults --- *)

let serve ?seed ?faults ?(depth = 16) ~mode ~duration tenants =
  let proposed_hw =
    match mode with
    | Server.Proposed -> true
    | Server.Current | Server.Sfi -> false
  in
  let m = machine ?seed proposed_hw in
  let cfg = Server.config ~queue_depth:depth ?faults ~mode ~duration () in
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

let test_faulty_run_invariant_holds () =
  let r =
    serve ~mode:Server.Proposed ~duration:(Time.s 2.)
      ~faults:(Fault.spec ~seed:7 ~rate:0.1 ())
      (Workload.preset ~tenants:3 (`Open 12.))
  in
  checkb "rows consistent under faults" true (row_consistent r);
  checkb "robustness machinery engaged" true (Report.robustness_active r);
  checkb "still completing work" true
    (r.Report.aggregate.Report.completed > 0)

let test_breaker_sheds_persistent_failures () =
  (* Every kv-update request seals; with seal writes failing at rate 1
     the retries exhaust on each dispatch, so after the failure
     threshold the tenant's breaker must shed instead of burning core
     time on doomed sessions. *)
  let tenants =
    [
      Workload.tenant ~name:"kv"
        ~mix:[ (Workload.Kv_update, 1) ]
        (Workload.Open_loop { rate_per_s = 4. });
    ]
  in
  let r =
    serve ~mode:Server.Current ~duration:(Time.s 4.)
      ~faults:(Fault.spec ~kinds:[ Fault.Seal_fail ] ~rate:1. ())
      tenants
  in
  checkb "failures recorded" true (r.Report.aggregate.Report.failed > 0);
  checkb "breaker shed arrivals" true (r.Report.breaker_shed > 0);
  checkb "breaker cycled" true (r.Report.breaker_transitions > 0);
  checkb "degraded time recorded" true
    (Time.compare r.Report.degraded Time.zero > 0);
  checkb "failures bounded by the breaker" true
    (r.Report.aggregate.Report.failed
    < r.Report.aggregate.Report.failed + r.Report.breaker_shed);
  checkb "rows consistent" true (row_consistent r)

let test_resident_recovery () =
  (* TPM-busy faults at rate 1 break every resume (sePCR_Rebind stays
     busy past the retry budget) while cold starts survive; each warm
     request must quarantine the resident and recover via a fresh
     launch instead of failing. *)
  let tenants =
    [
      Workload.tenant ~name:"t"
        ~mix:[ (Workload.Ssh_auth, 1) ]
        (Workload.Open_loop { rate_per_s = 8. });
    ]
  in
  let r =
    serve ~mode:Server.Proposed ~duration:(Time.s 1.)
      ~faults:(Fault.spec ~kinds:[ Fault.Tpm_busy ] ~rate:1. ())
      tenants
  in
  checkb "recoveries happened" true (r.Report.recoveries > 0);
  checkb "recovered requests completed" true
    (r.Report.aggregate.Report.completed > 0);
  checkb "rows consistent" true (row_consistent r)

let test_rate_zero_spec_is_invisible () =
  (* A rate-0 plan must not perturb the run at all: same render as no
     plan, and no robustness lines. *)
  let go faults =
    serve ~seed:9L ~mode:Server.Proposed ~duration:(Time.s 1.) ?faults
      (Workload.preset ~tenants:3 (`Open 12.))
  in
  let bare = go None in
  let zero = go (Some (Fault.spec ~rate:0. ())) in
  checkb "no robustness lines" true (not (Report.robustness_active zero));
  Alcotest.(check string)
    "rate-0 plan renders identically to no plan" (Report.render bare)
    (Report.render zero)

let fault_seeds () =
  match Sys.getenv_opt "SEA_FAULT_SEEDS" with
  | None | Some "" -> [ 1; 2; 3 ]
  | Some s ->
      String.split_on_char ' ' s
      |> List.concat_map (String.split_on_char ',')
      |> List.filter_map (fun tok -> int_of_string_opt (String.trim tok))

let test_fault_seed_determinism () =
  (* The soak axis for CI: for every seed in SEA_FAULT_SEEDS, a faulty
     run must replay bit-identically and keep the accounting invariant. *)
  List.iter
    (fun seed ->
      let go () =
        serve ~seed:13L ~mode:Server.Proposed ~duration:(Time.s 1.)
          ~faults:(Fault.spec ~seed ~rate:0.05 ())
          (Workload.preset ~tenants:3 (`Open 12.))
      in
      let r1 = go () and r2 = go () in
      checkb (Printf.sprintf "seed %d rows consistent" seed) true
        (row_consistent r1);
      Alcotest.(check string)
        (Printf.sprintf "seed %d replays bit-identically" seed)
        (Report.render r1) (Report.render r2))
    (fault_seeds ())

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
          Alcotest.test_case "kind names round-trip" `Quick
            test_kind_names_round_trip;
          Alcotest.test_case "transient tagging" `Quick test_transient_tagging;
          Alcotest.test_case "rate extremes" `Quick test_fires_rate_extremes;
          Alcotest.test_case "disabled kinds" `Quick
            test_disabled_kind_never_fires;
          Alcotest.test_case "max injections cap" `Quick
            test_max_injections_caps;
          Alcotest.test_case "plan determinism" `Quick test_plan_determinism;
          Alcotest.test_case "stall accumulates" `Quick test_stall_accumulates;
        ] );
      ( "retry",
        [
          Alcotest.test_case "transient then success" `Quick
            test_retry_transient_then_success;
          Alcotest.test_case "permanent not retried" `Quick
            test_retry_permanent_not_retried;
          Alcotest.test_case "exhaustion" `Quick test_retry_exhaustion;
          Alcotest.test_case "no policy runs once" `Quick
            test_retry_without_policy_runs_once;
          Alcotest.test_case "default policies independent" `Quick
            test_default_policies_are_independent;
        ] );
      ( "installed plan",
        [
          Alcotest.test_case "session late launch" `Quick
            test_session_retries_late_launch;
          Alcotest.test_case "slaunch resume" `Quick
            test_slaunch_resume_retries_rebind;
          Alcotest.test_case "backend save_state" `Quick
            test_backend_save_state_retries_seal;
          Alcotest.test_case "vtpm checkpoint" `Quick
            test_vtpm_checkpoint_retries_seal;
          Alcotest.test_case "transport execute" `Quick
            test_transport_retries_busy;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "opens at threshold" `Quick
            test_breaker_opens_at_threshold;
          Alcotest.test_case "probe success closes" `Quick
            test_breaker_probe_success_closes;
          Alcotest.test_case "probe failure reopens" `Quick
            test_breaker_probe_failure_reopens;
        ] );
      ( "serving",
        [
          Alcotest.test_case "invariant under faults" `Quick
            test_faulty_run_invariant_holds;
          Alcotest.test_case "breaker sheds persistent failures" `Quick
            test_breaker_sheds_persistent_failures;
          Alcotest.test_case "resident recovery" `Quick test_resident_recovery;
          Alcotest.test_case "rate-0 plan invisible" `Quick
            test_rate_zero_spec_is_invisible;
          Alcotest.test_case "fault-seed determinism" `Quick
            test_fault_seed_determinism;
        ] );
    ]
