(* Core SEA tests: PAL construction and measurement, the Figure 6
   lifecycle state machine (with a qcheck exploration of illegal paths),
   current-hardware sessions (Figure 2 anchors, sealed state across
   sessions, exit-marker semantics, cleanup on failure), proposed-hardware
   sessions (slicing, preemption, kill, sePCR attestation), the generic
   Gen/Use PALs, and the external verifier. *)

open Sea_sim
open Sea_hw
open Sea_core

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let ok = function Ok x -> x | Error e -> Alcotest.fail e
let expect_error = function Error _ -> () | Ok _ -> Alcotest.fail "expected error"

let dc5750 () = Machine.create (Machine.low_fidelity Machine.hp_dc5750)
let tep () = Machine.create (Machine.low_fidelity Machine.intel_tep)
let proposed () =
  Machine.create (Machine.low_fidelity (Machine.proposed_variant Machine.hp_dc5750))

(* --- Pal --- *)

let test_pal_measurement_stability () =
  let p1 = Pal.create ~name:"x" (fun _ _ -> Ok "") in
  let p2 = Pal.create ~name:"x" (fun _ _ -> Ok "ignored") in
  checks "same name+size = same measurement" (Pal.measurement p1) (Pal.measurement p2);
  let p3 = Pal.create ~name:"y" (fun _ _ -> Ok "") in
  checkb "different name differs" true (Pal.measurement p1 <> Pal.measurement p3);
  let p4 = Pal.create ~name:"x" ~version:2 (fun _ _ -> Ok "") in
  checkb "version bump changes measurement" true (Pal.measurement p1 <> Pal.measurement p4)

let test_pal_size_limits () =
  Alcotest.check_raises "zero size"
    (Invalid_argument "Pal.create: code size must be in (0, 64 KB]") (fun () ->
      ignore (Pal.create ~name:"z" ~code_size:0 (fun _ _ -> Ok "")));
  Alcotest.check_raises "too large"
    (Invalid_argument "Pal.create: code size must be in (0, 64 KB]") (fun () ->
      ignore (Pal.create ~name:"z" ~code_size:(65 * 1024) (fun _ _ -> Ok "")));
  let p = Pal.create ~name:"p" ~code_size:5000 (fun _ _ -> Ok "") in
  checki "code size" 5000 (Pal.code_size p);
  checki "pages" 2 (Pal.pages_needed p);
  let c = Pal.create ~name:"c" ~code_size:16 ~code:"abc" (fun _ _ -> Ok "") in
  checks "given code zero-padded" ("abc" ^ String.make 13 '\000') c.Pal.code;
  checks "measured as padded" (Sea_crypto.Sha1.digest c.Pal.code) (Pal.measurement c);
  Alcotest.check_raises "code longer than code_size"
    (Invalid_argument "Pal.create: code longer than code_size") (fun () ->
      ignore (Pal.create ~name:"c" ~code_size:2 ~code:"abc" (fun _ _ -> Ok "")))

(* --- Lifecycle --- *)

let test_lifecycle_legal_paths () =
  let open Lifecycle in
  let path s evs = List.fold_left (fun s e -> ok (step s e)) s evs in
  checkb "launch-run-exit" true
    (path Start [ Ev_slaunch_first; Ev_protected; Ev_measured; Ev_sfree ] = Done);
  checkb "with suspensions" true
    (path Start
       [
         Ev_slaunch_first; Ev_protected; Ev_measured; Ev_yield; Ev_slaunch_resume;
         Ev_yield; Ev_slaunch_resume; Ev_sfree;
       ]
    = Done);
  checkb "killed while suspended" true
    (path Start [ Ev_slaunch_first; Ev_protected; Ev_measured; Ev_yield; Ev_skill ] = Done);
  checkb "terminal" true (is_terminal Done) ;
  checkb "not terminal" false (is_terminal Execute)

let test_lifecycle_illegal_transitions () =
  let open Lifecycle in
  expect_error (step Start Ev_sfree);
  expect_error (step Start Ev_slaunch_resume);
  expect_error (step Execute Ev_slaunch_first);
  expect_error (step Execute Ev_skill);
  expect_error (step Suspend Ev_sfree);
  expect_error (step Done Ev_slaunch_resume)

let prop_lifecycle_done_is_absorbing =
  let open Lifecycle in
  let arb_event =
    QCheck.oneofl
      [ Ev_slaunch_first; Ev_protected; Ev_measured; Ev_slaunch_resume; Ev_yield;
        Ev_sfree; Ev_skill ]
  in
  QCheck.Test.make ~name:"no event sequence escapes Done" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 20) arb_event) (fun evs ->
      let final =
        List.fold_left
          (fun s e -> match step s e with Ok s' -> s' | Error _ -> s)
          Start evs
      in
      (* Reaching Done is fine; the property is that once there, nothing
         moves you out. *)
      if final = Done then
        List.for_all (fun e -> Result.is_error (step Done e))
          [ Ev_slaunch_first; Ev_protected; Ev_measured; Ev_slaunch_resume; Ev_yield;
            Ev_sfree; Ev_skill ]
      else true)

(* --- Session (current hardware) --- *)

let test_session_runs_behavior () =
  let m = dc5750 () in
  let pal =
    Pal.create ~name:"echo" (fun _services input -> Ok ("echo:" ^ input))
  in
  let outcome = ok (Session.execute m ~cpu:0 pal ~input:"hi") in
  checks "output" "echo:hi" outcome.Session.output;
  checks "measurement" (Pal.measurement pal) outcome.Session.measurement;
  checki "identity PCR on AMD" 17 outcome.Session.identity_pcr

let test_session_intel_uses_pcr18 () =
  let m = tep () in
  let pal = Pal.create ~name:"intel-echo" (fun _ i -> Ok i) in
  let outcome = ok (Session.execute m ~cpu:0 pal ~input:"x") in
  checki "identity PCR on Intel" 18 outcome.Session.identity_pcr

let test_session_restores_platform () =
  let m = dc5750 () in
  let pal = Pal.create ~name:"restore" (fun _ _ -> Ok "") in
  ignore (ok (Session.execute m ~cpu:0 pal ~input:""));
  Array.iter
    (fun c -> checkb "cores back to legacy" true (c.Cpu.status = Cpu.Legacy))
    m.Machine.cpus;
  checkb "interrupts back on" true (Machine.cpu m 0).Cpu.interrupts_enabled;
  (* Pages were freed: we can immediately run another 64 KB session. *)
  ignore (ok (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:""))

let test_session_behavior_failure_cleans_up () =
  let m = dc5750 () in
  let pal = Pal.create ~name:"failing" (fun _ _ -> Error "boom") in
  (match Session.execute m ~cpu:0 pal ~input:"" with
  | Error e -> checkb "error propagated" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "expected failure");
  Array.iter
    (fun c -> checkb "cores recovered" true (c.Cpu.status = Cpu.Legacy))
    m.Machine.cpus

let test_session_no_tpm_fails () =
  let m = Machine.create Machine.tyan_n3600r in
  expect_error (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"")

let test_session_figure2_gen_anchor () =
  let m = dc5750 () in
  let outcome = ok (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"") in
  let b = outcome.Session.breakdown in
  checkb "SKINIT ~177.5 ms" true (abs_float (Time.to_ms b.Session.late_launch -. 177.5) < 3.5);
  checkb "Seal ~20 ms" true (abs_float (Time.to_ms b.Session.seal -. 20.0) < 2.);
  checkb "no unseal in Gen" true (b.Session.unseal = Time.zero);
  let total = Time.to_ms (Session.overhead b) in
  checkb (Printf.sprintf "Gen overhead ~200 ms (got %.1f)" total) true
    (total > 190. && total < 215.)

let test_session_figure2_use_anchor () =
  let m = dc5750 () in
  let gen = ok (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"") in
  let use =
    ok (Session.execute m ~cpu:0 (Generic.pal_use ()) ~input:gen.Session.output)
  in
  let b = use.Session.breakdown in
  checkb "Unseal ~905 ms" true (abs_float (Time.to_ms b.Session.unseal -. 905.) < 25.);
  let total = Time.to_ms (Session.overhead b) in
  checkb (Printf.sprintf "Use overhead > 1 s (got %.1f)" total) true
    (total > 1000. && total < 1200.)

let test_session_state_across_sessions () =
  (* The distributed-computing pattern: seal, unseal+reseal, repeatedly. *)
  let m = dc5750 () in
  let blob0 = (ok (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"")).Session.output in
  let blob1 =
    (ok (Session.execute m ~cpu:0 (Generic.pal_use ()) ~input:blob0)).Session.output
  in
  let blob2 =
    (ok (Session.execute m ~cpu:0 (Generic.pal_use ()) ~input:blob1)).Session.output
  in
  checkb "blobs evolve" true (blob0 <> blob1 && blob1 <> blob2)

let test_session_exit_marker_blocks_os_unseal () =
  let m = dc5750 () in
  let blob = (ok (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"")).Session.output in
  (* After the session the exit marker is in PCR 17: the OS cannot unseal. *)
  let tpm = Machine.tpm_exn m in
  (match Sea_tpm.Tpm.unseal tpm ~caller:Sea_tpm.Tpm.Software blob with
  | Error "PCR policy mismatch" -> ()
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)
  | Ok _ -> Alcotest.fail "OS unsealed PAL state!");
  checks "PCR17 = identity + exit marker"
    (Session.expected_identity_after_exit m (Generic.pal_gen ()))
    (Sea_tpm.Tpm.pcr_read tpm 17)

let test_session_wrong_pal_cannot_unseal () =
  let m = dc5750 () in
  let blob = (ok (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"")).Session.output in
  (* A different PAL (different measurement) tries to unseal the blob. *)
  let thief =
    Pal.create ~name:"thief" ~code_size:(64 * 1024) (fun services input ->
        match services.Pal.unseal input with
        | Ok secret -> Ok ("stolen:" ^ secret)
        | Error e -> Error e)
  in
  (match Session.execute m ~cpu:0 thief ~input:blob with
  | Error e -> checkb "unseal denied" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "thief PAL unsealed foreign state")

let test_session_quote_and_verify () =
  let m = dc5750 () in
  let pal = Generic.pal_gen () in
  ignore (ok (Session.execute m ~cpu:0 pal ~input:""));
  let nonce = "verifier-nonce-1" in
  let q, d = ok (Session.quote m ~nonce) in
  checkb "quote ~953 ms on Broadcom" true (abs_float (Time.to_ms d -. 953.) < 20.);
  let ev = Attestation.gather m q in
  ok
    (Attestation.verify ~ca:(Sea_tpm.Tpm.privacy_ca_public ()) ~nonce
       (Attestation.expect_session_exit m pal) ev);
  (* Wrong expectation (different PAL) must fail. *)
  let other = Pal.create ~name:"other" (fun _ _ -> Ok "") in
  expect_error
    (Attestation.verify ~ca:(Sea_tpm.Tpm.privacy_ca_public ()) ~nonce
       (Attestation.expect_session_exit m other) ev);
  (* Stale nonce must fail. *)
  expect_error
    (Attestation.verify ~ca:(Sea_tpm.Tpm.privacy_ca_public ()) ~nonce:"old"
       (Attestation.expect_session_exit m pal) ev)


let test_session_breakdown_accounting () =
  (* The breakdown components must tile the total exactly. *)
  let m = dc5750 () in
  let check_outcome o =
    let b = o.Session.breakdown in
    let sum =
      Time.add b.Session.late_launch
        (Time.add b.Session.seal
           (Time.add b.Session.unseal (Time.add b.Session.compute b.Session.other)))
    in
    checkb "components tile the total" true (Time.compare sum b.Session.total = 0)
  in
  let gen = ok (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"") in
  check_outcome gen;
  check_outcome (ok (Session.execute m ~cpu:0 (Generic.pal_use ()) ~input:gen.Session.output))

(* --- Slaunch_session (proposed hardware) --- *)

let worker ?(compute = Time.ms 20.) () =
  Pal.create ~name:"worker" ~code_size:8192 ~compute_time:compute (fun services _ ->
      services.Pal.seal "worker state")

let test_slaunch_session_single_slice () =
  let m = proposed () in
  let s = ok (Slaunch_session.start m ~cpu:0 (worker ()) ~input:"") in
  checkb "executing" true (Slaunch_session.state s = Lifecycle.Execute);
  (match ok (Slaunch_session.run_slice s ~cpu:0 ()) with
  | `Finished -> ()
  | `Yielded -> Alcotest.fail "should finish in one unbounded slice");
  checkb "done" true (Slaunch_session.state s = Lifecycle.Done);
  checkb "output available" true (Slaunch_session.output s <> None);
  Slaunch_session.release s

let test_slaunch_session_preemption () =
  let m = proposed () in
  let s =
    ok
      (Slaunch_session.start m ~cpu:0 ~preemption_timer:(Time.ms 5.)
         (worker ~compute:(Time.ms 18.) ())
         ~input:"")
  in
  let yields = ref 0 in
  let rec drive cpu =
    match ok (Slaunch_session.run_slice s ~cpu ()) with
    | `Finished -> ()
    | `Yielded ->
        incr yields;
        checkb "suspended" true (Slaunch_session.state s = Lifecycle.Suspend);
        (* Resume on alternating CPUs: §5.3.1 allows migration. *)
        let next = 1 - cpu in
        ok (Slaunch_session.resume s ~cpu:next);
        drive next
  in
  drive 0;
  checki "18 ms / 5 ms slices = 3 yields" 3 !yields;
  Slaunch_session.release s

let test_slaunch_session_kill () =
  let m = proposed () in
  let s =
    ok
      (Slaunch_session.start m ~cpu:0 ~preemption_timer:(Time.ms 1.)
         (worker ~compute:(Time.ms 10.) ())
         ~input:"")
  in
  (match ok (Slaunch_session.run_slice s ~cpu:0 ()) with
  | `Yielded -> ()
  | `Finished -> Alcotest.fail "should have been preempted");
  checkb "kill works on suspended PAL" true (Slaunch_session.kill s = Ok ());
  checkb "done after kill" true (Slaunch_session.state s = Lifecycle.Done);
  checkb "no output from killed PAL" true (Slaunch_session.output s = None);
  Slaunch_session.release s

let test_slaunch_session_kill_requires_suspend () =
  let m = proposed () in
  let s = ok (Slaunch_session.start m ~cpu:0 (worker ()) ~input:"") in
  expect_error (Slaunch_session.kill s);
  ignore (ok (Slaunch_session.run_slice s ~cpu:0 ()));
  Slaunch_session.release s

let test_slaunch_session_sepcr_attestation () =
  let m = proposed () in
  let pal = worker () in
  let s = ok (Slaunch_session.start m ~cpu:1 pal ~input:"") in
  ignore (ok (Slaunch_session.run_slice s ~cpu:1 ()));
  let nonce = "np" in
  let q, _ = ok (Slaunch_session.quote_after_exit s ~nonce) in
  let ev = Attestation.gather m q in
  ok
    (Attestation.verify ~ca:(Sea_tpm.Tpm.privacy_ca_public ()) ~nonce
       (Attestation.expect_slaunch_exit pal) ev);
  Slaunch_session.release s

let test_slaunch_session_sealed_state_across_instances () =
  (* A PAL seals state in one SLAUNCH session; a later instance of the
     same PAL (new SECB, new sePCR) unseals it — challenge 4 end-to-end. *)
  let m = proposed () in
  let keeper round =
    Pal.create ~name:"state-keeper" ~code_size:8192 (fun services input ->
        if round = 0 then services.Pal.seal "round-zero-state"
        else
          match services.Pal.unseal input with
          | Ok state -> Ok ("recovered:" ^ state)
          | Error e -> Error e)
  in
  let s0 = ok (Slaunch_session.start m ~cpu:0 (keeper 0) ~input:"") in
  ignore (ok (Slaunch_session.run_slice s0 ~cpu:0 ()));
  let blob = Option.get (Slaunch_session.output s0) in
  ignore (Slaunch_session.quote_after_exit s0 ~nonce:"n");
  Slaunch_session.release s0;
  let s1 = ok (Slaunch_session.start m ~cpu:1 (keeper 1) ~input:blob) in
  ignore (ok (Slaunch_session.run_slice s1 ~cpu:1 ()));
  checkb "state recovered" true
    (Slaunch_session.output s1 = Some "recovered:round-zero-state");
  Slaunch_session.release s1

let test_slaunch_session_requires_proposed_hw () =
  let m = dc5750 () in
  expect_error (Slaunch_session.start m ~cpu:0 (worker ()) ~input:"")

let test_slaunch_concurrent_pals () =
  (* Two PALs suspended/executing at once on different cores — impossible
     on current hardware, the core win of the proposal. *)
  let m = proposed () in
  let s1 =
    ok
      (Slaunch_session.start m ~cpu:0 ~preemption_timer:(Time.ms 2.)
         (worker ~compute:(Time.ms 6.) ()) ~input:"")
  in
  ignore (ok (Slaunch_session.run_slice s1 ~cpu:0 ()));
  (* s1 now suspended; start s2 while s1 is mid-flight. *)
  let s2 =
    ok
      (Slaunch_session.start m ~cpu:1 ~preemption_timer:(Time.ms 2.)
         (worker ~compute:(Time.ms 4.) ()) ~input:"")
  in
  ignore (ok (Slaunch_session.run_slice s2 ~cpu:1 ()));
  (* Interleave to completion. *)
  let rec finish s cpu =
    match ok (Slaunch_session.run_slice s ~cpu ()) with
    | `Finished -> ()
    | `Yielded ->
        ok (Slaunch_session.resume s ~cpu);
        finish s cpu
  in
  ok (Slaunch_session.resume s1 ~cpu:0);
  finish s1 0;
  ok (Slaunch_session.resume s2 ~cpu:1);
  finish s2 1;
  checkb "both done" true
    (Slaunch_session.state s1 = Lifecycle.Done && Slaunch_session.state s2 = Lifecycle.Done);
  Slaunch_session.release s1;
  Slaunch_session.release s2

(* --- Generic PALs --- *)

let test_generic_shared_identity () =
  checks "gen and use share a measurement"
    (Pal.measurement (Generic.pal_gen ()))
    (Pal.measurement (Generic.pal_use ()))

let test_generic_use_no_reseal () =
  let m = dc5750 () in
  let blob = (ok (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"")).Session.output in
  let out =
    (ok (Session.execute m ~cpu:0 (Generic.pal_use ~reseal:false ()) ~input:blob))
      .Session.output
  in
  checki "digest output" 20 (String.length out)

let () =
  Alcotest.run "core"
    [
      ( "pal",
        [
          Alcotest.test_case "measurement stability" `Quick test_pal_measurement_stability;
          Alcotest.test_case "size limits" `Quick test_pal_size_limits;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "legal paths" `Quick test_lifecycle_legal_paths;
          Alcotest.test_case "illegal transitions" `Quick test_lifecycle_illegal_transitions;
          QCheck_alcotest.to_alcotest prop_lifecycle_done_is_absorbing;
        ] );
      ( "session",
        [
          Alcotest.test_case "runs behaviour" `Quick test_session_runs_behavior;
          Alcotest.test_case "Intel identity PCR" `Quick test_session_intel_uses_pcr18;
          Alcotest.test_case "restores platform" `Quick test_session_restores_platform;
          Alcotest.test_case "failure cleanup" `Quick test_session_behavior_failure_cleans_up;
          Alcotest.test_case "requires TPM" `Quick test_session_no_tpm_fails;
          Alcotest.test_case "Figure 2: PAL Gen anchor" `Quick test_session_figure2_gen_anchor;
          Alcotest.test_case "Figure 2: PAL Use anchor" `Quick test_session_figure2_use_anchor;
          Alcotest.test_case "state across sessions" `Quick test_session_state_across_sessions;
          Alcotest.test_case "exit marker blocks OS unseal" `Quick
            test_session_exit_marker_blocks_os_unseal;
          Alcotest.test_case "wrong PAL cannot unseal" `Quick test_session_wrong_pal_cannot_unseal;
          Alcotest.test_case "quote and verify" `Quick test_session_quote_and_verify;
          Alcotest.test_case "breakdown accounting" `Quick test_session_breakdown_accounting;
        ] );
      ( "slaunch-session",
        [
          Alcotest.test_case "single slice" `Quick test_slaunch_session_single_slice;
          Alcotest.test_case "preemption slicing" `Quick test_slaunch_session_preemption;
          Alcotest.test_case "kill" `Quick test_slaunch_session_kill;
          Alcotest.test_case "kill requires suspend" `Quick test_slaunch_session_kill_requires_suspend;
          Alcotest.test_case "sePCR attestation" `Quick test_slaunch_session_sepcr_attestation;
          Alcotest.test_case "sealed state across instances" `Quick
            test_slaunch_session_sealed_state_across_instances;
          Alcotest.test_case "requires proposed hw" `Quick test_slaunch_session_requires_proposed_hw;
          Alcotest.test_case "concurrent PALs" `Quick test_slaunch_concurrent_pals;
        ] );
      ( "generic",
        [
          Alcotest.test_case "shared identity" `Quick test_generic_shared_identity;
          Alcotest.test_case "use without reseal" `Quick test_generic_use_no_reseal;
        ] );
    ]
