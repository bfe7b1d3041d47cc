(* Backend-interface tests: CLI mode parsing, the three backend values,
   the Exec one-shot driver honouring preemption (the "unsliced session
   unexpectedly yielded" regression), SFI sessions (lifecycle, identity-
   bound sealed storage across sessions, boot-chain quotes, allocation
   balance with an unbounded resident pool), and SFI-mode serving
   (no sePCR scarcity: zero evictions, zero waits). *)

open Sea_sim
open Sea_hw
open Sea_core

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let ok = function Ok x -> x | Error e -> Alcotest.fail e
let expect_error = function Error _ -> () | Ok _ -> Alcotest.fail "expected error"

let dc5750 ?(seed = 3L) () =
  Machine.create
    ~engine:(Engine.create ~seed ())
    (Machine.low_fidelity Machine.hp_dc5750)

let proposed ?(seed = 3L) () =
  Machine.create
    ~engine:(Engine.create ~seed ())
    (Machine.low_fidelity (Machine.proposed_variant Machine.hp_dc5750))

let tyan () = Machine.create Machine.tyan_n3600r

let worker ?(name = "worker") ?(compute = Time.ms 20.) () =
  Pal.create ~name ~code_size:8192 ~compute_time:compute (fun services _ ->
      services.Pal.seal "worker state")

(* --- mode names --- *)

let test_mode_names () =
  checkb "three modes" true
    (List.map Backend.cli_name Backend.all = [ "current"; "proposed"; "sfi" ]);
  List.iter
    (fun kind ->
      checkb (Backend.cli_name kind) true
        (Backend.of_cli_name (Backend.cli_name kind) = Some kind))
    Backend.all;
  checkb "case-insensitive" true (Backend.of_cli_name "SFI" = Some Backend.Sfi);
  checkb "trimmed" true
    (Backend.of_cli_name " proposed " = Some Backend.Proposed);
  checkb "unknown is None" true (Backend.of_cli_name "bogus" = None);
  (* The serve layer re-exports the same constructors and spellings. *)
  checkb "server re-export" true
    (Sea_serve.Server.mode_of_name "sfi" = Some Sea_serve.Server.Sfi);
  checkb "server mode list" true
    (Sea_serve.Server.mode_names = [ "current"; "proposed"; "sfi" ])

let test_backend_of_kind () =
  List.iter
    (fun kind -> checkb "of_kind roundtrip" true ((Backend.of_kind kind).Backend.kind = kind))
    Backend.all;
  checkb "current is not resident" false Backend.current.Backend.resident;
  checkb "proposed is resident" true Backend.proposed.Backend.resident;
  checkb "sfi is resident" true Backend.sfi.Backend.resident;
  (* Hardware backends charge nothing themselves: their costs come out of
     the simulated TPM/bus/instruction timings. *)
  List.iter
    (fun op ->
      checkb "hw extra_cost zero" true
        (Time.compare (Backend.current.Backend.extra_cost op) Time.zero = 0
        && Time.compare (Backend.proposed.Backend.extra_cost op) Time.zero = 0))
    [ Backend.Op_launch; Backend.Op_resume; Backend.Op_yield;
      Backend.Op_release; Backend.Op_quote; Backend.Op_seal; Backend.Op_unseal ];
  checkb "sfi transitions cost time" true
    (Time.compare (Backend.sfi.Backend.extra_cost Backend.Op_resume) Time.zero > 0);
  checkb "sfi pool unbounded" true
    (Backend.sfi.Backend.pool (dc5750 ()) = max_int);
  checkb "current hosts no residents" true
    (Backend.current.Backend.pool (dc5750 ()) = 0)

(* --- Exec one-shot driver --- *)

let test_exec_architecture () =
  checkb "plain machine is current" true
    (Exec.architecture (dc5750 ()) = Backend.Current);
  checkb "proposed variant is proposed" true
    (Exec.architecture (proposed ()) = Backend.Proposed)

let test_exec_preemption_regression () =
  (* Regression: a preemption timer shorter than the PAL's compute used
     to make Exec.run fail with "unsliced session unexpectedly yielded".
     The driver must keep resuming until the PAL finishes. *)
  let m = proposed () in
  let out =
    ok
      (Exec.run m ~cpu:0 ~preemption_timer:(Time.ms 5.)
         (worker ~compute:(Time.ms 18.) ())
         ~input:"")
  in
  checkb "yielding one-shot completes" true (String.length out > 0)

let test_exec_explicit_backend () =
  (* An explicit backend overrides the machine-derived default: SFI runs
     on a plain machine, preemption timer and all. *)
  let m = dc5750 () in
  let out =
    ok
      (Exec.run ~backend:Backend.sfi m ~cpu:0 ~preemption_timer:(Time.ms 5.)
         (worker ~compute:(Time.ms 18.) ())
         ~input:"")
  in
  checkb "sfi one-shot completes" true (String.length out > 0);
  checki "pages returned" 0 (Hashtbl.length m.Machine.allocated)

(* --- Sfi_session --- *)

let test_sfi_lifecycle () =
  let m = dc5750 () in
  let s = ok (Sfi_session.start m ~cpu:0 (worker ()) ~input:"") in
  checkb "executing" true (Sfi_session.state s = Lifecycle.Execute);
  checkb "chain rooted at loader measurement" true
    (Sfi_session.chain s = Sfi_session.expected_chain (worker ()));
  (match ok (Sfi_session.run_slice s ~cpu:0 ()) with
  | `Finished -> ()
  | `Yielded -> Alcotest.fail "should finish in one unbounded slice");
  checkb "done" true (Sfi_session.state s = Lifecycle.Done);
  checkb "output available" true (Sfi_session.output s <> None);
  Sfi_session.release s;
  checki "pages returned" 0 (Hashtbl.length m.Machine.allocated)

let test_sfi_preemption () =
  let m = dc5750 () in
  let s =
    ok
      (Sfi_session.start m ~cpu:0 ~preemption_timer:(Time.ms 5.)
         (worker ~compute:(Time.ms 18.) ())
         ~input:"")
  in
  let yields = ref 0 in
  let rec drive cpu =
    match ok (Sfi_session.run_slice s ~cpu ()) with
    | `Finished -> ()
    | `Yielded ->
        incr yields;
        checkb "suspended" true (Sfi_session.state s = Lifecycle.Suspend);
        let next = 1 - cpu in
        ok (Sfi_session.resume s ~cpu:next);
        drive next
  in
  drive 0;
  checki "18 ms / 5 ms slices = 3 yields" 3 !yields;
  Sfi_session.release s

let test_sfi_runs_without_tpm () =
  (* The launch/yield/resume path never touches late-launch hardware or
     the TPM, so SFI runs on the TPM-less Tyan — but a quote must fail:
     there is no boot-chain root to quote. *)
  let m = tyan () in
  let s = ok (Sfi_session.start m ~cpu:0 (worker ()) ~input:"") in
  ignore (ok (Sfi_session.run_slice s ~cpu:0 ()));
  expect_error (Sfi_session.quote s ~nonce:"n");
  Sfi_session.release s

let test_sfi_quote_after_done () =
  let m = dc5750 () in
  let s = ok (Sfi_session.start m ~cpu:0 (worker ()) ~input:"") in
  expect_error (Sfi_session.quote s ~nonce:"n");
  ignore (ok (Sfi_session.run_slice s ~cpu:0 ()));
  let q, t = ok (Sfi_session.quote s ~nonce:"n") in
  ignore q;
  checkb "quote costs virtual time" true (Time.compare t Time.zero > 0);
  Sfi_session.release s

let keeper round =
  Pal.create ~name:"sfi-keeper" ~code_size:8192 (fun services input ->
      if round = 0 then services.Pal.seal "round-zero-state"
      else
        match services.Pal.unseal input with
        | Ok state -> Ok ("recovered:" ^ state)
        | Error e -> Error e)

let test_sfi_sealed_state_across_sessions () =
  (* The binding is the loader-rooted identity, not the session: a blob
     sealed by one SFI session unseals in a later session of the same
     code on the same machine. *)
  let m = dc5750 () in
  let s0 = ok (Sfi_session.start m ~cpu:0 (keeper 0) ~input:"") in
  ignore (ok (Sfi_session.run_slice s0 ~cpu:0 ()));
  let blob = Option.get (Sfi_session.output s0) in
  Sfi_session.release s0;
  let s1 = ok (Sfi_session.start m ~cpu:1 (keeper 1) ~input:blob) in
  ignore (ok (Sfi_session.run_slice s1 ~cpu:1 ()));
  checkb "state recovered" true
    (Sfi_session.output s1 = Some "recovered:round-zero-state");
  Sfi_session.release s1

let test_sfi_seal_binds_identity () =
  (* A different code identity must not unseal the blob. *)
  let m = dc5750 () in
  let s0 = ok (Sfi_session.start m ~cpu:0 (keeper 0) ~input:"") in
  ignore (ok (Sfi_session.run_slice s0 ~cpu:0 ()));
  let blob = Option.get (Sfi_session.output s0) in
  Sfi_session.release s0;
  let thief =
    Pal.create ~name:"sfi-thief" ~code_size:8192 (fun services input ->
        services.Pal.unseal input)
  in
  let s1 = ok (Sfi_session.start m ~cpu:0 thief ~input:blob) in
  (match Sfi_session.run_slice s1 ~cpu:0 () with
  | Error e ->
      checkb "binding mismatch reported" true
        (String.length e > 0
        && Sfi_session.output s1 = None)
  | Ok _ -> Alcotest.fail "wrong identity unsealed the blob");
  Sfi_session.release s1

let test_sfi_many_residents_balance () =
  (* No sePCR bank: any number of SFI PALs stay resident at once, and
     every launch's pages come back on release. *)
  let m = dc5750 () in
  let residents =
    List.init 10 (fun i ->
        ok
          (Backend.sfi.Backend.launch m ~cpu:0
             ~preemption_timer:(Time.ms 5.)
             (worker ~name:(Printf.sprintf "resident-%d" i) ())
             ~input:""))
  in
  checkb "all simultaneously allocated" true
    (Hashtbl.length m.Machine.allocated > 0);
  List.iter
    (fun (inst : Backend.instance) ->
      let rec drive () =
        match ok (inst.Backend.run_slice ~cpu:0 ()) with
        | `Finished -> ()
        | `Yielded ->
            ok (inst.Backend.resume ~cpu:0);
            drive ()
      in
      drive ();
      checkb "output present" true (inst.Backend.output () <> None);
      inst.Backend.release ())
    residents;
  checki "allocation balanced after release" 0
    (Hashtbl.length m.Machine.allocated)

let test_backend_save_load_state () =
  (* The serving layer's eviction/migration path, uniformly: seal a
     resident's durable state out through one instance, hand it to a
     fresh instance of the same code. *)
  let m = dc5750 () in
  let inst =
    ok (Backend.sfi.Backend.launch m ~cpu:0 (keeper 0) ~input:"")
  in
  let rec drive () =
    match ok (inst.Backend.run_slice ~cpu:0 ()) with
    | `Finished -> ()
    | `Yielded ->
        ok (inst.Backend.resume ~cpu:0);
        drive ()
  in
  drive ();
  let saved = ok (inst.Backend.save_state ~cpu:0 ~tag:"durable") in
  checkb "sfi always has a binding to save under" true (saved <> None);
  let blob = Option.get saved in
  inst.Backend.release ();
  let inst2 =
    ok (Backend.sfi.Backend.launch m ~cpu:0 (keeper 0) ~input:"")
  in
  checks "unseals the saved state" "durable"
    (ok (inst2.Backend.load_state ~cpu:0 blob));
  inst2.Backend.release ();
  checki "balanced" 0 (Hashtbl.length m.Machine.allocated)

(* --- serving under SFI --- *)

let serve_sfi ?(seed = 11L) ?(cores = 2) ~duration rate =
  let config = Machine.low_fidelity Machine.hp_dc5750 in
  let config = { config with Machine.cpu_count = cores } in
  let m = Machine.create ~engine:(Engine.create ~seed ()) config in
  let cfg = Sea_serve.Server.config ~mode:Sea_serve.Server.Sfi ~duration () in
  match Sea_serve.Server.run m cfg (Sea_serve.Workload.preset ~tenants:3 (`Open rate)) with
  | Ok r -> r
  | Error e -> Alcotest.fail ("serve: " ^ e)

let test_sfi_serve_no_scarcity () =
  let r = serve_sfi ~duration:(Time.s 2.) 24. in
  let agg = r.Sea_serve.Report.aggregate in
  checkb "completes requests" true (agg.Sea_serve.Report.completed > 0);
  checki "no evictions without an sePCR bank" 0 r.Sea_serve.Report.evictions;
  checki "no sePCR waits" 0 r.Sea_serve.Report.sepcr_waits;
  checkb "cold starts bounded by (tenant, kind) pairs" true
    (r.Sea_serve.Report.cold_starts <= 3 * List.length Sea_serve.Workload.kinds);
  checkb "rows consistent" true
    (List.for_all
       (fun (row : Sea_serve.Report.row) ->
         row.Sea_serve.Report.offered
         = row.Sea_serve.Report.completed + row.Sea_serve.Report.shed
           + row.Sea_serve.Report.timed_out + row.Sea_serve.Report.failed)
       (agg :: r.Sea_serve.Report.rows))

let test_sfi_serve_deterministic () =
  let a = serve_sfi ~duration:(Time.s 1.) 16. in
  let b = serve_sfi ~duration:(Time.s 1.) 16. in
  checks "same seed, byte-identical render" (Sea_serve.Report.render a)
    (Sea_serve.Report.render b);
  let c = serve_sfi ~seed:12L ~duration:(Time.s 1.) 16. in
  checkb "seed-sensitive" true
    (Sea_serve.Report.render a <> Sea_serve.Report.render c)

let () =
  Alcotest.run "backend"
    [
      ( "modes",
        [
          Alcotest.test_case "cli names" `Quick test_mode_names;
          Alcotest.test_case "of_kind and cost hooks" `Quick
            test_backend_of_kind;
        ] );
      ( "exec",
        [
          Alcotest.test_case "architecture" `Quick test_exec_architecture;
          Alcotest.test_case "preempted one-shot completes (regression)"
            `Quick test_exec_preemption_regression;
          Alcotest.test_case "explicit sfi backend" `Quick
            test_exec_explicit_backend;
        ] );
      ( "sfi-session",
        [
          Alcotest.test_case "lifecycle and chain" `Quick test_sfi_lifecycle;
          Alcotest.test_case "preemption" `Quick test_sfi_preemption;
          Alcotest.test_case "runs without a TPM" `Quick
            test_sfi_runs_without_tpm;
          Alcotest.test_case "quote only after done" `Quick
            test_sfi_quote_after_done;
          Alcotest.test_case "sealed state across sessions" `Quick
            test_sfi_sealed_state_across_sessions;
          Alcotest.test_case "seal binds code identity" `Quick
            test_sfi_seal_binds_identity;
          Alcotest.test_case "unbounded residents, balanced pages" `Quick
            test_sfi_many_residents_balance;
          Alcotest.test_case "save/load state through the instance" `Quick
            test_backend_save_load_state;
        ] );
      ( "sfi-serve",
        [
          Alcotest.test_case "no evictions, no waits" `Quick
            test_sfi_serve_no_scarcity;
          Alcotest.test_case "deterministic" `Quick
            test_sfi_serve_deterministic;
        ] );
    ]
