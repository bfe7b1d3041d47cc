(* Static-analyzer tests: the three TOCTOU gates get the verdicts the
   analyzer was built for, every shipped PALVM image is clean (and still
   runs), adversarial images trip their rules, and the launch-path gate
   refuses a bad image BEFORE the TPM measures anything. *)

open Sea_core
open Sea_palvm
open Sea_analysis

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let ok = function Ok x -> x | Error e -> Alcotest.fail e
let expect_error = function Error _ -> () | Ok _ -> Alcotest.fail "expected error"

let has_rule report rule =
  List.exists (fun f -> f.Finding.rule = rule) report.Report.findings

let find_rule report rule =
  match List.find_opt (fun f -> f.Finding.rule = rule) report.Report.findings with
  | Some f -> f
  | None -> Alcotest.fail ("finding not present: " ^ rule)

(* Null services (same shape as test_palvm's). *)
let null_services =
  {
    Pal.seal = (fun s -> Ok ("SEALED:" ^ s));
    unseal =
      (fun s ->
        if String.length s > 7 && String.sub s 0 7 = "SEALED:" then
          Ok (String.sub s 7 (String.length s - 7))
        else Error "bad blob");
    get_random = (fun n -> String.make n 'r');
    extend_measurement = (fun _ -> ());
    machine_name = "null";
  }

(* --- the three TOCTOU gates --- *)

let test_vulnerable_gate_rejected () =
  let r = Analyzer.analyze (Toctou.vulnerable_gate ()).Pal.code in
  checkb "not clean" false (Report.is_clean r);
  let f = find_rule r "toctou/input-overwrites-code" in
  checkb "error severity" true (f.Finding.severity = Finding.Error);
  (* The flagged instruction is the SVC INPUT_READ itself. *)
  checki "flagged at the INPUT_READ" 0 (f.Finding.offset mod Isa.insn_size)

let test_hardened_gate_clean () =
  let r = Analyzer.analyze (Toctou.hardened_gate ()).Pal.code in
  checkb "clean" true (Report.is_clean r);
  checki "no warnings either" 0 (List.length (Report.warnings r));
  checks "verdict" "PASS" (Report.verdict r)

let test_measured_gate_mitigated () =
  let r = Analyzer.analyze (Toctou.measured_gate ()).Pal.code in
  checkb "clean (launchable)" true (Report.is_clean r);
  let f = find_rule r "toctou/input-overwrites-code-mitigated" in
  checkb "downgraded to warn" true (f.Finding.severity = Finding.Warn);
  checkb "no un-mitigated finding" false (has_rule r "toctou/input-overwrites-code")

(* --- shipped corpus: clean under analysis AND still runs --- *)

let test_samples_clean_and_run () =
  List.iter
    (fun (name, code) ->
      let r = Analyzer.analyze code in
      checkb (name ^ " clean") true (Report.is_clean r);
      let o =
        ok (Vm.run ~code ~services:null_services ~input:"sixteen byte in." ())
      in
      checkb (name ^ " produced output") true (String.length o.Vm.output > 0))
    Samples.all

let test_sample_semantics () =
  (* xor_checksum really is a loop, and the analyzer saw it — and since
     the counter pattern is recognizable, it now carries a provable trip
     bound rather than resting on the fuel ceiling. *)
  let r = Analyzer.analyze Samples.xor_checksum in
  checki "one back-edge" 1 r.Report.loops;
  checkb "trip count provable" true (has_rule r "bounds/loop-bound");
  checkb "not fuel-bounded" false (has_rule r "bounds/back-edge");
  let o =
    ok
      (Vm.run ~code:Samples.xor_checksum ~services:null_services ~input:"\x01\x02\x04" ())
  in
  (* 1 xor 2 xor 4 = 7, emitted as a 32-bit big-endian word. *)
  checks "checksum" "\x00\x00\x00\x07" o.Vm.output

(* --- adversarial images --- *)

let analyze_ops ?policy ops = Analyzer.analyze ?policy (Isa.encode_program ops)

let test_bad_jump_targets () =
  let r = analyze_ops Isa.[ Jmp 999_999 ] in
  checkb "out of image" true (has_rule r "cfg/jump-out-of-image");
  checkb "rejected" false (Report.is_clean r);
  let r = analyze_ops Isa.[ Loadi (0, 1); Jmp 4 ] in
  checkb "off grid" true (has_rule r "cfg/jump-off-grid");
  checkb "rejected" false (Report.is_clean r)

let test_truncated_and_invalid () =
  let r = Analyzer.analyze (String.sub (Isa.encode (Isa.Loadi (0, 1))) 0 5) in
  checkb "truncated tail" true (has_rule r "decode/truncated");
  checkb "rejected" false (Report.is_clean r);
  let r = Analyzer.analyze "\xff\x00\x00\x00\x00\x00\x00\x00" in
  checkb "invalid opcode" true (has_rule r "decode/invalid");
  checkb "rejected" false (Report.is_clean r);
  let r = Analyzer.analyze "" in
  checkb "empty image" true (has_rule r "image/empty")

let test_selfmod_store () =
  (* A store whose concrete address lands inside the measured code. *)
  let r = analyze_ops Isa.[ Loadi (0, 65); Stb (0, 1, 8); Halt ] in
  let f = find_rule r "selfmod/store-overwrites-code" in
  checkb "error" true (f.Finding.severity = Finding.Error);
  (* The same store aimed above the code is fine. *)
  let r = analyze_ops Isa.[ Loadi (0, 65); Stb (0, 1, 4096); Halt ] in
  checkb "clean when clear of code" true (Report.is_clean r)

let test_unsealed_secret_leak () =
  let svc = Isa.Svc Isa.svc_unseal in
  let out = Isa.Svc Isa.svc_output in
  let r =
    analyze_ops
      Isa.
        [
          Loadi (0, 1024) (* blob ptr *); Loadi (1, 64) (* blob len *);
          Loadi (2, 4096) (* plaintext dst *); svc;
          Loadi (0, 4096); Loadi (1, 64); out; Halt;
        ]
  in
  let f = find_rule r "taint/unsealed-secret-to-output" in
  checkb "error" true (f.Finding.severity = Finding.Error);
  checkb "rejected" false (Report.is_clean r)

let test_random_leak_is_warn () =
  let r =
    analyze_ops
      Isa.
        [
          Loadi (0, 4096); Loadi (1, 16); Svc Isa.svc_random;
          Svc Isa.svc_output; Halt;
        ]
  in
  let f = find_rule r "taint/random-to-output" in
  checkb "warn only" true (f.Finding.severity = Finding.Warn);
  checkb "still launchable" true (Report.is_clean r);
  (* random_nonce seals before outputting, so it must NOT fire there. *)
  checkb "sample does not leak" false
    (has_rule (Analyzer.analyze Samples.random_nonce) "taint/random-to-output")

let test_service_whitelist () =
  let policy =
    {
      Analyzer.default_policy with
      Analyzer.allowed_services =
        Some Isa.[ svc_input_len; svc_input_read; svc_output ];
    }
  in
  let r = Analyzer.analyze ~policy Samples.seal_echo in
  checkb "seal forbidden" true (has_rule r "policy/service-forbidden");
  checkb "rejected" false (Report.is_clean r);
  (* The default policy allows it. *)
  checkb "default allows" true (Report.is_clean (Analyzer.analyze Samples.seal_echo))

let test_require_bounded () =
  let policy = { Analyzer.default_policy with Analyzer.require_bounded = true } in
  (* A loop with no recognizable counter has no provable trip count, so
     require_bounded escalates it to an error... *)
  let r = analyze_ops ~policy Isa.[ Loadi (0, 1); Jmp 0 ] in
  let f = find_rule r "bounds/back-edge" in
  checkb "escalated to error" true (f.Finding.severity = Finding.Error);
  checkb "rejected" false (Report.is_clean r);
  (* ...while a provable loop satisfies the policy: xor_checksum's trip
     count is inferred, so it stays launchable even under
     require_bounded. *)
  let r = Analyzer.analyze ~policy Samples.xor_checksum in
  checkb "provable loop passes" true (Report.is_clean r)

let test_fuel_exceeded_alone () =
  (* Regression: a worst case over the fuel was reported as an error and,
     beside it, as "worst case N steps <= fuel F". *)
  let policy = { Analyzer.default_policy with Analyzer.fuel = 2 } in
  let straight = Isa.[ Loadi (0, 1); Loadi (1, 2); Loadi (2, 3); Halt ] in
  let r = analyze_ops ~policy straight in
  checkb "fuel exceeded" true (has_rule r "bounds/fuel-exceeded");
  checkb "rejected" false (Report.is_clean r);
  checkb "no straight-line info" false (has_rule r "bounds/straight-line");
  let r = Analyzer.analyze ~policy Samples.xor_checksum in
  checkb "loop: fuel exceeded" true (has_rule r "bounds/fuel-exceeded");
  checkb "no loop-bound info" false (has_rule r "bounds/loop-bound");
  let r = analyze_ops straight in
  checkb "within the default fuel" true (has_rule r "bounds/straight-line");
  checkb "not exceeded" false (has_rule r "bounds/fuel-exceeded")

(* --- cost certificates and loop bounds --- *)

let certify_ops ?policy ops = Analyzer.certify ?policy (Isa.encode_program ops)

let test_loop_bound_inference () =
  (* xor_checksum: counter r1 steps by 1 from 0 toward r2 <= 4096, so
     the whole image gets a finite wcet strictly tighter than the fuel
     ceiling. The exact number is locked by the golden analyze report;
     here we pin the structural facts. *)
  let _, cert = Analyzer.certify Samples.xor_checksum in
  checkb "bounded" true cert.Certificate.bounded;
  checkb "tighter than fuel" true
    (cert.Certificate.wcet_steps < Isa.default_fuel);
  (* And the bound is sound against a real worst-case-shaped run. *)
  let o =
    ok
      (Vm.run ~code:Samples.xor_checksum ~services:null_services
         ~input:(String.make 4096 'x') ())
  in
  checkb "dynamic steps within static wcet" true
    (o.Vm.steps <= cert.Certificate.wcet_steps)

let test_unprovable_loop_unbounded () =
  (* No counter pattern: the certificate falls back to fuel-ceiling
     pricing and is not bounded. *)
  let _, cert = certify_ops Isa.[ Loadi (0, 1); Jmp 0 ] in
  checkb "unbounded" false cert.Certificate.bounded;
  checki "wcet is the fuel ceiling" Isa.default_fuel cert.Certificate.wcet_steps

let test_dirty_report_unbounded () =
  (* Loop-free but self-modifying: a static text-derived bound is
     meaningless once the program can rewrite its measured bytes, so
     the certificate refuses to claim one. *)
  let _, cert = certify_ops Isa.[ Loadi (0, 65); Stb (0, 1, 8); Halt ] in
  checkb "not bounded despite no loops" false cert.Certificate.bounded

let test_straight_line_agrees_with_certificate () =
  (* Satellite invariant: the bounds/straight-line finding and the
     certificate must quote the same worst-case step count — one cost
     table ([Isa.fuel_cost]) feeds both. *)
  List.iter
    (fun (name, code) ->
      let report, cert = Analyzer.certify code in
      if report.Report.loops = 0 && Report.is_clean report then begin
        let f = find_rule report "bounds/straight-line" in
        let expected =
          Printf.sprintf "worst case %d steps" cert.Certificate.wcet_steps
        in
        let contains needle hay =
          let n = String.length needle and h = String.length hay in
          let rec go i =
            i + n <= h && (String.sub hay i n = needle || go (i + 1))
          in
          go 0
        in
        checkb
          (name ^ ": straight-line quotes the certificate wcet")
          true
          (contains expected f.Finding.message)
      end)
    Samples.all

let test_certificate_render_deterministic () =
  let _, c1 = Analyzer.certify Samples.seal_echo in
  let _, c2 = Analyzer.certify Samples.seal_echo in
  checks "byte-identical renders" (Certificate.render c1)
    (Certificate.render c2);
  checkb "admission cost positive" true (Certificate.admission_cost c1 > 0)

(* --- interval / write_range corners --- *)

let test_interval_edges () =
  let open Interval in
  (* Overflow clamps to the 32-bit ceiling instead of wrapping. *)
  let near = make ~lo:(max32 - 1) ~hi:max32 in
  let sum = add near (const 2) in
  checkb "overflowing add goes top-ish" true (sum.hi = max32);
  (* const masks to 32 bits. *)
  checki "const masked" 0 (const 0x1_0000_0000).lo;
  (* Widening is stable: once widened, re-widening the result against
     any larger-in-the-same-direction value is a fixpoint jump, not a
     creep. *)
  let w = widen (make ~lo:0 ~hi:10) (make ~lo:0 ~hi:11) in
  checki "grew hi jumps to max32" max32 w.hi;
  let w2 = widen w (make ~lo:0 ~hi:(max32 - 5)) in
  checkb "idempotent after the jump" true (equal w w2);
  (* join is the convex hull. *)
  let j = join (make ~lo:2 ~hi:3) (make ~lo:10 ~hi:12) in
  checkb "hull" true (j.lo = 2 && j.hi = 12)

let test_write_range_corners () =
  let mem = Isa.default_mem_size in
  (* Certainly-zero length: no write at all. *)
  checkb "zero length is None" true
    (Dataflow.write_range ~mem_size:mem ~ptr:(Interval.const 100)
       ~len:(Interval.const 0)
    = None);
  (* Pointer straddling the end of memory: clamped to memory, never
     past it. *)
  (match
     Dataflow.write_range ~mem_size:mem
       ~ptr:(Interval.make ~lo:(mem - 4) ~hi:(mem + 100))
       ~len:(Interval.const 64)
   with
  | None -> Alcotest.fail "straddling write should be Some"
  | Some (lo, hi) ->
      checki "clamped to memory end" mem hi;
      checki "starts at the pointer" (mem - 4) lo);
  (* Wholly past the end: clamps to an empty-at-the-boundary span or
     None — either way it must not extend past memory. *)
  (match
     Dataflow.write_range ~mem_size:mem
       ~ptr:(Interval.const (mem + 10))
       ~len:(Interval.const 4)
   with
  | None -> ()
  | Some (_, hi) -> checkb "never past memory" true (hi <= mem))

(* --- the launch gate --- *)

let test_enforce_refuses_before_measurement () =
  let m = Sea_hw.Machine.create Sea_hw.Machine.hp_dc5750 in
  let tpm = Sea_hw.Machine.tpm_exn m in
  let pcr17_before = Sea_tpm.Tpm.pcr_read tpm 17 in
  expect_error
    (Session.execute m ~cpu:0 ~analyze:Analyzer.Enforce
       (Toctou.vulnerable_gate ()) ~input:Toctou.exploit_input);
  (* Refused before SKINIT: the dynamic-launch PCR never moved. *)
  checks "PCR 17 untouched" pcr17_before (Sea_tpm.Tpm.pcr_read tpm 17)

let test_enforce_admits_hardened () =
  let m = Sea_hw.Machine.create Sea_hw.Machine.hp_dc5750 in
  let o =
    ok
      (Session.execute m ~cpu:0 ~analyze:Analyzer.Enforce
         (Toctou.hardened_gate ()) ~input:Toctou.exploit_input)
  in
  checks "exploit denied at runtime too" "denied" o.Session.output

let test_warnonly_reports_but_runs () =
  let m = Sea_hw.Machine.create Sea_hw.Machine.hp_dc5750 in
  let seen = ref None in
  let o =
    ok
      (Session.execute m ~cpu:0 ~analyze:Analyzer.WarnOnly
         ~on_report:(fun r -> seen := Some r)
         (Toctou.vulnerable_gate ()) ~input:Toctou.benign_input)
  in
  checks "still ran" "denied" o.Session.output;
  match !seen with
  | None -> Alcotest.fail "on_report not called"
  | Some r -> checkb "report has the error" false (Report.is_clean r)

let test_slaunch_gate () =
  let m =
    Sea_hw.Machine.create
      (Sea_hw.Machine.proposed_variant ~sepcr_count:4 Sea_hw.Machine.hp_dc5750)
  in
  expect_error
    (Slaunch_session.start m ~cpu:0 ~analyze:Analyzer.Enforce
       (Toctou.vulnerable_gate ()) ~input:Toctou.exploit_input);
  (* Off (the default) keeps the legacy behaviour: it launches. *)
  ignore
    (ok
       (Slaunch_session.start m ~cpu:0 (Toctou.vulnerable_gate ())
          ~input:Toctou.benign_input))

let test_check_gate_modes () =
  let code = (Toctou.vulnerable_gate ()).Pal.code in
  (match Analyzer.check ~gate:Analyzer.Off code with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Analyzer.check ~gate:Analyzer.WarnOnly code with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  expect_error (Analyzer.check ~gate:Analyzer.Enforce code);
  ok (Analyzer.check ~gate:Analyzer.Enforce (Toctou.hardened_gate ()).Pal.code)

let () =
  Alcotest.run "analysis"
    [
      ( "toctou gates",
        [
          Alcotest.test_case "vulnerable rejected" `Quick
            test_vulnerable_gate_rejected;
          Alcotest.test_case "hardened clean" `Quick test_hardened_gate_clean;
          Alcotest.test_case "measured mitigated" `Quick
            test_measured_gate_mitigated;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "samples clean and runnable" `Quick
            test_samples_clean_and_run;
          Alcotest.test_case "xor-checksum semantics" `Quick
            test_sample_semantics;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "bad jump targets" `Quick test_bad_jump_targets;
          Alcotest.test_case "truncated / invalid / empty" `Quick
            test_truncated_and_invalid;
          Alcotest.test_case "self-modifying store" `Quick test_selfmod_store;
          Alcotest.test_case "unsealed secret leak" `Quick
            test_unsealed_secret_leak;
          Alcotest.test_case "random leak is a warning" `Quick
            test_random_leak_is_warn;
          Alcotest.test_case "service whitelist" `Quick test_service_whitelist;
          Alcotest.test_case "require_bounded" `Quick test_require_bounded;
          Alcotest.test_case "fuel exceeded, no fits-fuel info" `Quick
            test_fuel_exceeded_alone;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "loop bound inferred and sound" `Quick
            test_loop_bound_inference;
          Alcotest.test_case "unprovable loop stays unbounded" `Quick
            test_unprovable_loop_unbounded;
          Alcotest.test_case "dirty report voids the bound" `Quick
            test_dirty_report_unbounded;
          Alcotest.test_case "straight-line agrees with certificate" `Quick
            test_straight_line_agrees_with_certificate;
          Alcotest.test_case "deterministic render" `Quick
            test_certificate_render_deterministic;
        ] );
      ( "domains",
        [
          Alcotest.test_case "interval edges" `Quick test_interval_edges;
          Alcotest.test_case "write_range corners" `Quick
            test_write_range_corners;
        ] );
      ( "launch gate",
        [
          Alcotest.test_case "Enforce refuses before measurement" `Quick
            test_enforce_refuses_before_measurement;
          Alcotest.test_case "Enforce admits hardened" `Quick
            test_enforce_admits_hardened;
          Alcotest.test_case "WarnOnly reports but runs" `Quick
            test_warnonly_reports_but_runs;
          Alcotest.test_case "SLAUNCH path gated too" `Quick test_slaunch_gate;
          Alcotest.test_case "check gate modes" `Quick test_check_gate_modes;
        ] );
    ]
