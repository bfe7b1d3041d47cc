(* sea-cli: command-line driver for the simulated minimal-TCB platform.

   Subcommands:
     machines    list the modelled platforms
     session     run a PAL in a Flicker-style session and show the breakdown
     attest      run the full remote-attestation protocol
     lifecycle   walk the SLAUNCH lifecycle (Figure 6) with timings
     attack      mount the §3.2 threat-model attacks and report verdicts
     boot        measured (trusted) boot and its whole-stack verifier
     toctou      footnote 3's load-time-attestation TOCTOU on real bytecode
     analyze     run the PAL bytecode static analyzer over shipped images
     serve       multi-tenant request serving under load, with tail latencies *)

open Cmdliner
open Sea_sim
open Sea_hw
open Sea_core

(* --- shared options --- *)

let machine_presets =
  [
    ("dc5750", Machine.hp_dc5750);
    ("tyan", Machine.tyan_n3600r);
    ("tep", Machine.intel_tep);
    ("t60", Machine.lenovo_t60);
    ("infineon", Machine.amd_infineon);
  ]

let machine_arg =
  let doc =
    "Machine preset: " ^ String.concat ", " (List.map fst machine_presets) ^ "."
  in
  Arg.(
    value
    & opt (enum machine_presets) Machine.hp_dc5750
    & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let proposed_arg =
  let doc = "Equip the machine with the paper's proposed hardware (§5)." in
  Arg.(value & flag & info [ "proposed" ] ~doc)

let make_machine config proposed =
  Machine.create (if proposed then Machine.proposed_variant config else config)

let pal_presets =
  [
    ("gen", `Gen);
    ("use", `Use);
    ("ca", `Ca);
    ("ssh", `Ssh);
    ("rootkit", `Rootkit);
    ("factor", `Factor);
  ]

let or_die = function
  | Ok x -> x
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1

(* --- machines --- *)

let machines_cmd =
  let run () =
    Printf.printf "%-10s %-30s %-6s %-8s %-10s %s\n" "NAME" "MODEL" "ARCH" "CORES"
      "CPU" "TPM";
    List.iter
      (fun (name, c) ->
        Printf.printf "%-10s %-30s %-6s %-8d %-10s %s\n" name c.Machine.name
          (match c.Machine.arch with Machine.Amd -> "AMD" | Machine.Intel -> "Intel")
          c.Machine.cpu_count
          (Printf.sprintf "%.2fGHz" c.Machine.cpu_ghz)
          (match c.Machine.tpm_vendor with
          | Some v -> Sea_tpm.Vendor.name v
          | None -> "none"))
      machine_presets;
    Printf.printf
      "\nAdd --proposed to any command to equip the machine with SLAUNCH,\n\
       the access-control table and a sePCR bank.\n"
  in
  Cmd.v (Cmd.info "machines" ~doc:"List the modelled platforms")
    Term.(const run $ const ())

(* --- session --- *)

let run_session machine_config proposed which =
  let m = make_machine machine_config proposed in
  Printf.printf "Machine: %s\n" m.Machine.config.Machine.name;
  let show name (b : Session.breakdown) output =
    Printf.printf
      "%s: late launch %s | seal %s | unseal %s | total overhead %s\n" name
      (Time.to_string b.Session.late_launch)
      (Time.to_string b.Session.seal)
      (Time.to_string b.Session.unseal)
      (Time.to_string (Session.overhead b));
    Printf.printf "output: %d bytes\n" (String.length output)
  in
  match which with
  | `Gen ->
      let o = or_die (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"") in
      show "PAL Gen" o.Session.breakdown o.Session.output
  | `Use ->
      let g = or_die (Session.execute m ~cpu:0 (Generic.pal_gen ()) ~input:"") in
      let o =
        or_die (Session.execute m ~cpu:0 (Generic.pal_use ()) ~input:g.Session.output)
      in
      show "PAL Use" o.Session.breakdown o.Session.output
  | `Ca ->
      let ca = or_die (Sea_apps.Cert_authority.init m ~cpu:0 ()) in
      let cert = or_die (Sea_apps.Cert_authority.sign_csr m ~cpu:0 ca ~csr:"CN=cli") in
      Printf.printf "CA initialized and issued a certificate (%d bytes); verifies: %b\n"
        (String.length cert)
        (Sea_apps.Cert_authority.verify_certificate ca ~csr:"CN=cli" ~signature:cert)
  | `Ssh ->
      let acct =
        or_die (Sea_apps.Ssh_password.setup m ~cpu:0 ~user:"cli" ~password:"pw")
      in
      Printf.printf "right password: %b; wrong password: %b\n"
        (or_die (Sea_apps.Ssh_password.authenticate m ~cpu:0 acct ~password:"pw"))
        (or_die (Sea_apps.Ssh_password.authenticate m ~cpu:0 acct ~password:"no"))
  | `Rootkit ->
      let img = Sea_apps.Rootkit_detector.make_kernel_image ~seed:"cli" () in
      let wl = Sea_apps.Rootkit_detector.whitelist_digest img in
      Printf.printf "clean image: %b; infected image clean: %b\n"
        (or_die (Sea_apps.Rootkit_detector.check m ~cpu:0 ~whitelist:wl ~kernel_image:img))
        (or_die
           (Sea_apps.Rootkit_detector.check m ~cpu:0 ~whitelist:wl
              ~kernel_image:(Sea_apps.Rootkit_detector.infect img ~at:7)))
  | `Factor ->
      let fs, sessions =
        or_die (Sea_apps.Factoring.run_to_completion m ~cpu:0 ~n:(101 * 103 * 107) ~range:30 ())
      in
      Printf.printf "factored into %s over %d sealed-state sessions (%s simulated)\n"
        (String.concat "*" (List.map string_of_int fs))
        sessions
        (Time.to_string (Machine.now m))

let session_cmd =
  let pal_arg =
    let doc = "PAL to run: " ^ String.concat ", " (List.map fst pal_presets) ^ "." in
    Arg.(value & opt (enum pal_presets) `Gen & info [ "p"; "pal" ] ~docv:"PAL" ~doc)
  in
  Cmd.v
    (Cmd.info "session" ~doc:"Run a PAL in a Flicker-style SEA session")
    Term.(const run_session $ machine_arg $ proposed_arg $ pal_arg)

(* --- attest --- *)

let run_attest machine_config proposed =
  let m = make_machine machine_config proposed in
  let nonce = "cli-nonce" in
  if proposed then begin
    let pal =
      Pal.create ~name:"cli-attested" ~code_size:8192 ~compute_time:(Time.ms 5.)
        (fun services _ -> services.Pal.seal "s")
    in
    let s = or_die (Slaunch_session.start m ~cpu:0 pal ~input:"") in
    (match or_die (Slaunch_session.run_slice s ~cpu:0 ()) with
    | `Finished -> ()
    | `Yielded -> prerr_endline "unexpected yield");
    let q, t = or_die (Slaunch_session.quote_after_exit s ~nonce) in
    Printf.printf "sePCR quote in %s\n" (Time.to_string t);
    (match
       Attestation.verify
         ~ca:(Sea_tpm.Tpm.privacy_ca_public ())
         ~nonce
         (Attestation.expect_slaunch_exit pal)
         (Attestation.gather m q)
     with
    | Ok () -> print_endline "verifier: ACCEPTED (SLAUNCH execution attested)"
    | Error e -> Printf.printf "verifier: REJECTED (%s)\n" e);
    Slaunch_session.release s
  end
  else begin
    let pal = Generic.pal_gen () in
    ignore (or_die (Session.execute m ~cpu:0 pal ~input:""));
    let q, t = or_die (Session.quote m ~nonce) in
    Printf.printf "TPM quote in %s\n" (Time.to_string t);
    match
      Attestation.verify
        ~ca:(Sea_tpm.Tpm.privacy_ca_public ())
        ~nonce
        (Attestation.expect_session_exit m pal)
        (Attestation.gather m q)
    with
    | Ok () -> print_endline "verifier: ACCEPTED (late launch attested)"
    | Error e -> Printf.printf "verifier: REJECTED (%s)\n" e
  end

let attest_cmd =
  Cmd.v
    (Cmd.info "attest" ~doc:"Run the remote-attestation protocol end to end")
    Term.(const run_attest $ machine_arg $ proposed_arg)

(* --- lifecycle --- *)

let run_lifecycle machine_config =
  let m = Machine.create (Machine.proposed_variant machine_config) in
  let pal =
    Pal.create ~name:"cli-lifecycle" ~code_size:16384 ~compute_time:(Time.ms 22.)
      (fun services _ -> services.Pal.seal "state")
  in
  let stamp label s =
    Printf.printf "%-34s state=%-8s t=%s\n" label
      (Lifecycle.to_string (Slaunch_session.state s))
      (Time.to_string (Machine.now m))
  in
  let s =
    or_die (Slaunch_session.start m ~cpu:0 ~preemption_timer:(Time.ms 10.) pal ~input:"")
  in
  stamp "SLAUNCH (protect+measure+execute)" s;
  let rec drive cpu =
    match or_die (Slaunch_session.run_slice s ~cpu ()) with
    | `Finished -> stamp "work complete; SFREE" s
    | `Yielded ->
        stamp "preemption timer; SYIELD" s;
        let cpu = 1 - cpu in
        or_die (Slaunch_session.resume s ~cpu);
        stamp (Printf.sprintf "SLAUNCH resume on CPU %d" cpu) s;
        drive cpu
  in
  drive 0;
  let q, _ = or_die (Slaunch_session.quote_after_exit s ~nonce:"lc") in
  stamp "sePCR quoted by untrusted code" s;
  ignore q;
  Slaunch_session.release s;
  stamp "pages returned to the OS" s

let lifecycle_cmd =
  Cmd.v
    (Cmd.info "lifecycle" ~doc:"Walk the Figure 6 PAL lifecycle with timings")
    Term.(const run_lifecycle $ machine_arg)

(* --- attack --- *)

let run_attacks machine_config =
  let open Sea_os.Adversary in
  let print name verdict =
    match verdict with
    | Blocked how -> Printf.printf "  %-34s BLOCKED by %s\n" name how
    | Succeeded what -> Printf.printf "  %-34s !!! SUCCEEDED: %s\n" name what
  in
  Printf.printf "Threat model of §3.2 against %s + proposed hardware:\n"
    machine_config.Machine.name;
  let m = Machine.create (Machine.low_fidelity (Machine.proposed_variant machine_config)) in
  let pal =
    Pal.create ~name:"victim" ~code_size:8192 ~compute_time:(Time.ms 10.)
      (fun services _ -> services.Pal.seal "secret")
  in
  let s =
    or_die (Slaunch_session.start m ~cpu:0 ~preemption_timer:(Time.ms 2.) pal ~input:"")
  in
  let page = List.nth (Slaunch_session.secb s).Secb.pages 1 in
  print "DMA read of PAL page" (dma_read_protected_page m ~device:"nic" ~page);
  print "cross-CPU read of PAL page" (cpu_read_pal_page m ~cpu:1 ~page);
  print "double resume on CPU 1" (double_resume m ~cpu:1 (Slaunch_session.secb s));
  print "SFREE from untrusted code" (sfree_from_outside m ~cpu:1 (Slaunch_session.secb s));
  print "software PCR 17 reset" (software_pcr17_reset m);
  print "foreign sePCR extend"
    (extend_foreign_sepcr m ~cpu:1 (Option.get (Slaunch_session.sepcr_handle s)));
  print "forge Measured Flag"
    (forge_measured_flag m ~cpu:1
       (Pal.create ~name:"forged" ~code_size:4096 (fun _ _ -> Ok "")));
  (* Rollback replay. *)
  let tpm = Machine.tpm_exn m in
  let counter = or_die (Rollback.create_counter tpm) in
  let v1 =
    or_die
      (Rollback.seal tpm ~caller:(Sea_tpm.Tpm.Cpu 0) ~pcr_policy:[] ~counter "v1")
  in
  ignore
    (or_die
       (Rollback.seal tpm ~caller:(Sea_tpm.Tpm.Cpu 0) ~pcr_policy:[] ~counter "v2"));
  print "replay stale sealed state" (replay_stale_sealed_state m ~cpu:0 ~stale_blob:v1);
  (* Cleanup. *)
  (match or_die (Slaunch_session.run_slice s ~cpu:0 ()) with
  | `Yielded -> or_die (Slaunch_session.kill s)
  | `Finished -> ());
  Slaunch_session.release s

let attack_cmd =
  Cmd.v
    (Cmd.info "attack" ~doc:"Mount the threat-model attacks and report verdicts")
    Term.(const run_attacks $ machine_arg)

(* --- boot --- *)

let run_boot machine_config compromised =
  let m = Machine.create (Machine.low_fidelity machine_config) in
  let stack = Sea_os.Boot.standard_stack () in
  let booted =
    if compromised then
      List.map
        (fun c ->
          if c.Sea_os.Boot.name = "kernel" then Sea_os.Boot.compromise c else c)
        stack
    else stack
  in
  let log = or_die (Sea_os.Boot.boot m booted) in
  Printf.printf "Measured boot of %s (%d components):\n"
    m.Machine.config.Machine.name
    (Sea_os.Boot.tcb_entries log);
  List.iter
    (fun e ->
      Printf.printf "  PCR %d <- %s\n" e.Sea_tpm.Event_log.pcr_index
        e.Sea_tpm.Event_log.description)
    (Sea_tpm.Event_log.events log);
  let nonce = "cli-boot" in
  let q = or_die (Sea_os.Boot.attest m ~nonce) in
  let whitelist =
    List.map
      (fun c -> (c.Sea_os.Boot.name, Sea_crypto.Sha1.digest c.Sea_os.Boot.image))
      stack
  in
  match
    Sea_os.Boot.verify
      ~ca:(Sea_tpm.Tpm.privacy_ca_public ())
      ~nonce
      ~log:(Sea_tpm.Event_log.events log)
      ~known_good:whitelist
      (Attestation.gather m q)
  with
  | Ok () -> print_endline "verifier: platform trusted (every component known-good)"
  | Error e -> Printf.printf "verifier: platform NOT trusted — %s\n" e

let boot_cmd =
  let compromised_arg =
    Arg.(value & flag & info [ "compromised" ] ~doc:"Boot a kernel with a rootkit.")
  in
  Cmd.v
    (Cmd.info "boot" ~doc:"Measured (trusted) boot and its whole-stack verifier")
    Term.(const run_boot $ machine_arg $ compromised_arg)

(* --- toctou --- *)

let run_toctou () =
  let open Sea_palvm in
  let run pal input =
    let m = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
    let o = or_die (Session.execute m ~cpu:0 pal ~input) in
    let q, _ = or_die (Session.quote m ~nonce:"t") in
    (o.Session.output, List.assoc 17 q.Sea_tpm.Tpm.selection)
  in
  let d1, p1 = run (Toctou.vulnerable_gate ()) Toctou.benign_input in
  let d2, p2 = run (Toctou.vulnerable_gate ()) Toctou.exploit_input in
  Printf.printf "vulnerable gate: benign -> %S, exploit -> %S, attestations equal: %b\n"
    d1 d2 (p1 = p2);
  let d3, _ = run (Toctou.hardened_gate ()) Toctou.exploit_input in
  Printf.printf "hardened gate:   exploit -> %S\n" d3;
  let d4, p4 = run (Toctou.measured_gate ()) (Toctou.exploit_for ~prologue_insns:6) in
  let _, p5 = run (Toctou.measured_gate ()) Toctou.benign_input in
  Printf.printf
    "measured gate:   exploit -> %S, but attestation differs from benign: %b\n" d4
    (p4 <> p5)

let toctou_cmd =
  Cmd.v
    (Cmd.info "toctou"
       ~doc:"Footnote 3's load-time-attestation TOCTOU on real bytecode")
    Term.(const run_toctou $ const ())

(* --- analyze --- *)

let analyzable_images () =
  let open Sea_palvm in
  [
    ("toctou-vulnerable", (Toctou.vulnerable_gate ()).Pal.code);
    ("toctou-hardened", (Toctou.hardened_gate ()).Pal.code);
    ("toctou-measured", (Toctou.measured_gate ()).Pal.code);
  ]
  @ Samples.all
  @ List.map
      (fun k ->
        ( "workload-" ^ Sea_serve.Workload.kind_name k,
          (Sea_serve.Workload.pal k).Pal.code ))
      Sea_serve.Workload.kinds

let run_analyze name cost =
  let open Sea_analysis in
  let analyze_one (name, code) =
    if cost then begin
      let report, cert = Analyzer.certify code in
      Printf.printf "%s\n%s\n%s" name (Report.render report)
        (Certificate.render cert);
      Report.is_clean report
    end
    else begin
      let report = Analyzer.analyze code in
      Printf.printf "%s\n%s\n" name (Report.render report);
      Report.is_clean report
    end
  in
  match name with
  | "all" ->
      (* The shipped corpus behind the @analyze build alias: everything
         we ship except the deliberately vulnerable TOCTOU exemplar must
         come back with no error findings. *)
      let shipped =
        List.filter (fun (n, _) -> n <> "toctou-vulnerable") (analyzable_images ())
      in
      let verdicts =
        List.map
          (fun img ->
            let clean = analyze_one img in
            print_newline ();
            clean)
          shipped
      in
      if List.for_all Fun.id verdicts then
        Printf.printf "all %d shipped images are clean\n" (List.length verdicts)
      else exit 1
  | name -> (
      match List.assoc_opt name (analyzable_images ()) with
      | None ->
          (* Same shape and exit code as every other subcommand's
             failure path (or_die), rather than a bespoke exit 2. *)
          or_die
            (Error
               (Printf.sprintf "unknown PAL image %S; known: all, %s" name
                  (String.concat ", " (List.map fst (analyzable_images ())))))
      | Some code -> if not (analyze_one (name, code)) then exit 1)

let analyze_cmd =
  let name_arg =
    let doc =
      "Image to analyze: $(b,all) (every shipped image that must be clean) \
       or one of the named PALVM images (toctou-vulnerable, toctou-hardened, \
       toctou-measured, seal-echo, xor-checksum, random-nonce, hash-input, \
       workload-ssh-auth, workload-ca-sign, workload-kv-update)."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"PAL" ~doc)
  in
  let cost_arg =
    let doc =
      "Also print each image's static cost certificate: worst-case step \
       count (with provable loop trip bounds), per-service call/byte \
       ceilings, the TPM-time bound and the LPC traffic bound."
    in
    Arg.(value & flag & info [ "cost" ] ~doc)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static analysis of PAL bytecode: CFG + TOCTOU/self-modification, \
          secret-flow taint, bounds and service-policy rules, plus \
          $(b,--cost) certificates. Exits non-zero on error findings.")
    Term.(const run_analyze $ name_arg $ cost_arg)

(* --- soundness --- *)

(* Replay every analyzable bounded image in the PALVM against its own
   cost certificate: retired instructions must stay within wcet_steps
   and the jitter-free TPM time of the calls it actually made within
   tpm_us. A violation means the static analysis under-approximated a
   real execution — a build-breaking soundness bug, not a tuning
   matter. Replays use [Vm.run] directly with metering services (no
   engine, no vendor jitter), so observed TPM time is the reference
   profile's mean — exactly the distribution the certificate bounds. *)
let run_soundness () =
  let open Sea_analysis in
  let profile = Certificate.reference_profile in
  let violations = ref 0 in
  let tighter = ref 0 in
  let check (name, code) =
    let _report, cert = Analyzer.certify code in
    if not cert.Certificate.bounded then
      Printf.printf "%-22s unbounded certificate; replay skipped\n" name
    else begin
      let tpm = ref Time.zero in
      let meter n bytes =
        tpm :=
          Time.add !tpm (Certificate.svc_time profile n ~calls:1 ~bytes)
      in
      let services =
        {
          Pal.seal =
            (fun s ->
              meter Sea_isa.Isa.svc_seal (String.length s);
              Ok s);
          unseal =
            (fun s ->
              meter Sea_isa.Isa.svc_unseal (String.length s);
              Ok s);
          get_random =
            (fun k ->
              meter Sea_isa.Isa.svc_random k;
              String.make k '\x2a');
          extend_measurement =
            (fun s -> meter Sea_isa.Isa.svc_extend (String.length s));
          machine_name = "soundness-replay";
        }
      in
      (* A worst-case-shaped input: long enough to drive every
         input-bounded loop to its widest provable trip count. *)
      let input = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
      match Sea_palvm.Vm.run ~code ~services ~input () with
      | Error e -> or_die (Error (Printf.sprintf "%s: replay failed: %s" name e))
      | Ok o ->
          let tpm_us = Time.to_ns !tpm / 1000 in
          let steps_ok = o.Sea_palvm.Vm.steps <= cert.Certificate.wcet_steps in
          let tpm_ok = tpm_us <= cert.Certificate.tpm_us in
          if cert.Certificate.wcet_steps < Sea_isa.Isa.default_fuel then
            incr tighter;
          Printf.printf
            "%-22s steps %d <= wcet %d: %s   tpm %d us <= bound %d us: %s\n"
            name o.Sea_palvm.Vm.steps cert.Certificate.wcet_steps
            (if steps_ok then "ok" else "VIOLATED")
            tpm_us cert.Certificate.tpm_us
            (if tpm_ok then "ok" else "VIOLATED");
          if not (steps_ok && tpm_ok) then incr violations
    end
  in
  (* The samples corpus plus the serving workload images — every real
     PALVM program the repo ships and certifies. *)
  let images =
    Sea_palvm.Samples.all
    @ List.map
        (fun k ->
          ( "workload-" ^ Sea_serve.Workload.kind_name k,
            (Sea_serve.Workload.pal k).Pal.code ))
        Sea_serve.Workload.kinds
  in
  List.iter check images;
  if !violations > 0 then
    or_die
      (Error
         (Printf.sprintf "%d image(s) exceeded their static bound" !violations));
  if !tighter = 0 then
    or_die
      (Error
         "no bounded image has a wcet below the fuel ceiling — loop-bound \
          inference is not engaging");
  Printf.printf
    "all bounds hold; %d image(s) provably tighter than the %d-step fuel\n"
    !tighter Sea_isa.Isa.default_fuel

let soundness_cmd =
  Cmd.v
    (Cmd.info "soundness"
       ~doc:
         "Replay every bounded shipped PALVM image against its static cost \
          certificate: retired steps and jitter-free TPM time must stay \
          within the certified bounds. Exits non-zero on any violation \
          (an unsound certificate is a build failure).")
    Term.(const run_soundness $ const ())

(* --- serve / cluster shared options --- *)

(* Named manual sections so `serve --help` and `cluster --help` list
   every flag group in one place; shared flags carry the same section in
   both commands. *)
let s_serve = "SERVING OPTIONS"
let s_admission = "ADMISSION OPTIONS"
let s_analysis = "ANALYSIS OPTIONS"
let s_fault = "FAULT INJECTION OPTIONS"
let s_vtpm = "VIRTUAL TPM OPTIONS"
let s_fleet = "FLEET OPTIONS"
let s_churn = "FLEET CHURN OPTIONS"
let s_autoscale = "FLEET AUTOSCALE OPTIONS"

let serve_mode_arg =
  let doc =
    "Isolation backend to serve on: $(b,current) (each request is a full \
     SKINIT session, whole platform stalled), $(b,proposed) (resident \
     suspended PALs on every core, §5) or $(b,sfi) (software-fault-isolated \
     residents, VM-exit-class transitions, no sePCR scarcity)."
  in
  Arg.(value & opt string "current" & info [ "mode" ] ~docv:"MODE" ~docs:s_serve ~doc)

(* Like --analyze/--admission: unknown values exit 1 with the known list
   (a cmdliner enum would exit 124 instead, inconsistently with them). *)
let mode_of_flag s =
  match Sea_serve.Server.mode_of_name s with
  | Some mode -> mode
  | None ->
      or_die
        (Error
           (Printf.sprintf "unknown --mode %S; known: %s" s
              (String.concat ", " Sea_serve.Server.mode_names)))

(* The per-machine hardware configuration serve and cluster share:
   crypto fidelity does not affect timing (latency comes from the
   vendor profile), so serve at small key sizes and keep high request
   rates cheap to simulate; equip the proposed variant when serving in
   proposed mode (current and sfi run on the commodity config);
   optionally override the preset's core count. *)
let serving_machine_config machine_config mode cores =
  let config = Machine.low_fidelity machine_config in
  let config =
    match mode with
    | Sea_serve.Server.Current | Sea_serve.Server.Sfi -> config
    | Sea_serve.Server.Proposed -> Machine.proposed_variant config
  in
  match cores with
  | None -> config
  | Some c ->
      if c <= 0 then or_die (Error "--cores must be positive")
      else { config with Machine.cpu_count = c }

let rate_arg =
  let doc = "Total open-loop arrival rate, requests/second." in
  Arg.(value & opt float 16. & info [ "r"; "rate" ] ~docv:"RATE" ~docs:s_serve ~doc)

let duration_arg =
  let doc = "How long arrivals keep coming, seconds of simulated time." in
  Arg.(value & opt float 5. & info [ "d"; "duration" ] ~docv:"SECONDS" ~docs:s_serve ~doc)

let cores_arg =
  let doc = "Override the preset's core count." in
  Arg.(value & opt (some int) None & info [ "cores" ] ~docv:"N" ~docs:s_serve ~doc)

let depth_arg =
  let doc = "Admission queue depth; arrivals beyond it are shed." in
  Arg.(value & opt int 16 & info [ "depth" ] ~docv:"N" ~docs:s_admission ~doc)

let discipline_arg =
  let doc = "Admission discipline: $(b,fifo) or $(b,weighted)." in
  Arg.(
    value
    & opt
        (enum
           [
             ("fifo", Sea_serve.Admission.Fifo);
             ("weighted", Sea_serve.Admission.Weighted);
           ])
        Sea_serve.Admission.Fifo
    & info [ "discipline" ] ~docv:"DISC" ~docs:s_admission ~doc)

let analyze_gate_arg =
  let doc =
    "Static-analysis launch gate: $(b,off), $(b,warn) (analyze and report, \
     never refuse) or $(b,enforce) (refuse images with error findings \
     before anything is measured). Analysis is cached by image digest, so \
     each distinct image is analyzed once per process."
  in
  Arg.(value & opt string "off" & info [ "analyze" ] ~docv:"GATE" ~docs:s_analysis ~doc)

let admission_cost_arg =
  let doc =
    "Cost-aware admission: $(b,none) (use $(b,--discipline)) or $(b,cost) \
     (per-tenant in-flight budget over the kinds' static certificate \
     costs; cheapest-backlog-first dispatch, replaces $(b,--discipline))."
  in
  Arg.(value & opt string "none" & info [ "admission" ] ~docv:"ADM" ~docs:s_admission ~doc)

let cost_budget_arg =
  let doc =
    "Per-tenant in-flight static-cost budget, in certificate admission-cost \
     units (virtual us), under $(b,--admission cost)."
  in
  Arg.(
    value & opt int 4_000_000 & info [ "cost-budget" ] ~docv:"US" ~docs:s_admission ~doc)

(* The new serve/cluster flags are validated by hand so a bad value
   exits 1 with an error naming the flag, like the other numeric-flag
   failures (a cmdliner enum conversion failure would exit 124). *)
let gate_of_flag s =
  match String.lowercase_ascii (String.trim s) with
  | "off" -> Sea_analysis.Analyzer.Off
  | "warn" -> Sea_analysis.Analyzer.WarnOnly
  | "enforce" -> Sea_analysis.Analyzer.Enforce
  | other ->
      or_die
        (Error
           (Printf.sprintf "unknown --analyze gate %S; known: off, warn, \
                            enforce" other))

let discipline_of_flags ~discipline ~admission ~cost_budget =
  match String.lowercase_ascii (String.trim admission) with
  | "none" -> discipline
  | "cost" ->
      if cost_budget <= 0 then
        or_die (Error "--cost-budget must be positive");
      Sea_serve.Admission.Cost cost_budget
  | other ->
      or_die
        (Error
           (Printf.sprintf "unknown --admission mode %S; known: none, cost"
              other))

let timer_arg =
  let doc = "Preemption-timer slice budget, ms (proposed mode)." in
  Arg.(value & opt float 10. & info [ "timer" ] ~docv:"MS" ~docs:s_serve ~doc)

let deadline_arg =
  let doc = "Queueing deadline, ms: requests queued longer are dropped." in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS" ~docs:s_serve ~doc)

let closed_arg =
  let doc =
    "Closed-loop mode: this many clients per tenant, each waiting for its \
     response before the next request (replaces the open-loop $(b,--rate))."
  in
  Arg.(value & opt (some int) None & info [ "closed" ] ~docv:"CLIENTS" ~docs:s_serve ~doc)

let think_arg =
  let doc = "Mean closed-loop think time, ms." in
  Arg.(value & opt float 0. & info [ "think" ] ~docv:"MS" ~docs:s_serve ~doc)

let seed_arg =
  let doc = "Simulation seed; identical seeds give identical reports." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~docs:s_serve ~doc)

let fault_rate_arg =
  let doc =
    "Probability in [0,1] of injecting a fault at each TPM/LPC injection \
     point during serving (0 disables injection entirely)."
  in
  Arg.(value & opt float 0. & info [ "fault-rate" ] ~docv:"P" ~docs:s_fault ~doc)

let fault_kinds_arg =
  let doc =
    "Comma-separated fault kinds to inject ($(b,all) or any of tpm-busy, \
     lpc-stall, hash-abort, seal-fail, nv-fail)."
  in
  Arg.(value & opt string "all" & info [ "fault-kinds" ] ~docv:"KINDS" ~docs:s_fault ~doc)

let fault_seed_arg =
  let doc =
    "Seed for the fault plan's own stream; identical fault seeds replay \
     the identical fault schedule independently of $(b,--seed)."
  in
  Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"SEED" ~docs:s_fault ~doc)

let vtpm_arg =
  let doc =
    "Multiplex $(docv) virtual TPMs over each machine's hardware TPM. \
     Tenants are routed tenant mod $(docv); every vTPM state change is \
     anchored into a hardware PCR so quotes chain to the physical root of \
     trust."
  in
  Arg.(value & opt (some int) None & info [ "vtpm" ] ~docv:"N" ~docs:s_vtpm ~doc)

(* Shared by serve and cluster: the flag follows the exit-1-plus-message
   convention of --rate/--timer rather than raising from Server.config. *)
let validate_vtpm_flag vtpm =
  match vtpm with
  | Some k when k <= 0 -> or_die (Error "--vtpm must be positive")
  | _ -> ()

(* Parse the --fault-kinds / --fault-rate pair shared by serve and
   cluster into an optional fault spec. *)
let fault_spec_of_flags ~fault_rate ~fault_kinds ~fault_seed =
  if fault_rate < 0. || fault_rate > 1. then
    or_die (Error "--fault-rate must be in [0, 1]");
  let kinds =
    match String.lowercase_ascii (String.trim fault_kinds) with
    | "" | "all" -> Sea_fault.Fault.all_kinds
    | s ->
        List.map
          (fun name ->
            let name = String.trim name in
            match Sea_fault.Fault.kind_of_name name with
            | Some k -> k
            | None ->
                or_die
                  (Error
                     (Printf.sprintf "unknown fault kind %S; known: %s" name
                        (String.concat ", "
                           (List.map Sea_fault.Fault.kind_name
                              Sea_fault.Fault.all_kinds)))))
          (String.split_on_char ',' s)
  in
  if fault_rate > 0. then
    Some (Sea_fault.Fault.spec ~kinds ~seed:fault_seed ~rate:fault_rate ())
  else None

let run_serve machine_config mode rate duration_s cores tenants depth
    discipline analyze admission cost_budget timer_ms deadline_ms closed
    think_ms seed fault_rate fault_kinds fault_seed vtpm trace_file
    trace_summary =
  (* Validate the numeric flags here, with flag names in the messages,
     instead of letting Invalid_argument escape from the library
     constructors. *)
  if rate <= 0. then or_die (Error "--rate must be positive");
  if duration_s <= 0. then or_die (Error "--duration must be positive");
  if timer_ms <= 0. then or_die (Error "--timer must be positive");
  validate_vtpm_flag vtpm;
  let mode = mode_of_flag mode in
  let analyze = gate_of_flag analyze in
  let discipline = discipline_of_flags ~discipline ~admission ~cost_budget in
  let faults = fault_spec_of_flags ~fault_rate ~fault_kinds ~fault_seed in
  try
    let config = serving_machine_config machine_config mode cores in
    let m =
      Machine.create ~engine:(Engine.create ~seed:(Int64.of_int seed) ()) config
    in
    let cfg =
      Sea_serve.Server.config ~queue_depth:depth ~discipline ~analyze
        ~preemption_timer:(Time.ms timer_ms) ?faults ?vtpm ~mode
        ~duration:(Time.s duration_s) ()
    in
    let deadline = Option.map Time.ms deadline_ms in
    let process =
      match closed with
      | Some clients -> `Closed (clients, Time.ms think_ms)
      | None -> `Open rate
    in
    let workload = Sea_serve.Workload.preset ?deadline ~tenants process in
    let run () = or_die (Sea_serve.Server.run m cfg workload) in
    let report =
      match (trace_file, trace_summary) with
      | None, false -> run ()
      | _ ->
          let sink = Sea_trace.Trace.create () in
          let report = Sea_trace.Trace.with_sink sink run in
          (match trace_file with
          | None -> ()
          | Some path ->
              let oc = open_out path in
              output_string oc (Sea_trace.Trace.export_json sink);
              close_out oc;
              Printf.eprintf "trace: %d events written to %s\n"
                (Sea_trace.Trace.events sink) path);
          if trace_summary then
            print_endline (Sea_trace.Trace.summary sink);
          report
    in
    print_endline (Sea_serve.Report.render report)
  with Invalid_argument e -> or_die (Error e)

let serve_cmd =
  let tenants_arg =
    let doc = "Number of tenants (single-kind mixes cycling ssh/ca/kv)." in
    Arg.(value & opt int 3 & info [ "tenants" ] ~docv:"N" ~docs:s_serve ~doc)
  in
  let trace_arg =
    let doc =
      "Write a Chrome trace_event JSON trace of the run (virtual-time \
       spans for instructions, TPM commands, LPC transfers and serve \
       requests) to $(docv); load it in Perfetto or chrome://tracing."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~docs:s_serve ~doc)
  in
  let trace_summary_arg =
    let doc =
      "Print a compact trace summary (top spans, per-category self time, \
       counters) after the report."
    in
    Arg.(value & flag & info [ "trace-summary" ] ~docs:s_serve ~doc)
  in
  (* Pin the help-page section order so every flag group reads top to
     bottom in one place: serving, admission, analysis, faults, vTPM. *)
  let man =
    [
      `S s_serve; `S s_admission; `S s_analysis; `S s_fault; `S s_vtpm;
      `S Manpage.s_options;
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~man
       ~doc:
         "Serve a multi-tenant PAL request load and report per-tenant \
          goodput, shed/timeout counts and p50/p95/p99 latency. Compare \
          $(b,--mode current), $(b,--mode proposed) and $(b,--mode sfi) on \
          the same seed to see what each isolation backend buys under \
          load.")
    Term.(
      const run_serve $ machine_arg $ serve_mode_arg $ rate_arg $ duration_arg
      $ cores_arg $ tenants_arg $ depth_arg $ discipline_arg
      $ analyze_gate_arg $ admission_cost_arg $ cost_budget_arg $ timer_arg
      $ deadline_arg $ closed_arg $ think_arg $ seed_arg $ fault_rate_arg
      $ fault_kinds_arg $ fault_seed_arg $ vtpm_arg $ trace_arg
      $ trace_summary_arg)

(* --- cluster --- *)

let cluster_usage =
  "usage: sea-cli cluster --machines N --shards K --policy POLICY\n\
  \       with N >= 1 and 1 <= K <= N; see sea-cli cluster --help"

(* Parse the churn flag group into an optional churn config. Everything
   follows the exit-1-plus-message convention; the fleet-shape check
   (failover needs survivors to fail over to) uses the cluster usage
   string because it is a --machines problem as much as a --failover
   one. *)
let churn_of_flags ~machines ~duration_s ~mttf ~mttr ~partition ~link_loss
    ~failover ~fault_seed =
  let failover_on =
    match String.lowercase_ascii (String.trim failover) with
    | "on" -> true
    | "off" -> false
    | other ->
        or_die
          (Error (Printf.sprintf "--failover must be on or off, not %S" other))
  in
  match mttf with
  | None ->
      if partition <> None then
        or_die (Error "--partition needs --mttf (it seeds the churn plan)");
      if link_loss <> 0. then
        or_die (Error "--link-loss needs --mttf (it seeds the churn plan)");
      None
  | Some mttf_s ->
      if mttf_s <= 0. then or_die (Error "--mttf must be positive");
      if mttr <= 0. then or_die (Error "--mttr must be positive");
      (match partition with
      | Some p when p <= 0. -> or_die (Error "--partition must be positive")
      | Some p when p > duration_s ->
          or_die
            (Error
               (Printf.sprintf
                  "--partition %.3gs exceeds the serving window (--duration \
                   %.3gs)"
                  p duration_s))
      | _ -> ());
      if link_loss < 0. || link_loss >= 1. then
        or_die (Error "--link-loss must be in [0, 1)");
      if failover_on && machines < 2 then begin
        Printf.eprintf
          "error: --failover on needs at least 2 machines (no survivor to \
           fail over to)\n%s\n"
          cluster_usage;
        exit 1
      end;
      let plan =
        Sea_fault.Machine_fault.spec ~mttf:(Time.s mttf_s) ~mttr:(Time.s mttr)
          ?partition:(Option.map Time.s partition)
          ~link_loss ~seed:fault_seed ()
      in
      Some (Sea_cluster.Cluster.churn ~failover:failover_on plan ())

(* Parse the autoscale flag group into an optional controller config.
   [Autoscale.config]'s own validation names the flags, so its
   Invalid_argument messages pass straight through or_die. *)
let autoscale_of_flags ~autoscale ~scale_interval ~hot_threshold =
  match autoscale with
  | None ->
      if scale_interval <> None then
        or_die (Error "--scale-interval needs --autoscale");
      if hot_threshold <> None then
        or_die (Error "--hot-threshold needs --autoscale");
      None
  | Some name ->
      let policy =
        match Sea_cluster.Autoscale.policy_of_name name with
        | Some p -> p
        | None -> (
            match String.lowercase_ascii (String.trim name) with
            | "on" -> Sea_cluster.Autoscale.Auto
            | other ->
                or_die
                  (Error
                     (Printf.sprintf
                        "--autoscale must be static, migrate, spread, auto \
                         or on, not %S"
                        other)))
      in
      let interval = Option.map Time.s scale_interval in
      (try
         Some
           (Sea_cluster.Autoscale.config ~policy ?interval
              ?hot_threshold:hot_threshold ())
       with Invalid_argument e -> or_die (Error e))

(* Map --shape to a workload shape, parameterized off the serving
   window: the diurnal cycle is one full period over the window
   (trough 0.25), the flash crowd a 4x spike over the middle half of
   the second quarter onward — wide enough that a static fleet must eat
   it, narrow enough that the window sees before and after. *)
let shape_of_flag ~duration_s shape =
  match String.lowercase_ascii (String.trim shape) with
  | "steady" -> Sea_serve.Workload.Steady
  | "diurnal" ->
      Sea_serve.Workload.Diurnal
        { period = Time.s duration_s; trough = 0.25 }
  | "flash" ->
      Sea_serve.Workload.Flash
        {
          at = Time.s (duration_s /. 4.);
          width = Time.s (duration_s /. 4.);
          spike = 4.;
        }
  | other ->
      or_die
        (Error
           (Printf.sprintf "--shape must be steady, diurnal or flash, not %S"
              other))

let run_cluster machine_config mode machines shards policy rate duration_s
    cores tenants depth discipline analyze admission cost_budget timer_ms
    deadline_ms closed think_ms seed fault_rate fault_kinds fault_seed vtpm
    mttf mttr partition link_loss failover autoscale scale_interval
    hot_threshold shape zipf trace_prefix =
  (* Fleet-shape validation first: bad --machines/--shards must exit 1
     with a usage message, never escape as a raised Invalid_argument. *)
  let cfg =
    try Sea_cluster.Cluster.config ~shards ~policy ~machines ()
    with Invalid_argument e ->
      Printf.eprintf "error: %s\n%s\n" e cluster_usage;
      exit 1
  in
  if rate <= 0. then or_die (Error "--rate must be positive");
  if duration_s <= 0. then or_die (Error "--duration must be positive");
  if timer_ms <= 0. then or_die (Error "--timer must be positive");
  validate_vtpm_flag vtpm;
  let churn =
    churn_of_flags ~machines ~duration_s ~mttf ~mttr ~partition ~link_loss
      ~failover ~fault_seed
  in
  let autoscale =
    autoscale_of_flags ~autoscale ~scale_interval ~hot_threshold
  in
  let shape = shape_of_flag ~duration_s shape in
  (match zipf with
  | Some a when a <= 0. -> or_die (Error "--zipf must be positive")
  | _ -> ());
  let mode = mode_of_flag mode in
  let analyze = gate_of_flag analyze in
  let discipline = discipline_of_flags ~discipline ~admission ~cost_budget in
  let faults = fault_spec_of_flags ~fault_rate ~fault_kinds ~fault_seed in
  try
    let machine_config = serving_machine_config machine_config mode cores in
    let serve =
      Sea_serve.Server.config ~queue_depth:depth ~discipline ~analyze
        ~preemption_timer:(Time.ms timer_ms) ?faults ?vtpm ~mode
        ~duration:(Time.s duration_s) ()
    in
    let deadline = Option.map Time.ms deadline_ms in
    let process =
      match closed with
      | Some clients -> `Closed (clients, Time.ms think_ms)
      | None -> `Open rate
    in
    let tenants =
      match tenants with Some n -> n | None -> machines * 3
    in
    let popularity =
      match zipf with None -> `Even | Some alpha -> `Zipf alpha
    in
    let workload =
      Sea_serve.Workload.preset ?deadline ~shape ~popularity ~tenants process
    in
    let sinks =
      match trace_prefix with
      | None -> None
      | Some _ -> Some (Array.init machines (fun _ -> Sea_trace.Trace.create ()))
    in
    (* Wall clock and shard count go to stderr only: stdout carries the
       merged report, which CI diffs byte-for-byte across shard counts. *)
    let t0 = Unix.gettimeofday () in
    let result =
      Sea_cluster.Cluster.run ~seed:(Int64.of_int seed)
        ?trace:(Option.map (fun arr i -> arr.(i)) sinks)
        ?churn ?autoscale cfg ~machine_config ~serve workload
    in
    let wall = Unix.gettimeofday () -. t0 in
    let report = or_die result in
    (match (trace_prefix, sinks) with
    | Some prefix, Some arr ->
        Array.iteri
          (fun i sink ->
            if Sea_trace.Trace.events sink > 0 then begin
              let path = Printf.sprintf "%s.machine-%d.json" prefix i in
              let oc = open_out path in
              output_string oc (Sea_trace.Trace.export_json sink);
              close_out oc;
              Printf.eprintf "trace: machine %d: %d events written to %s\n" i
                (Sea_trace.Trace.events sink) path
            end)
          arr
    | _ -> ());
    Printf.eprintf "cluster: %d machines on %d shard%s, %.3fs wall\n" machines
      shards
      (if shards = 1 then "" else "s")
      wall;
    print_endline (Sea_cluster.Fleet_report.render report)
  with Invalid_argument e -> or_die (Error e)

let cluster_cmd =
  let machines_arg =
    let doc = "Number of machines in the fleet." in
    Arg.(value & opt int 4 & info [ "machines" ] ~docv:"N" ~docs:s_fleet ~doc)
  in
  let shards_arg =
    let doc =
      "OCaml domains to shard the fleet across (machine $(i,i) runs on shard \
       $(i,i) mod $(docv)). The merged report is byte-identical for every \
       shard count; only wall-clock time changes."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~docs:s_fleet ~doc)
  in
  let policy_arg =
    let doc =
      "Tenant routing policy: $(b,round-robin), $(b,hash) \
       (consistent-hash-by-tenant), $(b,least-loaded) (by offered rate) or \
       $(b,cost-weighted) (offered rate scaled by the mix's static \
       certificate cost)."
    in
    Arg.(
      value
      & opt (enum Sea_cluster.Router.policies) Sea_cluster.Router.Round_robin
      & info [ "policy" ] ~docv:"POLICY" ~docs:s_fleet ~doc)
  in
  let tenants_arg =
    let doc =
      "Number of tenants routed across the fleet (default: 3 per machine)."
    in
    Arg.(value & opt (some int) None & info [ "tenants" ] ~docv:"N" ~docs:s_serve ~doc)
  in
  let trace_arg =
    let doc =
      "Write one Chrome trace_event JSON file per serving machine, named \
       $(docv).machine-<i>.json (idle machines are skipped)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PREFIX" ~docs:s_fleet ~doc)
  in
  let mttf_arg =
    let doc =
      "Enable machine churn: mean time to failure, seconds of simulated \
       time per machine (exponential fail-stop crashes). The churn plan is \
       seeded from $(b,--fault-seed)."
    in
    Arg.(value & opt (some float) None & info [ "mttf" ] ~docv:"SECONDS" ~docs:s_churn ~doc)
  in
  let mttr_arg =
    let doc = "Mean time to repair a crashed machine, seconds." in
    Arg.(value & opt float 2. & info [ "mttr" ] ~docv:"SECONDS" ~docs:s_churn ~doc)
  in
  let partition_arg =
    let doc =
      "Also net-partition each machine once, for $(docv) seconds at a \
       seed-chosen instant (the machine keeps running but is unreachable)."
    in
    Arg.(
      value & opt (some float) None
      & info [ "partition" ] ~docv:"SECONDS" ~docs:s_churn ~doc)
  in
  let link_loss_arg =
    let doc =
      "Per-message drop probability in [0,1) on the migration link state \
       blobs cross during failover."
    in
    Arg.(value & opt float 0. & info [ "link-loss" ] ~docv:"P" ~docs:s_churn ~doc)
  in
  let failover_arg =
    let doc =
      "$(b,on): heartbeat-detect dead machines, re-route their tenants over \
       the surviving ring and migrate resident PAL state by \
       seal-transfer-unseal. $(b,off): machines fail in place and their \
       traffic black-holes for the outage."
    in
    Arg.(value & opt string "on" & info [ "failover" ] ~docv:"on|off" ~docs:s_churn ~doc)
  in
  let autoscale_arg =
    let doc =
      "Enable the closed-loop autoscaler (needs $(b,--policy hash)): \
       $(b,static) samples load but never rebalances, $(b,migrate) moves \
       residents by sealed-state sePCR migration over the link, \
       $(b,spread) kill-and-respawns them on the target, $(b,auto) (alias \
       $(b,on)) migrates on proposed hardware and spreads elsewhere \
       (software launches cost ~25 us on $(b,--mode sfi))."
    in
    Arg.(
      value & opt (some string) None
      & info [ "autoscale" ] ~docv:"POLICY" ~docs:s_autoscale ~doc)
  in
  let scale_interval_arg =
    let doc =
      "Autoscale control-loop sampling period, seconds of simulated time \
       (default 1)."
    in
    Arg.(
      value & opt (some float) None
      & info [ "scale-interval" ] ~docv:"SECONDS" ~docs:s_autoscale ~doc)
  in
  let hot_threshold_arg =
    let doc =
      "Hot-spot detection threshold: a machine is hot above $(docv) times \
       the fleet's mean measured load, and regrows below the mean over \
       $(docv) (default 1.5; must exceed 1)."
    in
    Arg.(
      value & opt (some float) None
      & info [ "hot-threshold" ] ~docv:"X" ~docs:s_autoscale ~doc)
  in
  let shape_arg =
    let doc =
      "Traffic shape over the window: $(b,steady), $(b,diurnal) (one \
       sinusoidal day/night cycle, trough 0.25) or $(b,flash) (a 4x flash \
       crowd over the second quarter of the window)."
    in
    Arg.(
      value & opt string "steady"
      & info [ "shape" ] ~docv:"SHAPE" ~docs:s_autoscale ~doc)
  in
  let zipf_arg =
    let doc =
      "Heavy-tailed tenant popularity: split the open-loop rate \
       Zipf($(docv)) across tenants instead of evenly."
    in
    Arg.(
      value & opt (some float) None
      & info [ "zipf" ] ~docv:"ALPHA" ~docs:s_autoscale ~doc)
  in
  let man =
    [
      `S s_fleet; `S s_churn; `S s_autoscale; `S s_serve; `S s_admission;
      `S s_analysis; `S s_fault; `S s_vtpm; `S Manpage.s_options;
    ]
  in
  Cmd.v
    (Cmd.info "cluster" ~man
       ~doc:
         "Serve a multi-tenant load on a fleet of $(b,--machines) independent \
          machines, routed by $(b,--policy) and sharded across $(b,--shards) \
          OCaml domains, then merge the per-machine reports into one fleet \
          report (true cross-machine percentiles). Identical seeds give a \
          byte-identical fleet report regardless of $(b,--shards).")
    Term.(
      const run_cluster $ machine_arg $ serve_mode_arg $ machines_arg
      $ shards_arg $ policy_arg $ rate_arg $ duration_arg $ cores_arg
      $ tenants_arg $ depth_arg $ discipline_arg $ analyze_gate_arg
      $ admission_cost_arg $ cost_budget_arg $ timer_arg $ deadline_arg
      $ closed_arg $ think_arg $ seed_arg $ fault_rate_arg $ fault_kinds_arg
      $ fault_seed_arg $ vtpm_arg $ mttf_arg $ mttr_arg
      $ partition_arg $ link_loss_arg $ failover_arg $ autoscale_arg
      $ scale_interval_arg $ hot_threshold_arg $ shape_arg $ zipf_arg
      $ trace_arg)

(* --- main --- *)

let () =
  let info =
    Cmd.info "sea-cli" ~version:"1.0"
      ~doc:
        "Simulated minimal-TCB code execution (McCune et al., ASPLOS 2008). \
         Subcommands: machines, session, attest, lifecycle, attack, boot, \
         toctou, analyze, soundness, serve, cluster."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            machines_cmd; session_cmd; attest_cmd; lifecycle_cmd; attack_cmd;
            boot_cmd; toctou_cmd; analyze_cmd; soundness_cmd; serve_cmd;
            cluster_cmd;
          ]))
