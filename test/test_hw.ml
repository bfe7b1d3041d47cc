(* Hardware platform tests: paged memory and spans, the access-control
   table state machine (Figure 5(b)), DEV protection, the memory
   controller's decisions, SECB validation, machine presets and the page
   allocator, and the instruction set: SKINIT/SENTER (Table 1 anchors),
   VM transitions (Table 2), and SLAUNCH/SYIELD/SFREE/SKILL semantics. *)

open Sea_sim
open Sea_hw

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let ok = function Ok x -> x | Error e -> Alcotest.fail e
let expect_error = function
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error"

(* --- Memory --- *)

let test_memory_rw () =
  let m = Memory.create ~pages:4 in
  checki "page count" 4 (Memory.page_count m);
  Memory.write m ~page:1 ~off:100 "hello";
  checks "read back" "hello" (Memory.read m ~page:1 ~off:100 ~len:5);
  checks "zero-initialized" (String.make 3 '\000') (Memory.read m ~page:0 ~off:0 ~len:3)

let test_memory_bounds () =
  let m = Memory.create ~pages:2 in
  Alcotest.check_raises "page out of range"
    (Invalid_argument "Memory: page 2 out of range") (fun () ->
      ignore (Memory.read m ~page:2 ~off:0 ~len:1));
  Alcotest.check_raises "cross-page access"
    (Invalid_argument "Memory: access crosses page boundary") (fun () ->
      ignore (Memory.read m ~page:0 ~off:4090 ~len:10))

let test_memory_span () =
  let m = Memory.create ~pages:4 in
  let data = String.init 6000 (fun i -> Char.chr (i mod 256)) in
  Memory.write_span m ~pages:[ 2; 0 ] ~off:100 data;
  checks "span roundtrip" data (Memory.read_span m ~pages:[ 2; 0 ] ~off:100 ~len:6000);
  (* The span is laid over the page list in order: page 2 first. *)
  checks "first page holds the head" (String.sub data 0 10)
    (Memory.read m ~page:2 ~off:100 ~len:10);
  (* Page 0 holds the tail of [data]; page 3 was never written. *)
  checks "untouched bytes and pages read as zeroes"
    (String.sub data 3996 2004 ^ String.make 2996 '\000')
    (Memory.read_span m ~pages:[ 0; 3 ] ~off:0 ~len:5000)

let test_memory_zero_page () =
  let m = Memory.create ~pages:1 in
  Memory.write m ~page:0 ~off:0 "secret";
  Memory.zero_page m 0;
  checks "erased" (String.make 6 '\000') (Memory.read m ~page:0 ~off:0 ~len:6)

(* --- Access-control table --- *)

let test_acl_lifecycle () =
  let acl = Access_control.create ~pages:8 in
  checkb "default ALL" true (Access_control.get acl 0 = Access_control.All);
  ok (Access_control.claim acl ~secb_id:1 ~cpu:0 [ 1; 2 ]);
  checkb "claimed exclusive" true
    (Access_control.get acl 1 = Access_control.Cpu_only { cpu = 0; secb_id = 1 });
  ok (Access_control.suspend acl ~secb_id:1 ~cpu:0 [ 1; 2 ]);
  checkb "suspended NONE" true
    (Access_control.get acl 1 = Access_control.None_access { secb_id = 1 });
  ok (Access_control.resume acl ~secb_id:1 ~cpu:3 [ 1; 2 ]);
  checkb "resumed on another CPU" true
    (Access_control.get acl 1 = Access_control.Cpu_only { cpu = 3; secb_id = 1 });
  ok (Access_control.release acl ~secb_id:1 [ 1; 2 ]);
  checkb "released to ALL" true (Access_control.get acl 1 = Access_control.All)

let test_acl_claim_conflicts () =
  let acl = Access_control.create ~pages:8 in
  ok (Access_control.claim acl ~secb_id:1 ~cpu:0 [ 1; 2 ]);
  expect_error (Access_control.claim acl ~secb_id:2 ~cpu:1 [ 2; 3 ]);
  (* All-or-nothing: page 3 must be untouched by the failed claim. *)
  checkb "failed claim has no side effects" true
    (Access_control.get acl 3 = Access_control.All)

let test_acl_resume_requires_owner () =
  let acl = Access_control.create ~pages:8 in
  ok (Access_control.claim acl ~secb_id:1 ~cpu:0 [ 1 ]);
  ok (Access_control.suspend acl ~secb_id:1 ~cpu:0 [ 1 ]);
  expect_error (Access_control.resume acl ~secb_id:99 ~cpu:0 [ 1 ]);
  expect_error (Access_control.resume acl ~secb_id:1 ~cpu:0 [ 1; 2 ]);
  ok (Access_control.resume acl ~secb_id:1 ~cpu:0 [ 1 ])

let test_acl_double_resume_blocked () =
  let acl = Access_control.create ~pages:8 in
  ok (Access_control.claim acl ~secb_id:1 ~cpu:0 [ 1 ]);
  (* Executing on CPU 0: resume on CPU 1 must fail. *)
  expect_error (Access_control.resume acl ~secb_id:1 ~cpu:1 [ 1 ])

let test_acl_access_predicates () =
  let acl = Access_control.create ~pages:4 in
  ok (Access_control.claim acl ~secb_id:7 ~cpu:2 [ 1 ]);
  checkb "owner CPU may access" true (Access_control.cpu_may_access acl ~cpu:2 1);
  checkb "other CPU may not" false (Access_control.cpu_may_access acl ~cpu:0 1);
  checkb "DMA may not" false (Access_control.dma_may_access acl 1);
  checkb "ALL page open to DMA" true (Access_control.dma_may_access acl 0);
  ok (Access_control.suspend acl ~secb_id:7 ~cpu:2 [ 1 ]);
  checkb "suspended: even owner locked out" false (Access_control.cpu_may_access acl ~cpu:2 1);
  Alcotest.(check (list int)) "owned pages" [ 1 ] (Access_control.owned_pages acl ~secb_id:7)

let prop_acl_no_cross_pal_access =
  QCheck.Test.make
    ~name:"claimed pages are never accessible to other CPUs or DMA" ~count:100
    QCheck.(pair (int_bound 7) (int_bound 3))
    (fun (page, cpu) ->
      let acl = Access_control.create ~pages:8 in
      match Access_control.claim acl ~secb_id:1 ~cpu [ page ] with
      | Error _ -> false
      | Ok () ->
          (not (Access_control.dma_may_access acl page))
          && List.for_all
               (fun other ->
                 other = cpu || not (Access_control.cpu_may_access acl ~cpu:other page))
               [ 0; 1; 2; 3 ])

(* --- Memory controller --- *)

let proposed_machine () =
  Machine.create (Machine.low_fidelity (Machine.proposed_variant Machine.hp_dc5750))

let test_memctrl_dev_blocks_dma_only () =
  let m = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  let ctrl = m.Machine.memctrl in
  Memctrl.dev_protect ctrl [ 5 ];
  checkb "DEV set" true (Memctrl.dev_protected ctrl 5);
  expect_error (Memctrl.read ctrl (Memctrl.Device "nic") ~page:5 ~off:0 ~len:4);
  (* Today's hardware: CPUs are NOT restricted by DEV. *)
  ignore (ok (Memctrl.read ctrl (Memctrl.Cpu 1) ~page:5 ~off:0 ~len:4));
  Memctrl.dev_unprotect ctrl [ 5 ];
  ignore (ok (Memctrl.read ctrl (Memctrl.Device "nic") ~page:5 ~off:0 ~len:4));
  checkb "denials counted" true (Memctrl.denied_accesses ctrl >= 1)

let test_memctrl_acl_blocks_cpus () =
  let m = proposed_machine () in
  let ctrl = m.Machine.memctrl in
  let acl = Option.get (Memctrl.acl ctrl) in
  ok (Access_control.claim acl ~secb_id:1 ~cpu:0 [ 7 ]);
  ignore (ok (Memctrl.read ctrl (Memctrl.Cpu 0) ~page:7 ~off:0 ~len:4));
  expect_error (Memctrl.read ctrl (Memctrl.Cpu 1) ~page:7 ~off:0 ~len:4);
  expect_error (Memctrl.write ctrl (Memctrl.Cpu 1) ~page:7 ~off:0 "x");
  expect_error (Memctrl.read ctrl (Memctrl.Device "nic") ~page:7 ~off:0 ~len:4)

let test_memctrl_span_checks_every_page () =
  let m = proposed_machine () in
  let ctrl = m.Machine.memctrl in
  let acl = Option.get (Memctrl.acl ctrl) in
  ok (Access_control.claim acl ~secb_id:1 ~cpu:0 [ 3 ]);
  expect_error
    (Memctrl.read_span ctrl (Memctrl.Cpu 1) ~pages:[ 2; 3 ] ~off:0 ~len:8000)

(* --- SECB --- *)

let test_secb_validation () =
  let ok_secb =
    Secb.create ~id:1 ~pages:[ 10; 11; 12 ] ~entry_point:0 ~pal_length:8000 ()
  in
  Alcotest.(check (list int)) "data pages" [ 11; 12 ] (Secb.data_pages ok_secb);
  checki "region bytes" 8192 (Secb.region_bytes ok_secb);
  Alcotest.check_raises "PAL too big"
    (Invalid_argument "Secb.create: PAL length exceeds allocated region") (fun () ->
      ignore (Secb.create ~id:1 ~pages:[ 1; 2 ] ~entry_point:0 ~pal_length:8000 ()));
  Alcotest.check_raises "duplicate pages"
    (Invalid_argument "Secb.create: duplicate pages") (fun () ->
      ignore (Secb.create ~id:1 ~pages:[ 1; 1 ] ~entry_point:0 ~pal_length:100 ()));
  Alcotest.check_raises "empty" (Invalid_argument "Secb.create: empty page list")
    (fun () -> ignore (Secb.create ~id:1 ~pages:[] ~entry_point:0 ~pal_length:0 ()))

(* --- Machine --- *)

let test_machine_presets () =
  checki "five presets" 5 (List.length Machine.presets);
  let tyan = Machine.create Machine.tyan_n3600r in
  checkb "tyan has no TPM" true (tyan.Machine.tpm = None);
  checki "tyan is 2x dual-core" 4 (Array.length tyan.Machine.cpus);
  let tep = Machine.create (Machine.low_fidelity Machine.intel_tep) in
  checkb "tep is Intel" true (tep.Machine.config.Machine.arch = Machine.Intel);
  let prop = proposed_machine () in
  checkb "proposed variant flag" true prop.Machine.config.Machine.proposed;
  checkb "proposed has sePCRs" true
    (match prop.Machine.tpm with
    | Some tpm -> Sea_tpm.Tpm.sepcr_bank tpm <> None
    | None -> false)

let test_machine_page_allocator () =
  let m = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  let a = Machine.alloc_pages m 4 in
  let b = Machine.alloc_pages m 4 in
  checki "distinct pages" 8 (List.length (List.sort_uniq Int.compare (a @ b)));
  Machine.free_pages m a;
  Alcotest.check_raises "double free"
    (Invalid_argument
       (Printf.sprintf "Machine.free_pages: page %d not allocated" (List.hd a)))
    (fun () -> Machine.free_pages m a);
  let c = Machine.alloc_pages m 4 in
  checki "freed pages reusable" 4 (List.length c)

let test_machine_idle_wake () =
  let m = Machine.create (Machine.low_fidelity Machine.tyan_n3600r) in
  Machine.idle_other_cpus m ~except:2;
  Array.iter
    (fun c ->
      if c.Cpu.id = 2 then checkb "kept" true (c.Cpu.status = Cpu.Legacy)
      else checkb "idled" true (c.Cpu.status = Cpu.Idle))
    m.Machine.cpus;
  Machine.wake_cpus m;
  Array.iter (fun c -> checkb "woken" true (c.Cpu.status = Cpu.Legacy)) m.Machine.cpus

(* --- SKINIT / SENTER --- *)

let load_pal m size =
  let pages = Machine.alloc_pages m ((size + Memory.page_size - 1) / Memory.page_size) in
  let drbg = Sea_crypto.Drbg.create ~seed:"hw-test-pal" in
  let code = Sea_crypto.Drbg.generate_string drbg size in
  Memory.write_span (Memctrl.memory m.Machine.memctrl) ~pages ~off:0 code;
  (pages, code)

let test_skinit_requires_idle_cpus () =
  let m = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  let pages, _ = load_pal m 4096 in
  expect_error (Insn.skinit m ~cpu:0 ~pages ~length:4096);
  Machine.idle_other_cpus m ~except:0;
  ignore (ok (Insn.skinit m ~cpu:0 ~pages ~length:4096))

let test_skinit_measures_and_protects () =
  let m = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  let pages, code = load_pal m 4096 in
  Machine.idle_other_cpus m ~except:0;
  let measurement = ok (Insn.skinit m ~cpu:0 ~pages ~length:4096) in
  checks "returns H(code)" (Sea_crypto.Sha1.digest code) measurement;
  let tpm = Machine.tpm_exn m in
  checks "PCR17 extended"
    (Sea_crypto.Sha1.digest (String.make 20 '\000' ^ measurement))
    (Sea_tpm.Tpm.pcr_read tpm 17);
  checkb "DEV protects SLB" true (Memctrl.dev_protected m.Machine.memctrl (List.hd pages));
  checkb "interrupts disabled" false (Machine.cpu m 0).Cpu.interrupts_enabled

let test_skinit_size_limit () =
  let m = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  Machine.idle_other_cpus m ~except:0;
  expect_error (Insn.skinit m ~cpu:0 ~pages:[ 1 ] ~length:(65 * 1024))

let test_skinit_wrong_arch () =
  let m = Machine.create (Machine.low_fidelity Machine.intel_tep) in
  Machine.idle_other_cpus m ~except:0;
  expect_error (Insn.skinit m ~cpu:0 ~pages:[ 1 ] ~length:1024);
  let m2 = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  Machine.idle_other_cpus m2 ~except:0;
  expect_error (Insn.senter m2 ~cpu:0 ~pages:[ 1 ] ~length:1024)

let test_table1_dc5750_timing () =
  (* The headline row: 64 KB SKINIT on the HP dc5750 took 177.52 ms. *)
  let m = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  let pages, _ = load_pal m (64 * 1024) in
  Machine.idle_other_cpus m ~except:0;
  let t0 = Machine.now m in
  ignore (ok (Insn.skinit m ~cpu:0 ~pages ~length:(64 * 1024)));
  let ms = Time.to_ms (Time.sub (Machine.now m) t0) in
  checkb (Printf.sprintf "within 2%% of 177.52 (got %.2f)" ms) true
    (abs_float (ms -. 177.52) < 3.5)

let test_table1_tyan_timing () =
  let m = Machine.create Machine.tyan_n3600r in
  let pages, _ = load_pal m (64 * 1024) in
  Machine.idle_other_cpus m ~except:0;
  let t0 = Machine.now m in
  ignore (ok (Insn.skinit m ~cpu:0 ~pages ~length:(64 * 1024)));
  let ms = Time.to_ms (Time.sub (Machine.now m) t0) in
  checkb (Printf.sprintf "within 2%% of 8.82 (got %.2f)" ms) true
    (abs_float (ms -. 8.82) < 0.18)

let test_table1_senter_timing () =
  let m = Machine.create (Machine.low_fidelity Machine.intel_tep) in
  let run size =
    let pages, _ = load_pal m (max size 4096) in
    Machine.idle_other_cpus m ~except:0;
    let t0 = Machine.now m in
    ignore (ok (Insn.senter m ~cpu:0 ~pages ~length:size));
    let ms = Time.to_ms (Time.sub (Machine.now m) t0) in
    Machine.free_pages m pages;
    ms
  in
  let t0k = run 0 and t64k = run (64 * 1024) in
  checkb (Printf.sprintf "0 KB ~26.4 ms (got %.2f)" t0k) true (abs_float (t0k -. 26.39) < 1.0);
  checkb (Printf.sprintf "64 KB ~34.35 ms (got %.2f)" t64k) true
    (abs_float (t64k -. 34.35) < 1.0);
  checkb "slow linear growth" true (t64k -. t0k > 7. && t64k -. t0k < 9.)

let test_senter_extends_pcr17_and_18 () =
  let m = Machine.create (Machine.low_fidelity Machine.intel_tep) in
  let pages, code = load_pal m 4096 in
  Machine.idle_other_cpus m ~except:0;
  let measurement = ok (Insn.senter m ~cpu:0 ~pages ~length:4096) in
  checks "returns PAL hash" (Sea_crypto.Sha1.digest code) measurement;
  let tpm = Machine.tpm_exn m in
  checkb "PCR17 holds ACMod chain (not -1, not 0)" true
    (let v = Sea_tpm.Tpm.pcr_read tpm 17 in
     v <> String.make 20 '\000' && v <> String.make 20 '\xff');
  checks "PCR18 holds the PAL"
    (Sea_crypto.Sha1.digest (String.make 20 '\000' ^ measurement))
    (Sea_tpm.Tpm.pcr_read tpm 18)

(* --- VM transitions (Table 2) --- *)

let test_table2_vm_costs () =
  let amd = Machine.create Machine.tyan_n3600r in
  let intel = Machine.create (Machine.low_fidelity Machine.intel_tep) in
  let sample m f =
    let s = Stats.create () in
    for _ = 1 to 200 do
      let t0 = Machine.now m in
      f ();
      Stats.add s (Time.to_us (Time.sub (Machine.now m) t0))
    done;
    s
  in
  let amd_enter = sample amd (fun () -> Insn.vm_enter amd ~cpu:0) in
  let amd_exit = sample amd (fun () -> Insn.vm_exit amd ~cpu:0) in
  let intel_enter = sample intel (fun () -> Insn.vm_enter intel ~cpu:0) in
  checkb "AMD enter ~0.558 us" true (abs_float (Stats.mean amd_enter -. 0.558) < 0.01);
  checkb "AMD exit ~0.519 us" true (abs_float (Stats.mean amd_exit -. 0.519) < 0.01);
  checkb "Intel enter ~0.446 us" true (abs_float (Stats.mean intel_enter -. 0.446) < 0.01);
  checkb "jitter present but small" true
    (Stats.stdev amd_enter > 0. && Stats.stdev amd_enter < 0.02)

(* --- SLAUNCH family --- *)

let make_secb m size =
  let pages = Machine.alloc_pages m (1 + ((size + Memory.page_size - 1) / Memory.page_size)) in
  let secb = Secb.create ~id:(Machine.fresh_secb_id m) ~pages ~entry_point:0 ~pal_length:size () in
  let drbg = Sea_crypto.Drbg.create ~seed:"hw-slaunch-pal" in
  let code = Sea_crypto.Drbg.generate_string drbg size in
  Memory.write_span (Memctrl.memory m.Machine.memctrl) ~pages:(Secb.data_pages secb) ~off:0 code;
  (secb, code)

let test_slaunch_requires_proposed_hw () =
  let m = Machine.create (Machine.low_fidelity Machine.hp_dc5750) in
  let secb, _ = make_secb m 4096 in
  expect_error (Insn.slaunch m ~cpu:0 secb)

let test_slaunch_lifecycle () =
  let m = proposed_machine () in
  let secb, code = make_secb m 4096 in
  (match ok (Insn.slaunch m ~cpu:0 secb) with
  | Insn.Launched meas -> checks "measured" (Sea_crypto.Sha1.digest code) meas
  | Insn.Resumed -> Alcotest.fail "fresh SECB resumed");
  checkb "measured flag set" true secb.Secb.measured;
  checkb "sePCR bound" true (secb.Secb.sepcr <> None);
  checkb "CPU in PAL" true ((Machine.cpu m 0).Cpu.status = Cpu.In_pal secb.Secb.id);
  (* Yield, then resume on a different CPU. *)
  ignore (ok (Insn.syield m ~cpu:0 secb));
  checkb "CPU back to legacy" true ((Machine.cpu m 0).Cpu.status = Cpu.Legacy);
  (match ok (Insn.slaunch m ~cpu:1 secb) with
  | Insn.Resumed -> ()
  | Insn.Launched _ -> Alcotest.fail "resume re-measured");
  checkb "now on CPU 1" true ((Machine.cpu m 1).Cpu.status = Cpu.In_pal secb.Secb.id);
  (* Exit. *)
  ignore (ok (Insn.sfree m ~cpu:1 secb));
  checkb "freed" true secb.Secb.freed;
  let acl = Option.get (Memctrl.acl m.Machine.memctrl) in
  List.iter
    (fun p -> checkb "pages returned to ALL" true (Access_control.get acl p = Access_control.All))
    secb.Secb.pages

let test_slaunch_page_conflict () =
  let m = proposed_machine () in
  let secb1, _ = make_secb m 4096 in
  ignore (ok (Insn.slaunch m ~cpu:0 secb1));
  (* Another SECB overlapping the same pages must fail to launch. *)
  let secb2 =
    Secb.create ~id:(Machine.fresh_secb_id m) ~pages:secb1.Secb.pages ~entry_point:0
      ~pal_length:4096 ()
  in
  expect_error (Insn.slaunch m ~cpu:1 secb2)

let test_slaunch_sepcr_exhaustion_backs_out () =
  let cfg =
    { (Machine.proposed_variant ~sepcr_count:1 Machine.hp_dc5750) with
      Machine.tpm_key_bits = 512 }
  in
  let m = Machine.create cfg in
  let secb1, _ = make_secb m 4096 in
  ignore (ok (Insn.slaunch m ~cpu:0 secb1));
  let secb2, _ = make_secb m 4096 in
  expect_error (Insn.slaunch m ~cpu:1 secb2);
  (* Failure must back out the page protections (§5.1.1 failure code). *)
  let acl = Option.get (Memctrl.acl m.Machine.memctrl) in
  List.iter
    (fun p -> checkb "backed out to ALL" true (Access_control.get acl p = Access_control.All))
    secb2.Secb.pages

let test_syield_saves_state_and_isolates () =
  let m = proposed_machine () in
  let secb, _ = make_secb m 4096 in
  ignore (ok (Insn.slaunch m ~cpu:0 secb));
  ignore (ok (Insn.syield m ~cpu:0 secb));
  checkb "state snapshot saved" true (secb.Secb.saved_state <> None);
  (* Suspended pages are inaccessible to everyone, even the old CPU. *)
  expect_error
    (Memctrl.read m.Machine.memctrl (Memctrl.Cpu 0) ~page:(List.hd secb.Secb.pages)
       ~off:0 ~len:4)

let test_sfree_only_from_inside () =
  let m = proposed_machine () in
  let secb, _ = make_secb m 4096 in
  ignore (ok (Insn.slaunch m ~cpu:0 secb));
  expect_error (Insn.sfree m ~cpu:1 secb);
  ignore (ok (Insn.syield m ~cpu:0 secb));
  expect_error (Insn.sfree m ~cpu:0 secb)

let test_skill_erases_and_frees () =
  let m = proposed_machine () in
  let secb, _ = make_secb m 4096 in
  ignore (ok (Insn.slaunch m ~cpu:0 secb));
  (* SKILL must not work while executing. *)
  expect_error (Insn.skill m secb);
  ignore (ok (Insn.syield m ~cpu:0 secb));
  ignore (ok (Insn.skill m secb));
  checkb "freed" true secb.Secb.freed;
  (* Pages are zeroed and public again. *)
  let data =
    ok
      (Memctrl.read m.Machine.memctrl (Memctrl.Cpu 1)
         ~page:(List.nth secb.Secb.pages 1) ~off:0 ~len:64)
  in
  checks "erased" (String.make 64 '\000') data;
  (* The sePCR was extended with the SKILL constant and freed. *)
  (match Sea_tpm.Tpm.sepcr_bank (Machine.tpm_exn m) with
  | Some bank -> checki "sePCR free" (Sea_tpm.Sepcr.size bank) (Sea_tpm.Sepcr.free_count bank)
  | None -> assert false)

let test_slaunch_resume_cost_is_vm_scale () =
  (* §5.7: context-switch cost on the proposed hardware should be on the
     order of a VM entry (~0.6 us), six orders below the TPM-based path. *)
  let m = proposed_machine () in
  let secb, _ = make_secb m 4096 in
  ignore (ok (Insn.slaunch m ~cpu:0 secb));
  let s = Stats.create () in
  for _ = 1 to 50 do
    ignore (ok (Insn.syield m ~cpu:0 secb));
    let t0 = Machine.now m in
    ignore (ok (Insn.slaunch m ~cpu:0 secb));
    Stats.add s (Time.to_us (Time.sub (Machine.now m) t0))
  done;
  checkb (Printf.sprintf "resume ~0.6 us (got %.3f)" (Stats.mean s)) true
    (Stats.mean s < 1.0)

let () =
  Alcotest.run "hw"
    [
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_memory_rw;
          Alcotest.test_case "bounds" `Quick test_memory_bounds;
          Alcotest.test_case "spans" `Quick test_memory_span;
          Alcotest.test_case "zero page" `Quick test_memory_zero_page;
        ] );
      ( "access-control",
        [
          Alcotest.test_case "lifecycle (Figure 5b)" `Quick test_acl_lifecycle;
          Alcotest.test_case "claim conflicts" `Quick test_acl_claim_conflicts;
          Alcotest.test_case "resume requires owner" `Quick test_acl_resume_requires_owner;
          Alcotest.test_case "double resume blocked" `Quick test_acl_double_resume_blocked;
          Alcotest.test_case "access predicates" `Quick test_acl_access_predicates;
          QCheck_alcotest.to_alcotest prop_acl_no_cross_pal_access;
        ] );
      ( "memctrl",
        [
          Alcotest.test_case "DEV blocks DMA only" `Quick test_memctrl_dev_blocks_dma_only;
          Alcotest.test_case "ACL blocks CPUs" `Quick test_memctrl_acl_blocks_cpus;
          Alcotest.test_case "span checks every page" `Quick test_memctrl_span_checks_every_page;
        ] );
      ("secb", [ Alcotest.test_case "validation" `Quick test_secb_validation ]);
      ( "machine",
        [
          Alcotest.test_case "presets" `Quick test_machine_presets;
          Alcotest.test_case "page allocator" `Quick test_machine_page_allocator;
          Alcotest.test_case "idle/wake" `Quick test_machine_idle_wake;
        ] );
      ( "late-launch",
        [
          Alcotest.test_case "requires idle CPUs" `Quick test_skinit_requires_idle_cpus;
          Alcotest.test_case "measures and protects" `Quick test_skinit_measures_and_protects;
          Alcotest.test_case "64 KB limit" `Quick test_skinit_size_limit;
          Alcotest.test_case "architecture dispatch" `Quick test_skinit_wrong_arch;
          Alcotest.test_case "Table 1: dc5750 64 KB" `Quick test_table1_dc5750_timing;
          Alcotest.test_case "Table 1: Tyan 64 KB" `Quick test_table1_tyan_timing;
          Alcotest.test_case "Table 1: SENTER" `Quick test_table1_senter_timing;
          Alcotest.test_case "SENTER PCR 17+18" `Quick test_senter_extends_pcr17_and_18;
        ] );
      ("vm", [ Alcotest.test_case "Table 2 costs" `Quick test_table2_vm_costs ]);
      ( "slaunch",
        [
          Alcotest.test_case "requires proposed hw" `Quick test_slaunch_requires_proposed_hw;
          Alcotest.test_case "full lifecycle" `Quick test_slaunch_lifecycle;
          Alcotest.test_case "page conflict" `Quick test_slaunch_page_conflict;
          Alcotest.test_case "sePCR exhaustion backs out" `Quick
            test_slaunch_sepcr_exhaustion_backs_out;
          Alcotest.test_case "SYIELD saves and isolates" `Quick test_syield_saves_state_and_isolates;
          Alcotest.test_case "SFREE only from inside" `Quick test_sfree_only_from_inside;
          Alcotest.test_case "SKILL erases and frees" `Quick test_skill_erases_and_frees;
          Alcotest.test_case "resume at VM-entry cost (§5.7)" `Quick
            test_slaunch_resume_cost_is_vm_scale;
        ] );
    ]
