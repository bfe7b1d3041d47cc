(* Tests for the §6 extensions and the rollback-protection feature:
   multicore PALs (join/leave at the access-control, instruction and
   session levels), sePCR sets, PAL interrupt handling, TPM monotonic
   counters, and replay-protected sealed storage. *)

open Sea_sim
open Sea_hw
open Sea_core

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let ok = function Ok x -> x | Error e -> Alcotest.fail e
let expect_error = function Error _ -> () | Ok _ -> Alcotest.fail "expected error"

let proposed ?(cpu_count = 4) () =
  let cfg = Machine.low_fidelity (Machine.proposed_variant Machine.hp_dc5750) in
  Machine.create { cfg with Machine.cpu_count }

(* --- Access-control join/leave --- *)

let test_acl_join_leave () =
  let acl = Access_control.create ~pages:8 in
  ok (Access_control.claim acl ~secb_id:1 ~cpu:0 [ 1; 2 ]);
  ok (Access_control.join acl ~secb_id:1 ~cpu:2 [ 1; 2 ]);
  checkb "shared state" true
    (Access_control.get acl 1 = Access_control.Shared { cpus = [ 0; 2 ]; secb_id = 1 });
  checkb "both CPUs access" true
    (Access_control.cpu_may_access acl ~cpu:0 1
    && Access_control.cpu_may_access acl ~cpu:2 1);
  checkb "third CPU still blocked" false (Access_control.cpu_may_access acl ~cpu:1 1);
  checkb "DMA still blocked" false (Access_control.dma_may_access acl 1);
  ok (Access_control.join acl ~secb_id:1 ~cpu:3 [ 1; 2 ]);
  ok (Access_control.leave acl ~secb_id:1 ~cpu:0 [ 1; 2 ]);
  checkb "primary may leave at the table level" true
    (Access_control.get acl 1 = Access_control.Shared { cpus = [ 2; 3 ]; secb_id = 1 });
  ok (Access_control.leave acl ~secb_id:1 ~cpu:3 [ 1; 2 ]);
  checkb "back to exclusive" true
    (Access_control.get acl 1 = Access_control.Cpu_only { cpu = 2; secb_id = 1 })

let test_acl_join_errors () =
  let acl = Access_control.create ~pages:8 in
  ok (Access_control.claim acl ~secb_id:1 ~cpu:0 [ 1 ]);
  expect_error (Access_control.join acl ~secb_id:1 ~cpu:0 [ 1 ]);
  expect_error (Access_control.join acl ~secb_id:2 ~cpu:1 [ 1 ]);
  expect_error (Access_control.leave acl ~secb_id:1 ~cpu:0 [ 1 ]);
  ok (Access_control.suspend acl ~secb_id:1 ~cpu:0 [ 1 ]);
  expect_error (Access_control.join acl ~secb_id:1 ~cpu:1 [ 1 ]);
  expect_error (Access_control.join acl ~secb_id:1 ~cpu:1 [])

let test_acl_suspend_requires_single_owner () =
  let acl = Access_control.create ~pages:8 in
  ok (Access_control.claim acl ~secb_id:1 ~cpu:0 [ 1 ]);
  ok (Access_control.join acl ~secb_id:1 ~cpu:1 [ 1 ]);
  expect_error (Access_control.suspend acl ~secb_id:1 ~cpu:0 [ 1 ]);
  ok (Access_control.leave acl ~secb_id:1 ~cpu:1 [ 1 ]);
  ok (Access_control.suspend acl ~secb_id:1 ~cpu:0 [ 1 ])

let prop_join_leave_roundtrip =
  QCheck.Test.make ~name:"join then leave restores exclusive ownership" ~count:100
    QCheck.(pair (int_bound 3) (int_bound 3))
    (fun (owner, joiner) ->
      QCheck.assume (owner <> joiner);
      let acl = Access_control.create ~pages:4 in
      match Access_control.claim acl ~secb_id:9 ~cpu:owner [ 0; 1 ] with
      | Error _ -> false
      | Ok () -> (
          match Access_control.join acl ~secb_id:9 ~cpu:joiner [ 0; 1 ] with
          | Error _ -> false
          | Ok () -> (
              match Access_control.leave acl ~secb_id:9 ~cpu:joiner [ 0; 1 ] with
              | Error _ -> false
              | Ok () ->
                  Access_control.get acl 0
                  = Access_control.Cpu_only { cpu = owner; secb_id = 9 })))

(* --- SJOIN / SLEAVE instructions --- *)

let launch_worker m ~cpu ?(compute = Time.ms 40.) ?timer () =
  let pal =
    Pal.create ~name:"mc-worker" ~code_size:8192 ~compute_time:compute
      (fun services _ -> services.Pal.seal "state")
  in
  (pal, ok (Slaunch_session.start m ~cpu ?preemption_timer:timer pal ~input:""))

let test_sjoin_sleave_instructions () =
  let m = proposed () in
  let _, s = launch_worker m ~cpu:0 () in
  let secb = Slaunch_session.secb s in
  ok (Insn.sjoin m ~cpu:1 secb);
  checkb "joined CPU in PAL" true ((Machine.cpu m 1).Cpu.status = Cpu.In_pal secb.Secb.id);
  checkb "joined CPU interrupts off" false (Machine.cpu m 1).Cpu.interrupts_enabled;
  (* Joined CPU can read the PAL's pages through the controller. *)
  ignore
    (ok (Memctrl.read m.Machine.memctrl (Memctrl.Cpu 1)
           ~page:(List.nth secb.Secb.pages 1) ~off:0 ~len:4));
  expect_error (Insn.sjoin m ~cpu:1 secb);
  ok (Insn.sleave m ~cpu:1 secb);
  checkb "left CPU back to legacy" true ((Machine.cpu m 1).Cpu.status = Cpu.Legacy);
  expect_error
    (Memctrl.read m.Machine.memctrl (Memctrl.Cpu 1)
       ~page:(List.nth secb.Secb.pages 1) ~off:0 ~len:4);
  (* Cleanup: drive the PAL to completion. *)
  ignore (ok (Slaunch_session.run_slice s ~cpu:0 ()));
  Slaunch_session.release s

(* SFREE with a helper still joined would free the SECB under the
   helper, stranding it in the PAL: refused on either CPU, as SYIELD is,
   until the helper SLEAVEs. *)
let test_sfree_refused_while_joined () =
  let m = proposed () in
  let _, s = launch_worker m ~cpu:0 () in
  let secb = Slaunch_session.secb s in
  ok (Insn.sjoin m ~cpu:1 secb);
  List.iter
    (fun cpu ->
      match Insn.sfree m ~cpu secb with
      | Ok () -> Alcotest.failf "SFREE on CPU %d freed a joined PAL" cpu
      | Error e ->
          checkb "refused like SYIELD" true
            (String.ends_with ~suffix:"other CPUs must leave first" e))
    [ 0; 1 ];
  checkb "SECB still live" false secb.Secb.freed;
  ok (Insn.sleave m ~cpu:1 secb);
  checkb "helper back to legacy" true ((Machine.cpu m 1).Cpu.status = Cpu.Legacy);
  ok (Insn.sfree m ~cpu:0 secb);
  checkb "SECB freed" true secb.Secb.freed;
  checkb "primary back to legacy" true ((Machine.cpu m 0).Cpu.status = Cpu.Legacy);
  Slaunch_session.release s

let test_sjoin_requires_executing () =
  let m = proposed () in
  let _, s = launch_worker m ~cpu:0 ~timer:(Time.ms 5.) () in
  (match ok (Slaunch_session.run_slice s ~cpu:0 ()) with
  | `Yielded -> ()
  | `Finished -> Alcotest.fail "expected preemption");
  (* Suspended PAL: the adversary's uninvited join must fail. *)
  (match Sea_os.Adversary.join_uninvited_cpu m ~cpu:1 (Slaunch_session.secb s) with
  | Sea_os.Adversary.Blocked _ -> ()
  | Sea_os.Adversary.Succeeded w -> Alcotest.fail w);
  ok (Slaunch_session.kill s);
  Slaunch_session.release s

(* --- Multicore sessions --- *)

let test_multicore_speedup () =
  (* 40 ms of work, 10 ms slices: single-core needs 4 slices; with one
     helper joined the rate doubles. *)
  let m1 = proposed () in
  let _, s1 = launch_worker m1 ~cpu:0 ~timer:(Time.ms 10.) () in
  let count_slices s cpu =
    let n = ref 1 in
    let rec go () =
      match ok (Slaunch_session.run_slice s ~cpu ()) with
      | `Finished -> ()
      | `Yielded ->
          incr n;
          ok (Slaunch_session.resume s ~cpu);
          go ()
    in
    go ();
    !n
  in
  let single = count_slices s1 0 in
  Slaunch_session.release s1;
  let m2 = proposed () in
  let _, s2 = launch_worker m2 ~cpu:0 ~timer:(Time.ms 10.) () in
  checki "no workers when created alone" 1 (Slaunch_session.worker_count s2);
  ok (Slaunch_session.join s2 ~cpu:1);
  checki "two workers" 2 (Slaunch_session.worker_count s2);
  (* Helpers shed on yield; re-join after each resume. *)
  let n = ref 1 in
  let rec go () =
    match ok (Slaunch_session.run_slice s2 ~cpu:0 ()) with
    | `Finished -> ()
    | `Yielded ->
        incr n;
        ok (Slaunch_session.resume s2 ~cpu:0);
        ok (Slaunch_session.join s2 ~cpu:1);
        go ()
  in
  go ();
  let dual = !n in
  Slaunch_session.release s2;
  checki "single-core slice count" 4 single;
  checki "dual-core halves the slices" 2 dual

let test_multicore_shed_on_yield () =
  let m = proposed () in
  let _, s = launch_worker m ~cpu:0 ~timer:(Time.ms 5.) () in
  ok (Slaunch_session.join s ~cpu:1);
  ok (Slaunch_session.join s ~cpu:2);
  checki "three workers" 3 (Slaunch_session.worker_count s);
  (match ok (Slaunch_session.run_slice s ~cpu:0 ()) with
  | `Yielded -> ()
  | `Finished -> Alcotest.fail "expected yield");
  checki "suspended: no workers" 0 (Slaunch_session.worker_count s);
  Array.iter
    (fun c -> checkb "all cores back to legacy" true (c.Cpu.status = Cpu.Legacy))
    m.Machine.cpus;
  ok (Slaunch_session.kill s);
  Slaunch_session.release s

let test_multicore_primary_cannot_leave () =
  let m = proposed () in
  let _, s = launch_worker m ~cpu:0 () in
  expect_error (Slaunch_session.leave s ~cpu:0);
  ok (Slaunch_session.join s ~cpu:1);
  expect_error (Slaunch_session.leave s ~cpu:0);
  ok (Slaunch_session.leave s ~cpu:1);
  ignore (ok (Slaunch_session.run_slice s ~cpu:0 ()));
  Slaunch_session.release s

(* --- Interrupt handling --- *)

let test_interrupt_routing () =
  let m = proposed () in
  let pages = Machine.alloc_pages m 3 in
  let secb =
    Secb.create ~id:(Machine.fresh_secb_id m) ~pages ~entry_point:0 ~pal_length:4096
      ~idt:[ 0x21; 0x40 ] ()
  in
  Memory.write_span (Memctrl.memory m.Machine.memctrl) ~pages:(Secb.data_pages secb)
    ~off:0 (String.make 4096 'c');
  checkb "no PAL: to OS" true
    (Insn.deliver_interrupt m ~secbs:[ secb ] ~vector:0x21 = Insn.To_os);
  (match ok (Insn.slaunch m ~cpu:0 secb) with
  | Insn.Launched _ -> ()
  | Insn.Resumed -> Alcotest.fail "fresh SECB resumed");
  checkb "registered vector to PAL" true
    (Insn.deliver_interrupt m ~secbs:[ secb ] ~vector:0x21
    = Insn.To_pal secb.Secb.id);
  checkb "unregistered vector to OS" true
    (Insn.deliver_interrupt m ~secbs:[ secb ] ~vector:0x22 = Insn.To_os);
  ok (Insn.syield m ~cpu:0 secb);
  checkb "suspended PAL: to OS" true
    (Insn.deliver_interrupt m ~secbs:[ secb ] ~vector:0x21 = Insn.To_os)

let test_interrupt_reprogram_cost_charged () =
  let launch_and_cycle idt =
    let m = proposed () in
    let pages = Machine.alloc_pages m 3 in
    let secb =
      Secb.create ~id:(Machine.fresh_secb_id m) ~pages ~entry_point:0 ~pal_length:4096
        ~idt ()
    in
    Memory.write_span (Memctrl.memory m.Machine.memctrl)
      ~pages:(Secb.data_pages secb) ~off:0 (String.make 4096 'c');
    ignore (ok (Insn.slaunch m ~cpu:0 secb));
    ok (Insn.syield m ~cpu:0 secb);
    let t0 = Machine.now m in
    ignore (ok (Insn.slaunch m ~cpu:0 secb));
    Time.to_us (Time.sub (Machine.now m) t0)
  in
  let bare = launch_and_cycle [] in
  let with_idt = launch_and_cycle [ 1; 2; 3 ] in
  checkb
    (Printf.sprintf "IDT adds ~3 us per dispatch (%.2f vs %.2f)" bare with_idt)
    true
    (with_idt -. bare > 2.5 && with_idt -. bare < 3.5);
  checkb "cost helper agrees" true
    (let secb =
       Secb.create ~id:0 ~pages:[ 1 ] ~entry_point:0 ~pal_length:0 ~idt:[ 1; 2; 3 ] ()
     in
     Insn.interrupt_reprogram_cost secb = Time.us 3.)

let test_idt_validation () =
  Alcotest.check_raises "vector out of range"
    (Invalid_argument "Secb.create: interrupt vector out of range") (fun () ->
      ignore (Secb.create ~id:0 ~pages:[ 1 ] ~entry_point:0 ~pal_length:0 ~idt:[ 256 ] ()))

(* --- sePCR sets --- *)

let test_sepcr_set_allocation () =
  let e = Engine.create () in
  let tpm = Sea_tpm.Tpm.create ~key_bits:512 ~sepcr_count:4 e in
  let caller = Sea_tpm.Tpm.Cpu 0 in
  let set = ok (Sea_tpm.Tpm.sepcr_allocate_set tpm ~caller ~size:3) in
  checki "three members" 3 (List.length set);
  checki "distinct members" 3
    (List.length (List.sort_uniq compare (List.map Sea_tpm.Sepcr.handle_to_int set)));
  (* Each member behaves as an ordinary sePCR. *)
  List.iter
    (fun h ->
      match Sea_tpm.Tpm.sepcr_extend tpm ~caller h "m" with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    set

let test_sepcr_set_atomic_failure () =
  let e = Engine.create () in
  let tpm = Sea_tpm.Tpm.create ~key_bits:512 ~sepcr_count:4 e in
  let caller = Sea_tpm.Tpm.Cpu 0 in
  ignore (ok (Sea_tpm.Tpm.sepcr_allocate tpm ~caller));
  ignore (ok (Sea_tpm.Tpm.sepcr_allocate tpm ~caller));
  (* Only 2 free; a set of 3 must fail AND roll back. *)
  expect_error (Sea_tpm.Tpm.sepcr_allocate_set tpm ~caller ~size:3);
  (match Sea_tpm.Tpm.sepcr_bank tpm with
  | Some bank -> checki "partial allocation rolled back" 2 (Sea_tpm.Sepcr.free_count bank)
  | None -> assert false);
  expect_error (Sea_tpm.Tpm.sepcr_allocate_set tpm ~caller ~size:0);
  checkb "software blocked" true
    (match Sea_tpm.Tpm.sepcr_allocate_set tpm ~caller:Sea_tpm.Tpm.Software ~size:1 with
    | Error _ -> true
    | Ok _ -> false)

(* --- Monotonic counters --- *)

let test_counters_basic () =
  let e = Engine.create () in
  let tpm = Sea_tpm.Tpm.create ~key_bits:512 e in
  let c1 = ok (Sea_tpm.Tpm.counter_create tpm) in
  let c2 = ok (Sea_tpm.Tpm.counter_create tpm) in
  checkb "distinct ids" true (c1 <> c2);
  checki "starts at zero" 0 (ok (Sea_tpm.Tpm.counter_read tpm c1));
  checki "increments" 1 (ok (Sea_tpm.Tpm.counter_increment tpm c1));
  checki "monotone" 2 (ok (Sea_tpm.Tpm.counter_increment tpm c1));
  checki "independent" 0 (ok (Sea_tpm.Tpm.counter_read tpm c2));
  expect_error (Sea_tpm.Tpm.counter_read tpm 99)

let test_counters_survive_reboot () =
  let e = Engine.create () in
  let tpm = Sea_tpm.Tpm.create ~key_bits:512 e in
  let c = ok (Sea_tpm.Tpm.counter_create tpm) in
  ignore (ok (Sea_tpm.Tpm.counter_increment tpm c));
  Sea_tpm.Tpm.reboot tpm;
  checki "value survives power cycle" 1 (ok (Sea_tpm.Tpm.counter_read tpm c))

let test_counters_exhaustion () =
  let e = Engine.create () in
  let tpm = Sea_tpm.Tpm.create ~key_bits:512 e in
  for _ = 1 to Sea_tpm.Tpm.max_counters do
    ignore (ok (Sea_tpm.Tpm.counter_create tpm))
  done;
  expect_error (Sea_tpm.Tpm.counter_create tpm)

(* --- Rollback-protected sealed storage --- *)

let test_rollback_roundtrip () =
  let m = proposed ~cpu_count:2 () in
  let tpm = Machine.tpm_exn m in
  let caller = Sea_tpm.Tpm.Cpu 0 in
  let counter = ok (Rollback.create_counter tpm) in
  let blob = ok (Rollback.seal tpm ~caller ~pcr_policy:[] ~counter "v1") in
  checkb "latest unseals" true (Rollback.unseal tpm ~caller blob = Ok "v1")

let test_rollback_detects_replay () =
  let m = proposed ~cpu_count:2 () in
  let tpm = Machine.tpm_exn m in
  let caller = Sea_tpm.Tpm.Cpu 0 in
  let counter = ok (Rollback.create_counter tpm) in
  let v1 = ok (Rollback.seal tpm ~caller ~pcr_policy:[] ~counter "v1") in
  let v2 = ok (Rollback.seal tpm ~caller ~pcr_policy:[] ~counter "v2") in
  checkb "v2 live" true (Rollback.unseal tpm ~caller v2 = Ok "v2");
  checkb "v1 now stale" true
    (Rollback.unseal tpm ~caller v1 = Error "stale sealed state (rollback detected)");
  (* As an adversary action. *)
  (match Sea_os.Adversary.replay_stale_sealed_state m ~cpu:0 ~stale_blob:v1 with
  | Sea_os.Adversary.Blocked _ -> ()
  | Sea_os.Adversary.Succeeded w -> Alcotest.fail w)

let test_rollback_plain_blob_rejected () =
  let m = proposed ~cpu_count:2 () in
  let tpm = Machine.tpm_exn m in
  let caller = Sea_tpm.Tpm.Cpu 0 in
  let plain = ok (Sea_tpm.Tpm.seal tpm ~caller ~pcr_policy:[] "not framed") in
  checkb "plain blob rejected" true
    (Rollback.unseal tpm ~caller plain = Error "not a rollback-protected blob")

let test_rollback_composes_with_sepcr () =
  (* The full discipline on proposed hardware: seal under both the PAL's
     sePCR identity and a counter; a different PAL is blocked by the
     sePCR and a stale blob by the counter. *)
  let m = proposed ~cpu_count:2 () in
  let tpm = Machine.tpm_exn m in
  let counter = ok (Rollback.create_counter tpm) in
  let h = ok (Sea_tpm.Tpm.sepcr_allocate tpm ~caller:(Sea_tpm.Tpm.Cpu 0)) in
  ignore (ok (Sea_tpm.Tpm.sepcr_measure tpm ~caller:(Sea_tpm.Tpm.Cpu 0) h ~code:"PAL-X"));
  let v1 =
    ok
      (Rollback.seal tpm ~caller:(Sea_tpm.Tpm.Cpu 0) ~sepcr:h ~pcr_policy:[] ~counter
         "gen1")
  in
  let v2 =
    ok
      (Rollback.seal tpm ~caller:(Sea_tpm.Tpm.Cpu 0) ~sepcr:h ~pcr_policy:[] ~counter
         "gen2")
  in
  checkb "latest + right PAL" true
    (Rollback.unseal tpm ~caller:(Sea_tpm.Tpm.Cpu 0) ~sepcr:h v2 = Ok "gen2");
  checkb "stale + right PAL blocked" true
    (Rollback.unseal tpm ~caller:(Sea_tpm.Tpm.Cpu 0) ~sepcr:h v1
    = Error "stale sealed state (rollback detected)");
  checkb "latest + no sePCR blocked" true
    (match Rollback.unseal tpm ~caller:(Sea_tpm.Tpm.Cpu 0) v2 with
    | Error _ -> true
    | Ok _ -> false)

let () =
  Alcotest.run "extensions"
    [
      ( "multicore-acl",
        [
          Alcotest.test_case "join/leave lifecycle" `Quick test_acl_join_leave;
          Alcotest.test_case "join errors" `Quick test_acl_join_errors;
          Alcotest.test_case "suspend needs single owner" `Quick
            test_acl_suspend_requires_single_owner;
          QCheck_alcotest.to_alcotest prop_join_leave_roundtrip;
        ] );
      ( "multicore-insn",
        [
          Alcotest.test_case "SJOIN/SLEAVE" `Quick test_sjoin_sleave_instructions;
          Alcotest.test_case "SJOIN requires executing PAL" `Quick test_sjoin_requires_executing;
          Alcotest.test_case "SFREE refused while joined" `Quick
            test_sfree_refused_while_joined;
        ] );
      ( "multicore-session",
        [
          Alcotest.test_case "speedup" `Quick test_multicore_speedup;
          Alcotest.test_case "helpers shed on yield" `Quick test_multicore_shed_on_yield;
          Alcotest.test_case "primary cannot leave" `Quick test_multicore_primary_cannot_leave;
        ] );
      ( "interrupts",
        [
          Alcotest.test_case "routing" `Quick test_interrupt_routing;
          Alcotest.test_case "reprogram cost" `Quick test_interrupt_reprogram_cost_charged;
          Alcotest.test_case "IDT validation" `Quick test_idt_validation;
        ] );
      ( "sepcr-sets",
        [
          Alcotest.test_case "allocation" `Quick test_sepcr_set_allocation;
          Alcotest.test_case "atomic failure" `Quick test_sepcr_set_atomic_failure;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick test_counters_basic;
          Alcotest.test_case "survive reboot" `Quick test_counters_survive_reboot;
          Alcotest.test_case "exhaustion" `Quick test_counters_exhaustion;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "roundtrip" `Quick test_rollback_roundtrip;
          Alcotest.test_case "replay detected" `Quick test_rollback_detects_replay;
          Alcotest.test_case "plain blob rejected" `Quick test_rollback_plain_blob_rejected;
          Alcotest.test_case "composes with sePCRs" `Quick test_rollback_composes_with_sepcr;
        ] );
    ]
