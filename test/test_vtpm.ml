(* Tests for sea.vtpm: per-tenant virtual PCR isolation, the
   anchor-changes-iff-state-changes invariant, two-layer quote
   verification, shard-count-invariant fleet reports, per-instance
   quarantine on anchor/checkpoint faults, and the coalesced LPC batch
   accounting the anchor pipeline is priced with. *)

open Sea_sim
open Sea_tpm
open Sea_fault
module Vtpm = Sea_vtpm.Vtpm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let mk ?(sepcr_count = 2) ?(seed = 5L) () =
  let e = Engine.create ~seed () in
  (e, Tpm.create ~key_bits:512 ~sepcr_count e)

let mux ?(instances = 3) ?batch tpm =
  match Vtpm.create ?batch ~tpm ~instances () with
  | Ok v -> v
  | Error e -> Alcotest.fail ("vtpm create: " ^ e)

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let contains ~sub s =
  let n = String.length sub and len = String.length s in
  let rec go i =
    if i + n > len then false else String.sub s i n = sub || go (i + 1)
  in
  go 0

(* --- construction --- *)

let test_create_validates () =
  let _, tpm = mk () in
  let is_err = function Error _ -> true | Ok _ -> false in
  checkb "instances < 1" true (is_err (Vtpm.create ~tpm ~instances:0 ()));
  checkb "batch < 1" true (is_err (Vtpm.create ~batch:0 ~tpm ~instances:1 ()));
  checkb "anchor out of range" true
    (is_err (Vtpm.create ~anchor_pcr:24 ~tpm ~instances:1 ()));
  let v = mux ~instances:3 tpm in
  checki "instances" 3 (Vtpm.instances v);
  checki "anchor pcr" 23 (Vtpm.anchor_pcr v);
  checki "tenant routing is mod" 1
    (Vtpm.index (Vtpm.for_tenant v ~tenant:7))

(* --- virtual PCR isolation --- *)

let test_vpcr_chains_independent () =
  let _, tpm = mk () in
  let v = mux ~instances:3 tpm in
  let i0 = Vtpm.instance v 0
  and i1 = Vtpm.instance v 1
  and i2 = Vtpm.instance v 2 in
  let before2 = Vtpm.pcr_value i2 17 in
  let v0 = ok (Vtpm.extend i0 17 "tenant zero") in
  let v1 = ok (Vtpm.extend i1 17 "tenant one") in
  checkb "same index, different chains" true (v0 <> v1);
  checks "bystander untouched" before2 (Vtpm.pcr_value i2 17);
  checkb "extend landed" true (Vtpm.pcr_value i0 17 = v0);
  (* Blobs are private to the sealing instance: a neighbour's key cannot
     open them. *)
  let blob = ok (Vtpm.seal i0 ~pcr_policy:[ (17, v0) ] "secret") in
  checks "owner unseals" "secret" (ok (Vtpm.unseal i0 blob));
  checkb "neighbour cannot" true
    (match Vtpm.unseal i1 blob with Error _ -> true | Ok _ -> false);
  (* The virtual policy is checked against the virtual bank. *)
  ignore (ok (Vtpm.extend i0 17 "moved on"));
  checkb "stale virtual policy refuses" true
    (match Vtpm.unseal i0 blob with Error _ -> true | Ok _ -> false)

(* --- anchoring --- *)

let test_anchor_changes_iff_state_changes () =
  let _, tpm = mk () in
  let v = mux ~instances:2 tpm in
  let i0 = Vtpm.instance v 0 in
  Vtpm.sync v;
  let a0 = Vtpm.anchor_value v in
  (* Data-path commands are not state changes: no anchor movement. *)
  let blob = ok (Vtpm.seal i0 ~pcr_policy:[] "payload") in
  checks "round trip" "payload" (ok (Vtpm.unseal i0 blob));
  ignore (Vtpm.get_random i0 16);
  Vtpm.sync v;
  checks "anchor still" a0 (Vtpm.anchor_value v);
  (* Any state change moves it. *)
  ignore (ok (Vtpm.extend i0 18 "state"));
  Vtpm.sync v;
  checkb "anchor moved" true (Vtpm.anchor_value v <> a0);
  let a1 = Vtpm.anchor_value v in
  Vtpm.launch_measured (Vtpm.instance v 1) ~pcr:17
    ~measurement:(String.make 20 'm');
  Vtpm.sync v;
  checkb "neighbour launch moves anchor too" true (Vtpm.anchor_value v <> a1)

let test_quote_verifies_and_tamper_fails () =
  let _, tpm = mk () in
  let v = mux ~instances:2 tpm in
  let i0 = Vtpm.instance v 0 in
  ignore (ok (Vtpm.extend i0 17 "identity"));
  let aik = Tpm.aik_public tpm and key = Vtpm.key_public i0 in
  let q = ok (Vtpm.quote i0 ~selection:[ 17 ] ~nonce:"n-1") in
  checkb "good quote verifies" true (Vtpm.verify_quote ~aik ~key q);
  checkb "wrong software key" false
    (Vtpm.verify_quote ~aik ~key:(Vtpm.key_public (Vtpm.instance v 1)) q);
  checkb "tampered nonce" false
    (Vtpm.verify_quote ~aik ~key { q with Vtpm.nonce = "evil" });
  checkb "tampered virtual selection" false
    (Vtpm.verify_quote ~aik ~key
       { q with Vtpm.selection = [ (17, String.make 20 'x') ] });
  (* Tampering with the hardware layer: a corrupted anchor signature
     fails the AIK check, and splicing an older (differently valued)
     anchor quote under the software signature fails the binding. *)
  let flip s =
    let b = Bytes.of_string s in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
    Bytes.to_string b
  in
  let bad_anchor =
    { q.Vtpm.anchor with Tpm.signature = flip q.Vtpm.anchor.Tpm.signature }
  in
  checkb "tampered anchor signature" false
    (Vtpm.verify_quote ~aik ~key { q with Vtpm.anchor = bad_anchor });
  ignore (ok (Vtpm.extend i0 17 "more state"));
  let q2 = ok (Vtpm.quote i0 ~selection:[ 17 ] ~nonce:"n-1") in
  checkb "fresh quote verifies" true (Vtpm.verify_quote ~aik ~key q2);
  checkb "anchor values differ across state changes" true
    (q.Vtpm.anchor.Tpm.selection <> q2.Vtpm.anchor.Tpm.selection);
  checkb "replayed old anchor quote" false
    (Vtpm.verify_quote ~aik ~key { q2 with Vtpm.anchor = q.Vtpm.anchor })

(* --- quarantine --- *)

let test_checkpoint_failure_quarantines_only_affected () =
  let _, tpm = mk () in
  let v = mux ~instances:3 tpm in
  let i0 = Vtpm.instance v 0 and i1 = Vtpm.instance v 1 in
  let plan = Fault.of_spec (Fault.spec ~kinds:[ Fault.Seal_fail ] ~rate:1. ()) in
  Tpm.set_faults tpm (Some plan);
  checkb "checkpoint fails under seal faults" true
    (match Vtpm.checkpoint i0 with Error _ -> true | Ok _ -> false);
  checkb "affected instance quarantined" true (Vtpm.broken i0);
  checkb "neighbour untouched" false (Vtpm.broken i1);
  checkb "neighbour keeps serving" true
    (match Vtpm.extend i1 17 "still here" with Ok _ -> true | Error _ -> false);
  checkb "quarantined refuses work" true
    (match Vtpm.extend i0 17 "no" with Error _ -> true | Ok _ -> false);
  (* Healing while the seal fault persists fails and stays quarantined;
     once the fault clears, heal re-provisions and counts a reset. *)
  checkb "heal under persistent fault fails" true
    (match Vtpm.heal i0 with Error _ -> true | Ok _ -> false);
  checkb "still quarantined" true (Vtpm.broken i0);
  Tpm.set_faults tpm None;
  (match Vtpm.heal i0 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("heal: " ^ e));
  checkb "healed" false (Vtpm.broken i0);
  checkb "healed instance serves" true
    (match Vtpm.extend i0 17 "back" with Ok _ -> true | Error _ -> false);
  checki "one reset counted" 1 (Vtpm.counters v).Vtpm.resets

let test_anchor_retry_exhaustion_quarantines_batch () =
  let _, tpm = mk () in
  let v = mux ~instances:2 ~batch:1 tpm in
  let i0 = Vtpm.instance v 0 and i1 = Vtpm.instance v 1 in
  let plan = Fault.of_spec (Fault.spec ~kinds:[ Fault.Tpm_busy ] ~rate:1. ()) in
  Tpm.set_faults tpm (Some plan);
  (* batch = 1: the extend's own record flushes immediately, the anchor
     leg burns its bounded attempts on busy faults and gives up. *)
  ignore (Vtpm.extend i0 17 "doomed");
  checkb "batch member quarantined" true (Vtpm.broken i0);
  checkb "instance with no record in the batch untouched" false
    (Vtpm.broken i1);
  checki "every attempt burned" Retry.attempts (Vtpm.anchor_retries v);
  Tpm.set_faults tpm None

(* --- accounting: the coalesced LPC burst (satellite of this PR) --- *)

let test_lpc_batch_charges_per_byte_moved () =
  let e = Engine.create ~seed:2L () in
  let lpc = Sea_bus.Lpc.create e in
  let wait = Time.us 10. in
  let txn = Sea_bus.Lpc.transaction_time lpc ~device_wait:wait in
  (* Three 5-byte commands at 4 data bytes per transaction: framed
     per-command they pay ceil(5/4) = 2 transactions each; coalesced
     they pay ceil(15/4) = 4 — per byte actually moved. *)
  let per_command =
    List.fold_left
      (fun acc bytes ->
        Time.add acc (Sea_bus.Lpc.transfer_time lpc ~device_wait:wait ~bytes))
      Time.zero [ 5; 5; 5 ]
  in
  let batched =
    Sea_bus.Lpc.batch_transfer_time lpc ~device_wait:wait ~chunks:[ 5; 5; 5 ]
  in
  checki "per-command framing: 6 transactions" (6 * Time.to_ns txn)
    (Time.to_ns per_command);
  checki "coalesced burst: 4 transactions" (4 * Time.to_ns txn)
    (Time.to_ns batched);
  checkb "batching never costs more" true (Time.compare batched per_command <= 0);
  checki "aligned chunks coalesce for free"
    (Time.to_ns (Sea_bus.Lpc.transfer_time lpc ~device_wait:wait ~bytes:16))
    (Time.to_ns
       (Sea_bus.Lpc.batch_transfer_time lpc ~device_wait:wait
          ~chunks:[ 4; 4; 4; 4 ]))

let test_anchor_batch_time_pinned () =
  let _, tpm = mk () in
  let v = mux ~instances:1 ~batch:2 tpm in
  let i0 = Vtpm.instance v 0 in
  let t0 = Vtpm.anchor_time v in
  let f0 = Vtpm.flushes v in
  ignore (ok (Vtpm.extend i0 17 "one"));
  checki "first record pends" f0 (Vtpm.flushes v);
  ignore (ok (Vtpm.extend i0 17 "two"));
  checki "second record flushes" (f0 + 1) (Vtpm.flushes v);
  (* Regression pin: one batch of two 32-byte anchor records costs one
     coalesced LPC burst plus one (unjittered) PCR-extend latency — not
     two separately framed transfers. *)
  let profile = Tpm.profile tpm in
  let expected =
    Time.add
      (Sea_bus.Lpc.batch_transfer_time (Tpm.lpc tpm)
         ~device_wait:profile.Timing.hash_data_wait ~chunks:[ 32; 32 ])
      profile.Timing.pcr_extend
  in
  checki "per-batch virtual time" (Time.to_ns expected)
    (Time.to_ns (Time.sub (Vtpm.anchor_time v) t0));
  Vtpm.sync v;
  checki "sync drains the lag" 0 (Time.to_ns (Vtpm.anchor_lag v))

(* --- serving: the shard count must not show in reports --- *)

let cluster_report ~shards =
  let machine_config =
    Sea_hw.Machine.low_fidelity Sea_hw.Machine.hp_dc5750
  in
  let cfg = Sea_cluster.Cluster.config ~shards ~machines:4 () in
  let serve =
    Sea_serve.Server.config ~queue_depth:8 ~vtpm:2
      ~mode:Sea_serve.Server.Current ~duration:(Time.s 2.) ()
  in
  match
    Sea_cluster.Cluster.run ~seed:9L cfg ~machine_config ~serve
      (Sea_serve.Workload.preset ~tenants:8 (`Open 24.))
  with
  | Ok r -> Sea_cluster.Fleet_report.render r
  | Error e -> Alcotest.fail ("cluster: " ^ e)

let test_shard_count_invisible_in_fleet_reports () =
  let s1 = cluster_report ~shards:1 in
  let s4 = cluster_report ~shards:4 in
  checks "shards 1 vs 4 byte-identical" s1 s4;
  checkb "fleet vtpm line sums instances" true
    (contains ~sub:"vtpm: 8 instances" s1)

let () =
  Alcotest.run "vtpm"
    [
      ( "construction",
        [
          Alcotest.test_case "create validates" `Quick test_create_validates;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "vPCR chains independent" `Quick
            test_vpcr_chains_independent;
        ] );
      ( "anchoring",
        [
          Alcotest.test_case "anchor changes iff state changes" `Quick
            test_anchor_changes_iff_state_changes;
          Alcotest.test_case "quote verifies, tamper fails" `Quick
            test_quote_verifies_and_tamper_fails;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "checkpoint failure is per-instance" `Quick
            test_checkpoint_failure_quarantines_only_affected;
          Alcotest.test_case "anchor retry exhaustion" `Quick
            test_anchor_retry_exhaustion_quarantines_batch;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "lpc batch charges per byte" `Quick
            test_lpc_batch_charges_per_byte_moved;
          Alcotest.test_case "anchor batch time pinned" `Quick
            test_anchor_batch_time_pinned;
        ] );
      ( "serving",
        [
          Alcotest.test_case "shard count invisible in fleet reports" `Quick
            test_shard_count_invisible_in_fleet_reports;
        ] );
    ]
