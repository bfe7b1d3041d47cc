open Sea_hw
open Sea_core

type verdict = Blocked of string | Succeeded of string

let dma_read_protected_page (m : Machine.t) ~device ~page =
  match
    Memctrl.read m.Machine.memctrl (Memctrl.Device device) ~page ~off:0 ~len:16
  with
  | Error _ ->
      let mech =
        if m.Machine.config.Machine.proposed then "access-control table"
        else "Device Exclusion Vector"
      in
      Blocked mech
  | Ok data -> Succeeded (Printf.sprintf "DMA read %d bytes" (String.length data))

let cpu_read_pal_page (m : Machine.t) ~cpu ~page =
  match Memctrl.read m.Machine.memctrl (Memctrl.Cpu cpu) ~page ~off:0 ~len:16 with
  | Error _ -> Blocked "access-control table"
  | Ok data ->
      Succeeded (Printf.sprintf "CPU %d read %d bytes" cpu (String.length data))

let forge_measured_flag (m : Machine.t) ~cpu pal =
  let pages = Machine.alloc_pages m (1 + Pal.pages_needed pal) in
  let secb =
    Secb.create ~id:(Machine.fresh_secb_id m) ~pages ~entry_point:0
      ~pal_length:(Pal.code_size pal) ()
  in
  let memory = Memctrl.memory m.Machine.memctrl in
  Memory.write_span memory ~pages:(Secb.data_pages secb) ~off:0 pal.Pal.code;
  secb.Secb.measured <- true (* the forgery *);
  let verdict =
    match Insn.slaunch m ~cpu secb with
    | Error e -> Blocked ("resume check: " ^ e)
    | Ok Insn.Resumed -> Succeeded "unmeasured PAL resumed"
    | Ok (Insn.Launched _) -> Succeeded "forged flag ignored but PAL launched anyway"
  in
  Machine.free_pages m pages;
  verdict

let double_resume (m : Machine.t) ~cpu secb =
  match Insn.slaunch m ~cpu secb with
  | Error e -> Blocked ("page-state check: " ^ e)
  | Ok _ -> Succeeded "PAL resumed on a second CPU"

let software_pcr17_reset (m : Machine.t) =
  let tpm = Machine.tpm_exn m in
  match Sea_tpm.Tpm.hash_start tpm ~caller:Sea_tpm.Tpm.Software with
  | Error e -> Blocked ("locality check: " ^ e)
  | Ok () -> Succeeded "software reset the dynamic PCRs"

let unseal_after_pal_exit (m : Machine.t) ~blob =
  let tpm = Machine.tpm_exn m in
  match Sea_tpm.Tpm.unseal tpm ~caller:Sea_tpm.Tpm.Software blob with
  | Error e -> Blocked ("seal policy: " ^ e)
  | Ok secret -> Succeeded (Printf.sprintf "unsealed %d bytes" (String.length secret))

let tamper_quote (m : Machine.t) q ~nonce pal =
  let flip s =
    if String.length s = 0 then s
    else
      String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c) s
  in
  let tampered =
    {
      q with
      Sea_tpm.Tpm.selection =
        List.map (fun (i, v) -> (i, flip v)) q.Sea_tpm.Tpm.selection;
      sepcr_value = Option.map flip q.Sea_tpm.Tpm.sepcr_value;
    }
  in
  let evidence = Attestation.gather m tampered in
  let expectation =
    match tampered.Sea_tpm.Tpm.sepcr_value with
    | Some _ -> Attestation.expect_slaunch_exit pal
    | None -> Attestation.expect_session_exit m pal
  in
  match
    Attestation.verify ~ca:(Sea_tpm.Tpm.privacy_ca_public ()) ~nonce expectation
      evidence
  with
  | Error e -> Blocked ("verifier: " ^ e)
  | Ok () -> Succeeded "tampered quote accepted"

let extend_foreign_sepcr (m : Machine.t) ~cpu handle =
  let tpm = Machine.tpm_exn m in
  match Sea_tpm.Tpm.sepcr_extend tpm ~caller:Sea_tpm.Tpm.Software handle "evil" with
  | Ok _ -> Succeeded "software extended a foreign sePCR"
  | Error _ -> (
      (* Try again from a non-owner CPU's hardware path. *)
      match Sea_tpm.Tpm.sepcr_extend tpm ~caller:(Sea_tpm.Tpm.Cpu cpu) handle "evil" with
      | Ok _ -> Succeeded "non-owner CPU extended a foreign sePCR"
      | Error e -> Blocked ("sePCR binding: " ^ e))

let sfree_from_outside (m : Machine.t) ~cpu secb =
  match Insn.sfree m ~cpu secb with
  | Error e -> Blocked ("SFREE origin check: " ^ e)
  | Ok () -> Succeeded "untrusted code freed a PAL"

let replay_stale_sealed_state (m : Machine.t) ~cpu ~stale_blob =
  let tpm = Machine.tpm_exn m in
  match Rollback.unseal tpm ~caller:(Sea_tpm.Tpm.Cpu cpu) stale_blob with
  | Error e -> Blocked ("monotonic counter: " ^ e)
  | Ok payload ->
      Succeeded (Printf.sprintf "replayed %d bytes of stale state" (String.length payload))

let skinit_retry_skips_measurement (m : Machine.t) ~cpu pal ~input =
  let tpm = Machine.tpm_exn m in
  (* One severed TPM_HASH_DATA stream, then clean hardware — the glitch
     an adversary with physical access to the LPC wiring can cause. If
     the retry path resumed the severed hash sequence instead of
     restarting it, the PAL would run with a partial identity PCR and
     unseal secrets under a measurement the verifier never approved. *)
  let plan =
    Sea_fault.Fault.create
      ~kinds:[ Sea_fault.Fault.Hash_abort ]
      ~max_injections:1 ~rate:1.
      (Sea_sim.Rng.create ~seed:42L ())
  in
  Sea_tpm.Tpm.set_faults tpm (Some plan);
  let result = Session.execute m ~cpu pal ~input in
  let retries = Sea_fault.Retry.retries (Option.get (Sea_tpm.Tpm.retry tpm)) in
  Sea_tpm.Tpm.set_faults tpm None;
  match result with
  | Error e -> Blocked ("launch failed closed: " ^ e)
  | Ok o ->
      if Sea_fault.Fault.total plan = 0 then
        Succeeded "fault never injected; the attack was not exercised"
      else if retries = 0 then
        Succeeded "session succeeded without retrying an aborted launch"
      else if
        o.Session.identity_value <> Session.expected_identity m pal
      then Succeeded "PAL ran with a partial identity PCR after a retried SKINIT"
      else Blocked "retried SKINIT re-measured from TPM_HASH_START"

let join_uninvited_cpu (m : Machine.t) ~cpu secb =
  match Insn.sjoin m ~cpu secb with
  | Error e -> Blocked ("join check: " ^ e)
  | Ok () -> Succeeded "CPU joined a PAL it does not own"
