open Sea_sim
open Sea_crypto

module Costs = struct
  let cpu_init = Time.us 6.
  let vm_enter = function Machine.Amd -> Time.ns 558 | Machine.Intel -> Time.ns 446
  let vm_exit = function Machine.Amd -> Time.ns 519 | Machine.Intel -> Time.ns 449
  let vm_jitter = 0.005
  let senter_acmod_bytes = 10496
  let senter_sig_verify = Time.us 17200.
  let cpu_hash_per_byte = Time.ns 121
  let state_clear = Time.us 0.2
  let page_erase = Time.us 1.
end

let skinit_max_bytes = 64 * 1024
let senter_max_bytes = 512 * 1024

(* Top-level instruction spans live in the "insn" category; work done on
   the main CPU (init microcode, ACMod verification, hashing) is "cpu".
   Bus and TPM time appears as child spans from those layers, so a
   category self-time breakdown reproduces the Table 1 decomposition. *)
let insn_span (m : Machine.t) name f =
  Sea_trace.Trace.with_span m.engine ~cat:"insn" name f

let cpu_init_advance (m : Machine.t) =
  Sea_trace.Trace.with_span m.engine ~cat:"cpu" "cpu-init" (fun () ->
      Engine.advance m.engine Costs.cpu_init)

let advance_jittered (m : Machine.t) mean =
  let rng = Engine.rng m.engine in
  let f = float_of_int (Time.to_ns mean) in
  let sample = Rng.gaussian rng ~mean:f ~stdev:(Costs.vm_jitter *. f) in
  Engine.advance m.engine (Time.ns (int_of_float (Float.max 0. sample)))

let vm_enter (m : Machine.t) ~cpu:_ = advance_jittered m (Costs.vm_enter m.config.arch)
let vm_exit (m : Machine.t) ~cpu:_ = advance_jittered m (Costs.vm_exit m.config.arch)

let others_idle (m : Machine.t) ~cpu =
  Array.for_all
    (fun c -> c.Cpu.id = cpu || c.Cpu.status = Cpu.Idle)
    m.cpus

(* Fetch the measured region as one string, via the controller so that a
   protection mistake in the model surfaces as an error, not silent data. *)
let fetch_region (m : Machine.t) ~cpu ~pages ~length =
  Memctrl.read_span m.memctrl (Memctrl.Cpu cpu) ~pages ~off:0 ~len:length

let skinit (m : Machine.t) ~cpu ~pages ~length =
  if m.config.arch <> Machine.Amd then Error "SKINIT is an AMD instruction"
  else if length < 0 || length > skinit_max_bytes then Error "SLB length exceeds 64 KB"
  else if not (others_idle m ~cpu) then
    Error "late launch requires all other CPUs idle"
  else begin
    insn_span m "SKINIT" @@ fun () ->
    let core = Machine.cpu m cpu in
    cpu_init_advance m;
    core.Cpu.interrupts_enabled <- false;
    Memctrl.dev_protect m.memctrl pages;
    if length = 0 then Ok (Sha1.digest "")
    else begin
      match fetch_region m ~cpu ~pages ~length with
      | Error e -> Error e
      | Ok code -> (
          match m.tpm with
          | None ->
              (* The Tyan n3600R configuration: SKINIT runs and the SLB
                 crosses the LPC bus wait-free, but no TPM receives it
                 (Table 1's "No TPM" row isolates the instruction cost). *)
              let lpc = Sea_bus.Lpc.create m.engine in
              Sea_bus.Lpc.transfer lpc ~device_wait:Time.zero ~bytes:length;
              Ok (Sha1.digest code)
          | Some tpm -> (
              (* The TPM hashes the SLB as it arrives; its digest is the
                 measurement, so the fetched bytes are hashed once. *)
              let caller = Sea_tpm.Tpm.Cpu cpu in
              match Sea_tpm.Tpm.hash_start tpm ~caller with
              | Error e -> Error e
              | Ok () -> (
                  match Sea_tpm.Tpm.hash_data tpm code with
                  | Error e -> Error e
                  | Ok () -> Sea_tpm.Tpm.hash_end tpm)))
    end
  end

(* Deterministic synthetic ACMod contents: the chipset would verify an
   Intel signature; we model the verification cost and measure real bytes. *)
let acmod_bytes =
  lazy
    (let base = "INTEL-ACMOD-SIMULATED" in
     let buf = Buffer.create Costs.senter_acmod_bytes in
     while Buffer.length buf < Costs.senter_acmod_bytes do
       Buffer.add_string buf base
     done;
     Buffer.sub buf 0 Costs.senter_acmod_bytes)

let senter (m : Machine.t) ~cpu ~pages ~length =
  match m.tpm with
  | None -> Error "SENTER requires a TPM"
  | Some tpm ->
      if m.config.arch <> Machine.Intel then Error "SENTER is an Intel instruction"
      else if length < 0 || length > senter_max_bytes then
        Error "PAL exceeds the MPT-protected region"
      else if not (others_idle m ~cpu) then
        Error "late launch requires all other CPUs idle"
      else begin
        insn_span m "SENTER" @@ fun () ->
        let core = Machine.cpu m cpu in
        cpu_init_advance m;
        core.Cpu.interrupts_enabled <- false;
        Memctrl.dev_protect m.memctrl pages;
        let caller = Sea_tpm.Tpm.Cpu cpu in
        (* Phase 1: the ACMod crosses the LPC bus and lands in PCR 17. *)
        match Sea_tpm.Tpm.hash_start tpm ~caller with
        | Error e -> Error e
        | Ok () -> (
            match Sea_tpm.Tpm.hash_data tpm (Lazy.force acmod_bytes) with
            | Error e -> Error e
            | Ok () -> (
                match Sea_tpm.Tpm.hash_end tpm with
                | Error e -> Error e
                | Ok _acmod_digest -> (
                    Sea_trace.Trace.with_span m.engine ~cat:"cpu" "sig-verify"
                      (fun () ->
                        Engine.advance m.engine Costs.senter_sig_verify);
                    (* Phase 2: the ACMod hashes the PAL on the main CPU and
                       extends only the digest into PCR 18. *)
                    match fetch_region m ~cpu ~pages ~length with
                    | Error e -> Error e
                    | Ok code ->
                        Sea_trace.Trace.with_span m.engine ~cat:"cpu"
                          "cpu-hash"
                          ~args:(fun () ->
                            [ ("bytes", Sea_trace.Trace.Int length) ])
                          (fun () ->
                            Engine.advance m.engine
                              (Time.scale Costs.cpu_hash_per_byte length));
                        let digest = Sha1.digest code in
                        let _pcr18 = Sea_tpm.Tpm.pcr_extend tpm 18 digest in
                        Ok digest)))
      end

let late_launch (m : Machine.t) ~cpu ~pages ~length =
  match m.config.arch with
  | Machine.Amd -> skinit m ~cpu ~pages ~length
  | Machine.Intel -> senter m ~cpu ~pages ~length

(* --- Proposed hardware --- *)

type slaunch_outcome = Launched of string | Resumed

let require_proposed (m : Machine.t) =
  match (m.config.proposed, Memctrl.acl m.memctrl, m.tpm) with
  | true, Some acl, Some tpm -> Ok (acl, tpm)
  | _ -> Error "SLAUNCH requires the proposed hardware"

let slaunch (m : Machine.t) ~cpu (secb : Secb.t) =
  match require_proposed m with
  | Error e -> Error e
  | Ok (acl, tpm) ->
      let core = Machine.cpu m cpu in
      if secb.Secb.freed then Error "SECB already freed"
      else if core.Cpu.status <> Cpu.Legacy && core.Cpu.status <> Cpu.Idle then
        Error "CPU busy"
      else if not secb.Secb.measured then begin
        insn_span m "SLAUNCH" @@ fun () ->
        (* First launch: Protect, then Measure (Figure 7). *)
        match Access_control.claim acl ~secb_id:secb.Secb.id ~cpu secb.Secb.pages with
        | Error e -> Error e
        | Ok () -> (
            cpu_init_advance m;
            core.Cpu.interrupts_enabled <- false;
            let caller = Sea_tpm.Tpm.Cpu cpu in
            match Sea_tpm.Tpm.sepcr_allocate tpm ~caller with
            | Error e ->
                (* No sePCR: back out the protections and fail (§5.4.1). *)
                ignore (Access_control.release acl ~secb_id:secb.Secb.id secb.Secb.pages);
                core.Cpu.interrupts_enabled <- true;
                Error e
            | Ok handle -> (
                (* Any failure past this point must also back out the
                   sePCR binding, or a retried SLAUNCH finds the claim
                   and the handle still held by the dead attempt. *)
                let back_out e =
                  ignore (Sea_tpm.Tpm.sepcr_skill tpm ~caller handle);
                  ignore
                    (Access_control.release acl ~secb_id:secb.Secb.id
                       secb.Secb.pages);
                  core.Cpu.interrupts_enabled <- true;
                  Error e
                in
                match
                  fetch_region m ~cpu ~pages:(Secb.data_pages secb)
                    ~length:secb.Secb.pal_length
                with
                | Error e -> back_out e
                | Ok code -> (
                    match Sea_tpm.Tpm.sepcr_measure tpm ~caller handle ~code with
                    | Error e -> back_out e
                    | Ok digest ->
                        secb.Secb.sepcr <- Some handle;
                        secb.Secb.measured <- true;
                        core.Cpu.status <- Cpu.In_pal secb.Secb.id;
                        Ok (Launched digest))))
      end
      else begin
        insn_span m "SLAUNCH-resume" @@ fun () ->
        (* Resume: the Measured Flag is honored only if the pages are in the
           suspended state owned by this SECB (§5.3.1). *)
        match Access_control.resume acl ~secb_id:secb.Secb.id ~cpu secb.Secb.pages with
        | Error e -> Error e
        | Ok () -> (
            match secb.Secb.sepcr with
            | None ->
                ignore
                  (Access_control.suspend acl ~secb_id:secb.Secb.id ~cpu secb.Secb.pages);
                Error "measured SECB without a sePCR binding"
            | Some handle -> (
                match
                  Sea_tpm.Tpm.sepcr_rebind tpm ~caller:(Sea_tpm.Tpm.Cpu cpu) handle
                    ~new_owner:cpu
                with
                | Error e ->
                    ignore
                      (Access_control.suspend acl ~secb_id:secb.Secb.id ~cpu
                         secb.Secb.pages);
                    Error e
                | Ok () ->
                    core.Cpu.interrupts_enabled <- false;
                    core.Cpu.status <- Cpu.In_pal secb.Secb.id;
                    (* Routing the PAL's registered vectors to this CPU
                       costs reprogramming on every dispatch (§6). *)
                    Engine.advance m.engine
                      (Time.scale (Time.us 1.) (List.length secb.Secb.idt));
                    advance_jittered m (Costs.vm_enter m.config.arch);
                    Ok Resumed))
      end

let running_this_pal (m : Machine.t) ~cpu (secb : Secb.t) =
  (Machine.cpu m cpu).Cpu.status = Cpu.In_pal secb.Secb.id

let syield (m : Machine.t) ~cpu (secb : Secb.t) =
  match require_proposed m with
  | Error e -> Error e
  | Ok (acl, tpm) ->
      if not (running_this_pal m ~cpu secb) then
        Error "SYIELD outside the PAL's execution"
      else begin
        insn_span m "SYIELD" @@ fun () ->
        match Access_control.suspend acl ~secb_id:secb.Secb.id ~cpu secb.Secb.pages with
        | Error e -> Error e
        | Ok () ->
            (* Hardware snapshot of the architectural state into the SECB. *)
            secb.Secb.saved_state <-
              Some
                {
                  Secb.eip = secb.Secb.entry_point;
                  esp = Secb.region_bytes secb;
                  registers = "";
                };
            (match secb.Secb.sepcr with
            | Some handle ->
                (* The binding survives suspension; the CPU merely stops
                   holding the handle. Nothing to do at the TPM. *)
                ignore (handle, tpm)
            | None -> ());
            let core = Machine.cpu m cpu in
            core.Cpu.status <- Cpu.Legacy;
            core.Cpu.interrupts_enabled <- true;
            Engine.advance m.engine Costs.state_clear;
            advance_jittered m (Costs.vm_exit m.config.arch);
            Ok ()
      end

let sfree (m : Machine.t) ~cpu (secb : Secb.t) =
  match require_proposed m with
  | Error e -> Error e
  | Ok (acl, tpm) ->
      if not (running_this_pal m ~cpu secb) then
        Error "SFREE must execute from within the PAL"
      else begin
        insn_span m "SFREE" @@ fun () ->
        match Access_control.release acl ~secb_id:secb.Secb.id secb.Secb.pages with
        | Error e -> Error e
        | Ok () ->
            (match secb.Secb.sepcr with
            | Some handle ->
                ignore
                  (Sea_tpm.Tpm.sepcr_release_for_quote tpm
                     ~caller:(Sea_tpm.Tpm.Cpu cpu) handle)
            | None -> ());
            secb.Secb.freed <- true;
            let core = Machine.cpu m cpu in
            core.Cpu.status <- Cpu.Legacy;
            core.Cpu.interrupts_enabled <- true;
            Engine.advance m.engine Costs.state_clear;
            advance_jittered m (Costs.vm_exit m.config.arch);
            Ok ()
      end

let skill (m : Machine.t) (secb : Secb.t) =
  match require_proposed m with
  | Error e -> Error e
  | Ok (acl, tpm) ->
      if secb.Secb.freed then Error "SECB already freed"
      else begin
        (* Only a suspended PAL can be killed: if it is executing, its pages
           are CPU-exclusive and release below will fail for the running
           CPU's pages... but release accepts both owned states, so check
           explicitly that no CPU is executing it. *)
        let executing =
          Array.exists (fun c -> c.Cpu.status = Cpu.In_pal secb.Secb.id) m.cpus
        in
        if executing then Error "PAL is executing; preempt it first"
        else begin
          insn_span m "SKILL" @@ fun () ->
          match Access_control.release acl ~secb_id:secb.Secb.id secb.Secb.pages with
          | Error e -> Error e
          | Ok () ->
              let memory = Memctrl.memory m.memctrl in
              List.iter
                (fun p ->
                  Memory.zero_page memory p;
                  Engine.advance m.engine Costs.page_erase)
                secb.Secb.pages;
              (match secb.Secb.sepcr with
              | Some handle ->
                  ignore (Sea_tpm.Tpm.sepcr_skill tpm ~caller:(Sea_tpm.Tpm.Cpu 0) handle)
              | None -> ());
              secb.Secb.freed <- true;
              Ok ()
        end
      end

(* --- §6 extensions --- *)

let sjoin (m : Machine.t) ~cpu (secb : Secb.t) =
  match require_proposed m with
  | Error e -> Error e
  | Ok (acl, _tpm) ->
      let core = Machine.cpu m cpu in
      if secb.Secb.freed then Error "SECB already freed"
      else if not secb.Secb.measured then Error "PAL not launched"
      else if core.Cpu.status <> Cpu.Legacy && core.Cpu.status <> Cpu.Idle then
        Error "CPU busy"
      else begin
        insn_span m "SJOIN" @@ fun () ->
        match Access_control.join acl ~secb_id:secb.Secb.id ~cpu secb.Secb.pages with
        | Error e -> Error e
        | Ok () ->
            core.Cpu.status <- Cpu.In_pal secb.Secb.id;
            core.Cpu.interrupts_enabled <- false;
            advance_jittered m (Costs.vm_enter m.config.arch);
            Ok ()
      end

let sleave (m : Machine.t) ~cpu (secb : Secb.t) =
  match require_proposed m with
  | Error e -> Error e
  | Ok (acl, _tpm) ->
      if not (running_this_pal m ~cpu secb) then
        Error "SLEAVE outside the PAL's execution"
      else begin
        insn_span m "SLEAVE" @@ fun () ->
        match Access_control.leave acl ~secb_id:secb.Secb.id ~cpu secb.Secb.pages with
        | Error e -> Error e
        | Ok () ->
            let core = Machine.cpu m cpu in
            core.Cpu.status <- Cpu.Legacy;
            core.Cpu.interrupts_enabled <- true;
            Engine.advance m.engine Costs.state_clear;
            advance_jittered m (Costs.vm_exit m.config.arch);
            Ok ()
      end

(* Reprogramming the interrupt routing logic costs roughly a microsecond
   per registered vector — the overhead §6 warns about. *)
let interrupt_reprogram_cost (secb : Secb.t) =
  Time.scale (Time.us 1.) (List.length secb.Secb.idt)

type interrupt_destination = To_os | To_pal of int

let deliver_interrupt (m : Machine.t) ~secbs ~vector =
  let executing_pal_with_vector secb =
    List.mem vector secb.Secb.idt
    && Array.exists (fun c -> c.Cpu.status = Cpu.In_pal secb.Secb.id) m.cpus
  in
  match List.find_opt executing_pal_with_vector secbs with
  | Some secb -> To_pal secb.Secb.id
  | None -> To_os
