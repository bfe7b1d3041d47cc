open Sea_sim
open Sea_crypto
open Sea_hw

type breakdown = {
  late_launch : Time.t;
  seal : Time.t;
  unseal : Time.t;
  compute : Time.t;
  other : Time.t;
  total : Time.t;
}

let overhead b = Time.sub b.total b.compute

type outcome = {
  output : string;
  measurement : string;
  identity_pcr : int;
  identity_value : string;
  breakdown : breakdown;
}

let exit_marker = Sha1.digest "SEA-PAL-EXIT"

let identity_pcr_for (m : Machine.t) =
  match m.Machine.config.Machine.arch with Machine.Amd -> 17 | Machine.Intel -> 18

let zero_pcr = String.make Sea_tpm.Pcr.digest_size '\000'

let expected_identity (m : Machine.t) pal =
  ignore m;
  Sha1.digest (zero_pcr ^ Pal.measurement pal)

let expected_identity_after_exit m pal =
  Sha1.digest (expected_identity m pal ^ exit_marker)

(* The OS-side suspend/resume plumbing the kernel module performs: saving
   kernel state in place is cheap (§3.3); idling the sibling cores costs an
   IPI round-trip each. *)
let suspend_cost (m : Machine.t) =
  Time.scale (Time.us 15.) (max 0 (Array.length m.Machine.cpus - 1))

let resume_cost = Time.us 30.

let execute (m : Machine.t) ~cpu ?analyze ?on_report ?tpm_cap pal ~input =
  match
    (* Analyzed before the OS is suspended, pages claimed or the TPM
       touched: an image the gate refuses is never measured. *)
    ( Pal.preflight ?analyze ?on_report pal,
      m.Machine.tpm )
  with
  | Error e, _ -> Error e
  | Ok (), None -> Error "SEA sessions require a TPM"
  | Ok (), Some tpm ->
      let engine = m.Machine.engine in
      Sea_trace.Trace.with_span engine ~cat:"session"
        ~args:(fun () -> [ ("pal", Sea_trace.Trace.Str pal.Pal.name) ])
        "execute"
      @@ fun () ->
      let t_start = Engine.now engine in
      (* 1. Suspend the untrusted OS. *)
      Sea_trace.Trace.with_span engine ~cat:"session" "suspend-os" (fun () ->
          Machine.idle_other_cpus m ~except:cpu;
          Engine.advance engine (suspend_cost m));
      let pages = Machine.alloc_pages m (Pal.pages_needed pal) in
      let cleanup () =
        Sea_trace.Trace.with_span engine ~cat:"session" "resume-os" (fun () ->
            Memctrl.dev_unprotect m.Machine.memctrl pages;
            (Machine.cpu m cpu).Cpu.interrupts_enabled <- true;
            (Machine.cpu m cpu).Cpu.status <- Cpu.Legacy;
            Machine.wake_cpus m;
            Machine.free_pages m pages;
            Engine.advance engine resume_cost)
      in
      let memory = Memctrl.memory m.Machine.memctrl in
      Memory.write_span memory ~pages ~off:0 pal.Pal.code;
      (* 2. Late launch. A transient TPM fault mid TPM_HASH_* aborts the
         whole launch; the retry re-runs SKINIT/SENTER from scratch, so
         the measurement is always rebuilt from a fresh TPM_HASH_START. *)
      let t0 = Engine.now engine in
      (match
         Sea_tpm.Tpm.retrying tpm (fun () ->
             Insn.late_launch m ~cpu ~pages ~length:(Pal.code_size pal))
       with
      | Error e ->
          cleanup ();
          Error e
      | Ok measurement ->
          (Machine.cpu m cpu).Cpu.status <- Cpu.In_pal (-1);
          let late_launch_time = Time.sub (Engine.now engine) t0 in
          let identity_pcr = identity_pcr_for m in
          let identity_value = expected_identity m pal in
          let cap =
            match tpm_cap with
            | Some c -> c
            | None -> Sea_tpm.Cap.of_tpm tpm
          in
          (* Mirror the launch into the capability's PCR bank (no-op for
             hardware, whose TPM_HASH_* sequence already extended it), so
             the identity-bound seal policy below holds against whichever
             bank the capability seals against. *)
          cap.Sea_tpm.Cap.launch_measured ~pcr:identity_pcr ~measurement;
          (* 3. Run the PAL behaviour with TPM-backed services. *)
          let seal_time = ref Time.zero
          and unseal_time = ref Time.zero
          and extend_time = ref Time.zero in
          let caller = Sea_tpm.Tpm.Cpu cpu in
          let policy = [ (identity_pcr, identity_value) ] in
          let timed acc f =
            let t0 = Engine.now engine in
            let r = f () in
            acc := Time.add !acc (Time.sub (Engine.now engine) t0);
            r
          in
          let services =
            {
              Pal.seal =
                (fun data ->
                  timed seal_time (fun () ->
                      Sea_tpm.Tpm.retrying tpm (fun () ->
                          cap.Sea_tpm.Cap.seal ~caller ~pcr_policy:policy data)));
              unseal =
                (fun blob ->
                  timed unseal_time (fun () ->
                      Sea_tpm.Tpm.retrying tpm (fun () ->
                          cap.Sea_tpm.Cap.unseal ~caller blob)));
              get_random = (fun n -> cap.Sea_tpm.Cap.get_random n);
              extend_measurement =
                (fun data ->
                  timed extend_time (fun () ->
                      ignore (cap.Sea_tpm.Cap.pcr_extend identity_pcr data)));
              machine_name = m.Machine.config.Machine.name;
            }
          in
          let t_behavior = Engine.now engine in
          let behavior_result =
            Sea_trace.Trace.with_span engine ~cat:"session" "behavior"
              (fun () ->
                let r = pal.Pal.behavior services input in
                Engine.advance engine pal.Pal.compute_time;
                r)
          in
          let behavior_span = Time.sub (Engine.now engine) t_behavior in
          (* 4. Extend the exit marker so post-PAL software cannot unseal.
             Goes through the capability: the marker must land in the bank
             the seal policy was checked against. *)
          ignore (cap.Sea_tpm.Cap.pcr_extend identity_pcr exit_marker);
          (* 5. Resume the untrusted OS. *)
          cleanup ();
          let total = Time.sub (Engine.now engine) t_start in
          (match behavior_result with
          | Error e -> Error ("PAL behaviour failed: " ^ e)
          | Ok output ->
              let tpm_in_behavior =
                Time.add (Time.add !seal_time !unseal_time) !extend_time
              in
              let compute = Time.sub behavior_span tpm_in_behavior in
              let accounted =
                Time.add late_launch_time
                  (Time.add (Time.add !seal_time !unseal_time) compute)
              in
              Ok
                {
                  output;
                  measurement;
                  identity_pcr;
                  identity_value;
                  breakdown =
                    {
                      late_launch = late_launch_time;
                      seal = !seal_time;
                      unseal = !unseal_time;
                      compute;
                      other = Time.sub total accounted;
                      total;
                    };
                }))

let quote (m : Machine.t) ~nonce =
  match m.Machine.tpm with
  | None -> Error "no TPM"
  | Some tpm -> (
      let engine = m.Machine.engine in
      let selection =
        match m.Machine.config.Machine.arch with
        | Machine.Amd -> [ 17 ]
        | Machine.Intel -> [ 17; 18 ]
      in
      let t0 = Engine.now engine in
      match
        Sea_tpm.Tpm.quote tpm ~caller:Sea_tpm.Tpm.Software ~selection ~nonce ()
      with
      | Error e -> Error e
      | Ok q -> Ok (q, Time.sub (Engine.now engine) t0))
