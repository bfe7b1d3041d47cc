(** SEA sessions on {e today's} hardware — the architecture the paper
    measures in §4.

    A session implements the Flicker-style kernel-module flow (§4.1): the
    untrusted OS suspends itself (all other cores idled, interrupts off),
    the PAL is placed in protected memory and late launched (SKINIT /
    SENTER), runs with the TPM as its only peer, protects any persistent
    state with TPM Seal bound to the dynamic PCRs, extends a well-known
    exit marker into the identity PCR so later software cannot unseal the
    PAL's secrets, and finally the OS is resumed.

    Every overhead in Figure 2 is observable in the returned
    {!breakdown}. *)

type breakdown = {
  late_launch : Sea_sim.Time.t;  (** SKINIT/SENTER, including TPM traffic. *)
  seal : Sea_sim.Time.t;  (** Cumulative TPM_Seal time. *)
  unseal : Sea_sim.Time.t;  (** Cumulative TPM_Unseal time. *)
  compute : Sea_sim.Time.t;  (** Application-specific work. *)
  other : Sea_sim.Time.t;  (** Suspend/resume plumbing, extends, copies. *)
  total : Sea_sim.Time.t;
}

val overhead : breakdown -> Sea_sim.Time.t
(** [total - compute]: the pure overhead the paper reports. *)

type outcome = {
  output : string;
  measurement : string;  (** SHA-1 of the PAL code, as measured. *)
  identity_pcr : int;  (** 17 on AMD, 18 on Intel. *)
  identity_value : string;  (** That PCR's value {e before} the exit
                                marker — the unseal policy target. *)
  breakdown : breakdown;
}

val exit_marker : string
(** The constant extended into the identity PCR at PAL exit. *)

val execute :
  Sea_hw.Machine.t ->
  cpu:int ->
  ?analyze:Sea_analysis.Analyzer.gate ->
  ?on_report:(Sea_analysis.Report.t -> unit) ->
  ?tpm_cap:Sea_tpm.Cap.t ->
  Pal.t ->
  input:string ->
  (outcome, string) result
(** Run one complete session. Fails on machines without a TPM, if the PAL
    does not fit the late-launch limit, or if the PAL's behaviour fails;
    the OS is resumed and pages freed on all paths.

    [?tpm_cap] is the TPM capability the PAL's data-path services (seal,
    unseal, randomness, extends) execute against — default the machine's
    hardware TPM via {!Sea_tpm.Cap.of_tpm}, byte-for-byte the historical
    behaviour. A vTPM capability ([Sea_vtpm.Vtpm.cap]) routes them to a
    per-tenant virtual TPM instead; the late launch and its measurement
    always stay on hardware, and the capability's [launch_measured] hook
    mirrors them into the virtual bank so the identity-bound seal policy
    (and the exit-marker hygiene) hold there too.

    [?analyze] (default [Off]) runs {!Pal.preflight} first: under
    [Enforce] a PALVM image with error findings is refused {e before}
    the OS is suspended or the TPM measures anything.

    Under a fault plan installed on the TPM ({!Sea_tpm.Tpm.set_faults}),
    transient faults around the late launch and the PAL's seal/unseal
    services are retried by {!Sea_tpm.Tpm.retrying}, with virtual-time
    backoff. A retried late launch restarts the whole
    SKINIT/SENTER measurement from TPM_HASH_START — a fault can delay
    the launch but never yields a PAL running with a partial or stale
    identity PCR. *)

val quote :
  Sea_hw.Machine.t ->
  nonce:string ->
  (Sea_tpm.Tpm.quote * Sea_sim.Time.t, string) result
(** Post-session attestation over the dynamic identity PCRs (the "Quote"
    bar of Figure 2). Returns the quote and the TPM time it took. *)

val identity_pcr_for : Sea_hw.Machine.t -> int
val expected_identity : Sea_hw.Machine.t -> Pal.t -> string
(** The identity-PCR value a correct launch of [pal] yields on this
    machine's architecture — what a verifier compares against. *)

val expected_identity_after_exit : Sea_hw.Machine.t -> Pal.t -> string
(** The same chain after the exit marker — what a post-session quote must
    contain. *)
