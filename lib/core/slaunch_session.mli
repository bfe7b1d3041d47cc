(** PAL execution on the {e proposed} hardware (§5): SLAUNCH lifecycle,
    hardware-isolated context switches, sePCR-based attestation.

    Where a {!Session} freezes the whole platform and pays TPM Seal/Unseal
    on every switch, a [Slaunch_session] runs a PAL concurrently with the
    untrusted OS and switches it in and out at roughly VM-entry/exit cost:
    its state is protected by the memory controller's access-control
    table, not by TPM sealed storage (§5.3.2).

    Execution model: the PAL's application work ([Pal.compute_time]) is
    consumed in slices under the OS's preemption-timer budget; its
    functional behaviour runs when the work completes, in the final slice,
    with sealed storage bound to the sePCR measurement (§5.4.4). *)

type t

val start :
  Sea_hw.Machine.t ->
  cpu:int ->
  ?preemption_timer:Sea_sim.Time.t ->
  ?analyze:Sea_analysis.Analyzer.gate ->
  ?on_report:(Sea_analysis.Report.t -> unit) ->
  ?tpm_cap:Sea_tpm.Cap.t ->
  Pal.t ->
  input:string ->
  (t, string) result
(** Allocate pages + SECB, load the PAL, and SLAUNCH it for the first time
    (Protect → Measure → Execute). The PAL is left {e executing} on
    [cpu]; drive it with {!run_slice}.

    [?analyze] (default [Off]) runs {!Pal.preflight} first: under
    [Enforce] a PALVM image with error findings is refused before any
    SECB is allocated or the sePCR extended.

    Under a fault plan installed on the TPM ({!Sea_tpm.Tpm.set_faults}),
    transient TPM faults around the first SLAUNCH, every {!resume}, and
    the PAL's seal/unseal services are retried by
    {!Sea_tpm.Tpm.retrying}, with virtual-time backoff. A retried first
    launch re-protects and re-measures the PAL from scratch (the failed
    attempt backs out its sePCR and page claim); a resume that still
    fails after retries leaves the session in [Suspend], so the caller
    can {!kill} it and cold-start a replacement.

    [?tpm_cap] routes the PAL's data-path TPM services (seal, unseal,
    randomness) — default the hardware TPM, unchanged. The SLAUNCH
    measurement and the sePCR chain always stay on hardware regardless
    of the capability. *)

val state : t -> Lifecycle.state
val secb : t -> Sea_hw.Secb.t
val measurement : t -> string
val output : t -> string option
(** Available once the lifecycle reaches [Done] via SFREE. *)

val sepcr_handle : t -> Sea_tpm.Sepcr.handle option
(** The handle the PAL outputs for untrusted code to quote (§5.4.1). *)

val run_slice :
  t -> cpu:int -> ?budget:Sea_sim.Time.t -> unit -> ([ `Yielded | `Finished ], string) result
(** Consume up to [budget] (default: the SECB's preemption timer, else all
    remaining work) of the PAL's work on [cpu]. If work remains
    afterwards the hardware preempts/yields ([`Yielded], lifecycle →
    Suspend). When the work completes within budget the behaviour runs,
    SFREE executes and the result is [`Finished] (lifecycle → Done). *)

val resume : t -> cpu:int -> (unit, string) result
(** SLAUNCH with the Measured Flag set; Suspend → Execute, possibly on a
    different CPU. *)

(** {1 Multicore PALs (§6)} *)

val join : t -> cpu:int -> (unit, string) result
(** SJOIN an additional core to the executing PAL: its remaining work is
    then consumed [worker_count] times faster per slice. *)

val leave : t -> cpu:int -> (unit, string) result
(** SLEAVE a joined core. The primary core cannot leave. *)

val worker_count : t -> int
(** CPUs currently executing this PAL (1 when running single-core, 0
    when suspended or done). Yielding automatically SLEAVEs any joined
    cores first — suspension requires a single owner (§5.2's page-state
    machine) — so after a resume the OS re-joins helpers as it sees
    fit. *)

val kill : t -> (unit, string) result
(** SKILL a suspended PAL from untrusted code (§5.5): pages erased and
    released, sePCR extended with the SKILL constant and freed. *)

val quote_after_exit :
  t -> nonce:string -> (Sea_tpm.Tpm.quote * Sea_sim.Time.t, string) result
(** Untrusted code generates the attestation once the PAL is [Done]:
    TPM_Quote over the PAL's sePCR (permitted exactly in the Quote state;
    the sePCR then becomes Free, §5.4.3). *)

val expected_sepcr : Pal.t -> string
(** The sePCR value a correct SLAUNCH of [pal] produces:
    SHA1(zeroes ∥ SHA1(code)). *)

val release : t -> unit
(** Return the session's pages to the OS allocator. Call after [Done]. *)
