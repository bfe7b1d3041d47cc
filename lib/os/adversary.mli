(** The threat model of §3.2, as executable attacks.

    The adversary controls all legacy software — it runs ring-0 code, can
    invoke SKINIT/SLAUNCH with arguments of its choosing, and owns
    DMA-capable peripherals. Each function below mounts one attack against
    a machine/PAL and reports what the hardware did. Tests assert
    [Blocked]; any [Succeeded] is a broken security property (DoS is out
    of scope, §3.2).

    Each attack returns the mechanism that stopped it, so the tests also
    document {e which} recommendation carries which property. *)

type verdict =
  | Blocked of string  (** Attack stopped; the string names the mechanism. *)
  | Succeeded of string  (** Security failure; description of the leak. *)

val dma_read_protected_page :
  Sea_hw.Machine.t -> device:string -> page:int -> verdict
(** A malicious DMA peripheral (e.g. compromised NIC, §3.2) reads a
    protected page: stopped by the DEV on today's hardware, by the
    access-control table on the proposed hardware. *)

val cpu_read_pal_page :
  Sea_hw.Machine.t -> cpu:int -> page:int -> verdict
(** Code on another core reads an executing/suspended PAL's page —
    possible on today's hardware (which is why SKINIT requires other cores
    idle), stopped by the access-control table on proposed hardware. *)

val forge_measured_flag :
  Sea_hw.Machine.t -> cpu:int -> Sea_core.Pal.t -> verdict
(** Build a fresh SECB with the Measured Flag pre-set and SLAUNCH it,
    hoping to run an unmeasured PAL: must fail because the flag is honored
    only when the SECB's pages are in the suspended (NONE) state
    (§5.3.1). *)

val double_resume :
  Sea_hw.Machine.t -> cpu:int -> Sea_hw.Secb.t -> verdict
(** SLAUNCH an already-executing PAL's SECB on a second CPU (§5.3.1: "any
    other CPU that tries to resume the same PAL will fail"). *)

val software_pcr17_reset : Sea_hw.Machine.t -> verdict
(** Invoke TPM_HASH_START from ring-0 software to reset PCR 17 and forge a
    late-launch measurement (§2.1.3: hardware-only). *)

val unseal_after_pal_exit : Sea_hw.Machine.t -> blob:string -> verdict
(** Replay a PAL's sealed blob from the untrusted OS after the session
    ended: the exit marker in the identity PCR makes the policy fail. *)

val tamper_quote :
  Sea_hw.Machine.t -> Sea_tpm.Tpm.quote -> nonce:string -> Sea_core.Pal.t -> verdict
(** Flip a bit in a quote's PCR values and present it to the verifier. *)

val extend_foreign_sepcr :
  Sea_hw.Machine.t -> cpu:int -> Sea_tpm.Sepcr.handle -> verdict
(** Extend (from software, and from a non-owner CPU) a sePCR bound to
    another PAL (§5.4.2). *)

val sfree_from_outside :
  Sea_hw.Machine.t -> cpu:int -> Sea_hw.Secb.t -> verdict
(** Execute SFREE from untrusted code while the PAL is suspended ("SFREE
    executed by other code must fail", §5.5). *)

val replay_stale_sealed_state :
  Sea_hw.Machine.t -> cpu:int -> stale_blob:string -> verdict
(** Present a PAL with an {e earlier} version of its rollback-protected
    sealed state (the gap the plain design leaves open; blocked by the
    monotonic-counter discipline of {!Sea_core.Rollback}). *)

val skinit_retry_skips_measurement :
  Sea_hw.Machine.t -> cpu:int -> Sea_core.Pal.t -> input:string -> verdict
(** Sever the [TPM_HASH_DATA] stream mid-SKINIT (one injected
    [Hash_abort] fault) and let the retry policy installed with it
    relaunch: the retried launch must restart measurement from
    [TPM_HASH_START], never leaving the PAL running with a partial or
    stale identity PCR. [Blocked] when the post-launch identity PCR matches the full
    expected measurement chain (or the launch fails closed). *)

val join_uninvited_cpu :
  Sea_hw.Machine.t -> cpu:int -> Sea_hw.Secb.t -> verdict
(** SJOIN a CPU to a suspended or foreign PAL from untrusted code: the
    access-control table only admits joins to an executing PAL's own
    page set (§6 "Multicore PALs"). Meaningful when [secb] is
    suspended — an executing PAL's owner may legitimately join. *)
