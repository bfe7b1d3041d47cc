(** The instruction set of the execution model.

    Today's instructions — SKINIT (AMD, §2.2.1), SENTER (Intel, §2.2.2),
    VM entry/exit (Table 2) — and the paper's proposed instructions —
    SLAUNCH (§5.1), SYIELD (§5.3), SFREE and SKILL (§5.5).

    Every instruction advances the machine's simulated clock by its
    modelled cost and performs its functional effect (protection updates,
    TPM traffic, real measurement of the bytes in memory). Failures are
    returned, mirroring the failure codes the paper specifies. *)

module Costs : sig
  val cpu_init : Sea_sim.Time.t
  (** Putting the CPU into the clean protected state (Table 1's 0 KB rows:
      ≈ microseconds). *)

  val vm_enter : Machine.arch -> Sea_sim.Time.t
  val vm_exit : Machine.arch -> Sea_sim.Time.t
  (** Table 2: AMD 0.5580 / 0.5193 µs; Intel 0.4457 / 0.4491 µs. *)

  val vm_jitter : float
  (** Relative std-dev of VM transitions (Table 2's ~0.5% dispersion). *)

  val senter_acmod_bytes : int
  (** Size of the Intel Authenticated Code Module ("just over 10 KB"). *)

  val senter_sig_verify : Sea_sim.Time.t
  (** Chipset RSA verification of the ACMod signature. *)

  val cpu_hash_per_byte : Sea_sim.Time.t
  (** Rate at which the ACMod hashes the PAL on the main CPU — the slow
      linear growth of SENTER in Table 1 (≈ 121 ns/byte). *)

  val state_clear : Sea_sim.Time.t
  (** Scrubbing microarchitectural state on SYIELD/SFREE (§5.3.1). *)

  val page_erase : Sea_sim.Time.t
  (** Zeroing one 4 KB page during SKILL. *)
end

(** {1 Today's hardware} *)

val skinit :
  Machine.t -> cpu:int -> pages:int list -> length:int -> (string, string) result
(** AMD late launch. [pages] hold the Secure Loader Block; [length] bytes
    (≤ 64 KB) are measured. Requires a TPM, ring-0 (modelled as: no PAL
    currently on this CPU) and {e every other core idle} (§4.2). Effects:
    DEV-protects the pages, disables interrupts, resets dynamic PCRs and
    extends PCR 17 with the SLB measurement — streaming the SLB to the TPM
    over the LPC bus, which is where the time goes. Returns the SLB
    measurement (= new PCR 17 preimage). *)

val skinit_max_bytes : int
(** 64 KB — the DEV-covered SLB limit. *)

val senter :
  Machine.t -> cpu:int -> pages:int list -> length:int -> (string, string) result
(** Intel late launch: the chipset-verified ACMod is streamed to the TPM
    and extended into PCR 17; the ACMod then hashes the PAL on the main
    CPU and extends it into PCR 18 (§2.2.2). Returns the PAL measurement. *)

val senter_max_bytes : int
(** 512 KB — the default MPT coverage. *)

val late_launch :
  Machine.t -> cpu:int -> pages:int list -> length:int -> (string, string) result
(** Dispatches to {!skinit} or {!senter} per the machine's architecture. *)

val vm_enter : Machine.t -> cpu:int -> unit
val vm_exit : Machine.t -> cpu:int -> unit
(** Pure timing reference points (Table 2); used as the context-switch
    cost target for the proposed hardware (§5.7). *)

(** {1 Proposed hardware} *)

type slaunch_outcome =
  | Launched of string  (** First launch; the PAL's measurement. *)
  | Resumed  (** Measured Flag honored; state reloaded. *)

val slaunch : Machine.t -> cpu:int -> Secb.t -> (slaunch_outcome, string) result
(** Figure 7. First launch: claims the SECB's pages in the access-control
    table, allocates a sePCR, streams the PAL to the TPM for measurement,
    sets the Measured Flag, and enters the PAL. Resume: honors the
    Measured Flag {e only} if the pages are in the suspended state owned
    by this SECB, rebinds the sePCR to this CPU, reloads state, and enters
    at VM-entry cost. Fails (without side effects on the protection state)
    on: missing proposed hardware, a freed SECB, pages in use, no free
    sePCR, or a busy CPU. *)

val syield : Machine.t -> cpu:int -> Secb.t -> (unit, string) result
(** Voluntary yield or preemption-timer expiry: hardware saves the CPU
    state into the SECB, suspends the pages to the no-access state, scrubs
    microarchitectural state and returns the CPU to the untrusted OS. *)

val sfree : Machine.t -> cpu:int -> Secb.t -> (unit, string) result
(** Clean PAL exit. Must execute from within the PAL (the model checks
    the CPU is running this SECB's PAL — the paper's "SFREE executed by
    other code must fail", §5.5). Releases pages to ALL and moves the
    sePCR to the Quote state. Refused while other CPUs are joined (§6:
    the last CPU exits), as {!syield} is. The PAL is responsible for
    erasing its own secrets first. *)

val skill : Machine.t -> Secb.t -> (unit, string) result
(** Kill a misbehaving, {e suspended} PAL from untrusted code: hardware
    erases the PAL's pages, releases them to ALL, extends the sePCR with
    the SKILL constant and frees it (§5.5). *)

(** {1 §6 extensions} *)

val sjoin : Machine.t -> cpu:int -> Secb.t -> (unit, string) result
(** Multicore PALs: join an additional CPU to an executing PAL — the
    join "serves to add the new CPU to the memory controller's access
    control table for the PAL's pages" (§6). The joining CPU must be
    running legacy code; costs a VM entry. *)

val sleave : Machine.t -> cpu:int -> Secb.t -> (unit, string) result
(** The joined CPU leaves the PAL and returns to the untrusted OS after
    a secure state clear. The last CPU cannot leave — it exits via
    SYIELD or SFREE. *)

val interrupt_reprogram_cost : Secb.t -> Sea_sim.Time.t
(** Cost of reprogramming the interrupt-routing logic for this PAL's IDT
    on each dispatch — zero for the recommended empty IDT, and the
    "undesirable overhead" of §6 otherwise. Charged by SLAUNCH. *)

type interrupt_destination =
  | To_os  (** Routed to the untrusted OS (default). *)
  | To_pal of int  (** Delivered to the PAL owning this SECB id. *)

val deliver_interrupt :
  Machine.t -> secbs:Secb.t list -> vector:int -> interrupt_destination
(** §6 "PAL Interrupt Handling": a device raises [vector]. If some PAL is
    currently executing on a CPU and registered [vector] in its IDT, the
    interrupt is routed to it; in every other case (unregistered vector,
    PAL suspended, no PAL at all) it goes to the OS. *)
