(** PAL execution under software fault isolation: no hardware late launch,
    no TPM round-trip on the transition path.

    The third point on the isolation-cost curve, after {!Session} (today's
    hardware, whole-platform freeze) and {!Slaunch_session} (the proposed
    hardware). An SFI PAL is sandboxed by inline bounds checks and a thin
    monitor on commodity virtualization hardware — the "isolation without
    taxation" design point: transitions cost a VM-exit round trip
    (microseconds) instead of a TPM suspend/resume (hundreds of
    milliseconds) or an SLAUNCH instruction.

    What is given up: per-session hardware attestation. Trust is rooted
    once, at boot, in the measured loader/monitor; each PAL's identity is
    a software measurement chain the monitor maintains
    (SHA1(zeroes ∥ SHA1(code)), the same shape as the sePCR chain), and
    sealed storage binds to that chain — through a {!Sea_tpm.Cap.t}
    binding when a capability (e.g. a vTPM) is supplied, through the
    monitor's own AEAD vault otherwise. There is no sePCR bank and hence
    no sePCR scarcity: any number of SFI PALs stay resident at once.

    All costs are charged in virtual time from {!default_profile}; the
    machine's TPM, bus and late-launch hardware are never touched on the
    launch/yield/resume path, so this backend also runs on TPM-less
    machines (Tyan). *)

type profile = {
  transition : Sea_sim.Time.t;
      (** One crossing of the sandbox boundary (enter or exit): the
          VM-exit-class cost every yield, resume, kill and final exit
          pays. *)
  launch_base : Sea_sim.Time.t;
      (** Fixed launch cost: stub patching, page-table setup. *)
  hash_per_byte : Sea_sim.Time.t;
      (** Software SHA-1 over the code at launch (the loader
          measurement) and over data passed to [extend_measurement]. *)
  seal_base : Sea_sim.Time.t;
  seal_per_byte : Sea_sim.Time.t;
  unseal_base : Sea_sim.Time.t;
  unseal_per_byte : Sea_sim.Time.t;
      (** Software AEAD in the monitor's vault — used only when no
          capability routes seal/unseal elsewhere. *)
}

val default_profile : profile
(** The costs every SFI session charges: 1.4 µs transitions (a VM exit +
    entry on post-2008 hardware), 25 µs launch base, ~1 ns/byte hashing,
    µs-class software seal/unseal. *)

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
(** Measure and load the PAL into the sandbox, leaving it executing on
    [cpu]. Same lifecycle as {!Slaunch_session}
    (Protect → Measure → Execute), same [?analyze] preflight gate.
    Capability seal/unseal calls run under {!Sea_tpm.Tpm.retrying} on
    the machine's TPM, once on a machine without one; the launch path
    itself has nothing to retry (no TPM). *)

val state : t -> Lifecycle.state
val measurement : t -> string
val output : t -> string option

val chain : t -> string
(** The PAL's software measurement chain: rooted at the loader
    measurement, extended by [extend_measurement]. *)

val expected_chain : Pal.t -> string
(** The chain a correct launch of [pal] roots:
    SHA1(zeroes ∥ SHA1(code)) — deliberately the same shape as
    {!Slaunch_session.expected_sepcr}. *)

val run_slice :
  t ->
  cpu:int ->
  ?budget:Sea_sim.Time.t ->
  unit ->
  ([ `Yielded | `Finished ], string) result
(** Consume up to [budget] (default: the preemption timer given at
    {!start}, else all remaining work) of the PAL's work. Yielding or
    finishing charges one {!profile.transition} for the sandbox exit. *)

val resume : t -> cpu:int -> (unit, string) result
(** Suspend → Execute at one transition cost — this is the whole point. *)

val kill : t -> (unit, string) result
(** Tear down a suspended PAL: the monitor scrubs its pages. *)

val seal_blob : t -> cpu:int -> string -> (string, string) result
(** Seal [data] bound to this PAL's loader-rooted identity (via the
    capability's binding, or the monitor vault). Used by the serving
    layer for durable resident state and by the PAL's own [seal]
    service. *)

val unseal_blob : t -> cpu:int -> string -> (string, string) result
(** Inverse of {!seal_blob}; fails on a blob sealed by a different code
    identity. Works across sessions of the same PAL (the binding is the
    identity, not the session). *)

val quote : t -> nonce:string -> (Sea_tpm.Tpm.quote * Sea_sim.Time.t, string) result
(** Attestation after [Done]: a hardware TPM quote over the {e boot}
    chain (PCR 0 — the measured loader/monitor), the once-per-boot root
    this backend substitutes for per-session late-launch evidence.
    Errors on a TPM-less machine. *)

val release : t -> unit
(** Return the sandbox pages to the OS allocator. Idempotent. *)
