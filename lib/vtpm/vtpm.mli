(** Virtual TPM multiplexing for massive tenant density.

    One hardware TPM serves one command at a time at millisecond-class
    latencies (Figure 3), which caps how many mutually distrusting
    tenants a single machine can attest. A {!t} multiplexes [instances]
    {e virtual} TPMs over one hardware part: each vTPM owns a full
    virtual PCR bank, an event log, a sealing/quoting RSA key and a
    private DRBG, and executes seal/unseal/extend/random at software
    (CPU) speed. Hardware is reserved for what software cannot provide —
    the integrity anchor:

    - every vTPM state change (virtual PCR extend, launch-measured
      reset, heal) appends a record [(index, state digest)] to a pending
      batch; batches are folded to one digest and extended into a
      dedicated hardware {e anchor PCR}, so the hardware PCR value
      commits to the exact sequence of every tenant's vTPM states;
    - a vTPM quote carries a fresh {e hardware} anchor quote (signed by
      the AIK over the anchor PCR and the verifier's nonce) alongside
      the software signature over the virtual PCR composite, the vTPM
      state digest and the anchor value — tampering with either layer
      breaks verification ({!verify_quote});
    - each vTPM's state digest is checkpointed into a hardware sealed
      blob at provisioning and after every {!heal}, so a vTPM can be
      quarantined and re-provisioned without trusting software claims
      about its last good state.

    {2 The batched anchor pipeline}

    Anchor extends do not sit on the request path. They are committed to
    PCR state immediately ({!Sea_tpm.Tpm.pcr_extend_deferred}) but their
    hardware cost — one coalesced LPC burst for the whole batch
    ({!Sea_bus.Lpc.batch_transfer_time}, paying per byte actually moved
    rather than per command framing) plus one PCR-extend latency — is
    accounted on the device's own background timeline ([anchor_lag]).
    Foreground commands never wait for it and never observe it; only
    {!sync} (and hence {!quote}) joins the pipeline, elapsing the engine
    to the anchor timeline before taking the on-clock hardware quote.
    Consequently serve reports are byte-identical for any [batch] size:
    batching changes how far the anchor lags, not what tenants see.

    Background work is also stream-isolated: deferred extends charge the
    unjittered profile mean and fault-free runs draw nothing, so the
    hardware TPM's jitter and fault streams advance exactly as they
    would without a vTPM layer in front. *)

type t
(** The multiplexer: [instances] virtual TPMs anchored in one hardware
    TPM. *)

type instance
(** A handle to one virtual TPM. *)

val software_profile : Sea_tpm.Timing.profile
(** Latency means for vTPM commands executed by the CPU (µs-class SHA-1
    / AEAD / DRBG work, against the TPM's ms-class hardware commands).
    Charged as means — no jitter draw, see the stream-isolation note
    above. *)

val create :
  ?anchor_pcr:int ->
  ?batch:int ->
  ?key_bits:int ->
  tpm:Sea_tpm.Tpm.t ->
  instances:int ->
  unit ->
  (t, string) result
(** [create ~tpm ~instances ()] provisions [instances] virtual TPMs:
    each gets a fresh virtual PCR bank, an event log, a deterministic
    RSA key (Keyvault label ["vtpm:<index>"], sized by [key_bits],
    default 512 — software keys, not the hardware SRK/AIK) and a DRBG
    seeded from the hardware TPM's {!Sea_tpm.Tpm.tag}, then checkpoints
    its genesis state into a hardware sealed blob and pushes the
    provisioning records through one anchor flush ({!sync}), so the
    anchor PCR commits to the initial population before any command
    runs.

    [anchor_pcr] (default 23, a dynamic PCR no session identity uses)
    is the hardware PCR the anchor chain lives in. [batch] (default 16)
    is how many pending records trigger a background flush. The
    on-clock hardware legs (checkpoints, anchor quotes) run under
    {!Sea_tpm.Tpm.retrying}, and the background extend makes up to
    {!Sea_fault.Retry.attempts} attempts, when a fault plan is installed
    on [tpm]; without one, each leg runs once.

    Errors (rather than raising) on [instances < 1], [batch < 1], or an
    out-of-range [anchor_pcr]. *)

val instances : t -> int
val anchor_pcr : t -> int

val instance : t -> int -> instance
(** Raises [Invalid_argument] on an out-of-range index. *)

val for_tenant : t -> tenant:int -> instance
(** Tenant-to-vTPM routing: [tenant mod instances t]. Stable under
    sharding — it depends only on the tenant id. *)

val index : instance -> int

(** {1 Virtual TPM commands}

    All software-speed: they advance the engine by the (unjittered)
    {!software_profile} mean and never touch the LPC bus. State-changing
    commands additionally enqueue an anchor record. A broken (see
    {!broken}) instance refuses seal/unseal/extend/quote with a
    permanent error until {!heal}ed. *)

val extend : instance -> int -> string -> (string, string) result
(** Extend virtual PCR [i]; returns the new value and enqueues an anchor
    record. Also appended to the instance's event log. *)

val launch_measured : instance -> pcr:int -> measurement:string -> unit
(** Mirror a hardware late launch into the virtual bank: dynamic-reset
    the virtual PCRs and extend [measurement] into virtual [pcr], so
    identity-bound seal policies hold against the virtual bank exactly
    as they would against hardware. One anchor record for the pair.
    No-op on a broken instance (the session will fail at its first
    seal/unseal instead). *)

val seal :
  instance ->
  ?binding:string ->
  pcr_policy:(int * string) list ->
  string ->
  (string, string) result
(** Software seal under this vTPM's key: the blob binds [pcr_policy]
    (checked against the {e virtual} bank at unseal) and the opaque
    [binding] string (checked for equality at unseal — the capability
    layer stores the current hardware sePCR value here, so proposed-mode
    blobs stay bound to the PAL's hardware measurement chain). Not a
    state change: sealing does not touch the anchor. *)

val unseal :
  instance -> ?binding:string -> string -> (string, string) result

val get_random : instance -> int -> string
(** Per-instance DRBG output; never fails (a broken vTPM can still
    source entropy) and never touches the anchor. *)

val pcr_value : instance -> int -> string
val state_digest : instance -> string
(** The rolling digest chaining every state change of this instance;
    what anchor records and checkpoints commit to. *)

val event_log : instance -> Sea_tpm.Event_log.t
val key_public : instance -> Sea_crypto.Rsa.public

(** {1 Quarantine and repair} *)

val broken : instance -> bool
(** Set when a hardware anchor leg gave up: a background anchor extend
    exhausted its retries (every instance with a record in the failed
    batch is quarantined) or a checkpoint seal failed permanently. Only
    the affected instance is quarantined — its neighbours keep
    serving. *)

val heal : instance -> (unit, string) result
(** Re-provision a broken instance on-clock: reset its virtual bank,
    restart its state chain from a healed genesis, checkpoint the new
    state into a hardware sealed blob (retried per the [create] policy)
    and enqueue the anchor record. Fails — and leaves the instance
    broken — if the checkpoint seal still fails. Counts one reset. *)

val checkpoint : instance -> (unit, string) result
(** Seal the instance's current state digest into a hardware blob
    (on-clock, fault-injectable, retried). Called by [create] and
    {!heal}; exposed for tests. *)

(** {1 Anchoring and attestation} *)

val sync : t -> unit
(** Flush pending anchor records and elapse the engine to the anchor
    timeline: after [sync] the hardware anchor PCR value covers every
    state change so far and the device is idle. *)

val anchor_value : t -> string
(** The hardware anchor PCR value as of the last flush (equal to the
    live hardware PCR — flushes commit state eagerly). *)

type quote = {
  vtpm : int;
  selection : (int * string) list;  (** Virtual PCR index, value. *)
  state_digest : string;
  anchor_pcr : int;
  anchor : Sea_tpm.Tpm.quote;  (** Hardware AIK quote over the anchor PCR. *)
  nonce : string;
  signature : string;  (** This vTPM's key over the virtual composite,
                           state digest, anchor value and nonce. *)
}

val quote :
  instance -> selection:int list -> nonce:string -> (quote, string) result
(** {!sync}, take a fresh on-clock hardware anchor quote (AIK-signed,
    fault-injectable, retried), then sign the virtual composite together
    with the state digest and the quoted anchor value. *)

val verify_quote :
  aik:Sea_crypto.Rsa.public ->
  key:Sea_crypto.Rsa.public ->
  quote ->
  bool
(** Verifier side: the hardware anchor quote must verify under [aik],
    cover the anchor PCR with the value the software signature commits
    to, and carry the same nonce; the software signature must verify
    under [key]. Tampering with either layer — including swapping in a
    different anchor value — fails. *)

(** {1 The session capability} *)

val cap : t -> tenant:int -> Sea_tpm.Cap.t
(** The {!Sea_tpm.Cap.t} routing a session's TPM operations to
    [for_tenant t ~tenant]: seal/unseal/random/extend go to the virtual
    instance (with the hardware sePCR value folded into the blob binding
    in proposed mode), [launch_measured] mirrors the late launch into
    the virtual bank, and [sepcr_extend] passes through to hardware. *)

(** {1 Counters} *)

type counters = {
  seals : int;
  unseals : int;
  extends : int;
  quotes : int;
  resets : int;  (** Quarantine repairs ({!heal} completions). *)
}

val counters : t -> counters

val flushes : t -> int
(** Anchor batches flushed to hardware. *)

val records_flushed : t -> int

val anchor_retries : t -> int
(** Background anchor-extend attempts burned on injected busy faults. *)

val anchor_time : t -> Sea_sim.Time.t
(** Total background hardware time accrued by anchor flushes (coalesced
    LPC bursts + extend latencies, including failed attempts). *)

val anchor_lag : t -> Sea_sim.Time.t
(** How far the anchor pipeline currently lags the engine clock
    ([zero] when idle — e.g. right after {!sync}). *)
