(** The serving loop: multi-tenant PAL request service, measured end to
    end on one simulated machine.

    This is the paper's §4.2 observation turned into a systems
    experiment. On {e today's} hardware ([Current]) every request is a
    full {!Sea_core.Session}: SKINIT measurement, TPM Unseal (and Seal
    for resealing kinds), and a whole-platform stall for the duration —
    one request at a time, hundreds of milliseconds each. On the
    {e proposed} hardware ([Proposed]) each (tenant, kind) keeps a
    resident PAL suspended in access-controlled memory
    ({!Sea_core.Slaunch_session}): a warm request is a resume plus
    preemption-timer slices of the request's compute, microseconds of
    overhead, and every core serves concurrently while the legacy OS
    keeps running. The finite sePCR bank bounds the resident set: a
    cold start beyond it must evict (SKILL) another resident — sealing
    its durable state out, to be unsealed by a later re-launch of the
    same code identity — and waits if every resident is mid-burst.
    Under software fault isolation ([Sfi]) residents are likewise kept
    hosted ({!Sea_core.Sfi_session}) but transitions cost a VM-exit
    round trip and the pool is unbounded: no sePCR scarcity, so no
    evictions and no waits.

    All three paths dispatch through one {!Sea_core.Backend.t} value;
    the mode only selects which.

    Mechanically the loop is virtual-time queueing over real
    executions: arrivals, admission and core occupancy are tracked in
    virtual time off the engine clock, while every service interval is
    measured by actually running the session or slices on the machine
    (the engine clock ratchets forward monotonically). All randomness
    comes from streams split off the machine engine, so a given seed
    and configuration replays bit-identically. *)

type mode = Sea_core.Backend.kind = Current | Proposed | Sfi

val mode_name : mode -> string

val mode_names : string list
(** CLI spellings of every mode, for "unknown mode" messages. *)

val mode_of_name : string -> mode option
(** Parse a CLI spelling (case-insensitive); [None] for unknown names. *)

type config = {
  mode : mode;
  duration : Sea_sim.Time.t;  (** How long arrivals keep coming. *)
  queue_depth : int;
  discipline : Admission.discipline;
  analyze : Sea_analysis.Analyzer.gate;
      (** Static-analysis launch gate applied to every session and
          resident launch (default [Off]). Analysis is content-addressed
          through {!Sea_core.Pal}'s certificate cache, so each distinct
          image is analyzed once per process regardless of request
          volume, and the gate costs no virtual time: an admitted run's
          report is byte-identical to the ungated one. *)
  preemption_timer : Sea_sim.Time.t;  (** Slice budget ([Proposed]). *)
  faults : Sea_fault.Fault.spec option;
      (** Deterministic fault plan injected at the TPM/LPC boundary for
          the serving window (installed after bootstrap). Faults come
          with their recovery: the plan is installed on the TPM with its
          retry policy ({!Sea_tpm.Tpm.set_faults}), so the hardware path
          retries, and every (tenant, kind) stream is guarded by a
          {!Breaker}; a run without has neither. *)
  vtpm : int option;
      (** Multiplex this many virtual TPMs over the machine's hardware
          TPM ([Sea_vtpm]); every session — bootstrap included — then
          executes against its tenant's vTPM capability (tenant [i] →
          instance [i mod vtpm]), with the hardware part serving only as
          the integrity anchor. [None] (default): sessions talk to the
          hardware TPM directly, byte-for-byte the historical
          behaviour. *)
}

val config :
  ?queue_depth:int ->
  ?discipline:Admission.discipline ->
  ?analyze:Sea_analysis.Analyzer.gate ->
  ?preemption_timer:Sea_sim.Time.t ->
  ?faults:Sea_fault.Fault.spec ->
  ?vtpm:int ->
  mode:mode ->
  duration:Sea_sim.Time.t ->
  unit ->
  config
(** Defaults: depth 16, FIFO, analysis gate [Off], 10 ms preemption
    timer, no faults, no vTPM layer. Raises
    [Invalid_argument] on non-positive values. *)

val run :
  Sea_hw.Machine.t ->
  config ->
  Workload.tenant list ->
  (Report.t, string) result
(** Bootstrap sealed state (on [Current]), generate arrivals for
    [duration], serve until the admitted backlog drains, and report.
    The measurement window stretches to the last completion, so slow
    modes cannot hide a backlog. [Error] covers machine/mode mismatch
    (no TPM, or [Proposed] without the proposed hardware) and bootstrap
    failures; per-request errors are counted in the report's [failed]
    column instead. Raises [Invalid_argument] on an empty tenant
    list.

    With [faults] set, the plan is installed on the TPM and LPC bus for
    the serving window only, and the loop degrades gracefully rather
    than failing requests outright: transient errors are retried with
    virtual-time backoff; a resident whose resume still faults is
    quarantined (SKILLed) and the request served by a fresh cold start;
    a (tenant, kind) stream that keeps failing is shed by its circuit
    breaker for a cooldown instead of being dispatched to certain
    failure. Breaker sheds count in the rows' [shed], preserving
    [offered = completed + shed + timed_out + failed].

    With [vtpm] set, faults also reach the vTPM anchor path: background
    anchor extends burn bounded retries against injected busy faults and
    a checkpoint seal can fail permanently — either quarantines only the
    affected vTPM. A quarantined vTPM is healed on the next request
    routed to it; if the repair still fails, only that tenant's requests
    fail (and its breaker opens) while every other vTPM keeps
    serving. *)
