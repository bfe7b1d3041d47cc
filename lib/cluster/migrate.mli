(** Sealed-state PAL failover between fleet machines — the paper's
    §5.4 sePCR seal/unseal run as a real migration protocol.

    Every step drives a {!Sea_core.Backend.instance} of
    {!Sea_core.Backend.proposed}, the same value the serve loop keeps
    its residents as. A resident on a failed machine is moved to a
    survivor:

    + {b park} — the source launches the resident's code identity and
      runs one slice, so it parks in [Suspend] (SLAUNCH, then SYIELD);
    + {b seal} — [save_state] seals its hand-off state bound to the
      sePCR measurement chain, then the source instance is discarded
      (SKILL; from this instant the blob {e is} the PAL — exactly-once
      hinges on the seal-then-kill ordering);
    + {b transfer} — the blob crosses the lossy {!Link} under bounded
      {!Sea_fault.Retry} backoff;
    + {b unseal + resume} — the survivor launches and parks the same
      code identity (its sePCR then carries the same measurement chain),
      [load_state] unseals the blob against it and must return the state
      the source sealed, and the instance resumes warm.

    Park and seal are {!seal_out}, on the source's clock; transfer,
    unseal and resume are {!failover}, on the target's. A caller that
    traces each machine into its own sink runs each half under its
    machine's sink, so no span nests under another machine's clock.

    A transfer the retries cannot save is {e torn}: the target's
    already-claimed pages and sePCR are backed out with
    {!Sea_core.Backend.discard}, exactly like a failed first launch,
    and the PAL is cold re-launched without its state. A crashed source
    never runs the live protocol — failover falls back to the pre-crash
    durable checkpoint when one survived, else a cold re-launch. The
    invariant either way: the PAL ends resident on {e exactly one}
    machine. *)

type outcome = Warm  (** Sealed state resumed on the survivor. *)
             | Cold  (** Re-launched without state. *)

type result_t = {
  outcome : outcome;
  torn : bool;
      (** A mid-protocol failure forced a target claim backout before
          the cold re-launch. *)
  link_retries : int;  (** Link re-transmissions burned. *)
  target : Sea_core.Backend.instance;
      (** The live resident on the target, suspended; the caller owns
          it ({!Sea_core.Backend.discard} when done). *)
}

type handoff
(** What the source hands the target: the sealed blob, when one exists,
    whose resident it is, and the preemption timer both halves park it
    with. *)

val seal_out :
  source:Sea_hw.Machine.t ->
  ?source_alive:bool ->
  ?blob_available:bool ->
  ?preemption_timer:Sea_sim.Time.t ->
  tenant:string ->
  kind_name:string ->
  Sea_core.Pal.t ->
  unit ->
  handoff
(** The source's half: park and seal, then discard the source instance,
    all on the source's clock inside a ["seal-out"] span. Run it under
    the source machine's trace sink. [source_alive] (default true)
    selects the live protocol — a partitioned machine still seals and
    ships; false models a crash, where [blob_available] decides whether
    the durable pre-crash checkpoint survived (if not, the source is not
    touched and nothing is shipped). [preemption_timer] (default 10 ms)
    governs the slices that park the resident in [Suspend], here and in
    {!failover}. *)

val failover :
  target:Sea_hw.Machine.t ->
  link:Link.t ->
  Sea_core.Pal.t ->
  handoff ->
  (result_t, string) result
(** The target's half — transfer, unseal and resume, or the cold
    re-launch — on the target's clock inside a ["migrate"] span. Run it
    under the target machine's trace sink. [Error] only when even the
    cold re-launch cannot claim the target (e.g. no proposed
    hardware). *)

val respawn :
  backend:Sea_core.Backend.t ->
  target:Sea_hw.Machine.t ->
  ?preemption_timer:Sea_sim.Time.t ->
  tenant:string ->
  kind_name:string ->
  Sea_core.Pal.t ->
  unit ->
  (unit, string) result
(** Kill-and-respawn rebalancing (the autoscaler's spread policy): no
    state moves — a fresh resident simply launches on the target.
    On {!Sea_core.Backend.proposed} this pays a real cold SLAUNCH of
    [pal] on the target (pages, SECB, sePCR, image hash) and backs the
    claim out so nothing stays resident between epochs; any other
    backend charges the target's clock its flat launch cost
    ([extra_cost Op_launch]: the ~25 µs SFI launch). [Error] only when
    the SLAUNCH cannot claim the target. *)
