(** The isolation backend: one value describing how a machine hosts PALs.

    The paper is a two-point comparison — full TPM-bound sessions on
    today's hardware vs resident SLAUNCH PALs on the proposed hardware —
    and for eight PRs the codebase dispatched on that two-constructor
    choice in a dozen places. This module makes the choice a first-class
    record so {!Exec}, [Sea_serve.Server] and [Sea_cluster.Cluster]
    dispatch through one backend value, and adds the third point the
    ROADMAP asks for: {!Sfi}, software-fault-isolated PALs with
    VM-exit-class transitions and no per-session hardware attestation
    (see {!Sfi_session}).

    A backend bundles:
    - machine validation ({!field-t.check_machine}) and the resident-pool
      bound ({!field-t.pool} — the sePCR count on proposed hardware,
      unbounded under SFI);
    - {!field-t.oneshot}: run a PAL to completion, the {!Session} shape;
    - {!field-t.launch}: host a PAL as a resident {!instance} whose
      uniform operations ([run_slice]/[resume]/[yield via run_slice]/
      [kill]/[release]/[save_state]/[load_state]/[quote]) close over the
      backend-specific session;
    - a per-operation virtual-time cost hook ({!field-t.extra_cost}):
      what the backend layer itself charges on top of the hardware
      simulation. Zero for both hardware backends — their costs come out
      of the simulated TPM, bus and instruction timings — and the SFI
      timing profile's values for {!Sfi}. *)

type kind = Current | Proposed | Sfi

val all : kind list

val kind_name : kind -> string
(** Report header name: ["current hw"], ["proposed hw"], ["sfi"]. *)

val cli_name : kind -> string
(** CLI spelling: ["current"], ["proposed"], ["sfi"]. *)

val of_cli_name : string -> kind option
(** Inverse of {!cli_name} (case-insensitive); [None] for unknown
    names — callers print the known list and exit rather than guessing. *)

type op =
  | Op_launch
  | Op_resume
  | Op_yield
  | Op_release
  | Op_quote
  | Op_seal
  | Op_unseal

(** A resident PAL, uniformly drivable whatever hosts it. *)
type instance = {
  kind : kind;
  run_slice :
    cpu:int ->
    ?budget:Sea_sim.Time.t ->
    unit ->
    ([ `Yielded | `Finished ], string) result;
  resume : cpu:int -> (unit, string) result;
  suspended : unit -> bool;
  output : unit -> string option;
  kill : unit -> (unit, string) result;
  release : unit -> unit;
  save_state : cpu:int -> tag:string -> (string option, string) result;
      (** Seal the resident's identity-bound state for durable storage
          (eviction, migration). [Ok None] when the backend has nothing
          to bind it to (a proposed-hw session whose sePCR was already
          freed). *)
  load_state : cpu:int -> string -> (string, string) result;
      (** Hand a previously saved blob back to a fresh instance of the
          same PAL and return the state it unseals to (the [tag] given
          to {!field-instance.save_state}); unsealing checks the
          identity binding. *)
  quote :
    nonce:string -> (Sea_tpm.Tpm.quote * Sea_sim.Time.t, string) result;
      (** Attestation for this instance once it is done: the sePCR quote
          on proposed hardware, the boot-chain quote under SFI. *)
}

val discard : instance -> unit
(** End an instance whatever its state: kill it (refused, with no
    effect, unless it is suspended), then release its pages. *)

type t = {
  kind : kind;
  name : string;  (** = [kind_name kind]; what reports render. *)
  resident : bool;
      (** Whether PALs stay hosted between requests. [false] only for
          {!Current}: each request is a fresh full session. *)
  check_machine : Sea_hw.Machine.t -> (unit, string) result;
  pool : Sea_hw.Machine.t -> int;
      (** Max simultaneous residents: the machine's sePCR count on
          proposed hardware, [max_int] under SFI (no scarce hardware
          resource), [0] for the non-resident backend. *)
  extra_cost : op -> Sea_sim.Time.t;
  oneshot :
    Sea_hw.Machine.t ->
    cpu:int ->
    ?preemption_timer:Sea_sim.Time.t ->
    ?analyze:Sea_analysis.Analyzer.gate ->
    ?tpm_cap:Sea_tpm.Cap.t ->
    Pal.t ->
    input:string ->
    (string, string) result;
      (** Run [pal] to completion and return its output. Resident
          backends launch, drive [run_slice]/[resume] until [`Finished]
          (so a preemption timer is honoured, not an error) and release;
          {!Current} runs a full {!Session.execute}. *)
  launch :
    Sea_hw.Machine.t ->
    cpu:int ->
    ?preemption_timer:Sea_sim.Time.t ->
    ?analyze:Sea_analysis.Analyzer.gate ->
    ?tpm_cap:Sea_tpm.Cap.t ->
    Pal.t ->
    input:string ->
    (instance, string) result;
      (** Host [pal] as a resident, left executing on [cpu]. Errors for
          the non-resident backend. *)
}

val current : t
val proposed : t
val sfi : t
val of_kind : kind -> t
