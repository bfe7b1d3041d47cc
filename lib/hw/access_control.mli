(** The proposed per-page access-control table (§5.2, Figure 5(b)).

    The paper recommends that the memory controller keep one entry per
    physical page recording which CPUs may access it. A page is in one of
    three states:

    - [All] — accessible to every CPU and to DMA devices (default);
    - [Cpu_only] — exclusive to one CPU (a PAL is executing there);
    - [None_access] — inaccessible to everything (the PAL is suspended).

    We additionally record which SECB owns a non-[All] page. The real
    hardware derives this from the SECB's page list when SLAUNCH runs; the
    explicit owner field lets the model verify exactly the checks §5.2 and
    Figure 7 require ("if ∃ p ∈ SECB.pages s.t. p.accessible = NONE,
    FAIL") and makes tampering attempts detectable in tests. *)

type state =
  | All
  | Cpu_only of { cpu : int; secb_id : int }
  | Shared of { cpus : int list; secb_id : int }
      (** Multicore PAL (§6 "Multicore PALs"): two or more CPUs joined to
          one PAL's pages. The list is sorted and duplicate-free. *)
  | None_access of { secb_id : int }

type t

val create : pages:int -> t
(** All pages initially [All]. *)

val page_count : t -> int
val get : t -> int -> state

val claim : t -> secb_id:int -> cpu:int -> int list -> (unit, string) result
(** First launch: every listed page must currently be [All]; afterwards
    all are [Cpu_only] for [cpu]. On failure nothing changes. *)

val suspend : t -> secb_id:int -> cpu:int -> int list -> (unit, string) result
(** Context-switch out: [Cpu_only {cpu; secb_id}] → [None_access]. *)

val resume : t -> secb_id:int -> cpu:int -> int list -> (unit, string) result
(** Context-switch in: [None_access {secb_id}] → [Cpu_only] for the (new)
    CPU. Fails if any page is not suspended state owned by [secb_id] —
    this is the check that makes a forged Measured Flag useless (§5.3.1). *)

val release : t -> secb_id:int -> int list -> (unit, string) result
(** SFREE/SKILL: owned pages (executing on one CPU, or suspended) →
    [All]. Pages [Shared] by joined CPUs are refused, as {!suspend}
    refuses them: the helpers SLEAVE first. *)

val join : t -> secb_id:int -> cpu:int -> int list -> (unit, string) result
(** §6 "Multicore PALs": add [cpu] to the set of CPUs allowed on the
    PAL's pages. The pages must be executing ([Cpu_only] or [Shared])
    and owned by [secb_id]; joining a CPU already present fails. *)

val leave : t -> secb_id:int -> cpu:int -> int list -> (unit, string) result
(** Remove [cpu] from a [Shared] page set; with one CPU left the pages
    return to [Cpu_only]. The last CPU cannot leave (it must SYIELD or
    SFREE instead). *)

val cpu_may_access : t -> cpu:int -> int -> bool
val dma_may_access : t -> int -> bool
(** DMA is permitted only to [All] pages. *)

val owned_pages : t -> secb_id:int -> int list
(** For diagnostics and invariant checks. *)
