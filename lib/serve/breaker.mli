(** A per-(tenant, kind) circuit breaker for the serving loop.

    When a request stream's hardware path starts failing persistently
    (retries exhausted on every attempt), continuing to dispatch only
    burns core time on doomed sessions and inflates everyone else's
    queueing delay. The breaker sheds the stream instead: after 3
    consecutive failures it {e opens} and rejects arrivals outright for
    a 100 ms cooldown of virtual time, then lets 1 probe request
    through — a success closes it, another failure reopens it for a
    fresh cooldown.

    All times are virtual (the caller passes [~now] off the engine
    clock), so breaker behaviour replays deterministically. *)

type state = Closed | Open | Half_open

val state_name : state -> string

type t

val create : unit -> t
(** A closed breaker. *)

val allow : t -> now:Sea_sim.Time.t -> bool
(** Whether to admit a request now. [Closed]: always. [Open]: no until
    the cooldown elapses, at which point the breaker moves to
    [Half_open] and spends one probe. [Half_open]: yes while probe
    budget remains. Rejections are counted in {!rejected}. *)

val record_success : t -> now:Sea_sim.Time.t -> unit
(** The dispatched request completed: reset the failure run and close. *)

val record_failure : t -> now:Sea_sim.Time.t -> unit
(** The dispatched request failed: extend the failure run; opens the
    breaker at the threshold (or instantly from [Half_open]). *)

val state : t -> state

val transitions : t -> int
(** State changes so far (a full open/half-open/close cycle counts 3). *)

val rejected : t -> int
(** Arrivals turned away by {!allow}. *)

val retry_at : t -> Sea_sim.Time.t
(** When the current open interval ends (meaningful while [Open]) —
    the earliest instant a shed closed-loop client should retry. *)

val degraded : t -> now:Sea_sim.Time.t -> Sea_sim.Time.t
(** Cumulative virtual time spent outside [Closed] up to [now]. *)
