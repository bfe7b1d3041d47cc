(** Bounded retry with virtual-time exponential backoff.

    Wraps an operation returning [(_, string) result]; an error tagged
    transient by {!Fault.is_transient} is retried up to {!attempts}
    times in all, sleeping (in simulated time, via [Engine.advance]) an
    exponentially growing, jittered backoff between attempts. Permanent
    errors and transient errors on the last attempt are returned to the
    caller unchanged.

    Jitter is drawn from the engine's own generator, and only when a
    retry actually happens — a fault-free run consumes no randomness and
    replays bit-identically to a build without this module.

    [Sea_tpm.Tpm.set_faults] installs a policy with each fault plan: no
    caller chooses its own. *)

type policy
(** The retry and give-up counters of one fault plan's recovery. *)

val attempts : int
(** Attempts per operation, the first one included: 4. The backoff
    after attempt [n] is 50 µs doubled [n - 1] times, capped at 5 ms,
    then stretched by up to 25 % jitter. *)

val policy : unit -> policy
(** A fresh policy with its own zeroed counters. *)

val retries : policy -> int
(** Cumulative retries performed through this policy (attempt 2 and
    beyond each count one). *)

val give_ups : policy -> int
(** Operations that still failed transiently after the last allowed
    attempt. *)

val run :
  ?policy:policy ->
  engine:Sea_sim.Engine.t ->
  (unit -> ('a, string) result) ->
  ('a, string) result
(** [run ~engine f] evaluates [f ()], retrying transient errors per the
    policy. Without [?policy], [f] runs exactly once (no retry). *)
