(** A simulated lossy point-to-point link: the migration channel between
    fleet machines.

    Sealed-state transfers cross this link during failover. Each
    {!send} charges the receiving machine's engine one transfer time
    (fixed latency plus a bandwidth term) and then either delivers or —
    with the configured loss probability, drawn from the link's own
    stream — loses the message, surfacing the loss as a
    {!Sea_fault.Fault.transient} error so the existing
    {!Sea_fault.Retry} machinery can drive bounded re-transmission. *)

open Sea_sim

type t

val create : ?loss:float -> Rng.t -> t
(** A link with 50 us one-way latency and 125 bytes/us (~1 Gbit/s),
    lossless by default. The drop stream is split off the given
    generator. Raises [Invalid_argument] on a loss outside [0, 1]. *)

val send : t -> Engine.t -> string -> (unit, string) result
(** Ship [payload] over the link, advancing [engine] (the receiving
    side) by the transfer time whether or not the message survives. A
    drop returns a transient error ([Sea_fault.Fault.is_transient]), so
    callers wrap [send] in {!Sea_fault.Retry.run} for bounded backoff. *)

val drops : t -> int
(** Messages lost in transfer. *)
