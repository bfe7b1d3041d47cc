(** The two generic PALs of §4.1, representative of "nearly every practical
    application built on SEA".

    - {b PAL Gen} launches, generates application-specific data (e.g. a
      key), seals it for later use, and exits returning the sealed blob.
    - {b PAL Use} launches, unseals state sealed by a previous session,
      operates on it, optionally reseals it, and exits.

    Figure 2's bars are exactly the overhead breakdowns of running these
    two PALs (plus a Quote). *)

val pal_gen : ?code_size:int -> unit -> Pal.t
(** Output: the sealed blob (to be stored by the untrusted OS and fed to a
    later PAL Use). The secret is 256 bytes — the working-state size at
    which the paper's Broadcom Seal anchor (20.01 ms) sits. *)

val pal_use :
  ?code_size:int ->
  ?reseal:bool ->
  ?compute_time:Sea_sim.Time.t ->
  ?code:string ->
  unit ->
  Pal.t
(** Input: a blob sealed by {!pal_gen} (or a previous resealing PAL Use).
    Output: the new sealed blob when [reseal] (default [true] — the
    distributed-computing pattern), else the SHA-1 of the secret (the
    signing-CA pattern, where the unsealed key is simply erased). [code]
    replaces the synthetic image, as in {!Pal.create}. *)

val secret_of_use_output : string -> string
(** For tests: the digest a non-resealing {!pal_use} returns. *)
