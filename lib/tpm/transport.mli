(** TPM secure transport sessions (§3.3, TCG main specification).

    The PAL talks to the TPM across the south bridge and the LPC bus —
    components outside the minimal TCB of Figure 1. The paper excludes
    the south bridge from the TCB because "the TPM is capable of
    creating a secure channel to the PAL (by engaging in secure
    transport sessions)": commands are encrypted and authenticated
    end-to-end between the PAL and the TPM, so a compromised bridge (or
    a bus analyzer within the §3.2 threat model's limits) sees only
    ciphertext and cannot tamper or replay.

    Model: the PAL draws a session key, wraps it to the TPM's storage
    key, and every subsequent command/response is AEAD-protected with a
    strictly increasing sequence number. {!execute} carries a small
    command language (GetRandom / PCR Extend / PCR Read) sufficient to
    demonstrate the property; the threat-model tests put an adversary on
    the bus. *)

type t
(** An established session (client-side state; the TPM's side is tracked
    within the same value in this single-process model — the two ends
    never share mutable state with the adversary). *)

val establish : Tpm.t -> client_entropy:string -> (t, string) result
(** Key exchange: charges the TPM's asymmetric-decrypt time. *)

(** The command language carried inside the encrypted channel. *)
type request =
  | Get_random of int
  | Pcr_extend of int * string
  | Pcr_read of int

type response = Random_bytes of string | New_pcr_value of string | Pcr_value of string

val seal_request : t -> request -> string
(** Client side: the wire form of the next command — what actually
    crosses the bus. Each call consumes one sequence number. *)

val tpm_execute : Tpm.t -> t -> string -> (string, string) result
(** TPM side: authenticate + decrypt a wire request, execute it (with
    the usual timing charges), and return the wire response. Errors on
    tampering, replay, or reordering. *)

val open_response : t -> string -> (response, string) result
(** Client side: authenticate + decrypt the TPM's wire response. *)

val execute : Tpm.t -> t -> request -> (response, string) result
(** [seal_request] → [tpm_execute] → [open_response] in one step, for
    callers that do not need to interpose an adversary. Under an
    installed fault plan, transient failures (an injected busy TPM) are
    retried by {!Tpm.retrying}: each retry re-seals the command under a
    fresh sequence number, so the channel's anti-replay guarantee is
    untouched. *)
