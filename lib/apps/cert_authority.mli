(** Certificate-authority application (§4.1): "protect the confidentiality
    of a certificate authority's private signing key".

    The CA's RSA signing key is generated {e inside} a PAL and only ever
    exists in cleartext within PAL execution; between sessions it lives in
    a TPM-sealed blob bound to the PAL's measurement. The untrusted OS
    stores the blob and ferries certificate-signing requests in and out.

    This mirrors the paper's PAL Gen (key generation + seal) / PAL Use
    (unseal + sign, no reseal — the unsealed key is simply erased)
    pattern. *)

val pal : ?key_bits:int -> ?code:string -> unit -> Sea_core.Pal.t
(** The CA PAL. Commands (framed by {!Codec}): [init], and
    [sign blob csr]. [key_bits] defaults to 512 — small enough to keep
    RSA generation inside the simulated PAL fast in tests. [code] replaces
    the synthetic image, as in {!Sea_core.Pal.create}. *)

type t = {
  pal : Sea_core.Pal.t;
  public : Sea_crypto.Rsa.public;
  sealed_key : string;  (** Stored by the untrusted OS. *)
}

val init :
  Sea_hw.Machine.t -> cpu:int -> ?key_bits:int -> unit -> (t, string) result
(** Run the init session: generates the CA key in a PAL, returns the
    public key and the sealed private key. *)

val sign_csr :
  Sea_hw.Machine.t -> cpu:int -> t -> csr:string -> (string, string) result
(** Run a signing session: unseals the key inside the PAL and signs
    [csr]. *)

val verify_certificate : t -> csr:string -> signature:string -> bool
(** Anyone can check an issued certificate against the CA public key. *)
