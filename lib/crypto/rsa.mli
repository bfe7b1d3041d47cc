(** RSA, from scratch, for the TPM model.

    Provides key generation (Miller–Rabin), PKCS#1 v1.5 signatures with a
    SHA-1 DigestInfo (what a v1.2 TPM's Quote produces), and PKCS#1 v1.5
    type-2 encryption (used for Seal blobs). Private operations use the
    CRT: two exponentiations modulo p and q of half the modulus size, a
    quarter of the work of one modulo n, with the same result.

    This is a faithful-mechanism model, not hardened production crypto: no
    blinding, no constant-time guarantees — the "hardware" it runs inside is
    itself simulated. *)

type public = { n : Bignum.t; e : Bignum.t }

type private_key = {
  pub : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;  (** d mod (p − 1) *)
  dq : Bignum.t;  (** d mod (q − 1) *)
  qinv : Bignum.t;  (** q⁻¹ mod p *)
}
(** Build keys with {!make_private}, which derives the CRT fields. *)

val make_private :
  n:Bignum.t -> e:Bignum.t -> d:Bignum.t -> p:Bignum.t -> q:Bignum.t -> private_key option
(** The key with modulus [n = p·q], public exponent [e], private exponent
    [d] and the CRT fields derived from them. [None] unless [p] and [q]
    exceed 1, [p·q = n] and [q] is invertible modulo [p]. *)

val generate : bits:int -> Drbg.t -> private_key
(** [generate ~bits drbg] creates a key with a modulus of exactly [bits]
    bits ([bits >= 32]) and public exponent 65537. *)

val key_bytes : public -> int
(** Modulus length in bytes. *)

val sign : private_key -> string -> string
(** [sign key msg] is a PKCS#1 v1.5 signature over SHA-1([msg]), of length
    [key_bytes key.pub]. *)

val verify : public -> msg:string -> signature:string -> bool

val encrypt : public -> Drbg.t -> string -> string
(** PKCS#1 v1.5 type-2 encryption. The plaintext must be at most
    [key_bytes pub - 11] bytes; raises [Invalid_argument] otherwise.
    The nonzero padding string PS is drawn from [drbg] in one call, and
    each zero byte in it is then redrawn one byte per call, so the same
    DRBG state gives the same ciphertext. *)

val decrypt : private_key -> string -> string option
(** [None] if the padding is invalid (wrong key or corrupted blob). *)

val max_plaintext : public -> int
(** Largest payload [encrypt] accepts. *)

val is_probable_prime : Bignum.t -> rounds:int -> Drbg.t -> bool
(** Miller–Rabin with the given number of random rounds (plus small-prime
    trial division). Exposed for tests. *)
