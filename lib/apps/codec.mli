(** Serialization helpers shared by the application PALs.

    PAL inputs and outputs are single strings crossing the OS/PAL
    boundary; these helpers frame commands and RSA keys on top of
    {!Sea_crypto.Wire}. *)

val command : string -> string list -> string
(** [command verb args] frames a PAL request. *)

val parse_command : string -> (string * string list) option

val rsa_private_to_string : Sea_crypto.Rsa.private_key -> string
(** The n, e, d, p, q fields, big-endian, with d left-padded to the
    modulus length so that every key of one size encodes to one length. *)

val rsa_private_of_string : string -> Sea_crypto.Rsa.private_key option
(** Decodes the n, e, d, p, q fields; [None] on malformed input or when
    p·q ≠ n (see {!Sea_crypto.Rsa.make_private}). *)

val rsa_public_to_string : Sea_crypto.Rsa.public -> string
val rsa_public_of_string : string -> Sea_crypto.Rsa.public option
