(** Arbitrary-precision natural numbers.

    Built from scratch (no Zarith) to support the TPM's RSA operations.
    Values are immutable. Only naturals are represented; subtraction of a
    larger value from a smaller one raises. Every algorithm works a limb
    at a time: schoolbook multiplication, Knuth's algorithm D for
    division, single-pass byte and hex conversion, and Montgomery
    exponentiation for odd moduli.

    Internal representation: little-endian array of 31-bit limbs, with no
    most-significant zero limb (canonical form). *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val to_int_opt : t -> int option
(** [None] if the value exceeds [max_int]. *)

val of_bytes_be : string -> t
(** Big-endian byte-string decoding; leading zero bytes are accepted. *)

val to_bytes_be : ?pad_to:int -> t -> string
(** Big-endian encoding with no leading zero byte, or left-zero-padded to
    exactly [pad_to] bytes. Raises [Invalid_argument] if the value does not
    fit in [pad_to] bytes. *)

val of_hex : string -> t
(** Parses a hexadecimal string (no prefix, case-insensitive).
    Raises [Invalid_argument] on non-hex characters. *)

val to_hex : t -> string

val is_zero : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val bit_length : t -> int
(** Number of significant bits; [0] for zero. *)

val test_bit : t -> int -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** Raises [Invalid_argument] if the result would be negative. *)

val mul : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero]. *)

val div : t -> t -> t
val rem : t -> t -> t

val mod_add : t -> t -> m:t -> t
val mod_sub : t -> t -> m:t -> t
val mod_mul : t -> t -> m:t -> t

val mod_pow : base:t -> exp:t -> m:t -> t
(** Modular exponentiation. When [m] is odd it runs fixed 4-bit windows
    over the exponent with Montgomery products on k-limb arrays (k limbs
    in [m]) and one scratch buffer per call; R² mod m, R = 2^(31k), comes
    from one division. Otherwise it is square-and-multiply with
    division. Raises [Division_by_zero] if [m] is zero. *)

val gcd : t -> t -> t

val mod_inverse : t -> m:t -> t option
(** Multiplicative inverse modulo [m], or [None] if it does not exist. *)

val of_random_bits : (int -> bytes) -> int -> t
(** [of_random_bits gen bits] draws a uniformly random value in
    [\[0, 2^bits)] using [gen n] to obtain [n] random bytes. *)

val pp : Format.formatter -> t -> unit
(** Hexadecimal rendering. *)
