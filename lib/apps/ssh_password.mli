(** SSH password-handling application (§4.1): "secure an SSH server's
    password handling routines".

    The password database record (salt + salted hash) is created inside a
    PAL, sealed to the PAL's measurement, and every authentication check
    runs inside a PAL session — the untrusted OS (and hence any
    compromised SSH daemon) never sees the password file contents, only
    an accept/reject verdict. *)

val pal : ?code:string -> unit -> Sea_core.Pal.t
(** Commands: [setup user password] → sealed record;
    [auth record attempt] → verdict. [code] replaces the synthetic image,
    as in {!Sea_core.Pal.create}. *)

type account = {
  user : string;
  sealed_record : string;  (** Stored by the untrusted OS. *)
}

val setup :
  Sea_hw.Machine.t ->
  cpu:int ->
  user:string ->
  password:string ->
  (account, string) result

val authenticate :
  Sea_hw.Machine.t ->
  cpu:int ->
  account ->
  password:string ->
  (bool, string) result
(** [Ok true] = access granted. Wrong passwords are [Ok false], not an
    error: the PAL ran fine and rejected the attempt. *)
