open Sea_crypto
open Sea_core

let hash_attempt ~salt ~user ~password =
  Sha256.digest (Printf.sprintf "ssh:%s:%s:%s" salt user password)

let behavior services input =
  match Codec.parse_command input with
  | Some ("setup", [ user; password ]) -> (
      let salt = services.Pal.get_random 16 in
      let record = Codec.command "record" [ user; salt; hash_attempt ~salt ~user ~password ] in
      match services.Pal.seal record with
      | Error e -> Error ("seal: " ^ e)
      | Ok blob -> Ok blob)
  | Some ("auth", [ blob; user; attempt ]) -> (
      match services.Pal.unseal blob with
      | Error e -> Error ("unseal: " ^ e)
      | Ok record -> (
          match Codec.parse_command record with
          | Some ("record", [ stored_user; salt; digest ]) ->
              let ok =
                String.equal stored_user user
                && Hmac.equal_constant_time digest
                     (hash_attempt ~salt ~user ~password:attempt)
              in
              Ok (if ok then "granted" else "denied")
          | _ -> Error "sealed record is corrupt"))
  | Some _ | None -> Error "unknown SSH command"

let pal ?code () =
  Pal.create ~name:"ssh-password" ~code_size:(8 * 1024)
    ~compute_time:(Sea_sim.Time.ms 1.) ?code behavior

type account = { user : string; sealed_record : string }

let setup machine ~cpu ~user ~password =
  match
    Exec.run machine ~cpu (pal ())
      ~input:(Codec.command "setup" [ user; password ])
  with
  | Error e -> Error e
  | Ok output -> Ok { user; sealed_record = output }

let authenticate machine ~cpu account ~password =
  match
    Exec.run machine ~cpu (pal ())
      ~input:(Codec.command "auth" [ account.sealed_record; account.user; password ])
  with
  | Error e -> Error e
  | Ok output -> (
      match output with
      | "granted" -> Ok true
      | "denied" -> Ok false
      | other -> Error ("unexpected verdict: " ^ other))
