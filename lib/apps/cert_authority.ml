open Sea_crypto
open Sea_core

let behavior ~key_bits services input =
  match Codec.parse_command input with
  | Some ("init", []) -> (
      (* The key is born inside the PAL: seed the generator from the TPM's
         RNG so distinct platforms get distinct CAs. *)
      let seed = services.Pal.get_random 32 in
      let drbg = Drbg.create ~seed in
      let key = Rsa.generate ~bits:key_bits drbg in
      match services.Pal.seal (Codec.rsa_private_to_string key) with
      | Error e -> Error ("seal: " ^ e)
      | Ok blob ->
          Ok (Codec.command "init-ok" [ Codec.rsa_public_to_string key.Rsa.pub; blob ]))
  | Some ("sign", [ blob; csr ]) -> (
      match services.Pal.unseal blob with
      | Error e -> Error ("unseal: " ^ e)
      | Ok key_bytes -> (
          match Codec.rsa_private_of_string key_bytes with
          | None -> Error "sealed key is corrupt"
          | Some key ->
              (* Sign and erase: no reseal needed (§4.1). *)
              Ok (Rsa.sign key csr)))
  | Some _ | None -> Error "unknown CA command"

let pal ?(key_bits = 512) ?code () =
  Pal.create ~name:"cert-authority" ~code_size:(16 * 1024)
    ~compute_time:(Sea_sim.Time.ms 2.) ?code (behavior ~key_bits)

type t = { pal : Pal.t; public : Rsa.public; sealed_key : string }

let init machine ~cpu ?key_bits () =
  let p = pal ?key_bits () in
  match Exec.run machine ~cpu p ~input:(Codec.command "init" []) with
  | Error e -> Error e
  | Ok output -> (
      match Codec.parse_command output with
      | Some ("init-ok", [ pub; blob ]) -> (
          match Codec.rsa_public_of_string pub with
          | Some public -> Ok { pal = p; public; sealed_key = blob }
          | None -> Error "bad public key from CA PAL")
      | _ -> Error "unexpected CA init output")

let sign_csr machine ~cpu t ~csr =
  match
    Exec.run machine ~cpu t.pal
      ~input:(Codec.command "sign" [ t.sealed_key; csr ])
  with
  | Error e -> Error e
  | Ok output -> Ok output

let verify_certificate t ~csr ~signature = Rsa.verify t.public ~msg:csr ~signature
