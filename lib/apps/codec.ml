open Sea_crypto

let command verb args =
  let enc = Wire.encoder () in
  Wire.add_string enc verb;
  Wire.add_list enc (fun a -> Wire.add_string enc a) args;
  Wire.contents enc

let parse_command s =
  let d = Wire.decoder s in
  match Wire.read_string d with
  | None -> None
  | Some verb -> (
      match Wire.read_list d (fun () -> Wire.read_string d) with
      | Some args -> Some (verb, args)
      | None -> None)

(* d is padded to the modulus length: a sealed key's length feeds the
   TPM's seal and unseal timing, so it must not depend on whether d
   happens to have a leading zero byte. *)
let rsa_private_to_string (key : Rsa.private_key) =
  let enc = Wire.encoder () in
  let add ?pad_to v = Wire.add_string enc (Bignum.to_bytes_be ?pad_to v) in
  add key.Rsa.pub.Rsa.n;
  add key.Rsa.pub.Rsa.e;
  add ~pad_to:(Rsa.key_bytes key.Rsa.pub) key.Rsa.d;
  add key.Rsa.p;
  add key.Rsa.q;
  Wire.contents enc

let rsa_private_of_string s =
  let d = Wire.decoder s in
  let read () = Option.map Bignum.of_bytes_be (Wire.read_string d) in
  match (read (), read (), read (), read (), read ()) with
  | Some n, Some e, Some dd, Some p, Some q -> Rsa.make_private ~n ~e ~d:dd ~p ~q
  | _ -> None

let rsa_public_to_string (pub : Rsa.public) =
  let enc = Wire.encoder () in
  Wire.add_string enc (Bignum.to_bytes_be pub.Rsa.n);
  Wire.add_string enc (Bignum.to_bytes_be pub.Rsa.e);
  Wire.contents enc

let rsa_public_of_string s =
  let d = Wire.decoder s in
  let read () = Option.map Bignum.of_bytes_be (Wire.read_string d) in
  match (read (), read ()) with
  | Some n, Some e -> Some { Rsa.n; e }
  | _ -> None
