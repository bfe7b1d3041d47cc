open Sea_crypto

type t = {
  tpm_tag : string; (* binds the session to one TPM instance *)
  key : string;
  mutable client_seq : int; (* next request number the client will send *)
  mutable tpm_seq : int; (* next request number the TPM will accept *)
  mutable resp_seq : int; (* next response number the client expects *)
}

type request = Get_random of int | Pcr_extend of int * string | Pcr_read of int
type response = Random_bytes of string | New_pcr_value of string | Pcr_value of string

(* The wrapped session key rides an ordinary Seal blob with an empty
   policy: only this TPM's SRK can recover it, which is exactly the
   property a transport-session key exchange needs. *)
let establish tpm ~client_entropy =
  let key = Sha256.digest ("transport-session" ^ client_entropy) in
  match Tpm.seal tpm ~caller:Tpm.Software ~pcr_policy:[] key with
  | Error e -> Error e
  | Ok wrapped -> (
      (* The TPM unwraps it on its side of the channel. *)
      match Tpm.unseal tpm ~caller:Tpm.Software wrapped with
      | Error e -> Error e
      | Ok key' ->
          if not (Hmac.equal_constant_time key key') then Error "key exchange failed"
          else
            Ok
              {
                tpm_tag = Bignum.to_hex (Tpm.aik_public tpm).Rsa.n;
                key;
                client_seq = 0;
                tpm_seq = 0;
                resp_seq = 0;
              })

let nonce_of ~dir ~seq =
  (* 16-byte deterministic nonce: direction byte + sequence number. *)
  let b = Bytes.make Aead.nonce_size '\000' in
  Bytes.set b 0 (if dir = `Req then 'R' else 'S');
  for i = 0 to 7 do
    Bytes.set b (8 + i) (Char.chr ((seq lsr (8 * (7 - i))) land 0xff))
  done;
  Bytes.to_string b

let encode_request = function
  | Get_random n ->
      let e = Wire.encoder () in
      Wire.add_string e "getrandom";
      Wire.add_int e n;
      Wire.contents e
  | Pcr_extend (idx, data) ->
      let e = Wire.encoder () in
      Wire.add_string e "extend";
      Wire.add_int e idx;
      Wire.add_string e data;
      Wire.contents e
  | Pcr_read idx ->
      let e = Wire.encoder () in
      Wire.add_string e "pcrread";
      Wire.add_int e idx;
      Wire.contents e

let decode_request s =
  let d = Wire.decoder s in
  match Wire.read_string d with
  | Some "getrandom" -> Option.map (fun n -> Get_random n) (Wire.read_int d)
  | Some "extend" -> (
      match (Wire.read_int d, Wire.read_string d) with
      | Some idx, Some data -> Some (Pcr_extend (idx, data))
      | _ -> None)
  | Some "pcrread" -> Option.map (fun idx -> Pcr_read idx) (Wire.read_int d)
  | _ -> None

let encode_response = function
  | Random_bytes s ->
      let e = Wire.encoder () in
      Wire.add_string e "random";
      Wire.add_string e s;
      Wire.contents e
  | New_pcr_value s ->
      let e = Wire.encoder () in
      Wire.add_string e "extended";
      Wire.add_string e s;
      Wire.contents e
  | Pcr_value s ->
      let e = Wire.encoder () in
      Wire.add_string e "pcr";
      Wire.add_string e s;
      Wire.contents e

let decode_response s =
  let d = Wire.decoder s in
  match (Wire.read_string d, Wire.read_string d) with
  | Some "random", Some s -> Some (Random_bytes s)
  | Some "extended", Some s -> Some (New_pcr_value s)
  | Some "pcr", Some s -> Some (Pcr_value s)
  | _ -> None

let seal_request t req =
  let seq = t.client_seq in
  t.client_seq <- seq + 1;
  Aead.encrypt ~key:t.key ~nonce:(nonce_of ~dir:`Req ~seq) (encode_request req)

let tpm_execute tpm t wire =
  (* The TPM only accepts the exact next sequence number: replays and
     reorderings of bus traffic fail authentication. *)
  let seq = t.tpm_seq in
  match Aead.decrypt ~key:t.key ~nonce:(nonce_of ~dir:`Req ~seq) wire with
  | None -> Error "transport authentication failed (tampered or replayed)"
  | Some plain -> (
      t.tpm_seq <- seq + 1;
      match Tpm.faults tpm with
      | Some plan when Sea_fault.Fault.fires plan Sea_fault.Fault.Tpm_busy ->
          (* The command reached the TPM (its sequence number is consumed)
             but the part answered busy; no response is produced. *)
          Error (Sea_fault.Fault.transient "transport command busy")
      | _ -> (
      match decode_request plain with
      | None -> Error "malformed transport request"
      | Some req ->
          let response =
            match req with
            | Get_random n -> Ok (Random_bytes (Tpm.get_random tpm n))
            | Pcr_extend (idx, data) -> (
                match Tpm.pcr_extend tpm idx data with
                | v -> Ok (New_pcr_value v)
                | exception Invalid_argument e -> Error e)
            | Pcr_read idx -> (
                match Tpm.pcr_read tpm idx with
                | v -> Ok (Pcr_value v)
                | exception Invalid_argument e -> Error e)
          in
          (match response with
          | Error e -> Error e
          | Ok resp ->
              let rseq = seq in
              Ok
                (Aead.encrypt ~key:t.key
                   ~nonce:(nonce_of ~dir:`Resp ~seq:rseq)
                   (encode_response resp)))))

let open_response t wire =
  let seq = t.resp_seq in
  match Aead.decrypt ~key:t.key ~nonce:(nonce_of ~dir:`Resp ~seq) wire with
  | None -> Error "transport authentication failed (tampered or replayed)"
  | Some plain -> (
      t.resp_seq <- seq + 1;
      match decode_response plain with
      | Some resp -> Ok resp
      | None -> Error "malformed transport response")

let request_name = function
  | Get_random _ -> "get-random"
  | Pcr_extend _ -> "pcr-extend"
  | Pcr_read _ -> "pcr-read"

let execute tpm t req =
  Sea_trace.Trace.with_span (Tpm.engine tpm) ~cat:"transport"
    (request_name req)
  @@ fun () ->
  Tpm.retrying tpm (fun () ->
      let seq = t.client_seq in
      let wire = seal_request t req in
      match tpm_execute tpm t wire with
      | Error e -> Error e
      | Ok resp_wire ->
          (* Response nonces mirror the request's sequence number; a
             command whose response never arrived (busy TPM) must not
             leave the client expecting the dropped number forever. *)
          t.resp_seq <- seq;
          open_response t resp_wire)
