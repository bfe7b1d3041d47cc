open Sea_crypto

(* The working-state size at which the paper's Broadcom Seal anchor
   (20.01 ms) sits. *)
let secret_size = 256

(* Gen and Use are two entry commands of the SAME binary, exactly as in the
   Flicker-style applications of §4.1: the sealed state must unseal in a
   later session, which requires the later session to carry the same
   measurement — so the code identity has to be shared. *)
let shared_behavior ~reseal services input =
  if String.length input = 0 then begin
    (* Gen: create application data and seal it for later use. Key material
       is derived on the CPU (cheap) rather than via TPM GetRandom, as the
       paper's applications do. *)
    let drbg = Drbg.create ~seed:("pal-gen-secret:" ^ services.Pal.machine_name) in
    let secret = Drbg.generate_string drbg secret_size in
    services.Pal.seal secret
  end
  else begin
    (* Use: retrieve state sealed by a previous session and operate on it. *)
    match services.Pal.unseal input with
    | Error e -> Error ("unseal: " ^ e)
    | Ok secret ->
        let updated =
          if String.length secret < 32 then Sha256.digest secret
          else Sha256.digest secret ^ String.sub secret 32 (String.length secret - 32)
        in
        if reseal then services.Pal.seal updated else Ok (Sha1.digest secret)
  end

let make ~code_size ~reseal ~compute_time ~code =
  (* One name + size = one measurement for both entry points. *)
  Pal.create ~name:"generic-gen-use" ~code_size ?compute_time ?code
    (shared_behavior ~reseal)

let pal_gen ?(code_size = 64 * 1024) () =
  make ~code_size ~reseal:false ~compute_time:None ~code:None

let pal_use ?(code_size = 64 * 1024) ?(reseal = true) ?compute_time ?code () =
  make ~code_size ~reseal ~compute_time ~code

let secret_of_use_output secret = Sha1.digest secret
