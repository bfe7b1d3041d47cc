open Sea_sim
open Sea_crypto
open Sea_hw

type profile = {
  transition : Time.t;
  launch_base : Time.t;
  hash_per_byte : Time.t;
  seal_base : Time.t;
  seal_per_byte : Time.t;
  unseal_base : Time.t;
  unseal_per_byte : Time.t;
}

let default_profile =
  {
    transition = Time.us 1.4;
    launch_base = Time.us 25.;
    hash_per_byte = Time.ns 1;
    seal_base = Time.us 3.;
    seal_per_byte = Time.ns 2;
    unseal_base = Time.us 3.;
    unseal_per_byte = Time.ns 2;
  }

type t = {
  machine : Machine.t;
  pal : Pal.t;
  input : string;
  pages : int list;
  preemption_timer : Time.t option;
  session_id : int;
  root : string;  (** Loader-rooted identity; seal binding and vault key. *)
  mutable chain : string;
  mutable state : Lifecycle.state;
  mutable remaining : Time.t;
  mutable output : string option;
  mutable behavior_error : string option;
  mutable released : bool;
  mutable rng_counter : int;
  mutable seal_counter : int;
  tpm_cap : Sea_tpm.Cap.t option;
}

let state t = t.state
let measurement t = Pal.measurement t.pal
let output t = t.output
let chain t = t.chain

let zero_pcr = String.make Sea_tpm.Pcr.digest_size '\000'
let expected_chain pal = Sha1.digest (zero_pcr ^ Pal.measurement pal)

let step t ev =
  match Lifecycle.step t.state ev with
  | Ok s -> t.state <- s
  | Error e -> invalid_arg ("Sfi_session: " ^ e)

let charge t d = Engine.advance t.machine.Machine.engine d

let charge_hash t n = charge t (Time.scale default_profile.hash_per_byte n)

let with_span t name f =
  Sea_trace.Trace.with_span t.machine.Machine.engine ~cat:"backend"
    ~args:(fun () -> [ ("pal", Sea_trace.Trace.Str t.pal.Pal.name) ])
    name f

let start (m : Machine.t) ~cpu:_ ?preemption_timer ?analyze ?on_report ?tpm_cap
    pal ~input =
  (* Same contract as SLAUNCH: a refused image is never loaded or
     measured. *)
  match Pal.preflight ?analyze ?on_report pal with
  | Error e -> Error e
  | Ok () ->
      let pages = Machine.alloc_pages m (Pal.pages_needed pal) in
      let memory = Memctrl.memory m.Machine.memctrl in
      Memory.write_span memory ~pages ~off:0 pal.Pal.code;
      let t =
        {
          machine = m;
          pal;
          input;
          pages;
          preemption_timer;
          session_id = Machine.fresh_secb_id m;
          root = expected_chain pal;
          chain = expected_chain pal;
          state = Lifecycle.Start;
          remaining = pal.Pal.compute_time;
          output = None;
          behavior_error = None;
          released = false;
          rng_counter = 0;
          seal_counter = 0;
          tpm_cap;
        }
      in
      step t Lifecycle.Ev_slaunch_first;
      with_span t "sfi-launch" (fun () ->
          (* Stub patching + page tables, then the software loader
             measurement over the code bytes. No bus, no TPM. *)
          charge t default_profile.launch_base;
          charge_hash t (Pal.code_size pal));
      step t Lifecycle.Ev_protected;
      step t Lifecycle.Ev_measured;
      Ok t

(* --- Sealed storage: bind to the loader-rooted identity --- *)

let binding t = "sfi:" ^ Sha1.hex t.root

let vault_key t =
  Hmac.sha256 ~key:("sfi-vault:" ^ t.machine.Machine.config.Machine.name)
    t.root

(* Capability calls run under the retry policy installed with the
   machine TPM's fault plan; on a machine with no TPM they run once. *)
let retrying t f =
  match t.machine.Machine.tpm with
  | Some tpm -> Sea_tpm.Tpm.retrying tpm f
  | None -> f ()

let seal_blob t ~cpu data =
  charge t
    (Time.add default_profile.seal_base
       (Time.scale default_profile.seal_per_byte (String.length data)));
  match t.tpm_cap with
  | Some cap ->
      retrying t (fun () ->
          cap.Sea_tpm.Cap.seal ~caller:(Sea_tpm.Tpm.Cpu cpu)
            ~binding:(binding t) ~pcr_policy:[] data)
  | None ->
      let key = vault_key t in
      (* Fresh (key, nonce) per seal: the session id and a counter feed
         the nonce derivation; unsealing only needs the key. *)
      let nonce =
        String.sub
          (Hmac.sha256 ~key
             (Printf.sprintf "nonce:%d:%d" t.session_id t.seal_counter))
          0 Aead.nonce_size
      in
      t.seal_counter <- t.seal_counter + 1;
      Ok (nonce ^ Aead.encrypt ~key ~nonce data)

let unseal_blob t ~cpu blob =
  charge t
    (Time.add default_profile.unseal_base
       (Time.scale default_profile.unseal_per_byte (String.length blob)));
  match t.tpm_cap with
  | Some cap ->
      retrying t (fun () ->
          cap.Sea_tpm.Cap.unseal ~caller:(Sea_tpm.Tpm.Cpu cpu)
            ~binding:(binding t) blob)
  | None ->
      if String.length blob < Aead.nonce_size then
        Error "sealed-blob binding mismatch"
      else begin
        let nonce = String.sub blob 0 Aead.nonce_size in
        let ct =
          String.sub blob Aead.nonce_size (String.length blob - Aead.nonce_size)
        in
        match Aead.decrypt ~key:(vault_key t) ~nonce ct with
        | Some p -> Ok p
        | None -> Error "sealed-blob binding mismatch"
      end

let services t ~cpu =
  {
    Pal.seal = (fun data -> seal_blob t ~cpu data);
    unseal = (fun blob -> unseal_blob t ~cpu blob);
    get_random =
      (fun n ->
        match t.tpm_cap with
        | Some cap -> cap.Sea_tpm.Cap.get_random n
        | None ->
            (* Monitor-local deterministic stream, same spirit as the
               TPM DRBG but with no bus round trip. *)
            let buf = Buffer.create n in
            while Buffer.length buf < n do
              Buffer.add_string buf
                (Hmac.sha256 ~key:(vault_key t)
                   (Printf.sprintf "rng:%d:%d" t.session_id t.rng_counter));
              t.rng_counter <- t.rng_counter + 1
            done;
            Buffer.sub buf 0 n);
    extend_measurement =
      (fun data ->
        charge_hash t (String.length data);
        t.chain <- Sha1.digest (t.chain ^ data));
    machine_name = t.machine.Machine.config.Machine.name;
  }

let run_slice t ~cpu ?budget () =
  if t.state <> Lifecycle.Execute then Error "PAL is not executing"
  else begin
    with_span t "sfi-slice" @@ fun () ->
    let budget =
      match budget with
      | Some b -> b
      | None -> (
          match t.preemption_timer with
          | Some timer -> timer
          | None -> t.remaining)
    in
    if budget < t.remaining then begin
      (* The slice expires first: run for the budget, then one sandbox
         exit back to the host — the entirety of the yield cost. *)
      charge t budget;
      t.remaining <- Time.sub t.remaining budget;
      charge t default_profile.transition;
      step t Lifecycle.Ev_yield;
      Ok `Yielded
    end
    else begin
      charge t t.remaining;
      t.remaining <- Time.zero;
      let result = t.pal.Pal.behavior (services t ~cpu) t.input in
      (match result with
      | Ok out -> t.output <- Some out
      | Error e -> t.behavior_error <- Some e);
      (* Final exit: the monitor scrubs nothing yet (pages are reused on
         release), it just crosses the boundary once. *)
      charge t default_profile.transition;
      step t Lifecycle.Ev_sfree;
      match t.behavior_error with
      | Some e -> Error ("PAL behaviour failed: " ^ e)
      | None -> Ok `Finished
    end
  end

let resume t ~cpu:_ =
  if t.state <> Lifecycle.Suspend then Error "PAL is not suspended"
  else begin
    with_span t "sfi-resume" @@ fun () ->
    charge t default_profile.transition;
    step t Lifecycle.Ev_slaunch_resume;
    Ok ()
  end

let kill t =
  if t.state <> Lifecycle.Suspend then Error "kill targets a suspended PAL"
  else begin
    with_span t "sfi-kill" @@ fun () ->
    charge t default_profile.transition;
    step t Lifecycle.Ev_skill;
    Ok ()
  end

let quote t ~nonce =
  if t.state <> Lifecycle.Done then Error "PAL has not exited"
  else begin
    match t.machine.Machine.tpm with
    | None -> Error "machine has no TPM to root the boot chain in"
    | Some tpm -> (
        let engine = t.machine.Machine.engine in
        let t0 = Engine.now engine in
        match
          Sea_tpm.Tpm.quote tpm ~caller:Sea_tpm.Tpm.Software ~selection:[ 0 ]
            ~nonce ()
        with
        | Error e -> Error e
        | Ok q -> Ok (q, Time.sub (Engine.now engine) t0))
  end

let release t =
  if not t.released then begin
    t.released <- true;
    Machine.free_pages t.machine t.pages
  end
