open Sea_sim
open Sea_crypto
module Tpm = Sea_tpm.Tpm
module Timing = Sea_tpm.Timing
module Pcr = Sea_tpm.Pcr
module Event_log = Sea_tpm.Event_log
module Cap = Sea_tpm.Cap
module Lpc = Sea_bus.Lpc
module Fault = Sea_fault.Fault
module Retry = Sea_fault.Retry
module Trace = Sea_trace.Trace

(* CPU-speed command latencies: µs-class hashing/AEAD/DRBG work against
   the hardware part's ms-class commands. Charged as plain means —
   [jitter = 0.0] and no [Timing.draw] — so a vTPM in front of the
   hardware TPM never perturbs the jitter stream the hardware commands
   draw from. *)
let software_profile : Timing.profile =
  {
    pcr_extend = Time.us 1.2;
    seal_base = Time.us 28.0;
    seal_per_byte = Time.ns 12;
    unseal_base = Time.us 24.0;
    unseal_per_byte = Time.ns 12;
    quote = Time.us 160.0;
    get_random_base = Time.us 1.5;
    get_random_per_byte = Time.ns 8;
    pcr_read = Time.ns 90;
    hash_start = Time.us 0.4;
    hash_data_wait = Time.zero;
    hash_end = Time.us 0.8;
    jitter = 0.0;
  }

type counters = {
  seals : int;
  unseals : int;
  extends : int;
  quotes : int;
  resets : int;
}

type instance = {
  idx : int;
  mux : mux;
  pcrs : Pcr.bank;
  log : Event_log.t;
  key : Rsa.private_key;
  drbg : Drbg.t;
  mutable digest : string;
  mutable saved : string option;  (* hardware checkpoint blob *)
  mutable broken : bool;
}

and mux = {
  tpm : Tpm.t;
  engine : Engine.t;
  anchor_pcr : int;
  batch : int;
  mutable insts : instance array;
  mutable pending : (int * string) list;  (* newest first: index, record *)
  mutable pending_count : int;
  mutable anchor_value : string;
  mutable busy_until : Time.t;  (* the anchor pipeline's own timeline *)
  mutable anchor_time : Time.t;
  mutable flushes : int;
  mutable records_flushed : int;
  mutable anchor_retries : int;
  mutable seals : int;
  mutable unseals : int;
  mutable extends : int;
  mutable quotes : int;
  mutable resets : int;
}

type t = mux

let instances m = Array.length m.insts
let anchor_pcr m = m.anchor_pcr

let instance m i =
  if i < 0 || i >= Array.length m.insts then
    invalid_arg "Vtpm.instance: index out of range";
  m.insts.(i)

let for_tenant m ~tenant =
  let n = Array.length m.insts in
  m.insts.(((tenant mod n) + n) mod n)

let index inst = inst.idx
let broken inst = inst.broken
let pcr_value inst i = Pcr.read inst.pcrs i
let state_digest inst = inst.digest
let event_log inst = inst.log
let key_public inst = inst.key.Rsa.pub
let anchor_value m = m.anchor_value
let flushes m = m.flushes
let records_flushed m = m.records_flushed
let anchor_retries m = m.anchor_retries
let anchor_time m = m.anchor_time

let anchor_lag m =
  Time.max Time.zero (Time.sub m.busy_until (Engine.now m.engine))

let counters m =
  {
    seals = m.seals;
    unseals = m.unseals;
    extends = m.extends;
    quotes = m.quotes;
    resets = m.resets;
  }

let charge m mean = Engine.advance m.engine mean

let traced m name f =
  Trace.with_span m.engine ~cat:"vtpm" name f

let quarantined inst =
  (* Deliberately permanent (no TPM_RETRY tag): a quarantined vTPM stays
     down until somebody heals it. *)
  Printf.sprintf "vTPM %d quarantined" inst.idx

(* --- The batched anchor pipeline --- *)

let record_bytes inst =
  let enc = Wire.encoder () in
  Wire.add_int enc inst.idx;
  Wire.add_string enc inst.digest;
  Wire.contents enc

(* Fold a pending batch into one digest and extend it into the hardware
   anchor PCR. State commits now ([Tpm.pcr_extend_deferred]); cost — one
   coalesced LPC burst for the whole batch plus one extend latency per
   attempt — accrues on the pipeline's own [busy_until] timeline, never
   on the engine clock. Injected busy faults burn attempts (bounded by
   the retry policy installed with the fault plan); exhaustion
   quarantines every instance with a record in the batch. *)
let flush m =
  if m.pending_count > 0 then begin
    let recs = List.rev m.pending in
    let n = m.pending_count in
    m.pending <- [];
    m.pending_count <- 0;
    let chunks = List.map (fun (_, r) -> String.length r) recs in
    let batch_digest = Sha1.digest (String.concat "" (List.map snd recs)) in
    let profile = Tpm.profile m.tpm in
    let lpc_time =
      Lpc.batch_transfer_time (Tpm.lpc m.tpm)
        ~device_wait:profile.Timing.hash_data_wait ~chunks
    in
    let attempts =
      match Tpm.retry m.tpm with None -> 1 | Some _ -> Retry.attempts
    in
    let rec extend_hw attempt cost =
      let busy =
        match Tpm.faults m.tpm with
        | Some plan -> Fault.fires plan Tpm_busy
        | None -> false
      in
      if busy then begin
        m.anchor_retries <- m.anchor_retries + 1;
        Trace.instant m.engine ~cat:"fault" "vtpm-anchor-busy";
        let cost = Time.add cost profile.Timing.pcr_extend in
        if attempt + 1 >= attempts then Error cost
        else extend_hw (attempt + 1) cost
      end
      else
        let v, extend_cost =
          Tpm.pcr_extend_deferred m.tpm m.anchor_pcr batch_digest
        in
        Ok (v, Time.add cost extend_cost)
    in
    let ok, cost =
      match extend_hw 0 lpc_time with
      | Ok (v, cost) ->
          m.anchor_value <- v;
          (true, cost)
      | Error cost ->
          List.iter (fun (idx, _) -> m.insts.(idx).broken <- true) recs;
          (false, cost)
    in
    let start = Time.max (Engine.now m.engine) m.busy_until in
    m.busy_until <- Time.add start cost;
    m.anchor_time <- Time.add m.anchor_time cost;
    m.flushes <- m.flushes + 1;
    m.records_flushed <- m.records_flushed + n;
    Trace.instant m.engine ~cat:"vtpm"
      ~args:(fun () ->
        [
          ("records", Trace.Int n);
          ("cost_ns", Trace.Int (Time.to_ns cost));
          ("ok", Trace.Bool ok);
        ])
      "anchor-flush";
    Trace.count m.engine "vtpm.anchor_flushes" 1;
    Trace.count m.engine "vtpm.batch_records" n
  end

let note_change inst tag =
  let m = inst.mux in
  inst.digest <- Sha1.digest (inst.digest ^ tag);
  m.pending <- (inst.idx, record_bytes inst) :: m.pending;
  m.pending_count <- m.pending_count + 1;
  if m.pending_count >= m.batch then flush m

let sync m =
  flush m;
  Engine.elapse_to m.engine m.busy_until

(* --- Virtual commands --- *)

let measurement_of msg =
  if String.length msg = Pcr.digest_size then msg else Sha1.digest msg

let extend inst i msg =
  if inst.broken then Error (quarantined inst)
  else if i < 0 || i >= Pcr.count then Error "vPCR index out of range"
  else begin
    let m = inst.mux in
    traced m "extend" @@ fun () ->
    charge m software_profile.Timing.pcr_extend;
    let v = Pcr.extend inst.pcrs i msg in
    ignore
      (Event_log.record_measurement inst.log ~pcr_index:i
         ~description:"vtpm extend" ~measurement:(measurement_of msg));
    m.extends <- m.extends + 1;
    note_change inst (Printf.sprintf "extend:%d:%s" i v);
    Ok v
  end

let launch_measured inst ~pcr ~measurement =
  if not inst.broken then begin
    let m = inst.mux in
    traced m "launch-measured" @@ fun () ->
    charge m software_profile.Timing.pcr_extend;
    Pcr.dynamic_reset inst.pcrs;
    let v = Pcr.extend inst.pcrs pcr measurement in
    ignore
      (Event_log.record_measurement inst.log ~pcr_index:pcr
         ~description:"vtpm late launch"
         ~measurement:(measurement_of measurement));
    note_change inst (Printf.sprintf "launch:%d:%s" pcr v)
  end

let blob_magic = "VSEALv1"

let seal inst ?binding ~pcr_policy payload =
  if inst.broken then Error (quarantined inst)
  else begin
    let m = inst.mux in
    traced m "seal" @@ fun () ->
    charge m
      (Timing.seal_time software_profile
         ~payload_bytes:(String.length payload));
    let enc = Wire.encoder () in
    Wire.add_string enc blob_magic;
    Wire.add_list enc
      (fun (i, v) ->
        Wire.add_int enc i;
        Wire.add_string enc v)
      pcr_policy;
    Wire.add_string enc (match binding with None -> "" | Some b -> b);
    Wire.add_string enc payload;
    let plaintext = Wire.contents enc in
    let sym_key = Drbg.generate_string inst.drbg Aead.key_size in
    let nonce = Drbg.generate_string inst.drbg Aead.nonce_size in
    let wrapped = Rsa.encrypt inst.key.Rsa.pub inst.drbg sym_key in
    let body = Aead.encrypt ~key:sym_key ~nonce plaintext in
    let out = Wire.encoder () in
    Wire.add_string out wrapped;
    Wire.add_string out nonce;
    Wire.add_string out body;
    m.seals <- m.seals + 1;
    Ok (Wire.contents out)
  end

let unseal inst ?binding blob =
  if inst.broken then Error (quarantined inst)
  else begin
    let m = inst.mux in
    traced m "unseal" @@ fun () ->
    charge m
      (Timing.unseal_time software_profile
         ~payload_bytes:(String.length blob));
    let d = Wire.decoder blob in
    match (Wire.read_string d, Wire.read_string d, Wire.read_string d) with
    | Some wrapped, Some nonce, Some body -> (
        match Rsa.decrypt inst.key wrapped with
        | None -> Error "not sealed by this vTPM"
        | Some sym_key when String.length sym_key <> Aead.key_size ->
            Error "corrupted blob"
        | Some sym_key -> (
            match Aead.decrypt ~key:sym_key ~nonce body with
            | None -> Error "blob integrity check failed"
            | Some plaintext -> (
                let d = Wire.decoder plaintext in
                match Wire.read_string d with
                | Some magic when magic = blob_magic -> (
                    let policy =
                      Wire.read_list d (fun () ->
                          match (Wire.read_int d, Wire.read_string d) with
                          | Some i, Some v -> Some (i, v)
                          | _ -> None)
                    in
                    match
                      (policy, Wire.read_string d, Wire.read_string d)
                    with
                    | Some policy, Some bound, Some payload ->
                        let pcr_ok =
                          List.for_all
                            (fun (i, v) ->
                              i >= 0 && i < Pcr.count
                              && Pcr.read inst.pcrs i = v)
                            policy
                        in
                        let binding_ok =
                          bound
                          = (match binding with None -> "" | Some b -> b)
                        in
                        if not pcr_ok then Error "vPCR policy mismatch"
                        else if not binding_ok then
                          Error "binding mismatch"
                        else begin
                          m.unseals <- m.unseals + 1;
                          Ok payload
                        end
                    | _ -> Error "corrupted blob"
                  )
                | _ -> Error "corrupted blob")))
    | _ -> Error "corrupted blob"
  end

let get_random inst n =
  if n <= 0 then ""
  else begin
    let m = inst.mux in
    traced m "get-random" @@ fun () ->
    charge m (Timing.get_random_time software_profile ~bytes:n);
    Drbg.generate_string inst.drbg n
  end

(* --- Quarantine and repair --- *)

let checkpoint inst =
  let m = inst.mux in
  traced m "checkpoint" @@ fun () ->
  let payload = Printf.sprintf "vtpm-state:%d:%s" inst.idx inst.digest in
  match
    Tpm.retrying m.tpm (fun () ->
        Tpm.seal m.tpm ~caller:Tpm.Software ~pcr_policy:[] payload)
  with
  | Ok blob ->
      inst.saved <- Some blob;
      Ok ()
  | Error e ->
      inst.broken <- true;
      Error ("vTPM checkpoint: " ^ e)

let heal inst =
  let m = inst.mux in
  traced m "heal" @@ fun () ->
  Pcr.reboot inst.pcrs;
  inst.broken <- false;
  note_change inst "heal";
  match checkpoint inst with
  | Error e -> Error e  (* checkpoint re-quarantined it *)
  | Ok () ->
      m.resets <- m.resets + 1;
      Trace.instant m.engine ~cat:"vtpm"
        ~args:(fun () -> [ ("vtpm", Trace.Int inst.idx) ])
        "heal";
      Ok ()

(* --- Attestation --- *)

type quote = {
  vtpm : int;
  selection : (int * string) list;
  state_digest : string;
  anchor_pcr : int;
  anchor : Tpm.quote;
  nonce : string;
  signature : string;
}

let vquote_message ~vtpm ~selection ~digest ~anchor_pcr ~anchor_value ~nonce =
  let enc = Wire.encoder () in
  Wire.add_string enc "VTPM_QUOTE";
  Wire.add_int enc vtpm;
  Wire.add_string enc (Pcr.composite_of_values selection);
  Wire.add_string enc digest;
  Wire.add_int enc anchor_pcr;
  Wire.add_string enc anchor_value;
  Wire.add_string enc nonce;
  Wire.contents enc

let quote inst ~selection ~nonce =
  if inst.broken then Error (quarantined inst)
  else begin
    let m = inst.mux in
    (* Join the pipeline: the anchor quote must cover every state change
       so far, and the device must be free to serve it. *)
    sync m;
    match
      Tpm.retrying m.tpm (fun () ->
          Tpm.quote m.tpm ~caller:Tpm.Software ~selection:[ m.anchor_pcr ]
            ~nonce ())
    with
    | Error e -> Error ("anchor quote: " ^ e)
    | Ok anchor ->
        traced m "quote" @@ fun () ->
        charge m software_profile.Timing.quote;
        let vals = List.map (fun i -> (i, Pcr.read inst.pcrs i)) selection in
        let anchor_val =
          match List.assoc_opt m.anchor_pcr anchor.Tpm.selection with
          | Some v -> v
          | None -> ""
        in
        let msg =
          vquote_message ~vtpm:inst.idx ~selection:vals ~digest:inst.digest
            ~anchor_pcr:m.anchor_pcr ~anchor_value:anchor_val ~nonce
        in
        m.quotes <- m.quotes + 1;
        Ok
          {
            vtpm = inst.idx;
            selection = vals;
            state_digest = inst.digest;
            anchor_pcr = m.anchor_pcr;
            anchor;
            nonce;
            signature = Rsa.sign inst.key msg;
          }
  end

let verify_quote ~aik ~key q =
  Tpm.verify_quote ~aik q.anchor
  && q.anchor.Tpm.nonce = q.nonce
  &&
  match List.assoc_opt q.anchor_pcr q.anchor.Tpm.selection with
  | None -> false
  | Some anchor_val ->
      let msg =
        vquote_message ~vtpm:q.vtpm ~selection:q.selection
          ~digest:q.state_digest ~anchor_pcr:q.anchor_pcr
          ~anchor_value:anchor_val ~nonce:q.nonce
      in
      Rsa.verify key ~msg ~signature:q.signature

(* --- The session capability --- *)

let cap m ~tenant =
  let inst = for_tenant m ~tenant in
  let binding_of ~caller sepcr extra =
    let joined sepcr_binding =
      match (sepcr_binding, extra) with
      | None, None -> None
      | Some b, None | None, Some b -> Some b
      | Some a, Some b -> Some (a ^ "+" ^ b)
    in
    match sepcr with
    | None -> Ok (joined None)
    | Some h -> (
        match Tpm.sepcr_read m.tpm ~caller h with
        | Ok v -> Ok (joined (Some ("sepcr:" ^ v)))
        | Error e -> Error e)
  in
  {
    Cap.name = Printf.sprintf "vtpm:%d@%s" inst.idx (Tpm.tag m.tpm);
    seal =
      (fun ~caller ?sepcr ?binding:extra ~pcr_policy payload ->
        match binding_of ~caller sepcr extra with
        | Error e -> Error e
        | Ok binding -> seal inst ?binding ~pcr_policy payload);
    unseal =
      (fun ~caller ?sepcr ?binding:extra blob ->
        match binding_of ~caller sepcr extra with
        | Error e -> Error e
        | Ok binding -> unseal inst ?binding blob);
    get_random = (fun n -> get_random inst n);
    pcr_extend =
      (fun i msg ->
        match extend inst i msg with
        | Ok v -> v
        | Error _ -> Pcr.read inst.pcrs i
        (* broken: leave the bank untouched; the session fails at its
           next seal/unseal against the quarantine error instead *));
    sepcr_extend = (fun ~caller h msg -> Tpm.sepcr_extend m.tpm ~caller h msg);
    launch_measured =
      (fun ~pcr ~measurement -> launch_measured inst ~pcr ~measurement);
  }

(* --- Provisioning --- *)

let create ?(anchor_pcr = 23) ?(batch = 16) ?(key_bits = 512) ~tpm ~instances
    () =
  if instances < 1 then Error "vtpm: instances must be positive"
  else if batch < 1 then Error "vtpm: batch must be positive"
  else if anchor_pcr < 0 || anchor_pcr >= Pcr.count then
    Error "vtpm: anchor PCR out of range"
  else begin
    let m =
      {
        tpm;
        engine = Tpm.engine tpm;
        anchor_pcr;
        batch;
        insts = [||];
        pending = [];
        pending_count = 0;
        anchor_value = "";
        busy_until = Time.zero;
        anchor_time = Time.zero;
        flushes = 0;
        records_flushed = 0;
        anchor_retries = 0;
        seals = 0;
        unseals = 0;
        extends = 0;
        quotes = 0;
        resets = 0;
      }
    in
    m.insts <-
      Array.init instances (fun i ->
          {
            idx = i;
            mux = m;
            pcrs = Pcr.create ();
            log = Event_log.create ();
            key = Keyvault.get ~label:("vtpm:" ^ string_of_int i) ~bits:key_bits;
            drbg =
              Drbg.create
                ~seed:(Printf.sprintf "vtpm-drbg:%s:%d" (Tpm.tag tpm) i);
            digest = Sha1.digest (Printf.sprintf "vtpm-genesis:%d" i);
            saved = None;
            broken = false;
          });
    let failure = ref None in
    Array.iter
      (fun inst ->
        note_change inst "provision";
        match checkpoint inst with
        | Ok () -> ()
        | Error e -> if !failure = None then failure := Some e)
      m.insts;
    sync m;
    match !failure with
    | Some e -> Error ("vtpm provision: " ^ e)
    | None -> Ok m
  end
