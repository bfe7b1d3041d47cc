(* Static cost certificates: the cost profile of an image priced into
   scheduler-consumable units, plus a content-addressed cache so each
   distinct image is analyzed once per process.

   [tpm_us] prices only the SVC-issued TPM commands (Seal, Unseal,
   GetRandom, Extend) against a fixed reference profile — the Broadcom
   part, the serving machine's TPM — using the same base + per-byte
   model the simulator draws from (minus its jitter, so the bound is
   the distribution's mean ceiling, compared against jitter-free
   replays by the soundness gate). SKINIT-time measurement hashing is
   not metered here; its traffic shows up in [lpc_bytes], which counts
   the measured image plus every payload byte a service can move across
   the LPC bus.

   [bounded] is deliberately strict: provable trip bounds on every
   back-edge AND a clean report AND no self-modification findings (a
   PAL that rewrites measured code invalidates any static text-derived
   bound, even when the rewrite is the sanctioned measured-input
   pattern). Unbounded certificates price at the fuel ceiling.

   All fields are ints and the renderer uses no floats, so a
   certificate's text is byte-deterministic across hosts. *)

open Sea_sim

type t = {
  wcet_steps : int;
  bounded : bool;
  svc_counts : Cost.svc_use list;
  tpm_us : int;
  lpc_bytes : int;
}

let reference_profile = Sea_tpm.Timing.profile Sea_tpm.Vendor.Broadcom

let self_modifying report =
  let prefixed p (f : Finding.t) =
    String.length f.Finding.rule >= String.length p
    && String.sub f.Finding.rule 0 (String.length p) = p
  in
  List.exists
    (fun f -> prefixed "selfmod/" f || prefixed "toctou/" f)
    report.Report.findings

let svc_time profile n ~calls ~bytes =
  let open Sea_isa in
  let scale base per =
    Time.add (Time.scale base calls) (Time.scale per bytes)
  in
  if n = Isa.svc_seal then
    scale profile.Sea_tpm.Timing.seal_base profile.Sea_tpm.Timing.seal_per_byte
  else if n = Isa.svc_unseal then
    scale profile.Sea_tpm.Timing.unseal_base
      profile.Sea_tpm.Timing.unseal_per_byte
  else if n = Isa.svc_random then
    scale profile.Sea_tpm.Timing.get_random_base
      profile.Sea_tpm.Timing.get_random_per_byte
  else if n = Isa.svc_extend then
    Time.scale profile.Sea_tpm.Timing.pcr_extend calls
  else Time.zero (* input/output/sha256 never cross to the TPM *)

(* Payload bytes that cross the LPC bus per service. input_len and
   sha256 stay on the platform side. *)
let lpc_svc n =
  let open Sea_isa in
  n = Isa.svc_input_read || n = Isa.svc_output || n = Isa.svc_seal
  || n = Isa.svc_unseal || n = Isa.svc_random || n = Isa.svc_extend

let make ?(profile = reference_profile) ~image_size ~report (cost : Cost.t) =
  let bounded =
    cost.Cost.loops_bounded
    && Report.is_clean report
    && not (self_modifying report)
  in
  let tpm_total =
    List.fold_left
      (fun acc (u : Cost.svc_use) ->
        Time.add acc
          (svc_time profile u.Cost.svc ~calls:u.Cost.calls ~bytes:u.Cost.bytes))
      Time.zero cost.Cost.svc
  in
  let lpc_bytes =
    List.fold_left
      (fun acc (u : Cost.svc_use) ->
        if lpc_svc u.Cost.svc then acc + u.Cost.bytes else acc)
      image_size cost.Cost.svc
  in
  {
    wcet_steps = cost.Cost.wcet_steps;
    bounded;
    svc_counts = cost.Cost.svc;
    tpm_us = Time.to_ns tpm_total / 1000;
    lpc_bytes;
  }

(* A scheduling weight in virtual microseconds: the TPM command bound
   plus CPU steps at a GHz-class step rate. Unbounded images inherit
   the fuel-ceiling pricing and come out effectively unaffordable. *)
let admission_cost t = t.tpm_us + ((t.wcet_steps + 999) / 1000)

let render t =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "certificate: %s  wcet %d steps  tpm %d us  lpc %d bytes\n"
       (if t.bounded then "bounded" else "unbounded")
       t.wcet_steps t.tpm_us t.lpc_bytes);
  List.iter
    (fun (u : Cost.svc_use) ->
      Buffer.add_string b
        (Printf.sprintf "  svc %-10s calls<=%d bytes<=%d\n"
           (Sea_isa.Isa.svc_name u.Cost.svc)
           u.Cost.calls u.Cost.bytes))
    t.svc_counts;
  Buffer.contents b

(* --- content-addressed cache -------------------------------------- *)

(* Keyed on a caller-supplied content digest (the PAL measurement), so
   one process analyzes each distinct image once. The lock is held
   across the analysis closure: concurrent first launches of one image
   on several domains must still count as a single analysis, and the
   analyzer is pure CPU with no lock-ordering partners. *)

type cache = {
  table : (string, Report.t * t) Hashtbl.t;
  lock : Mutex.t;
  mutable runs : int;
}

let create_cache () =
  { table = Hashtbl.create 16; lock = Mutex.create (); runs = 0 }

let cache_find_or cache ~digest f =
  Mutex.lock cache.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache.lock)
    (fun () ->
      match Hashtbl.find_opt cache.table digest with
      | Some hit -> hit
      | None ->
          let result = f () in
          cache.runs <- cache.runs + 1;
          Hashtbl.replace cache.table digest result;
          result)

let cache_runs cache =
  Mutex.lock cache.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock cache.lock)
    (fun () -> cache.runs)
