open Sea_sim
open Sea_crypto
open Sea_hw

type t = {
  machine : Machine.t;
  pal : Pal.t;
  secb : Secb.t;
  input : string;
  mutable state : Lifecycle.state;
  mutable remaining : Time.t;
  mutable output : string option;
  mutable behavior_error : string option;
  mutable released : bool;
  mutable primary_cpu : int;
  mutable joined_cpus : int list;
  tpm_cap : Sea_tpm.Cap.t option;
}

let state t = t.state
let secb t = t.secb
let measurement t = Pal.measurement t.pal
let output t = t.output
let sepcr_handle t = t.secb.Secb.sepcr

let zero_pcr = String.make Sea_tpm.Pcr.digest_size '\000'
let expected_sepcr pal = Sha1.digest (zero_pcr ^ Pal.measurement pal)

let step t ev =
  match Lifecycle.step t.state ev with
  | Ok s -> t.state <- s
  | Error e -> invalid_arg ("Slaunch_session: " ^ e)

let start (m : Machine.t) ~cpu ?preemption_timer ?analyze ?on_report ?tpm_cap
    pal ~input =
  if not m.Machine.config.Machine.proposed then
    Error "this machine lacks the proposed hardware"
  else begin
    (* The static-analysis gate runs before SECB allocation and SLAUNCH:
       a refused image is never protected, measured or executed. *)
    match Pal.preflight ?analyze ?on_report pal with
    | Error e -> Error e
    | Ok () ->
    let page_count = 1 + Pal.pages_needed pal in
    let pages = Machine.alloc_pages m page_count in
    let secb =
      Secb.create ~id:(Machine.fresh_secb_id m) ~pages
        ~entry_point:0 ~pal_length:(Pal.code_size pal) ?preemption_timer ()
    in
    let memory = Memctrl.memory m.Machine.memctrl in
    Memory.write_span memory ~pages:(Secb.data_pages secb) ~off:0 pal.Pal.code;
    let t =
      {
        machine = m;
        pal;
        secb;
        input;
        state = Lifecycle.Start;
        remaining = pal.Pal.compute_time;
        output = None;
        behavior_error = None;
        released = false;
        primary_cpu = cpu;
        joined_cpus = [];
        tpm_cap;
      }
    in
    step t Lifecycle.Ev_slaunch_first;
    (* A transiently failed first SLAUNCH backed out its claim and sePCR,
       so the retry re-protects and re-measures from scratch. *)
    match
      Sea_trace.Trace.with_span m.Machine.engine ~cat:"session"
        ~args:(fun () -> [ ("pal", Sea_trace.Trace.Str pal.Pal.name) ])
        "slaunch-start"
        (fun () ->
          Sea_tpm.Tpm.retrying (Machine.tpm_exn m) (fun () ->
              Insn.slaunch m ~cpu secb))
    with
    | Error e ->
        Machine.free_pages m pages;
        Error e
    | Ok Insn.Resumed ->
        Machine.free_pages m pages;
        Error "fresh SECB unexpectedly resumed"
    | Ok (Insn.Launched _measurement) ->
        step t Lifecycle.Ev_protected;
        step t Lifecycle.Ev_measured;
        Ok t
  end

let services t ~cpu =
  let m = t.machine in
  let tpm = Machine.tpm_exn m in
  let caller = Sea_tpm.Tpm.Cpu cpu in
  let sepcr =
    match t.secb.Secb.sepcr with
    | Some h -> h
    | None -> invalid_arg "Slaunch_session.services: no sePCR bound"
  in
  let cap =
    match t.tpm_cap with Some c -> c | None -> Sea_tpm.Cap.of_tpm tpm
  in
  {
    Pal.seal =
      (fun data ->
        Sea_tpm.Tpm.retrying tpm (fun () ->
            cap.Sea_tpm.Cap.seal ~caller ~sepcr ~pcr_policy:[] data));
    unseal =
      (fun blob ->
        Sea_tpm.Tpm.retrying tpm (fun () ->
            cap.Sea_tpm.Cap.unseal ~caller ~sepcr blob));
    get_random = (fun n -> cap.Sea_tpm.Cap.get_random n);
    extend_measurement =
      (* The measurement chain is the hardware sePCR — a capability never
         virtualizes it (vTPM caps pass this straight through). *)
      (fun data -> ignore (cap.Sea_tpm.Cap.sepcr_extend ~caller sepcr data));
    machine_name = m.Machine.config.Machine.name;
  }

let worker_count t =
  if t.state = Lifecycle.Execute then 1 + List.length t.joined_cpus else 0

let join t ~cpu =
  if t.state <> Lifecycle.Execute then Error "PAL is not executing"
  else if cpu = t.primary_cpu || List.mem cpu t.joined_cpus then
    Error "CPU already in the PAL"
  else begin
    match Insn.sjoin t.machine ~cpu t.secb with
    | Error e -> Error e
    | Ok () ->
        t.joined_cpus <- cpu :: t.joined_cpus;
        Ok ()
  end

let leave t ~cpu =
  if not (List.mem cpu t.joined_cpus) then Error "CPU not joined"
  else begin
    match Insn.sleave t.machine ~cpu t.secb with
    | Error e -> Error e
    | Ok () ->
        t.joined_cpus <- List.filter (fun c -> c <> cpu) t.joined_cpus;
        Ok ()
  end

(* Suspension requires a single page owner: joined helpers SLEAVE first. *)
let shed_helpers t =
  let rec go = function
    | [] -> Ok ()
    | cpu :: rest -> (
        match leave t ~cpu with Error e -> Error e | Ok () -> go rest)
  in
  go t.joined_cpus

let run_slice t ~cpu ?budget () =
  if t.state <> Lifecycle.Execute then Error "PAL is not executing"
  else begin
    let m = t.machine in
    Sea_trace.Trace.with_span m.Machine.engine ~cat:"session"
      ~args:(fun () -> [ ("pal", Sea_trace.Trace.Str t.pal.Pal.name) ])
      "run-slice"
    @@ fun () ->
    let rate = 1 + List.length t.joined_cpus in
    let budget =
      match budget with
      | Some b -> b
      | None -> (
          match t.secb.Secb.preemption_timer with
          | Some timer -> timer
          | None -> t.remaining)
    in
    let progress = Time.scale budget rate in
    if progress < t.remaining then begin
      (* The preemption timer fires before the work completes. *)
      Engine.advance m.Machine.engine budget;
      t.remaining <- Time.sub t.remaining progress;
      match shed_helpers t with
      | Error e -> Error e
      | Ok () -> (
          match Insn.syield m ~cpu t.secb with
          | Error e -> Error e
          | Ok () ->
              step t Lifecycle.Ev_yield;
              Ok `Yielded)
    end
    else begin
      (* Wall-clock to finish = remaining work spread over the workers. *)
      Engine.advance m.Machine.engine
        (Time.scale_f t.remaining (1. /. float_of_int rate));
      t.remaining <- Time.zero;
      (* Work done: run the functional behaviour, then exit via SFREE. *)
      let result = t.pal.Pal.behavior (services t ~cpu) t.input in
      (match result with
      | Ok out -> t.output <- Some out
      | Error e -> t.behavior_error <- Some e);
      match shed_helpers t with
      | Error e -> Error e
      | Ok () -> (
      match Insn.sfree m ~cpu t.secb with
      | Error e -> Error e
      | Ok () -> (
          step t Lifecycle.Ev_sfree;
          match t.behavior_error with
          | Some e -> Error ("PAL behaviour failed: " ^ e)
          | None -> Ok `Finished))
    end
  end

let resume t ~cpu =
  if t.state <> Lifecycle.Suspend then Error "PAL is not suspended"
  else begin
    (* A failed resume leaves the pages suspended and the lifecycle in
       Suspend: the caller may retry again, SKILL the PAL, or fall back
       to a cold start. *)
    match
      Sea_trace.Trace.with_span t.machine.Machine.engine ~cat:"session"
        ~args:(fun () -> [ ("pal", Sea_trace.Trace.Str t.pal.Pal.name) ])
        "slaunch-resume"
        (fun () ->
          Sea_tpm.Tpm.retrying (Machine.tpm_exn t.machine) (fun () ->
              Insn.slaunch t.machine ~cpu t.secb))
    with
    | Error e -> Error e
    | Ok (Insn.Launched _) -> Error "suspended SECB was re-measured"
    | Ok Insn.Resumed ->
        t.primary_cpu <- cpu;
        step t Lifecycle.Ev_slaunch_resume;
        Ok ()
  end

let kill t =
  if t.state <> Lifecycle.Suspend then Error "SKILL targets a suspended PAL"
  else begin
    Sea_trace.Trace.with_span t.machine.Machine.engine ~cat:"session"
      ~args:(fun () -> [ ("pal", Sea_trace.Trace.Str t.pal.Pal.name) ])
      "skill"
    @@ fun () ->
    match Insn.skill t.machine t.secb with
    | Error e -> Error e
    | Ok () ->
        step t Lifecycle.Ev_skill;
        Ok ()
  end

let quote_after_exit t ~nonce =
  if t.state <> Lifecycle.Done then Error "PAL has not exited"
  else begin
    match t.secb.Secb.sepcr with
    | None -> Error "no sePCR handle"
    | Some h -> (
        let tpm = Machine.tpm_exn t.machine in
        let engine = t.machine.Machine.engine in
        let t0 = Engine.now engine in
        match
          Sea_tpm.Tpm.quote tpm ~caller:Sea_tpm.Tpm.Software ~sepcr:h ~selection:[]
            ~nonce ()
        with
        | Error e -> Error e
        | Ok q -> Ok (q, Time.sub (Engine.now engine) t0))
  end

let release t =
  if not t.released then begin
    t.released <- true;
    Machine.free_pages t.machine t.secb.Secb.pages
  end
