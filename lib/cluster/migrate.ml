open Sea_hw
open Sea_core

type outcome = Warm | Cold

type result_t = {
  outcome : outcome;
  torn : bool;
  link_retries : int;
  target : Backend.instance;
}

(* Launch a fresh suspended resident of [pal] on [m]: SLAUNCH (claims
   pages, SECB and an sePCR) under a preemption timer, then one slice so
   the PAL parks in [Suspend] like any serve-loop resident (without the
   timer the slice would run the image to completion instead of
   yielding). A resident PAL's work is open-ended, so finishing means
   the image is not resident-shaped; either failure backs the claim
   out. *)
let launch_suspended m ~preemption_timer pal =
  match Backend.proposed.launch m ~cpu:0 ~preemption_timer pal ~input:"" with
  | Error e -> Error e
  | Ok inst -> (
      match inst.run_slice ~cpu:0 () with
      | Ok `Yielded -> Ok inst
      | Ok `Finished ->
          Backend.discard inst;
          Error "migrate: PAL finished instead of suspending"
      | Error e ->
          Backend.discard inst;
          Error ("migrate: first slice failed: " ^ e))

type handoff = {
  tenant : string;
  kind_name : string;
  source_alive : bool;
  preemption_timer : Sea_sim.Time.t;
  blob : string option;
}

let state_payload h = Printf.sprintf "pal-state:%s:%s" h.tenant h.kind_name

let span_args h () =
  [
    ("tenant", Sea_trace.Trace.Str h.tenant);
    ("kind", Sea_trace.Trace.Str h.kind_name);
    ("source_alive", Sea_trace.Trace.Bool h.source_alive);
  ]

(* 1. Obtain the sealed hand-off blob, on the source. Partitioned source:
   the live protocol — launch the resident's code identity, park it,
   seal its state bound to the sePCR measurement, kill it (the blob now
   owns the PAL; exactly-once hinges on this ordering; a failed seal
   loses the state). Crashed source: the pre-crash durable checkpoint
   survived with some luck; otherwise there is nothing to transfer. *)
let seal_out ~source ?(source_alive = true) ?(blob_available = true)
    ?(preemption_timer = Sea_sim.Time.ms 10.) ~tenant ~kind_name pal () =
  let h =
    { tenant; kind_name; source_alive; preemption_timer; blob = None }
  in
  if (not source_alive) && not blob_available then h
  else
    Sea_trace.Trace.with_span (Machine.engine source) ~cat:"churn"
      ~args:(span_args h) "seal-out"
    @@ fun () ->
    match launch_suspended source ~preemption_timer pal with
    | Error _ -> h
    | Ok s ->
        let sealed = s.save_state ~cpu:0 ~tag:(state_payload h) in
        Backend.discard s;
        { h with blob = Option.join (Result.to_option sealed) }

let failover ~target ~link pal h =
  let launch m = launch_suspended m ~preemption_timer:h.preemption_timer pal in
  let target_engine = Machine.engine target in
  Sea_trace.Trace.with_span target_engine ~cat:"churn" ~args:(span_args h)
    "migrate"
  @@ fun () ->
  (* 2. Claim the target: a fresh launch of the same code identity. Its
     sePCR now holds the same measurement chain the blob was bound to,
     so a delivered blob unseals against the target's sePCR. *)
  match launch target with
  | Error e -> Error ("target launch: " ^ e)
  | Ok t -> (
      (* Torn transfer: the blob is gone but the target already claimed
         pages and an sePCR for a resident it can never warm-resume into
         a consistent state. Back the claim out exactly like a failed
         first launch, then cold re-launch from scratch. *)
      let torn ~link_retries =
        Backend.discard t;
        Sea_trace.Trace.count target_engine "churn.cold_restarts" 1;
        match launch target with
        | Error e -> Error ("cold re-launch: " ^ e)
        | Ok fresh ->
            Ok { outcome = Cold; torn = true; link_retries; target = fresh }
      in
      match h.blob with
      | None ->
          Sea_trace.Trace.count target_engine "churn.cold_restarts" 1;
          Ok { outcome = Cold; torn = false; link_retries = 0; target = t }
      | Some blob -> (
          (* 3. Ship the blob over the lossy link with bounded backoff;
             every attempt (dropped or delivered) charges the target's
             clock. Link loss is not a TPM fault, so the sends keep a
             policy of their own. *)
          let policy = Sea_fault.Retry.policy () in
          let sent =
            Sea_fault.Retry.run ~policy ~engine:target_engine (fun () ->
                Link.send link target_engine blob)
          in
          let link_retries = Sea_fault.Retry.retries policy in
          (* 4. Unseal against the target's sePCR and resume. The TPM
             checks the binding: a blob for a different code identity
             (different measurement chain) is refused. *)
          let resumed =
            let ( let* ) = Result.bind in
            let* () = sent in
            let* state = t.load_state ~cpu:0 blob in
            let* () =
              if state = state_payload h then t.resume ~cpu:0
              else Error "unsealed a different state"
            in
            t.run_slice ~cpu:0 ()
          in
          match resumed with
          | Ok `Yielded ->
              Ok { outcome = Warm; torn = false; link_retries; target = t }
          | Ok `Finished | Error _ -> torn ~link_retries))

(* Kill-and-respawn rebalancing (the autoscaler's "spread" policy): the
   source resident is simply discarded and a fresh one launches on the
   target — no state crosses the wire. On proposed hardware the respawn
   pays a real cold SLAUNCH (claim pages, SECB, an sePCR, hash the
   image) and immediately backs the claim out, charging the true launch
   cost while leaving the serve loop's sePCR bank untouched between
   epochs. A software backend charges its flat launch cost (SFI: stub
   patching and a software measurement, ~25 µs) to the target's clock. *)
let respawn ~(backend : Backend.t) ~target
    ?(preemption_timer = Sea_sim.Time.ms 10.) ~tenant ~kind_name:kname pal () =
  let target_engine = Machine.engine target in
  Sea_trace.Trace.with_span target_engine ~cat:"autoscale"
    ~args:(fun () ->
      [
        ("tenant", Sea_trace.Trace.Str tenant);
        ("kind", Sea_trace.Trace.Str kname);
      ])
    "respawn"
  @@ fun () ->
  match backend.kind with
  | Backend.Proposed -> (
      match launch_suspended target ~preemption_timer pal with
      | Error e -> Error ("respawn launch: " ^ e)
      | Ok inst ->
          Backend.discard inst;
          Ok ())
  | Backend.Current | Backend.Sfi ->
      Sea_sim.Engine.advance target_engine (backend.extra_cost Op_launch);
      Ok ()
