open Sea_hw
open Sea_core
open Sea_tpm

type outcome = Warm | Cold

type result_t = {
  outcome : outcome;
  torn : bool;
  link_retries : int;
  target : Slaunch_session.t;
}

(* Launch a fresh suspended resident of [pal] on [m]: SLAUNCH (claims
   pages, SECB and an sePCR) under a preemption timer, then one slice so
   the PAL parks in [Suspend] like any serve-loop resident (without the
   timer the slice would run the image to completion instead of
   yielding). *)
let launch_suspended m ~preemption_timer pal =
  match Slaunch_session.start m ~cpu:0 ~preemption_timer pal ~input:"" with
  | Error e -> Error e
  | Ok s -> (
      match Slaunch_session.run_slice s ~cpu:0 () with
      | Ok `Yielded -> Ok s
      | Ok `Finished ->
          (* A resident PAL's work is open-ended; finishing means the
             image is not resident-shaped. Back the claim out. *)
          Slaunch_session.release s;
          Error "migrate: PAL finished instead of suspending"
      | Error e ->
          ignore (Slaunch_session.kill s);
          Slaunch_session.release s;
          Error ("migrate: first slice failed: " ^ e))

(* Back out a half-migrated target claim exactly like a failed first
   SLAUNCH: SKILL erases and releases the pages and frees the sePCR, so
   a torn transfer leaves no residue in the target's access-control
   table or sePCR bank. *)
let backout s =
  ignore (Slaunch_session.kill s);
  Slaunch_session.release s

let failover ~source ~target ~link ?(source_alive = true)
    ?(blob_available = true) ?(preemption_timer = Sea_sim.Time.ms 10.) ~tenant
    ~kind_name:kname pal () =
  let state_payload = Printf.sprintf "pal-state:%s:%s" tenant kname in
  let target_engine = Machine.engine target in
  Sea_trace.Trace.with_span target_engine ~cat:"churn"
    ~args:(fun () ->
      [
        ("tenant", Sea_trace.Trace.Str tenant);
        ("kind", Sea_trace.Trace.Str kname);
        ("source_alive", Sea_trace.Trace.Bool source_alive);
      ])
    "migrate"
  @@ fun () ->
  (* 1. Obtain the sealed hand-off blob. Partitioned source: the live
     protocol — SLAUNCH the resident's code identity, SYIELD it, seal
     its state bound to the sePCR measurement, SKILL it (the blob now
     owns the PAL; exactly-once hinges on this ordering). Crashed
     source: the pre-crash durable checkpoint survived with some luck;
     otherwise there is nothing to transfer. *)
  let blob =
    if (not source_alive) && not blob_available then None
    else
      match launch_suspended source ~preemption_timer pal with
      | Error _ -> None
      | Ok s -> (
          let sealed =
            match Slaunch_session.sepcr_handle s with
            | None -> None
            | Some h -> (
                let tpm = Machine.tpm_exn source in
                match
                  Tpm.retrying tpm (fun () ->
                      Tpm.seal tpm ~caller:(Tpm.Cpu 0) ~sepcr:h ~pcr_policy:[]
                        state_payload)
                with
                | Ok blob -> Some blob
                | Error _ -> None)
          in
          (* Source residency ends here on every path: seal-then-SKILL
             on success, plain SKILL (state lost) on a failed seal. *)
          ignore (Slaunch_session.kill s);
          Slaunch_session.release s;
          sealed)
  in
  (* 2. Claim the target: a fresh SLAUNCH of the same code identity.
     Its sePCR now holds the same measurement chain the blob was bound
     to, so a delivered blob unseals against the target's sePCR. *)
  match launch_suspended target ~preemption_timer pal with
  | Error e -> Error ("target launch: " ^ e)
  | Ok tsess -> (
      let cold ~torn ~link_retries =
        if not torn then
          Ok { outcome = Cold; torn; link_retries; target = tsess }
        else begin
          (* Torn transfer: the blob is gone but the target already
             claimed pages and an sePCR for a resident it can never
             warm-resume into a consistent state. Back the claim out,
             then cold re-launch from scratch. *)
          backout tsess;
          Sea_trace.Trace.count target_engine "churn.cold_restarts" 1;
          match launch_suspended target ~preemption_timer pal with
          | Error e -> Error ("cold re-launch: " ^ e)
          | Ok fresh -> Ok { outcome = Cold; torn; link_retries; target = fresh }
        end
      in
      match blob with
      | None ->
          Sea_trace.Trace.count target_engine "churn.cold_restarts" 1;
          Ok { outcome = Cold; torn = false; link_retries = 0; target = tsess }
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
          match sent with
          | Error _ -> cold ~torn:true ~link_retries
          | Ok () -> (
              (* 4. Unseal against the target's sePCR and resume. The
                 TPM checks the binding: a blob for a different code
                 identity (different measurement chain) is refused. *)
              match Slaunch_session.sepcr_handle tsess with
              | None -> cold ~torn:true ~link_retries
              | Some h -> (
                  match
                    Tpm.unseal (Machine.tpm_exn target) ~caller:(Tpm.Cpu 0)
                      ~sepcr:h blob
                  with
                  | Error _ -> cold ~torn:true ~link_retries
                  | Ok payload when payload <> state_payload ->
                      cold ~torn:true ~link_retries
                  | Ok _ -> (
                      match Slaunch_session.resume tsess ~cpu:0 with
                      | Error _ -> cold ~torn:true ~link_retries
                      | Ok () -> (
                          match Slaunch_session.run_slice tsess ~cpu:0 () with
                          | Ok `Yielded ->
                              Ok { outcome = Warm; torn = false; link_retries;
                                   target = tsess }
                          | Ok `Finished | Error _ ->
                              cold ~torn:true ~link_retries))))))

let dispose r = backout r.target

(* Kill-and-respawn rebalancing (the autoscaler's "spread" policy): the
   source resident is simply discarded and a fresh one launches on the
   target — no state crosses the wire. On proposed hardware the respawn
   pays a real cold SLAUNCH (claim pages, SECB, an sePCR, hash the
   image) and immediately backs the claim out, charging the true launch
   cost while leaving the serve loop's sePCR bank untouched between
   epochs. Under a software (SFI) backend the launch is just stub
   patching and a software measurement — a flat ~25 µs charge to the
   target's clock. *)
let respawn ~target ?(preemption_timer = Sea_sim.Time.ms 10.) ~cost ~tenant
    ~kind_name:kname pal () =
  let target_engine = Machine.engine target in
  Sea_trace.Trace.with_span target_engine ~cat:"autoscale"
    ~args:(fun () ->
      [
        ("tenant", Sea_trace.Trace.Str tenant);
        ("kind", Sea_trace.Trace.Str kname);
      ])
    "respawn"
  @@ fun () ->
  match cost with
  | `Software c ->
      Sea_sim.Engine.advance target_engine c;
      Ok ()
  | `Slaunch -> (
      match launch_suspended target ~preemption_timer pal with
      | Error e -> Error ("respawn launch: " ^ e)
      | Ok s ->
          backout s;
          Ok ())
