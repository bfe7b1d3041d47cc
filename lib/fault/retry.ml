open Sea_sim

type policy = { mutable retries : int; mutable give_ups : int }

let attempts = 4
let base_backoff = Time.us 50.
let max_backoff = Time.ms 5.
let jitter = 0.25

(* A fresh policy per call: the counters are mutable, so a shared
   module-level value would alias per-user retry statistics across
   every caller in the process. *)
let policy () = { retries = 0; give_ups = 0 }
let retries p = p.retries
let give_ups p = p.give_ups

let backoff engine ~attempt =
  (* attempt is the 1-based index of the attempt that just failed *)
  let exp = Time.scale base_backoff (1 lsl (attempt - 1)) in
  let capped = Time.min exp max_backoff in
  let factor = 1.0 +. Rng.float (Engine.rng engine) jitter in
  Time.scale_f capped factor

let run ?policy ~engine f =
  match policy with
  | None -> f ()
  | Some p ->
      let rec attempt n =
        match f () with
        | Ok _ as ok -> ok
        | Error e when Fault.is_transient e && n < attempts ->
            let d = backoff engine ~attempt:n in
            Sea_trace.Trace.instant engine ~cat:"fault"
              ~args:(fun () ->
                [
                  ("attempt", Sea_trace.Trace.Int n);
                  ("backoff_ns", Sea_trace.Trace.Int (Time.to_ns d));
                ])
              "retry";
            Engine.advance engine d;
            p.retries <- p.retries + 1;
            attempt (n + 1)
        | Error e ->
            if Fault.is_transient e then begin
              p.give_ups <- p.give_ups + 1;
              Sea_trace.Trace.instant engine ~cat:"fault"
                ~args:(fun () -> [ ("attempt", Sea_trace.Trace.Int n) ])
                "retry-give-up"
            end;
            Error e
      in
      attempt 1
