open Sea_sim

type t = { loss : float; rng : Rng.t; mutable drops : int }

(* The wire: 50 us one-way latency, 125 bytes/us (~1 Gbit/s). *)
let latency = Time.us 50.
let bytes_per_us = 125

let create ?(loss = 0.) rng =
  if not (loss >= 0. && loss <= 1.) then
    invalid_arg "Link.create: loss must be in [0, 1]";
  { loss; rng = Rng.split rng; drops = 0 }

let transfer_time ~bytes =
  Time.add latency (Time.us (float_of_int bytes /. float_of_int bytes_per_us))

let send t engine payload =
  let bytes = String.length payload in
  (* A dropped message burns its timeout (one full transfer time) before
     the sender can tell; a delivered one burns the transfer time. Either
     way the receiving engine's clock pays for the attempt. *)
  Engine.advance engine (transfer_time ~bytes);
  if t.loss > 0. && Rng.float t.rng 1.0 < t.loss then begin
    t.drops <- t.drops + 1;
    Sea_trace.Trace.instant engine ~cat:"churn"
      ~args:(fun () -> [ ("bytes", Sea_trace.Trace.Int bytes) ])
      "link-drop";
    Error (Sea_fault.Fault.transient "link: message lost in transfer")
  end
  else Ok ()

let drops t = t.drops
