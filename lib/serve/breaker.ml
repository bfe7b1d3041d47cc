open Sea_sim

(* Consecutive failures before opening, the open interval before
   probing, and the probe budget per half-open episode. *)
let failure_threshold = 3
let cooldown = Time.ms 100.
let half_open_probes = 1

type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type t = {
  mutable state : state;
  mutable consecutive_failures : int;
  mutable open_until : Time.t;
  mutable probes_left : int;
  mutable transitions : int;
  mutable rejected : int;
  mutable degraded_since : Time.t option;
  mutable degraded_total : Time.t;
}

let create () =
  {
    state = Closed;
    consecutive_failures = 0;
    open_until = Time.zero;
    probes_left = 0;
    transitions = 0;
    rejected = 0;
    degraded_since = None;
    degraded_total = Time.zero;
  }

let transition t ~now next =
  if next <> t.state then begin
    t.transitions <- t.transitions + 1;
    (match (t.state, next) with
    | Closed, (Open | Half_open) -> t.degraded_since <- Some now
    | (Open | Half_open), Closed -> (
        match t.degraded_since with
        | Some since ->
            t.degraded_total <- Time.add t.degraded_total (Time.sub now since);
            t.degraded_since <- None
        | None -> ())
    | _ -> ());
    t.state <- next
  end

let take_probe t =
  if t.probes_left > 0 then begin
    t.probes_left <- t.probes_left - 1;
    true
  end
  else begin
    t.rejected <- t.rejected + 1;
    false
  end

let allow t ~now =
  match t.state with
  | Closed -> true
  | Half_open -> take_probe t
  | Open ->
      if Time.compare now t.open_until >= 0 then begin
        transition t ~now Half_open;
        t.probes_left <- half_open_probes;
        take_probe t
      end
      else begin
        t.rejected <- t.rejected + 1;
        false
      end

let record_success t ~now =
  t.consecutive_failures <- 0;
  transition t ~now Closed

let record_failure t ~now =
  t.consecutive_failures <- t.consecutive_failures + 1;
  match t.state with
  | Half_open ->
      (* The probe failed: reopen for another full cooldown. *)
      t.open_until <- Time.add now cooldown;
      transition t ~now Open
  | Closed ->
      if t.consecutive_failures >= failure_threshold then begin
        t.open_until <- Time.add now cooldown;
        transition t ~now Open
      end
  | Open -> ()

let state t = t.state
let transitions t = t.transitions
let rejected t = t.rejected
let retry_at t = t.open_until

let degraded t ~now =
  match t.degraded_since with
  | None -> t.degraded_total
  | Some since -> Time.add t.degraded_total (Time.sub now since)
