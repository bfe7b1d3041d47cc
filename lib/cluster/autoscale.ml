open Sea_sim

type policy = Static | Migrate | Spread | Auto

let policies =
  [ ("static", Static); ("migrate", Migrate); ("spread", Spread);
    ("auto", Auto) ]

let policy_name = function
  | Static -> "static"
  | Migrate -> "migrate"
  | Spread -> "spread"
  | Auto -> "auto"

let policy_of_name name =
  List.assoc_opt (String.lowercase_ascii (String.trim name)) policies

type config = {
  policy : policy;
  interval : Time.t;
  hot_threshold : float;
}

let config ?(policy = Auto) ?(interval = Time.s 1.) ?(hot_threshold = 1.5) () =
  if Time.compare interval Time.zero <= 0 then
    invalid_arg "Autoscale.config: --scale-interval must be positive";
  if hot_threshold <= 1. then
    invalid_arg "Autoscale.config: --hot-threshold must exceed 1";
  { policy; interval; hot_threshold }

let tick_instants cfg ~duration =
  let iv = Time.to_ns cfg.interval in
  let rec go k acc =
    let t = k * iv in
    if t >= Time.to_ns duration then List.rev acc
    else go (k + 1) (Time.ns t :: acc)
  in
  go 1 []

type decision = {
  weights : int array;
  hot : int list;
  cooled : int list;
}

let decide cfg ~weights ~alive ~loads =
  let n = Array.length weights in
  if Array.length alive <> n || Array.length loads <> n then
    invalid_arg "Autoscale.decide: array lengths disagree";
  let count = ref 0 and total = ref 0. in
  for m = 0 to n - 1 do
    if alive.(m) then begin
      incr count;
      total := !total +. loads.(m)
    end
  done;
  let mean = if !count = 0 then 0. else !total /. float_of_int !count in
  if mean <= 0. then { weights = Array.copy weights; hot = []; cooled = [] }
  else begin
    let out = Array.copy weights in
    let hot = ref [] and cooled = ref [] in
    (* Index order, so the decision (and every downstream trace and
       counter) is identical no matter how the fleet is sharded. *)
    for m = 0 to n - 1 do
      if alive.(m) then
        if loads.(m) > cfg.hot_threshold *. mean then begin
          hot := m :: !hot;
          out.(m) <- Stdlib.max 1 (weights.(m) / 2)
        end
        else if
          loads.(m) < mean /. cfg.hot_threshold
          && weights.(m) < Router.virtual_points
        then begin
          cooled := m :: !cooled;
          out.(m) <- Stdlib.min Router.virtual_points (weights.(m) * 2)
        end
    done;
    { weights = out; hot = List.rev !hot; cooled = List.rev !cooled }
  end
