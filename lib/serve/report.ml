open Sea_sim

type row = {
  tenant : string;
  weight : int;
  offered : int;
  completed : int;
  shed : int;
  timed_out : int;
  failed : int;
  latency_ms : Stats.t;
  queue_high_water : int;
}

type vtpm_stats = {
  instances : int;
  extends : int;
  seals : int;
  unseals : int;
  resets : int;
}

type t = {
  mode : string;
  machine : string;
  cores : int;
  discipline : string;
  depth : int;
  cost_budget : int option;
  cost_shed : int;
  window : Time.t;
  rows : row list;
  aggregate : row;
  pal_busy : Time.t;
  legacy_utilization : float;
  stalled : Time.t;
  stall_ms : Stats.t;
  cold_starts : int;
  warm_hits : int;
  evictions : int;
  sepcr_waits : int;
  sepcr_wait_ms : Stats.t;
  faults_injected : (string * int) list;
  fault_stall : Time.t;
  retries : int;
  retry_give_ups : int;
  breaker_shed : int;
  breaker_transitions : int;
  degraded : Time.t;
  recoveries : int;
  vtpm : vtpm_stats option;
}

let window_s t = Time.to_ms t.window /. 1000.

(* --- merge hooks (the machine aggregate, and the fleet layer) --- *)

let merge_rows ~tenant rows =
  match rows with
  | [] -> invalid_arg "Report.merge_rows: no rows"
  | _ ->
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 rows in
      {
        tenant;
        weight = sum (fun r -> r.weight);
        offered = sum (fun r -> r.offered);
        completed = sum (fun r -> r.completed);
        shed = sum (fun r -> r.shed);
        timed_out = sum (fun r -> r.timed_out);
        failed = sum (fun r -> r.failed);
        latency_ms = Stats.merge (List.map (fun r -> r.latency_ms) rows);
        queue_high_water =
          List.fold_left (fun acc r -> Stdlib.max acc r.queue_high_water) 0 rows;
      }

(* Sum per-kind fault counts across reports, preserving the kind order
   of the first non-empty list (all reports emit Fault.all_kinds order). *)
let merge_fault_counts lists =
  match List.filter (fun l -> l <> []) lists with
  | [] -> []
  | first :: _ as nonempty ->
      List.map
        (fun (kind, _) ->
          ( kind,
            List.fold_left
              (fun acc l ->
                acc + (match List.assoc_opt kind l with Some c -> c | None -> 0))
              0 nonempty ))
        first

(* Merge reports from consecutive serving windows of ONE machine (the
   churn epochs the cluster cuts a run into): windows add (the epochs
   are sequential in virtual time, unlike the fleet merge where machines
   run concurrently and the longest window wins), counters sum, and each
   tenant's rows are folded by name in order of first appearance — a
   tenant that failed over away and back contributes once. *)
let merge_seq reports =
  match reports with
  | [] -> invalid_arg "Report.merge_seq: no reports"
  | [ r ] -> r
  | first :: _ ->
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
      let sum_time f =
        List.fold_left (fun acc r -> Time.add acc (f r)) Time.zero reports
      in
      let names = ref [] in
      List.iter
        (fun r ->
          List.iter
            (fun row ->
              if not (List.mem row.tenant !names) then
                names := row.tenant :: !names)
            r.rows)
        reports;
      let rows =
        List.map
          (fun name ->
            let parts =
              List.concat_map
                (fun r -> List.filter (fun row -> row.tenant = name) r.rows)
                reports
            in
            (* The tenant's weight is a configuration, not a counter:
               keep the first window's value rather than the sum. *)
            { (merge_rows ~tenant:name parts) with
              weight = (List.hd parts).weight })
          (List.rev !names)
      in
      let window = sum_time (fun r -> r.window) in
      let legacy_utilization =
        if Time.compare window Time.zero <= 0 then 0.
        else
          List.fold_left
            (fun acc r ->
              acc +. (r.legacy_utilization *. float_of_int (Time.to_ns r.window)))
            0. reports
          /. float_of_int (Time.to_ns window)
      in
      {
        mode = first.mode;
        machine = first.machine;
        cores = first.cores;
        discipline = first.discipline;
        depth = first.depth;
        cost_budget = first.cost_budget;
        cost_shed = sum (fun r -> r.cost_shed);
        window;
        rows;
        aggregate =
          { (merge_rows ~tenant:first.aggregate.tenant rows) with
            weight = List.fold_left (fun acc row -> acc + row.weight) 0 rows };
        pal_busy = sum_time (fun r -> r.pal_busy);
        legacy_utilization;
        stalled = sum_time (fun r -> r.stalled);
        stall_ms = Stats.merge (List.map (fun r -> r.stall_ms) reports);
        cold_starts = sum (fun r -> r.cold_starts);
        warm_hits = sum (fun r -> r.warm_hits);
        evictions = sum (fun r -> r.evictions);
        sepcr_waits = sum (fun r -> r.sepcr_waits);
        sepcr_wait_ms =
          Stats.merge (List.map (fun r -> r.sepcr_wait_ms) reports);
        faults_injected =
          merge_fault_counts (List.map (fun r -> r.faults_injected) reports);
        fault_stall = sum_time (fun r -> r.fault_stall);
        retries = sum (fun r -> r.retries);
        retry_give_ups = sum (fun r -> r.retry_give_ups);
        breaker_shed = sum (fun r -> r.breaker_shed);
        breaker_transitions = sum (fun r -> r.breaker_transitions);
        degraded = sum_time (fun r -> r.degraded);
        recoveries = sum (fun r -> r.recoveries);
        vtpm =
          (match List.filter_map (fun r -> r.vtpm) reports with
          | [] -> None
          | stats ->
              let sumv f = List.fold_left (fun acc v -> acc + f v) 0 stats in
              Some
                {
                  (* The same multiplexer serves every window: the
                     population is a max, the event counters sum. *)
                  instances =
                    List.fold_left
                      (fun acc v -> Stdlib.max acc v.instances)
                      0 stats;
                  extends = sumv (fun v -> v.extends);
                  seals = sumv (fun v -> v.seals);
                  unseals = sumv (fun v -> v.unseals);
                  resets = sumv (fun v -> v.resets);
                });
      }

let row_consistent row =
  row.offered = row.completed + row.shed + row.timed_out + row.failed

let goodput_per_s t row =
  let s = window_s t in
  if s <= 0. then 0. else float_of_int row.completed /. s

let robustness_active t =
  t.retries > 0 || t.retry_give_ups > 0 || t.breaker_shed > 0
  || t.breaker_transitions > 0 || t.recoveries > 0
  || List.exists (fun (_, c) -> c > 0) t.faults_injected
  || Time.compare t.fault_stall Time.zero > 0
  || Time.compare t.degraded Time.zero > 0

let pp_row t fmt row =
  Format.fprintf fmt "%-14s %3d %7d %7d %6d %8d %5d %9.2f  %a %6d"
    row.tenant row.weight row.offered row.completed row.shed row.timed_out
    row.failed (goodput_per_s t row) Stats.pp_percentiles row.latency_ms
    row.queue_high_water

(* The vTPM line appears only when a multiplexer was in front of the
   hardware TPM, so non-vTPM reports render exactly as before it existed.
   Only the commands tenants issued appear here: flush and
   batch-occupancy counts describe the background anchor pipeline and
   live in the trace ("vtpm" category). The cost-admission line likewise
   appears only under the cost discipline. *)
let pp_optional_lines fmt ~vtpm ~cost_budget ~cost_shed =
  (match vtpm with
  | Some v ->
      Format.fprintf fmt
        "@,vtpm: %d instances  extends %d  seals %d  unseals %d  resets %d"
        v.instances v.extends v.seals v.unseals v.resets
  | None -> ());
  match cost_budget with
  | Some b ->
      Format.fprintf fmt "@,cost admission: budget %d us/tenant  cost shed %d"
        b cost_shed
  | None -> ()

let pp fmt t =
  Format.fprintf fmt
    "@[<v>serve: %s on %s  cores %d  queue %s depth %d  window %a@,"
    t.mode t.machine t.cores t.discipline t.depth Time.pp t.window;
  Format.fprintf fmt
    "%-14s %3s %7s %7s %6s %8s %5s %9s  %-24s %6s@," "tenant" "w" "offered"
    "served" "shed" "timedout" "fail" "goodput/s" "latency (ms)" "q-hwm";
  List.iter (fun row -> Format.fprintf fmt "%a@," (pp_row t) row) t.rows;
  Format.fprintf fmt "%a@," (pp_row t) t.aggregate;
  Format.fprintf fmt
    "PAL cores busy %a  legacy CPU %.1f%%  platform stalled %a (%d stalls, %a)@,"
    Time.pp t.pal_busy
    (100. *. t.legacy_utilization)
    Time.pp t.stalled (Stats.count t.stall_ms) Stats.pp_percentiles t.stall_ms;
  Format.fprintf fmt
    "PAL launches: %d cold, %d warm  evictions %d  sePCR waits %d (%a)"
    t.cold_starts t.warm_hits t.evictions t.sepcr_waits Stats.pp_percentiles
    t.sepcr_wait_ms;
  pp_optional_lines fmt ~vtpm:t.vtpm ~cost_budget:t.cost_budget
    ~cost_shed:t.cost_shed;
  (* The robustness lines appear only when something robustness-related
     actually happened, so fault-free reports render exactly as before
     this machinery existed. *)
  if robustness_active t then begin
    let injected = List.filter (fun (_, c) -> c > 0) t.faults_injected in
    Format.fprintf fmt "@,faults injected: %s  injected bus stall %a"
      (if injected = [] then "none"
       else
         String.concat ", "
           (List.map (fun (k, c) -> Printf.sprintf "%s %d" k c) injected))
      Time.pp t.fault_stall;
    Format.fprintf fmt
      "@,retries %d (gave up %d)  breaker shed %d  breaker transitions %d  \
       degraded %a  recoveries %d"
      t.retries t.retry_give_ups t.breaker_shed t.breaker_transitions Time.pp
      t.degraded t.recoveries
  end;
  Format.fprintf fmt "@]"

let render t = Format.asprintf "%a" pp t
