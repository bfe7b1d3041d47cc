open Sea_sim
open Sea_hw
open Sea_core

type mode = Current | Proposed

type job = {
  label : string;
  arrival : Time.t;
  chunks : int;
  chunk_work : Time.t;
  code_size : int;
}

let job ?(label = "job") ?(arrival = Time.zero) ?(chunks = 8)
    ?(chunk_work = Time.ms 5.) ?(code_size = 16 * 1024) () =
  if chunks <= 0 then invalid_arg "Scheduler.job: chunks must be positive";
  { label; arrival; chunks; chunk_work; code_size }

type report = {
  mode : mode;
  window : Time.t;
  cpu_count : int;
  completed : int;
  failed : int;
  pal_latency_ms : Stats.t;
  pal_busy : Time.t;
  stalled : Time.t;
  stall_intervals_ms : Stats.t;
  legacy_cpu_time : Time.t;
  legacy_utilization : float;
}

(* One protected-work chunk as a full SEA session on today's hardware:
   the first chunk is a PAL Gen (creates the state), later chunks are
   resealing PAL Uses threading the blob. *)
let run_current (m : Machine.t) jobs window =
  let engine = m.Machine.engine in
  let base = Engine.now engine in
  let latencies = Stats.create () in
  let completed = ref 0 and failed = ref 0 in
  let platform_free = ref base in
  let stalled = ref Time.zero in
  let stall_intervals = Stats.create () in
  let sorted = List.sort (fun a b -> Time.compare a.arrival b.arrival) jobs in
  List.iter
    (fun j ->
      let arrival = Time.add base j.arrival in
      let start = Time.max arrival !platform_free in
      Engine.elapse_to engine start;
      let gen = Generic.pal_gen ~code_size:j.code_size () in
      let use =
        Generic.pal_use ~code_size:j.code_size ~reseal:true
          ~compute_time:j.chunk_work ()
      in
      let rec chunks_left n blob =
        if n = 0 then Ok ()
        else
          let pal, input = if blob = None then (gen, "") else (use, Option.get blob) in
          let t0 = Engine.now engine in
          match Backend.current.oneshot m ~cpu:0 pal ~input with
          | Error e -> Error e
          | Ok output ->
              Stats.add_time stall_intervals (Time.sub (Engine.now engine) t0);
              chunks_left (n - 1) (Some output)
      in
      (match chunks_left j.chunks None with
      | Ok () ->
          incr completed;
          Stats.add latencies (Time.to_ms (Time.sub (Engine.now engine) arrival))
      | Error _ -> incr failed);
      let finish = Engine.now engine in
      stalled := Time.add !stalled (Time.sub finish start);
      platform_free := finish)
    sorted;
  let cpu_count = Array.length m.Machine.cpus in
  let window = Time.max window (Time.sub !platform_free base) in
  let pal_busy = Time.scale !stalled cpu_count in
  let legacy = Time.sub (Time.scale window cpu_count) pal_busy in
  {
    mode = Current;
    window;
    cpu_count;
    completed = !completed;
    failed = !failed;
    pal_latency_ms = latencies;
    pal_busy;
    stalled = !stalled;
    stall_intervals_ms = stall_intervals;
    legacy_cpu_time = legacy;
    legacy_utilization =
      Time.to_s legacy /. (Time.to_s window *. float_of_int cpu_count);
  }

(* One job = one SLAUNCH session sliced by the preemption timer, pinned to
   the least-loaded core; other cores never see it. *)
let run_proposed (m : Machine.t) jobs window =
  let engine = m.Machine.engine in
  let latencies = Stats.create () in
  let completed = ref 0 and failed = ref 0 in
  let cpu_count = Array.length m.Machine.cpus in
  let base = Engine.now engine in
  let cpu_free = Array.make cpu_count base in
  let pal_busy = ref Time.zero in
  let last_finish = ref base in
  let sorted = List.sort (fun a b -> Time.compare a.arrival b.arrival) jobs in
  List.iter
    (fun j ->
      let arrival = Time.add base j.arrival in
      (* Pick the core that can start this job earliest. *)
      let cpu = ref 0 in
      for c = 1 to cpu_count - 1 do
        if Time.max arrival cpu_free.(c) < Time.max arrival cpu_free.(!cpu) then
          cpu := c
      done;
      let cpu = !cpu in
      let start = Time.max arrival cpu_free.(cpu) in
      Engine.elapse_to engine start;
      let t0 = Engine.now engine in
      let total_work = Time.scale j.chunk_work j.chunks in
      let pal =
        Pal.create ~name:("sched-" ^ j.label) ~code_size:j.code_size
          ~compute_time:total_work (fun services _ ->
            services.Pal.seal "final-state")
      in
      (* The OS runs legacy work on this core between slices; the PAL's
         own cost is just the switch pair. *)
      (match
         Backend.proposed.oneshot m ~cpu ~preemption_timer:j.chunk_work pal
           ~input:""
       with
      | Ok _ ->
          incr completed;
          Stats.add latencies (Time.to_ms (Time.sub (Engine.now engine) arrival))
      | Error _ -> incr failed);
      let finish = Engine.now engine in
      let busy = Time.sub finish t0 in
      pal_busy := Time.add !pal_busy busy;
      cpu_free.(cpu) <- Time.add start busy;
      if cpu_free.(cpu) > !last_finish then last_finish := cpu_free.(cpu))
    sorted;
  let window = Time.max window (Time.sub !last_finish base) in
  let legacy = Time.sub (Time.scale window cpu_count) !pal_busy in
  {
    mode = Proposed;
    window;
    cpu_count;
    completed = !completed;
    failed = !failed;
    pal_latency_ms = latencies;
    pal_busy = !pal_busy;
    stalled = Time.zero;
    stall_intervals_ms = Stats.create ();
    legacy_cpu_time = legacy;
    legacy_utilization =
      Time.to_s legacy /. (Time.to_s window *. float_of_int cpu_count);
  }

let run (m : Machine.t) ~mode ~jobs ~window =
  match mode with
  | Current ->
      if m.Machine.tpm = None then failwith "Current mode requires a TPM";
      run_current m jobs window
  | Proposed ->
      if not m.Machine.config.Machine.proposed then
        failwith "Proposed mode requires the proposed hardware";
      run_proposed m jobs window

let mode_name = function Current -> "current hw" | Proposed -> "proposed hw"

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>%s: %d/%d jobs done, latency %a ms, legacy CPU %.1f%%, stalled %a@]"
    (mode_name r.mode) r.completed (r.completed + r.failed) Stats.pp_summary
    r.pal_latency_ms
    (100. *. r.legacy_utilization)
    Time.pp r.stalled
