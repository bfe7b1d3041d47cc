(* Host-clock benchmark harness for the sea simulator.

   Each workload is a list of seeded [Cluster.run] jobs. [run] times
   them back to back, untraced, on the host monotonic clock; [trace]
   attributes one job's host time to the library layers from outside
   (trace-sink counts times directly timed per-call costs); [setup]
   times the process-wide warm-up alone, in a fresh process;
   [calibrate] times a loop that calls no repo code; [selftest] checks
   the harness's own checks at smoke size.

   Virtual-clock results (served fraction, virtual p95, the report
   renders) are outputs the harness checks and digests, never metrics.
   Output protocol: context lines start with "# "; the last line is one
   JSON object that perfbench/run.py reads. See perfbench/README.md. *)

open Sea_sim
module Machine = Sea_hw.Machine
module Tpm = Sea_tpm.Tpm
module Trace = Sea_trace.Trace
module Workload = Sea_serve.Workload
module Server = Sea_serve.Server
module Report = Sea_serve.Report
module Cluster = Sea_cluster.Cluster
module Fleet_report = Sea_cluster.Fleet_report
module Router = Sea_cluster.Router

(* --- host clock --- *)

let now_ns () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

let median = function
  | [] -> invalid_arg "median: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Host-drift calibration: a fixed loop that calls no repo code, mixing
   integer work, scattered writes over a 16 MB array and short-lived
   allocation the way the simulator does. Its time is printed beside the
   metrics so a reader can tell a slower host from a slower program. *)
let calibrate () =
  let (), dt =
    timed (fun () ->
        let a = Array.make (1 lsl 21) 0 in
        let x = ref 0x2545F491 and l = ref [] in
        for i = 1 to 2_000_000 do
          x := !x lxor (!x lsl 13);
          x := !x lxor (!x lsr 7);
          x := !x lxor (!x lsl 17);
          let k = !x land ((1 lsl 21) - 1) in
          a.(k) <- a.(k) + i;
          l := (if i land 0xFFFF = 0 then [] else Float.of_int i :: !l)
        done;
        ignore (Sys.opaque_identity (a, !l)))
  in
  dt

(* Peak resident set of this process, MB (VmHWM). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM not in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- workloads --- *)

type workload = {
  name : string;
  mode : Server.mode;
  machines : int;
  policy : Router.policy;
  tenants : int;
  rate : float;  (** Total open-loop arrivals, req/s of virtual time. *)
  duration : float;  (** Serving window, s of virtual time. *)
  flash : bool;  (** 4x flash crowd over the second quarter. *)
  churn : bool;  (** MTTF 4 s, MTTR 1 s machine crashes. *)
  autoscale : bool;  (** Autoscale policy migrate. *)
  fault_rate : float;
  vtpm : int option;
  min_jobs : int;  (** Jobs every run makes; the digest covers these. *)
}

(* Why each workload exists is in README.md; in short: current-sessions
   is crypto/TPM bound, proposed-steady is engine/serve/resume bound,
   fleet-churn is cluster-orchestration/vTPM/construction bound. *)
let workloads =
  let base =
    {
      name = ""; mode = Server.Current; machines = 2;
      policy = Router.Round_robin; tenants = 6; rate = 1.5; duration = 90.;
      flash = false; churn = false; autoscale = false; fault_rate = 0.;
      vtpm = None; min_jobs = 6;
    }
  in
  [
    { base with name = "current-sessions" };
    { base with name = "proposed-steady"; mode = Server.Proposed; rate = 800.;
      duration = 360. };
    { base with name = "fleet-churn"; mode = Server.Proposed; machines = 4;
      policy = Router.Hash_tenant; tenants = 12; rate = 400.;
      duration = 8.; flash = true; churn = true; autoscale = true;
      fault_rate = 0.02; vtpm = Some 2 };
  ]

(* Smoke size: the same configuration over a tenth of the window. *)
let smoke w = { w with duration = w.duration /. 10.; min_jobs = 2 }

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
      failwith
        (Printf.sprintf "unknown workload %S; known: %s" name
           (String.concat ", " (List.map (fun w -> w.name) workloads)))

(* The CLI's serving machine: HP dc5750 with 512-bit TPM keys, the
   proposed variant (8 sePCRs) for proposed mode. *)
let machine_config w =
  let c = Machine.low_fidelity Machine.hp_dc5750 in
  match w.mode with
  | Server.Proposed -> Machine.proposed_variant c
  | Server.Current | Server.Sfi -> c

let proposed_config w =
  let c = machine_config w in
  if c.Machine.proposed then c else Machine.proposed_variant c

let tenants w =
  let shape =
    if w.flash then
      Workload.Flash
        {
          at = Time.s (w.duration /. 4.);
          width = Time.s (w.duration /. 4.);
          spike = 4.;
        }
    else Workload.Steady
  in
  Workload.preset ~shape ~tenants:w.tenants (`Open w.rate)

(* --- jobs --- *)

(* Every per-job seed comes from the workload seed and the job index
   through splitmix64, so job j is the same on every run with the same
   --seed and independent of how many jobs a run gets through. *)
type job = { index : int; engine_seed : int64; fault_seed : int; churn_seed : int }

let splitmix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let job ~seed index =
  let base = splitmix64 (Int64.add (Int64.mul (Int64.of_int seed) 1_000_003L) (Int64.of_int index)) in
  let small k = Int64.to_int (splitmix64 (Int64.add base k)) land 0x3FFFFFFF in
  { index; engine_seed = base; fault_seed = small 1L; churn_seed = small 2L }

let serve_config w (j : job) =
  let faults =
    if w.fault_rate > 0. then
      Some (Sea_fault.Fault.spec ~seed:j.fault_seed ~rate:w.fault_rate ())
    else None
  in
  Server.config ?faults ?vtpm:w.vtpm ~mode:w.mode ~duration:(Time.s w.duration) ()

(* Timed jobs run on one shard: on two, every epoch joins both domains
   and every minor collection stops both, so either vCPU's stalls on a
   shared host show up in the job's time (README.md has the figures).
   Job 0 also runs on two shards, for the render check and the traced
   run's shard speed-up. *)
let run_job ?trace ?(shards = 1) w (j : job) =
  let cfg = Cluster.config ~shards ~policy:w.policy ~machines:w.machines () in
  let churn =
    if w.churn then
      Some
        (Cluster.churn
           (Sea_fault.Machine_fault.spec ~mttf:(Time.s 4.) ~mttr:(Time.s 1.)
              ~seed:j.churn_seed ())
           ())
    else None
  in
  let autoscale =
    if w.autoscale then
      Some (Sea_cluster.Autoscale.config ~policy:Sea_cluster.Autoscale.Migrate ())
    else None
  in
  (* The render is part of the job: it is the result a user waits for,
     and it computes the fleet's percentiles. *)
  match
    Cluster.run ~seed:j.engine_seed ?trace ?churn ?autoscale cfg
      ~machine_config:(machine_config w) ~serve:(serve_config w j) (tenants w)
  with
  | Ok r -> Ok (r, Fleet_report.render r)
  | Error e -> Error e
  | exception e -> Error ("raised " ^ Printexc.to_string e)

(* The accounting check every job must pass: each tenant row and each
   machine row obeys offered = completed + shed + timed_out + failed,
   and the fleet row is exactly the machines' rows with their
   black-holed [lost] requests folded in as offered-and-failed. *)
let consistent (r : Fleet_report.t) =
  let rows =
    List.filter_map
      (fun (m : Fleet_report.machine_row) ->
        Option.map (fun (rep : Report.t) -> (rep, m.lost)) m.report)
      r.per_machine
  in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 rows in
  let lost_down =
    List.fold_left
      (fun acc (m : Fleet_report.machine_row) ->
        if m.report = None then acc + m.lost else acc)
      0 r.per_machine
  in
  Report.row_consistent r.fleet
  && List.for_all
       (fun ((rep : Report.t), _) ->
         Report.row_consistent rep.aggregate
         && List.for_all Report.row_consistent rep.rows)
       rows
  && r.fleet.offered
     = sum (fun ((rep : Report.t), lost) -> rep.aggregate.offered + lost)
       + lost_down
  && r.fleet.completed
     = sum (fun ((rep : Report.t), _) -> rep.aggregate.completed)

(* A job's verdict: its report and render, or why it failed. *)
let check = function
  | Error e -> Error e
  | Ok (r, _) when not (consistent r) -> Error "fleet report rows are inconsistent"
  | Ok v -> Ok v

let digest renders =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun s -> string_of_int (String.length s) ^ ":" ^ s) renders)))

(* --- set-up --- *)

(* Process-wide warm-up before the first timed job: force each kind's
   PAL images and build one machine of the workload's config (filling
   the key vault), plus its vTPMs when the workload provisions them. *)
let setup w =
  List.iter
    (fun k ->
      ignore (Sys.opaque_identity (Workload.pal k));
      ignore (Sys.opaque_identity (Workload.resident_pal k));
      ignore (Sys.opaque_identity (Workload.work k)))
    Workload.kinds;
  let m = Machine.create ~engine:(Engine.create ~seed:0L ()) (machine_config w) in
  match w.vtpm with
  | None -> ()
  | Some instances -> (
      match Sea_vtpm.Vtpm.create ~tpm:(Machine.tpm_exn m) ~instances () with
      | Ok _ -> ()
      | Error e -> failwith ("setup: vTPM provisioning failed: " ^ e))

(* --- output --- *)

let json_num x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, value, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num value)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let context fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")

(* --- timed run --- *)

let run_timed w ~seed ~seconds =
  let (), setup_s = timed (fun () -> setup w) in
  let failed = Hashtbl.create 4 in
  let fail (j : job) why =
    if not (Hashtbl.mem failed j.index) then begin
      Hashtbl.replace failed j.index ();
      context "job %d failed: %s" j.index why
    end
  in
  let times = ref [] and rates = ref [] and renders = ref [] in
  let digest_reports = ref [] and first = ref None in
  let t0 = now_ns () in
  let rec loop i =
    if i < w.min_jobs || since t0 < seconds then begin
      let j = job ~seed i in
      (* Each job starts from a collected heap, so no job pays for the
         garbage of the one before it. *)
      Gc.full_major ();
      let r, dt = timed (fun () -> run_job w j) in
      times := dt :: !times;
      (match check r with
      | Error e -> fail j e
      | Ok (report, render) ->
          rates := (float_of_int report.Fleet_report.fleet.offered /. dt) :: !rates;
          if i = 0 then first := Some render;
          if i < w.min_jobs then begin
            renders := render :: !renders;
            digest_reports := report :: !digest_reports
          end);
      loop (i + 1)
    end
  in
  loop 0;
  let peak_rss = peak_rss_mb () in
  let attempted = List.length !times in
  let total = List.fold_left ( +. ) 0. !times in
  let renders = List.rev !renders in
  (* Determinism: job 0 re-run after the loop renders the same bytes,
     and so does job 0 on 2 shards. *)
  let j0 = job ~seed 0 in
  let same_as_first what r =
    match (check r, !first) with
    | Ok (_, render), Some f when render = f -> ()
    | Ok _, Some _ -> fail j0 (what ^ " rendered different bytes")
    | Ok _, None -> ()
    | Error e, _ -> fail j0 (what ^ ": " ^ e)
  in
  same_as_first "re-run of job 0" (run_job w j0);
  same_as_first "job 0 at 2 shards" (run_job ~shards:2 w j0);
  let nfailed = Hashtbl.length failed in
  let reports = List.rev !digest_reports in
  let served =
    List.fold_left (fun acc (r : Fleet_report.t) -> acc + r.fleet.completed) 0 reports
  and offered_d =
    List.fold_left (fun acc (r : Fleet_report.t) -> acc + r.fleet.offered) 0 reports
  in
  let p95 =
    match reports with
    | [] -> None
    | rs ->
        Stats.percentile_opt
          (Stats.merge (List.map (fun (r : Fleet_report.t) -> r.fleet.latency_ms) rs))
          95.
  in
  context "workload %s seed %d: %d jobs in %.3f s host, %d digest jobs" w.name
    seed attempted total (List.length renders);
  context "job host ms: %s"
    (String.concat " " (List.rev_map (fun t -> Printf.sprintf "%.1f" (1000. *. t)) !times));
  context "digest %s" (digest renders);
  context "virtual: served %.6f of %d offered, p95 %s ms (digest jobs)"
    (if offered_d = 0 then 0. else float_of_int served /. float_of_int offered_d)
    offered_d
    (match p95 with Some p -> Printf.sprintf "%.3f" p | None -> "n/a");
  context "error_frac %.6f (%d of %d jobs failed)"
    (float_of_int nfailed /. float_of_int attempted) nfailed attempted;
  print_result ~correct:(nfailed = 0) ~attempted ~failed:nfailed
    [
      ("sim_req_per_host_s", median !rates, "req/s");
      ("job_p50_ms", 1000. *. median !times, "ms");
      ("setup_s", setup_s, "s");
      ("peak_rss_mb", peak_rss, "MB");
    ]

(* --- traced run: per-layer attribution from outside --- *)

(* Work counted from trace sinks: spans the library already emits. *)
type counts = {
  offered : int;
  completed : int;
  seals : int;
  unseals : int;
  quotes : int;
  extends : int;  (** Register extends: PCR, PCR 17 via hash-end, sePCR. *)
  launches : int;  (** SKINIT + SLAUNCH + SENTER. *)
  resumes : int;  (** SLAUNCH-resume. *)
  sessions : int;  (** Full current-hardware sessions. *)
  cold : int;  (** Resident PAL first launches (slaunch-start). *)
  checkpoints : int;  (** vTPM hardware checkpoint seals. *)
  lpc_bytes : int;
  creates : int;  (** Machine constructions. *)
}

let no_counts =
  {
    offered = 0; completed = 0; seals = 0; unseals = 0; quotes = 0;
    extends = 0; launches = 0; resumes = 0; sessions = 0; cold = 0;
    checkpoints = 0; lpc_bytes = 0; creates = 0;
  }

let counts_of_sinks sinks =
  let stats = List.concat_map Trace.span_stats sinks in
  let c cat name =
    List.fold_left
      (fun acc (s : Trace.span_stat) ->
        if s.cat = cat && s.name = name then acc + s.count else acc)
      0 stats
  in
  {
    no_counts with
    seals = c "tpm" "seal";
    unseals = c "tpm" "unseal";
    quotes = c "tpm" "quote";
    extends =
      c "tpm" "pcr-extend" + c "tpm" "hash-end" + c "tpm" "sepcr-extend"
      + c "tpm" "sepcr-measure" + c "tpm" "sepcr-skill";
    launches = c "insn" "SKINIT" + c "insn" "SLAUNCH" + c "insn" "SENTER";
    resumes = c "insn" "SLAUNCH-resume";
    sessions = c "session" "execute";
    cold = c "session" "slaunch-start";
    checkpoints = c "vtpm" "checkpoint";
    lpc_bytes = List.fold_left (fun acc s -> acc + Trace.counter s "lpc.bytes") 0 sinks;
  }

(* Everything a sink saw, for the repeat check: per-span counts and
   virtual times, event totals and the counters the library emits. *)
let trace_signature sinks =
  let counter_names =
    [
      "lpc.bytes"; "serve.completed"; "serve.failed"; "serve.shed";
      "serve.breaker_transitions"; "churn.cold_restarts";
      "vtpm.anchor_flushes"; "vtpm.batch_records";
    ]
  in
  List.map
    (fun s ->
      ( Trace.events s,
        List.map
          (fun (st : Trace.span_stat) ->
            (st.cat, st.name, st.count, Time.to_ns st.total, Time.to_ns st.self))
          (Trace.span_stats s),
        List.map (Trace.counter s) counter_names ))
    sinks

let traced_counted f =
  let sink = Trace.create () in
  let r = Trace.with_sink sink f in
  (r, counts_of_sinks [ sink ])

(* Per-call host costs, ms, each with its children's costs removed, so
   that count x cost is a layer's self time. *)
type costs = {
  rsa_pub : float;
  rsa_priv : float;
  ca_sign : float;  (** The 2048-bit AIK-certificate signature. *)
  launch_hash : float;  (** SHA-1 of a PAL image, twice per launch. *)
  seal_self : float;
  unseal_self : float;
  tpm_create_self : float;
  machine_self : float;
  session_self : float;
  resume_self : float;
  cold_self : float;
  vtpm_self : float;
  vtpm_instances : int;
  event : float;
  serve_self : float;
}

let layers = [ "crypto"; "tpm"; "hw"; "core"; "vtpm"; "sim"; "serve" ]

(* Attribution rule: each layer's self time is the calls counted for it
   times its per-call self cost. A seal's RSA encrypt, an unseal's RSA
   decrypt and a quote's RSA sign are crypto, the rest of each TPM
   command is tpm; a TPM's construction is its AIK-certificate
   signature (crypto) plus the rest (tpm); a machine's construction
   minus its TPM's is hw; a launch hashes its PAL image twice (the TPM's
   measurement pass and the instruction's own digest: crypto); a core
   session, resume or cold launch minus those children is core; a vTPM
   provisioning minus its checkpoint seals is vtpm; the serve loop's
   arrival and completion events are sim; what a Server.run costs per
   arrival beyond all of those is serve. *)
(* vTPM provisionings, from their checkpoints: one per instance each. *)
let vtpm_creates (k : costs) (c : counts) =
  float_of_int c.checkpoints /. float_of_int k.vtpm_instances

let estimate (k : costs) (c : counts) =
  let f = float_of_int in
  [
    ( "crypto",
      (f c.seals *. k.rsa_pub)
      +. (f (c.unseals + c.quotes) *. k.rsa_priv)
      +. (f c.creates *. k.ca_sign)
      +. (f c.launches *. k.launch_hash) );
    ( "tpm",
      (f c.seals *. k.seal_self) +. (f c.unseals *. k.unseal_self)
      +. (f c.creates *. k.tpm_create_self) );
    ("hw", f c.creates *. k.machine_self);
    ( "core",
      (f c.sessions *. k.session_self) +. (f c.resumes *. k.resume_self)
      +. (f c.cold *. k.cold_self) );
    ("vtpm", vtpm_creates k c *. k.vtpm_self);
    ("sim", f (c.offered + c.completed) *. k.event);
    ("serve", f c.offered *. k.serve_self);
  ]

let total_of l = List.fold_left (fun acc (_, v) -> acc +. v) 0. l
let layer l name = List.assoc name l

let sum_counts a b =
  {
    offered = a.offered + b.offered; completed = a.completed + b.completed;
    seals = a.seals + b.seals; unseals = a.unseals + b.unseals;
    quotes = a.quotes + b.quotes; extends = a.extends + b.extends;
    launches = a.launches + b.launches; resumes = a.resumes + b.resumes;
    sessions = a.sessions + b.sessions; cold = a.cold + b.cold;
    checkpoints = a.checkpoints + b.checkpoints;
    lpc_bytes = a.lpc_bytes + b.lpc_bytes; creates = a.creates + b.creates;
  }

let ok_or_fail what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

(* Machine [i]'s share and engine seed, derived the way [Cluster.run]
   derives them, so a single-window replay serves what the job served. *)
let replay_plan w (j : job) =
  let ts = tenants w in
  let n = w.machines in
  let assignment = Router.assign w.policy ~machines:n ts in
  let shares = Array.make n [] in
  List.iteri (fun ti t -> shares.(assignment.(ti)) <- t :: shares.(assignment.(ti))) ts;
  let shares = Array.map List.rev shares in
  let seeds = Array.map Rng.int64 (Rng.split_n (Rng.create ~seed:j.engine_seed ()) n) in
  let serve = serve_config w j in
  let faults =
    match serve.Server.faults with
    | None -> Array.make n None
    | Some spec ->
        Array.map
          (fun s -> Some { spec with Sea_fault.Fault.seed = Rng.int s 0x3FFFFFFF })
          (Rng.split_n (Rng.create ~seed:(Int64.of_int spec.Sea_fault.Fault.seed) ()) n)
  in
  (shares, seeds, Array.map (fun f -> { serve with Server.faults = f }) faults)

(* Direct calls into each layer's public functions, on the workload's
   machine config (its proposed variant for resident-PAL calls): a name,
   how many calls one timed batch makes, and one call. *)
type micro = { mname : string; batch : int; call : unit -> unit }

let micros w (report : Fleet_report.t) =
  let cfg = machine_config w in
  let fresh_machine () = Machine.create ~engine:(Engine.create ~seed:1L ()) cfg in
  let vendor = Option.get cfg.Machine.tpm_vendor in
  let key =
    Sea_crypto.Keyvault.get
      ~label:("srk:" ^ Sea_tpm.Vendor.name vendor)
      ~bits:cfg.Machine.tpm_key_bits
  in
  let drbg = Sea_crypto.Drbg.create ~seed:"perfbench" in
  let secret = String.make Sea_crypto.Aead.key_size 'k' in
  let wrapped = Sea_crypto.Rsa.encrypt key.Sea_crypto.Rsa.pub drbg secret in
  let ca = Sea_crypto.Keyvault.get ~label:"privacy-ca" ~bits:2048 in
  let images = List.map (fun k -> (Workload.pal k).Sea_core.Pal.code) Workload.kinds in
  let m = fresh_machine () in
  let tpm = Machine.tpm_exn m in
  let payload = String.make 256 's' in
  let blob = ok_or_fail "seal" (Tpm.seal tpm ~caller:Tpm.Software ~pcr_policy:[] payload) in
  (* A full session per kind, the way the serve loop runs one request
     against the state its bootstrap session sealed. *)
  let session k =
    let tenant = "perfbench" in
    let exec input =
      (ok_or_fail "session" (Sea_core.Session.execute m ~cpu:0 (Workload.pal k) ~input))
        .Sea_core.Session.output
    in
    let state =
      ref (ok_or_fail "init" (Workload.init_state_of_output k (exec (Workload.init_input k ~tenant))))
    in
    let seq = ref 0 in
    fun () ->
      incr seq;
      let out = exec (Workload.request_input k ~tenant ~state:!state ~seq:!seq) in
      if Workload.updates_state k then state := out
  in
  let module S = Sea_core.Slaunch_session in
  let pm = Machine.create ~engine:(Engine.create ~seed:1L ()) (proposed_config w) in
  let kind = Workload.Kv_update in
  let resident = ok_or_fail "slaunch" (S.start pm ~cpu:1 (Workload.resident_pal kind) ~input:"") in
  let slice budget r = ignore (ok_or_fail "run slice" (S.run_slice r ~cpu:1 ~budget ())) in
  slice (Workload.work kind) resident;
  (* A cold launch of each kind in turn: launches hash their image, and
     the attribution charges a launch the kinds' mean image. *)
  let cold_kinds = ref Workload.kinds in
  let cold () =
    let k = List.hd !cold_kinds in
    cold_kinds := (match List.tl !cold_kinds with [] -> Workload.kinds | rest -> rest);
    let r = ok_or_fail "slaunch" (S.start pm ~cpu:0 (Workload.resident_pal k) ~input:"") in
    ignore (ok_or_fail "run slice" (S.run_slice r ~cpu:0 ~budget:(Time.us 1.) ()));
    ok_or_fail "kill" (S.kill r);
    S.release r
  in
  let vtpm_instances = Option.value w.vtpm ~default:2 in
  let samples =
    List.filter_map
      (fun (r : Fleet_report.machine_row) ->
        Option.map (fun (rep : Report.t) -> Stats.samples rep.aggregate.latency_ms) r.report)
      report.per_machine
  in
  let stats =
    List.map
      (fun xs ->
        let c = Stats.create () in
        List.iter (Stats.add c) xs;
        c)
      samples
  in
  let n_samples = List.fold_left (fun a xs -> a + List.length xs) 0 samples in
  [
    { mname = "rsa_pub"; batch = 10;
      call = (fun () -> ignore (Sea_crypto.Rsa.encrypt key.Sea_crypto.Rsa.pub drbg secret)) };
    { mname = "seal"; batch = 10;
      call = (fun () -> ignore (Tpm.seal tpm ~caller:Tpm.Software ~pcr_policy:[] payload)) };
    { mname = "rsa_priv"; batch = 10; call = (fun () -> ignore (Sea_crypto.Rsa.decrypt key wrapped)) };
    { mname = "unseal"; batch = 10;
      call = (fun () -> ignore (Tpm.unseal tpm ~caller:Tpm.Software blob)) };
    { mname = "ca_sign"; batch = 1; call = (fun () -> ignore (Sea_crypto.Rsa.sign ca "AIK-CERT")) };
    { mname = "tpm_create"; batch = 1;
      call =
        (fun () ->
          ignore
            (Tpm.create ~key_bits:cfg.Machine.tpm_key_bits
               ~sepcr_count:cfg.Machine.sepcr_count (Engine.create ()))) };
    { mname = "machine_create"; batch = 1; call = (fun () -> ignore (fresh_machine ())) };
    { mname = "sha_images"; batch = 10;
      call = (fun () -> List.iter (fun s -> ignore (Sea_crypto.Sha1.digest s)) images) };
  ]
  @ List.map
      (fun k -> { mname = "session:" ^ Workload.kind_name k; batch = 5; call = session k })
      Workload.kinds
  @ [
      { mname = "resume"; batch = 2000;
        call =
          (fun () ->
            ok_or_fail "resume" (S.resume resident ~cpu:1);
            slice (Workload.work kind) resident) };
      { mname = "cold_launch"; batch = 9; call = cold };
      { mname = "vtpm_create"; batch = 5;
        call =
          (fun () ->
            ignore (ok_or_fail "vtpm" (Sea_vtpm.Vtpm.create ~tpm ~instances:vtpm_instances ()))) };
      { mname = "event"; batch = 20_000;
        call =
          (fun () ->
            let e = Engine.create () in
            Engine.schedule e ~after:(Time.ns 1) (fun _ -> ());
            ignore (Engine.step e)) };
      { mname = "merge"; batch = max 1 (100_000 / max 1 n_samples);
        call =
          (fun () ->
            (* The render's percentile work: p50/p95/p99 of every machine
               row and of the merged fleet row. *)
            let pct s = List.iter (fun p -> ignore (Stats.percentile_opt s p)) [ 50.; 95.; 99. ] in
            List.iter (fun s -> pct (Stats.merge [ s ])) stats;
            pct (Stats.merge stats)) };
    ]

let run_traced w ~seed ~seconds =
  setup w;
  let t_start = now_ns () in
  let attempted = ref 0 and failures = ref [] in
  let fail what = failures := what :: !failures in
  let j = job ~seed 0 in
  let job_at ?trace shards =
    incr attempted;
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let r, dt = timed (fun () -> run_job ?trace ~shards w j) in
    let g1 = Gc.quick_stat () in
    let r =
      match check r with
      | Ok v -> Some v
      | Error e ->
          fail (Printf.sprintf "job 0 at %d shard(s): %s" shards e);
          None
    in
    (r, dt, g1.Gc.minor_words -. g0.Gc.minor_words,
     g1.Gc.major_collections - g0.Gc.major_collections)
  in
  let traced () =
    let sinks = List.init w.machines (fun _ -> Trace.create ()) in
    let arr = Array.of_list sinks in
    let r, dt, _, _ = job_at ~trace:(fun i -> arr.(i)) 1 in
    (* Keep only what the sinks counted: retained events would grow the
       heap every later run has to mark. *)
    (r, dt, trace_signature sinks, counts_of_sinks sinks)
  in
  (* The first untraced run is the reference every other run of job 0
     must render byte for byte, traced or not, at either shard count. *)
  let ((reference, _, _, _) as first) = job_at 1 in
  let report, render =
    match reference with
    | Some v -> v
    | None -> failwith "job 0 failed; no per-layer attribution"
  in
  let same = function
    | Some (_, r') when r' <> render -> fail "job 0 rendered different bytes across runs"
    | Some _ | None -> ()
  in
  (* Replays: each machine's construction and single-window serve of its
     share, traced once for counts and then timed untraced per round. *)
  let shares, seeds, serves = replay_plan w j in
  let cfg = machine_config w in
  let make i = Machine.create ~engine:(Engine.create ~seed:seeds.(i) ()) cfg in
  let replay_counts =
    Array.init w.machines (fun i ->
        match shares.(i) with
        | [] -> no_counts
        | share ->
            let r, counts = traced_counted (fun () -> Server.run (make i) serves.(i) share) in
            let rep = ok_or_fail "replay" r in
            { counts with offered = rep.Report.aggregate.offered;
              completed = rep.Report.aggregate.completed })
  in
  let replay_round () =
    List.init w.machines (fun i ->
        match shares.(i) with
        | [] -> (0., 0.)
        | share ->
            Gc.full_major ();
            let m, c = timed (fun () -> make i) in
            let _, s = timed (fun () -> Server.run m serves.(i) share) in
            (c, s))
  in
  let micros = micros w report in
  let micro_round () =
    List.map
      (fun mc ->
        let (), dt = timed (fun () -> for _ = 1 to mc.batch do mc.call () done) in
        dt /. float_of_int mc.batch)
      micros
  in
  (* Rounds interleave everything timed: an untraced job 0 on 1 shard
     and on 2, a traced one (1 shard) in the first two rounds, the
     replays and one pass of every direct call. Host drift therefore
     hits every number alike, and the per-call costs stay comparable
     with each other and with the job. *)
  let rec rounds i acc =
    if i >= 3 && since t_start >= seconds then List.rev acc
    else
      let u = if i = 0 then first else job_at 1 in
      let o = job_at 2 in
      let t = if i < 2 then Some (traced ()) else None in
      let rp = replay_round () in
      let mc = micro_round () in
      List.iter (fun (r, _, _, _) -> same r) [ u; o ];
      rounds (i + 1) ((u, o, t, rp, mc) :: acc)
  in
  let rounds = rounds 0 [] in
  let dt (_, d, _, _) = d in
  let t_1 = median (List.map (fun (u, _, _, _, _) -> dt u) rounds)
  and t_2 = median (List.map (fun (_, o, _, _, _) -> dt o) rounds) in
  let traced_runs = List.filter_map (fun (_, _, t, _, _) -> t) rounds in
  let counts_a, t_traced =
    match traced_runs with
    | [ (ra, ta, sa, ca); (rb, tb, sb, _) ] ->
        if sa <> sb then fail "traced job 0: counts differ between two traced runs";
        same ra;
        same rb;
        (ca, median [ ta; tb ])
    | _ -> assert false
  in
  let _, _, minor_words, majors = first in
  let sum_c =
    median (List.map (fun (_, _, _, rp, _) -> List.fold_left (fun a (c, _) -> a +. c) 0. rp) rounds)
  and s_of i = median (List.map (fun (_, _, _, rp, _) -> snd (List.nth rp i)) rounds) in
  let sum_s = List.fold_left ( +. ) 0. (List.init w.machines s_of) in
  let cost name =
    let rec idx i = function
      | [] -> invalid_arg name
      | mc :: rest -> if mc.mname = name then i else idx (i + 1) rest
    in
    let i = idx 0 micros in
    median (List.map (fun (_, _, _, _, mc) -> List.nth mc i) rounds)
  in
  let ms x = 1000. *. x in
  (* Children of the composite calls, counted once under a sink. *)
  let children name =
    let mc = List.find (fun mc -> mc.mname = name) micros in
    snd (traced_counted mc.call)
  in
  let fleet = report.Fleet_report.fleet in
  let job_counts =
    { counts_a with offered = fleet.offered; completed = fleet.completed; creates = w.machines }
  in
  let c0 = replay_counts.(0) in
  let replay_counts = Array.fold_left sum_counts no_counts replay_counts in
  let images = List.length Workload.kinds in
  let k0 =
    {
      rsa_pub = ms (cost "rsa_pub"); rsa_priv = ms (cost "rsa_priv");
      ca_sign = ms (cost "ca_sign");
      launch_hash = 2. *. ms (cost "sha_images") /. float_of_int images;
      seal_self = ms (cost "seal" -. cost "rsa_pub");
      unseal_self = ms (cost "unseal" -. cost "rsa_priv");
      tpm_create_self = ms (cost "tpm_create" -. cost "ca_sign");
      machine_self = ms (cost "machine_create" -. cost "tpm_create");
      session_self = 0.; resume_self = ms (cost "resume"); cold_self = 0.;
      vtpm_self = 0.; vtpm_instances = Option.value w.vtpm ~default:2;
      event = ms (cost "event"); serve_self = 0.;
    }
  in
  let below name k c = total_of (List.filter (fun (l, _) -> l <> name) (estimate k c)) in
  let session_names = List.map (fun k -> "session:" ^ Workload.kind_name k) Workload.kinds in
  let session = List.fold_left (fun a n -> a +. cost n) 0. session_names /. float_of_int images in
  let session_children =
    List.fold_left (fun a n -> sum_counts a (children n)) no_counts session_names
  in
  let k1 =
    {
      k0 with
      session_self = ms session -. (below "core" k0 session_children /. float_of_int images);
      cold_self = ms (cost "cold_launch") -. below "core" k0 (children "cold_launch");
      vtpm_self = ms (cost "vtpm_create") -. below "vtpm" k0 (children "vtpm_create");
    }
  in
  let s0 = s_of 0 in
  let per_arrival0 = if c0.offered = 0 then 0. else s0 /. float_of_int c0.offered in
  let k =
    {
      k1 with
      serve_self =
        (if c0.offered = 0 then 0.
         else (ms s0 -. below "serve" k1 c0) /. float_of_int c0.offered);
    }
  in
  (* The job's attribution (see [estimate]). The cluster's self time is
     the job minus construction and serving replays (cluster.overhead_ms),
     minus the merge and minus the layer work the job did beyond its
     replays (epoch restarts, migrations); what the per-call costs leave
     unexplained of construction and serving is unattributed. *)
  let merge_ms = ms (cost "merge") in
  let job_ms = ms t_1 in
  let est_job = estimate k job_counts in
  let construction =
    float_of_int w.machines *. (k.ca_sign +. k.tpm_create_self +. k.machine_self)
  in
  let overhead_ms = job_ms -. ms sum_c -. ms sum_s in
  let extra = total_of est_job -. construction -. total_of (estimate k replay_counts) in
  let shares =
    List.map
      (fun l -> (l, (layer est_job l +. if l = "sim" then merge_ms else 0.) /. job_ms))
      layers
    @ [ ("cluster", (overhead_ms -. merge_ms -. extra) /. job_ms) ]
  in
  let unattributed = 1. -. List.fold_left (fun a (_, v) -> a +. v) 0. shares in
  let per_req x = float_of_int x /. float_of_int (max 1 fleet.offered) in
  let migrations =
    (match report.churn with Some c -> c.migrations + c.cold_restarts | None -> 0)
    + match report.autoscale with
      | Some a -> a.warm_moves + a.cold_moves + a.respawns
      | None -> 0
  in
  context "workload %s seed %d: job 0 offered %d, %.3f s at 1 shard, %d rounds"
    w.name seed fleet.offered t_1 (List.length rounds);
  context "inclusive share of job: construction %.3f, serving replays %.3f, \
           cluster overhead %.3f, vTPM provisioning %.3f"
    (sum_c /. t_1) (sum_s /. t_1) (overhead_ms /. job_ms)
    (vtpm_creates k job_counts *. ms (cost "vtpm_create") /. job_ms);
  List.iter (fun f -> context "check failed: %s" f) (List.rev !failures);
  let nfailed = min (List.length !failures) !attempted in
  print_result ~correct:(nfailed = 0) ~attempted:!attempted ~failed:nfailed
    ([
       ("crypto.rsa_private_us", 1e6 *. cost "rsa_priv", "us");
       ("crypto.rsa_public_us", 1e6 *. cost "rsa_pub", "us");
       ("crypto.sha1_mb_s",
        float_of_int
          (List.fold_left (fun a k -> a + Sea_core.Pal.code_size (Workload.pal k)) 0 Workload.kinds)
        /. cost "sha_images" /. 1e6, "MB/s");
       ("tpm.seal_us", 1e6 *. cost "seal", "us");
       ("tpm.unseal_us", 1e6 *. cost "unseal", "us");
       ("tpm.seals_per_req", per_req job_counts.seals, "1/req");
       ("tpm.unseals_per_req", per_req job_counts.unseals, "1/req");
       ("tpm.extends_per_req", per_req job_counts.extends, "1/req");
       ("tpm.create_ms", ms (cost "tpm_create"), "ms");
       ("bus.lpc_kb_per_req", per_req job_counts.lpc_bytes /. 1024., "KB/req");
       ("hw.machine_create_ms", ms (cost "machine_create"), "ms");
       ("hw.launches_per_req", per_req job_counts.launches, "1/req");
       ("hw.resumes_per_req", per_req job_counts.resumes, "1/req");
       ("core.session_ms", ms session, "ms");
       ("core.resume_us", 1e6 *. cost "resume", "us");
       ("core.cold_launch_ms", ms (cost "cold_launch"), "ms");
       ("sim.event_ns", 1e9 *. cost "event", "ns");
       ("sim.merge_percentile_ms", merge_ms, "ms");
       ("serve.host_us_per_req", 1e6 *. per_arrival0, "us");
       ("cluster.overhead_ms", overhead_ms, "ms");
       ("cluster.shard_speedup", t_1 /. t_2, "x");
       ("cluster.migrations_per_job", float_of_int migrations, "1/job");
       ("vtpm.create_ms", ms (cost "vtpm_create"), "ms");
       ("vtpm.checkpoints_per_job", float_of_int job_counts.checkpoints, "1/job");
       ("fault.retries_per_req", per_req report.retries, "1/req");
       ("gc.minor_words_per_req", minor_words /. float_of_int (max 1 fleet.offered), "words/req");
       ("gc.major_collections_per_job", float_of_int majors, "1/job");
       ("trace.overhead_frac", t_traced /. t_1 -. 1., "frac");
     ]
    @ List.map (fun (l, v) -> ("share." ^ l, v, "frac")) shares
    @ [ ("share.unattributed", unattributed, "frac") ])

(* --- self-tests at smoke size --- *)

let selftest () =
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  List.iter
    (fun w ->
      let w = smoke w in
      let renders seed =
        List.init w.min_jobs (fun i ->
            match check (run_job w (job ~seed i)) with
            | Ok (_, render) -> render
            | Error e -> failwith (w.name ^ ": " ^ e))
      in
      let d1 = digest (renders 1) in
      expect (w.name ^ ": same seed, same digest") (d1 = digest (renders 1));
      expect (w.name ^ ": other seed, other digest") (d1 <> digest (renders 2)))
    workloads;
  let w = smoke (find_workload "fleet-churn") in
  let r, render = ok_or_fail "smoke job" (run_job w (job ~seed:1 0)) in
  let fails r = match check (Ok (r, render)) with Error _ -> true | Ok _ -> false in
  expect "fleet-churn: smoke job passes the row checks" (not (fails r));
  expect "fleet row off by one counts as failed"
    (fails { r with fleet = { r.fleet with offered = r.fleet.offered + 1 } });
  let tamper_first f =
    let rec go = function
      | [] -> []
      | (m : Fleet_report.machine_row) :: rest -> (
          match m.report with
          | Some rep -> { m with report = Some (f rep) } :: rest
          | None -> m :: go rest)
    in
    { r with per_machine = go r.per_machine }
  in
  expect "machine row off by one counts as failed"
    (fails
       (tamper_first (fun rep ->
            { rep with aggregate = { rep.aggregate with completed = rep.aggregate.completed + 1 } })));
  expect "tenant row off by one counts as failed"
    (fails
       (tamper_first (fun rep ->
            match rep.rows with
            | row :: rest -> { rep with rows = { row with shed = row.shed + 1 } :: rest }
            | [] -> rep)));
  expect "lost requests missing from the fleet row count as failed"
    (fails
       {
         r with
         per_machine =
           List.map
             (fun (m : Fleet_report.machine_row) -> { m with lost = m.lost + 1 })
             r.per_machine;
       });
  if !failures > 0 then exit 1

(* --- command line --- *)

let usage =
  "usage: harness (setup|calibrate|run|trace|selftest) [--workload NAME] [--seed N] \
   [--seconds S] [--smoke]"

let () =
  let rec parse acc = function
    | [] -> acc
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | flag :: value :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        parse ((String.sub flag 2 (String.length flag - 2), value) :: acc) rest
    | arg :: _ -> failwith ("unexpected argument " ^ arg)
  in
  try
    match Array.to_list Sys.argv with
    | _ :: "selftest" :: _ -> selftest ()
    | _ :: "calibrate" :: _ -> Printf.printf "{\"calibrate_s\": %s}\n" (json_num (calibrate ()))
    | _ :: cmd :: rest ->
        let opts = parse [] rest in
        let opt name = List.assoc_opt name opts in
        let w =
          find_workload (match opt "workload" with Some w -> w | None -> failwith usage)
        in
        let w = if opt "smoke" = Some "1" then smoke w else w in
        let seed = Option.fold ~none:1 ~some:int_of_string (opt "seed") in
        let seconds = Option.fold ~none:10. ~some:float_of_string (opt "seconds") in
        (match cmd with
        | "setup" ->
            let (), dt = timed (fun () -> setup w) in
            Printf.printf "{\"setup_s\": %s}\n" (json_num dt)
        | "run" -> run_timed w ~seed ~seconds
        | "trace" -> run_traced w ~seed ~seconds
        | _ -> failwith usage)
    | _ -> failwith usage
  with Failure e | Invalid_argument e ->
    prerr_endline ("harness: " ^ e);
    exit 2
