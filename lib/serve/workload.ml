open Sea_sim
open Sea_core

type kind = Ssh_auth | Ca_sign | Kv_update

let kinds = [ Ssh_auth; Ca_sign; Kv_update ]

let kind_name = function
  | Ssh_auth -> "ssh-auth"
  | Ca_sign -> "ca-sign"
  | Kv_update -> "kv-update"

let kind_index = function Ssh_auth -> 0 | Ca_sign -> 1 | Kv_update -> 2

(* Each kind's measured bytes are a real PALVM program, which its app's
   [Pal.create ~code] zero-pads to the app's image size (padding decodes
   as Halt and is unreachable, so the analyzer's view is the program
   alone). The behavior stays the OCaml closure — serving never
   interprets these bytes — but the preflight gate and the cost
   certificates see decodable, provably-bounded images whose static
   costs are ordered the way the serving costs are: ssh (echo-class) <
   ca (one Seal) < kv (Unseal + checksum loop + re-Seal at the full
   64 KB). Padding to the apps' sizes keeps measurement hashing time,
   and therefore every serving report, byte-identical to the synthetic
   images. *)

let bytecode k =
  let open Sea_isa in
  match k with
  | Ssh_auth ->
      (* Read the credential blob and echo a verdict-sized slice. *)
      Isa.encode_program
        Isa.
          [
            Loadi (0, 1024); Loadi (1, 512); Svc Isa.svc_input_read;
            Mov (1, 0); Loadi (0, 1024); Svc Isa.svc_output; Halt;
          ]
  | Ca_sign ->
      (* Read the CSR, seal the issued certificate, emit the blob. *)
      Isa.encode_program
        Isa.
          [
            Loadi (0, 1024); Loadi (1, 1024); Svc Isa.svc_input_read;
            Mov (1, 0); Loadi (0, 1024); Loadi (2, 8192); Svc Isa.svc_seal;
            Mov (1, 0); Loadi (0, 8192); Svc Isa.svc_output; Halt;
          ]
  | Kv_update ->
      (* The loop-heavy image: checksum the update record byte by byte,
         unseal the store, re-seal, emit the new blob. The loop has a
         provable trip bound (counter r1 steps by 1 to the byte count
         in r2, itself at most 2048), so the certificate stays finite
         while pricing the heaviest TPM traffic in the mix. *)
      Isa.encode_program
        Isa.
          [
            (* 0  *) Loadi (0, 4096); Loadi (1, 2048); Svc Isa.svc_input_read;
            (* 24 *) Mov (2, 0); Loadi (1, 0); Loadi (3, 0);
            (* 48 *) Eq (4, 1, 2); Jnz (4, 104);
            (* 64 *) Ldb (5, 1, 4096); Xor (3, 3, 5); Loadi (6, 1);
            (* 88 *) Add (1, 1, 6); Jmp 48;
            (* 104: blob at 4096 (r2 bytes) -> plaintext at 8192 *)
            Loadi (0, 4096); Mov (1, 2); Loadi (2, 8192); Svc Isa.svc_unseal;
            (* 136: plaintext (r0 bytes) -> new blob at 16384 *)
            Mov (1, 0); Loadi (0, 8192); Loadi (2, 16384); Svc Isa.svc_seal;
            (* 168 *) Mov (1, 0); Loadi (0, 16384); Svc Isa.svc_output; Halt;
          ]

(* One shared Pal.t per kind: every invocation of a kind must carry the
   same measurement, or sealed state created by one request would refuse
   to unseal in the next. *)
let ssh_pal = lazy (Sea_apps.Ssh_password.pal ~code:(bytecode Ssh_auth) ())
let ca_pal = lazy (Sea_apps.Cert_authority.pal ~code:(bytecode Ca_sign) ())

let kv_pal =
  (* The paper's resealing PAL Use at the full 64 KB SKINIT allows — the
     distributed-computing pattern, and the heaviest launch in the mix. *)
  lazy
    (Generic.pal_use ~reseal:true ~compute_time:(Time.ms 5.)
       ~code:(bytecode Kv_update) ())

let pal = function
  | Ssh_auth -> Lazy.force ssh_pal
  | Ca_sign -> Lazy.force ca_pal
  | Kv_update -> Lazy.force kv_pal

let work k = (pal k).Pal.compute_time

let password tenant = "pw-" ^ tenant

let init_input k ~tenant =
  match k with
  | Ssh_auth -> Sea_apps.Codec.command "setup" [ tenant; password tenant ]
  | Ca_sign -> Sea_apps.Codec.command "init" []
  | Kv_update -> "" (* the Gen entry point of the shared Gen/Use binary *)

let init_state_of_output k output =
  match k with
  | Ssh_auth | Kv_update -> Ok output
  | Ca_sign -> (
      match Sea_apps.Codec.parse_command output with
      | Some ("init-ok", [ _public; blob ]) -> Ok blob
      | _ -> Error "unexpected CA init output")

let request_input k ~tenant ~state ~seq =
  match k with
  | Ssh_auth -> Sea_apps.Codec.command "auth" [ state; tenant; password tenant ]
  | Ca_sign ->
      Sea_apps.Codec.command "sign"
        [ state; Printf.sprintf "CN=%s/%d" tenant seq ]
  | Kv_update -> state

let updates_state = function Kv_update -> true | Ssh_auth | Ca_sign -> false

(* The resident flavour of a kind for the proposed hardware: the same
   measured bytes (so attestation and sealed-state binding are unchanged)
   but open-ended work, letting the serving layer feed it one request's
   worth of compute per SLAUNCH/SYIELD cycle and keep it suspended in
   access-controlled memory between requests. *)
let resident_of k =
  let p = pal k in
  Pal.of_code ~name:(p.Pal.name ^ "-resident") ~code:p.Pal.code
    ~compute_time:(Time.s 1_000_000.) (fun _ _ -> Ok "resident")

(* One shared resident per kind, so a cold launch or a migration reuses
   its kind's measurement. *)
let residents = List.map (fun k -> (k, lazy (resident_of k))) kinds
let resident_pal k = Lazy.force (List.assoc k residents)

(* Static admission cost of one request of this kind, from the image's
   cost certificate (through the content-addressed cache, so the first
   call per kind analyzes and the rest look up). *)
let static_cost k =
  Sea_analysis.Certificate.admission_cost (Pal.certificate (pal k))

type process =
  | Open_loop of { rate_per_s : float }
  | Closed_loop of { clients : int; think : Time.t }

type shape =
  | Steady
  | Diurnal of { period : Time.t; trough : float }
  | Flash of { at : Time.t; width : Time.t; spike : float }

let validate_shape = function
  | Steady -> ()
  | Diurnal { period; trough } ->
      if Time.compare period Time.zero <= 0 then
        invalid_arg "Workload: diurnal period must be positive";
      if trough <= 0. || trough > 1. then
        invalid_arg "Workload: diurnal trough must be in (0, 1]"
  | Flash { at; width; spike } ->
      if Time.compare at Time.zero < 0 then
        invalid_arg "Workload: flash start must be non-negative";
      if Time.compare width Time.zero <= 0 then
        invalid_arg "Workload: flash width must be positive";
      if spike <= 0. then invalid_arg "Workload: flash spike must be positive"

let shape_multiplier shape now =
  match shape with
  | Steady -> 1.
  | Diurnal { period; trough } ->
      (* Trough at t = 0 (midnight), peak 1.0 at half-period (midday):
         the classic diurnal curve of a consumer service, sampled at
         whatever instants the cluster's epoch cuts land on. *)
      let phase = Time.to_s now /. Time.to_s period in
      trough +. ((1. -. trough) *. (1. -. cos (2. *. Float.pi *. phase)) /. 2.)
  | Flash { at; width; spike } ->
      (* A step function, so an epoch cut at [at] and [at + width]
         reproduces the crowd exactly rather than smearing it. *)
      if Time.compare now at >= 0 && Time.compare now (Time.add at width) < 0
      then spike
      else 1.

let shape_instants shape =
  match shape with
  | Steady | Diurnal _ -> []
  | Flash { at; width; _ } -> [ at; Time.add at width ]

type tenant = {
  name : string;
  weight : int;
  mix : (kind * int) list;
  process : process;
  deadline : Time.t option;
  shape : shape;
}

let tenant ?(weight = 1) ?(mix = [ (Ssh_auth, 1) ]) ?deadline ?(shape = Steady)
    ~name process =
  if weight <= 0 then invalid_arg "Workload.tenant: weight must be positive";
  if mix = [] then invalid_arg "Workload.tenant: empty request mix";
  List.iter
    (fun (_, w) ->
      if w <= 0 then invalid_arg "Workload.tenant: mix weights must be positive")
    mix;
  validate_shape shape;
  (match process with
  | Open_loop { rate_per_s } ->
      if rate_per_s <= 0. then
        invalid_arg "Workload.tenant: rate must be positive"
  | Closed_loop { clients; _ } ->
      if clients <= 0 then
        invalid_arg "Workload.tenant: clients must be positive");
  { name; weight; mix; process; deadline; shape }

let at_time now t =
  match (t.shape, t.process) with
  | Steady, _ | _, Closed_loop _ -> t
  | shape, Open_loop { rate_per_s } ->
      let m = shape_multiplier shape now in
      if m = 1. then t
      else { t with process = Open_loop { rate_per_s = rate_per_s *. m } }

let draw_kind rng t =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 t.mix in
  let x = Rng.int rng total in
  let rec pick acc = function
    | [] -> fst (List.hd t.mix)
    | (k, w) :: rest -> if x < acc + w then k else pick (acc + w) rest
  in
  pick 0 t.mix

let preset ?deadline ?(shape = Steady) ?(popularity = `Even) ~tenants process =
  if tenants <= 0 then invalid_arg "Workload.preset: tenants must be positive";
  (* Heavy-tailed popularity: tenant [i]'s share of the total arrival
     rate is Zipfian, 1/(i+1)^alpha normalized over the population — a
     handful of head tenants carry most of the traffic, the long tail
     trickles. Even split is the historical behavior. *)
  let rate_of =
    match popularity with
    (* The even split must stay the historical [total /. n] expression
       exactly: the rate seeds Poisson inter-arrival draws, and a
       last-ulp difference would shift every report byte. *)
    | `Even -> fun _ total -> total /. float_of_int tenants
    | `Zipf alpha ->
        if alpha <= 0. then
          invalid_arg "Workload.preset: zipf alpha must be positive";
        let mass i = 1. /. Float.pow (float_of_int (i + 1)) alpha in
        let total_mass = ref 0. in
        for i = 0 to tenants - 1 do
          total_mass := !total_mass +. mass i
        done;
        let total_mass = !total_mass in
        fun i total -> total *. (mass i /. total_mass)
  in
  List.init tenants (fun i ->
      let k = List.nth kinds (i mod List.length kinds) in
      let process =
        match process with
        | `Open total_rate -> Open_loop { rate_per_s = rate_of i total_rate }
        | `Closed (clients, think) -> Closed_loop { clients; think }
      in
      tenant
        ~name:(Printf.sprintf "t%d-%s" i (kind_name k))
        ~weight:(1 + (i mod 3))
        ~mix:[ (k, 1) ]
        ?deadline ~shape process)
