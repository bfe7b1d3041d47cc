open Sea_isa

type gate = Off | WarnOnly | Enforce

type policy = {
  fuel : int;
  mem_size : int;
  allowed_services : int list option;
  require_bounded : bool;
}

let default_policy =
  {
    fuel = Isa.default_fuel;
    mem_size = Isa.default_mem_size;
    allowed_services = None;
    require_bounded = false;
  }

let gate_to_string = function
  | Off -> "off"
  | WarnOnly -> "warn-only"
  | Enforce -> "enforce"

let all_services =
  [
    Isa.svc_input_len; Isa.svc_input_read; Isa.svc_output; Isa.svc_seal;
    Isa.svc_unseal; Isa.svc_random; Isa.svc_extend; Isa.svc_sha256;
  ]

let span_str (lo, hi) = Printf.sprintf "[%d,%d)" lo hi

(* --- structural rules: every reachable node and edge --- *)

let structure_findings (cfg : Cfg.t) =
  let fs = ref [] in
  let add ~rule ~severity ~offset msg =
    fs := Finding.make ~rule ~severity ~offset msg :: !fs
  in
  List.iter
    (fun pc ->
      let n = Cfg.node cfg pc in
      if n.Cfg.off_image then ()
      else begin
        (match n.Cfg.decoded with
        | Error e when n.Cfg.truncated ->
            add ~rule:"decode/truncated" ~severity:Finding.Error ~offset:pc
              (Printf.sprintf
                 "reachable instruction at %d is %s — the measured image ends \
                  mid-instruction"
                 pc e)
        | Error e ->
            add ~rule:"decode/invalid" ~severity:Finding.Error ~offset:pc
              (Printf.sprintf "reachable bytes do not decode: %s" e)
        | Ok _ -> ());
        if pc mod Isa.insn_size <> 0 then
          add ~rule:"cfg/off-grid" ~severity:Finding.Error ~offset:pc
            (Printf.sprintf
               "execution reaches offset %d, off the %d-byte instruction grid \
                — measured bytes are reinterpreted"
               pc Isa.insn_size);
        match n.Cfg.decoded with
        | Error _ -> ()
        | Ok op ->
            let flag_target t =
              if t >= cfg.Cfg.image_size then
                add ~rule:"cfg/jump-out-of-image" ~severity:Finding.Error
                  ~offset:pc
                  (Printf.sprintf
                     "jump target %d is outside the %d-byte measured image" t
                     cfg.Cfg.image_size)
              else if t mod Isa.insn_size <> 0 then
                add ~rule:"cfg/jump-off-grid" ~severity:Finding.Error ~offset:pc
                  (Printf.sprintf
                     "jump target %d is off the %d-byte instruction grid" t
                     Isa.insn_size)
            in
            (match op with
            | Isa.Jmp t | Isa.Jz (_, t) | Isa.Jnz (_, t) -> flag_target t
            | _ -> ());
            (* Fall-through past the image lands in zero-filled memory,
               which decodes as Halt — legal, but worth flagging. *)
            let falls_off =
              List.exists
                (fun s -> s = pc + Isa.insn_size && s >= cfg.Cfg.image_size)
                n.Cfg.succs
            in
            if falls_off then
              add ~rule:"cfg/fall-through-off-image" ~severity:Finding.Warn
                ~offset:pc
                "execution falls off the measured image into zero-initialized \
                 memory (implicit halt) — end the program with an explicit halt"
      end)
    cfg.Cfg.order;
  !fs

(* --- value-dependent rules: stores, services, taint --- *)

let dataflow_findings (cfg : Cfg.t) ~policy states =
  let fs = ref [] in
  let add ~rule ~severity ~offset msg =
    fs := Finding.make ~rule ~severity ~offset msg :: !fs
  in
  let mem_size = policy.mem_size in
  let check_store pc (st : Dataflow.state) ~base ~imm ~width ~what =
    let addr = Interval.add_const st.Dataflow.regs.(base) imm in
    let range =
      Dataflow.write_range ~mem_size ~ptr:addr ~len:(Interval.const width)
    in
    (match range with
    | Some (lo, hi) when Cfg.overlaps_code cfg ~lo ~hi ->
        add ~rule:"selfmod/store-overwrites-code" ~severity:Finding.Error
          ~offset:pc
          (Printf.sprintf
             "%s may write %s over measured code — the program can diverge \
              from its attested bytes"
             what
             (span_str (lo, hi)))
    | _ -> ());
    if addr.Interval.lo + width > mem_size then
      add ~rule:"mem/store-out-of-bounds" ~severity:Finding.Warn ~offset:pc
        (Printf.sprintf "%s always faults: address %s is past the %d-byte memory"
           what
           (Interval.to_string addr)
           mem_size)
  in
  let service_write_check pc ~rule ~what range =
    match range with
    | Some (lo, hi) when Cfg.overlaps_code cfg ~lo ~hi ->
        add ~rule ~severity:Finding.Error ~offset:pc
          (Printf.sprintf "%s may write %s over measured code" what
             (span_str (lo, hi)))
    | _ -> ()
  in
  List.iter
    (fun pc ->
      match (Cfg.node cfg pc).Cfg.decoded with
      | Error _ -> ()
      | Ok op -> (
          match Hashtbl.find_opt states pc with
          | None -> () (* unreachable through decodable paths *)
          | Some st -> (
              let reg i = st.Dataflow.regs.(i) in
              match op with
              | Isa.Stb (_, b, imm) ->
                  check_store pc st ~base:b ~imm ~width:1 ~what:"stb"
              | Isa.Stw (_, b, imm) ->
                  check_store pc st ~base:b ~imm ~width:4 ~what:"stw"
              | Isa.Svc n when not (List.mem n all_services) ->
                  add ~rule:"svc/unknown" ~severity:Finding.Error ~offset:pc
                    (Printf.sprintf
                       "service %d does not exist — the VM faults here" n)
              | Isa.Svc n
                when match policy.allowed_services with
                     | Some allowed -> not (List.mem n allowed)
                     | None -> false ->
                  add ~rule:"policy/service-forbidden" ~severity:Finding.Error
                    ~offset:pc
                    (Printf.sprintf
                       "service %d is outside this PAL's service whitelist" n)
              | Isa.Svc n when n = Isa.svc_input_read -> (
                  match
                    Dataflow.write_range ~mem_size ~ptr:(reg 0) ~len:(reg 1)
                  with
                  | Some (lo, hi) when Cfg.overlaps_code cfg ~lo ~hi ->
                      if st.Dataflow.input_measured then
                        add ~rule:"toctou/input-overwrites-code-mitigated"
                          ~severity:Finding.Warn ~offset:pc
                          (Printf.sprintf
                             "INPUT_READ may write %s over measured code, but \
                              the input was extended into the measurement \
                              chain first — a verifier sees the malicious \
                              input (mitigated TOCTOU)"
                             (span_str (lo, hi)))
                      else
                        add ~rule:"toctou/input-overwrites-code"
                          ~severity:Finding.Error ~offset:pc
                          (Printf.sprintf
                             "INPUT_READ may write %s over measured code: a \
                              crafted input rewrites the PAL after it was \
                              measured, and the load-time attestation cannot \
                              tell (footnote 3 TOCTOU)"
                             (span_str (lo, hi)))
                  | _ -> ())
              | Isa.Svc n when n = Isa.svc_output -> (
                  match
                    Dataflow.write_range ~mem_size ~ptr:(reg 0) ~len:(reg 1)
                  with
                  | None -> ()
                  | Some (lo, hi) ->
                      let secrets =
                        Dataflow.regions_overlapping st ~lo ~hi
                        |> List.filter (fun r ->
                               r.Dataflow.taint <> Dataflow.Input)
                      in
                      List.iter
                        (fun (r : Dataflow.region) ->
                          match r.Dataflow.taint with
                          | Dataflow.Secret_unseal ->
                              add ~rule:"taint/unsealed-secret-to-output"
                                ~severity:Finding.Error ~offset:pc
                                (Printf.sprintf
                                   "OUTPUT range %s may contain UNSEAL \
                                    payload bytes %s — sealed secrets leave \
                                    the PAL unencrypted (no intervening SEAL)"
                                   (span_str (lo, hi))
                                   (span_str (r.Dataflow.lo, r.Dataflow.hi)))
                          | Dataflow.Secret_random ->
                              add ~rule:"taint/random-to-output"
                                ~severity:Finding.Warn ~offset:pc
                                (Printf.sprintf
                                   "OUTPUT range %s may contain RANDOM bytes \
                                    %s — key material generated inside the \
                                    PAL leaves it unsealed"
                                   (span_str (lo, hi))
                                   (span_str (r.Dataflow.lo, r.Dataflow.hi)))
                          | Dataflow.Input -> ())
                        secrets)
              | Isa.Svc n when n = Isa.svc_random ->
                  service_write_check pc ~rule:"selfmod/service-writes-code"
                    ~what:"RANDOM"
                    (Dataflow.write_range ~mem_size ~ptr:(reg 0) ~len:(reg 1))
              | Isa.Svc n when n = Isa.svc_unseal || n = Isa.svc_seal ->
                  service_write_check pc ~rule:"selfmod/service-writes-code"
                    ~what:(if n = Isa.svc_seal then "SEAL" else "UNSEAL")
                    (Dataflow.write_range ~mem_size ~ptr:(reg 2) ~len:(reg 1))
              | Isa.Svc n when n = Isa.svc_sha256 ->
                  service_write_check pc ~rule:"selfmod/service-writes-code"
                    ~what:"SHA256"
                    (Dataflow.write_range ~mem_size ~ptr:(reg 2)
                       ~len:(Interval.const 32))
              | _ -> ())))
    cfg.Cfg.order;
  !fs

(* --- resource bounds --- *)

(* The numbers here come from {!Cost} — the same table the certificate
   prices and the VM charges — so fuel findings and certificates can
   never disagree. *)
let bounds_findings (cfg : Cfg.t) ~policy (cost : Cost.t) =
  let wcet = cost.Cost.wcet_steps in
  (* [info] states that the worst case fits the fuel, so it stands only
     when it does; otherwise the error takes its place. *)
  let within_fuel info =
    if wcet > policy.fuel then
      [
        Finding.make ~rule:"bounds/fuel-exceeded" ~severity:Finding.Error
          ~offset:0
          (Printf.sprintf
             "worst case is %d steps, over the %d-step fuel: the PAL cannot \
              finish"
             wcet policy.fuel);
      ]
    else [ info ]
  in
  match cfg.Cfg.back_edges with
  | [] ->
      within_fuel
        (Finding.make ~rule:"bounds/straight-line" ~severity:Finding.Info
           ~offset:0
           (Printf.sprintf "loop-free: worst case %d steps <= fuel %d" wcet
              policy.fuel))
  | (src, _) :: _ as edges ->
      if cost.Cost.loops_bounded then
        within_fuel
          (Finding.make ~rule:"bounds/loop-bound" ~severity:Finding.Info
             ~offset:src
             (Printf.sprintf
                "%d loop back-edge%s, every trip count provable (%s): worst \
                 case %d steps <= fuel %d"
                (List.length edges)
                (if List.length edges = 1 then "" else "s")
                (String.concat ", "
                   (List.map
                      (fun (l : Loop_bounds.loop) ->
                        Printf.sprintf "head %d <=%d trips" l.Loop_bounds.head
                          l.Loop_bounds.trips)
                      cost.Cost.loops))
                wcet policy.fuel))
      else
        let severity =
          if policy.require_bounded then Finding.Error else Finding.Info
        in
        [
          Finding.make ~rule:"bounds/back-edge" ~severity ~offset:src
            (Printf.sprintf
               "%d loop back-edge%s without a provable trip count: worst case \
                bounded only by the %d-step fuel%s"
               (List.length edges)
               (if List.length edges = 1 then "" else "s")
               policy.fuel
               (if policy.require_bounded then
                  " (policy requires provably bounded PALs)"
                else ""));
        ]

let degenerate_certificate ~policy ~image_size report =
  Certificate.make ~image_size ~report
    {
      Cost.wcet_steps = policy.fuel;
      loops_bounded = false;
      loops = [];
      svc = [];
    }

let certify ?(policy = default_policy) code =
  let image_size = String.length code in
  if image_size = 0 then
    let report =
      Report.make ~image_size:0 ~reachable_insns:0 ~loops:0
        [
          Finding.make ~rule:"image/empty" ~severity:Finding.Error ~offset:0
            "empty image: nothing to measure or run";
        ]
    in
    (report, degenerate_certificate ~policy ~image_size report)
  else if image_size > policy.mem_size then
    let report =
      Report.make ~image_size ~reachable_insns:0 ~loops:0
        [
          Finding.make ~rule:"image/too-large" ~severity:Finding.Error ~offset:0
            (Printf.sprintf "image is %d bytes; the VM memory holds %d"
               image_size policy.mem_size);
        ]
    in
    (report, degenerate_certificate ~policy ~image_size report)
  else begin
    let cfg = Cfg.build ~mem_size:policy.mem_size code in
    let states = Dataflow.run cfg ~mem_size:policy.mem_size in
    let cost = Cost.analyze cfg states ~fuel:policy.fuel ~mem_size:policy.mem_size in
    let findings =
      structure_findings cfg
      @ dataflow_findings cfg ~policy states
      @ bounds_findings cfg ~policy cost
    in
    let report =
      Report.make ~image_size ~reachable_insns:(Cfg.reachable_insns cfg)
        ~loops:(List.length cfg.Cfg.back_edges)
        findings
    in
    (report, Certificate.make ~image_size ~report cost)
  end

let analyze ?policy code = fst (certify ?policy code)

let check ?policy ~gate code =
  match gate with
  | Off -> Ok ()
  | WarnOnly | Enforce -> (
      let report = analyze ?policy code in
      match (gate, Report.errors report) with
      | Enforce, f :: _ ->
          Error
            (Printf.sprintf "static analysis rejected the PAL (%s): %s"
               (Report.verdict report) (Finding.to_string f))
      | _ -> Ok ())
