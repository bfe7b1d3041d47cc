(** Pieces of Application Logic.

    A PAL (§3.1) is a small block of security-sensitive code executed in
    isolation with the minimal TCB. In this model a PAL couples:

    - {b code bytes} — what gets loaded into protected memory and measured
      (deterministically derived from the PAL's name and version, so a
      PAL's measurement is stable across runs and machines);
    - {b application work} — a simulated compute duration, charged to the
      clock while the PAL executes;
    - {b behaviour} — an OCaml function giving the PAL's functional effect,
      run against the {!services} the execution environment hands it
      (sealed storage, randomness, measurement extension).

    The behaviour function is the "registry" that marries real measured
    bytes to executable semantics: sessions look the behaviour up from the
    PAL value they were asked to run, and verifiers check the measurement
    of exactly those bytes. *)

type services = {
  seal : string -> (string, string) result;
      (** Seal data so only this PAL (on this platform) can retrieve it.
          Bound to PCR 17/18 contents on today's hardware, to the sePCR
          measurement under the proposed hardware. *)
  unseal : string -> (string, string) result;
  get_random : int -> string;
  extend_measurement : string -> unit;
      (** Extend the PAL's measurement chain with input/output data so the
          attestation covers it (the paper's footnote 3 TOCTOU caveat is
          mitigated by measuring inputs). *)
  machine_name : string;
}

type t = private {
  name : string;
  code : string;  (** The measured bytes. *)
  measurement : string;
      (** SHA-1 of [code], computed once when the PAL is built. *)
  compute_time : Sea_sim.Time.t;
      (** Application-specific work, {e excluded} from the paper's overhead
          figures but needed for scheduling experiments. *)
  behavior : services -> string -> (string, string) result;
}
(** Private, so [measurement] always matches [code]: build PALs with
    {!create} or {!of_code}. *)

val create :
  name:string ->
  ?code_size:int ->
  ?version:int ->
  ?compute_time:Sea_sim.Time.t ->
  ?code:string ->
  (services -> string -> (string, string) result) ->
  t
(** [create ~name behavior] builds a PAL whose code is [code_size] bytes
    (default 4 KB; up to 64 KB for SKINIT compatibility) derived
    deterministically from [name] and [version]. Bumping [version] models
    shipping different code: the measurement changes.

    With [~code], the image is [code] zero-padded to [code_size] bytes
    instead, and no filler is generated; [version] is then unused. Raises
    [Invalid_argument] if [code] is longer than [code_size]. *)

val of_code :
  name:string ->
  code:string ->
  ?compute_time:Sea_sim.Time.t ->
  (services -> string -> (string, string) result) ->
  t
(** A PAL whose measured bytes are exactly [code] — used when the code
    is a real program image (see [Sea_palvm]) rather than synthetic
    filler. Size limits as in {!create}. *)

val preflight :
  ?analyze:Sea_analysis.Analyzer.gate ->
  ?on_report:(Sea_analysis.Report.t -> unit) ->
  t ->
  (unit, string) result
(** Run the PAL bytecode static analyzer over the measured bytes,
    {e before} launch. Under [~analyze:Enforce] an image whose report
    has error findings is refused (the returned [Error] summarizes the
    first one) without ever being measured; under [WarnOnly] the report
    is handed to [on_report] and the launch proceeds; under [Off] (the
    default) nothing runs. Only meaningful for PALs whose code is real
    PALVM bytecode ({!of_code} / [Sea_palvm]); the synthetic filler
    {!create} generates will not decode.

    Analysis results are cached process-wide, content-addressed by the
    PAL's {!measurement}: launching the same image a thousand times
    under [WarnOnly]/[Enforce] costs one analysis. *)

val certificate : t -> Sea_analysis.Certificate.t
(** The static cost certificate for the measured bytes, through the
    same content-addressed cache as {!preflight}. *)

val analysis_runs : unit -> int
(** Process-wide count of actual analyzer invocations (cache misses) —
    lets tests assert each distinct image is analyzed exactly once. *)

val measurement : t -> string
(** SHA-1 of the code — what lands in PCR 17 / the sePCR. Reads the
    digest {!create} or {!of_code} computed; it does not hash. *)

val pages_needed : t -> int
(** Data pages required to hold the code (excluding the SECB page). *)

val code_size : t -> int
