(** Sample accumulators for benchmark results.

    Collects individual observations (e.g. one simulated latency per trial)
    and reports summary statistics. Used by the benchmark harness to report
    the same mean/stdev columns as the paper's tables.

    Samples are kept unboxed in a [Float.Array.t] in insertion order, one
    word each. The buffer starts at 16 slots on the first {!add} and
    doubles when full, so past 16 samples an accumulator filled by {!add}
    holds under two words per sample; one built by {!merge} holds exactly
    one. The running sum, sum of squares, minimum and maximum are updated
    as each sample arrives, and updating them allocates nothing. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one observation. *)

val add_time : t -> Time.t -> unit
(** Record one observation expressed as a simulated duration; stored in
    milliseconds, the unit used throughout the paper's tables. *)

val count : t -> int
val mean : t -> float
val stdev : t -> float
(** Sample standard deviation (n-1 denominator); [0.] for fewer than two
    observations. *)

val min : t -> float
val max : t -> float
(** Smallest / largest recorded observation. Like {!percentile}, both
    raise [Invalid_argument] on an empty accumulator — returning the
    [infinity] / [neg_infinity] identity elements would leak [inf] into
    reports and bench JSON. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0,100\]], by nearest-rank on the sorted
    samples. The sorted view is a copy of the samples (one more word per
    sample), sorted in place in [Float.compare] order by a quicksort
    specialised to unboxed floats. It is cached and invalidated by {!add},
    so querying several percentiles between additions sorts once. Raises
    [Invalid_argument] if the accumulator is empty. *)

val percentile_opt : t -> float -> float option
(** Like {!percentile}, but [None] on an empty accumulator — for callers
    that must render an ["n/a"] (a crashed machine's empty completion
    window) rather than treat emptiness as a bug. *)

val samples : t -> float list
(** All recorded observations, in insertion order. Builds a fresh list,
    three words per sample plus a box for each float, so keep it off hot
    paths. *)

val merge : t list -> t
(** [merge ts] is a fresh accumulator holding every observation of every
    [ts] element, appended in list order (each element's own insertion
    order preserved). It copies the samples into a buffer of exactly their
    total count and feeds them, in that order, through the same arithmetic
    as {!add}, so its {!mean}, {!stdev}, {!min} and {!max} are bit-identical
    to adding the samples one by one. The inputs are not consumed and
    share no storage with the result: adding to either later leaves the
    other unchanged. Percentiles of the
    merge are computed over the union of samples, so merging per-machine
    accumulators gives exact cross-machine tail latencies — and, the
    order being fixed by the list, a byte-identical render no matter how
    the inputs were produced. *)

val pp_summary : Format.formatter -> t -> unit
(** Renders ["mean ± stdev (n=count)"]. *)

val pp_percentiles : Format.formatter -> t -> unit
(** Renders ["p50/p95/p99 a/b/c"] (nearest-rank tail percentiles), or
    ["p50/p95/p99 -/-/-"] for an empty accumulator. *)
