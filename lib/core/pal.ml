open Sea_crypto

type services = {
  seal : string -> (string, string) result;
  unseal : string -> (string, string) result;
  get_random : int -> string;
  extend_measurement : string -> unit;
  machine_name : string;
}

type t = {
  name : string;
  code : string;
  measurement : string;
  compute_time : Sea_sim.Time.t;
  behavior : services -> string -> (string, string) result;
}

let make ~name ~code ~compute_time behavior =
  { name; code; measurement = Sha1.digest code; compute_time; behavior }

let synth_code ~name ~version ~size =
  (* Deterministic pseudo-code: a header naming the PAL, then DRBG filler.
     Distinct names or versions give distinct measurements. *)
  let header = Printf.sprintf "PAL:%s:v%d\n" name version in
  if size < String.length header then
    invalid_arg "Pal.create: code_size smaller than the PAL header";
  let drbg = Drbg.create ~seed:("pal-code:" ^ header) in
  header ^ Drbg.generate_string drbg (size - String.length header)

let create ~name ?(code_size = 4096) ?(version = 1) ?(compute_time = Sea_sim.Time.zero)
    ?code behavior =
  if code_size <= 0 || code_size > 64 * 1024 then
    invalid_arg "Pal.create: code size must be in (0, 64 KB]";
  let code =
    match code with
    | None -> synth_code ~name ~version ~size:code_size
    | Some c when String.length c > code_size ->
        invalid_arg "Pal.create: code longer than code_size"
    | Some c -> c ^ String.make (code_size - String.length c) '\000'
  in
  make ~name ~code ~compute_time behavior

let of_code ~name ~code ?(compute_time = Sea_sim.Time.zero) behavior =
  if String.length code = 0 || String.length code > 64 * 1024 then
    invalid_arg "Pal.of_code: code size must be in (0, 64 KB]";
  make ~name ~code ~compute_time behavior

let measurement t = t.measurement

(* Content-addressed analysis cache, keyed on the measurement digest:
   the analyzer (under its default policy) is a pure function of the
   measured bytes, so one process never analyzes the same image twice —
   what makes the preflight gate affordable on the serving hot path,
   where the same few images launch thousands of times. *)
let analysis_cache = Sea_analysis.Certificate.create_cache ()

let analyzed t =
  Sea_analysis.Certificate.cache_find_or analysis_cache ~digest:(measurement t)
    (fun () -> Sea_analysis.Analyzer.certify t.code)

let certificate t = snd (analyzed t)

let analysis_runs () =
  Sea_analysis.Certificate.cache_runs analysis_cache

(* Pre-launch static analysis. Shared by both launch paths (today's
   Session and the proposed Slaunch_session), and run strictly before
   pages are allocated or the TPM touched: an image that [Enforce]
   rejects is never measured. *)
let preflight ?(analyze = Sea_analysis.Analyzer.Off) ?on_report t =
  match analyze with
  | Sea_analysis.Analyzer.Off -> Ok ()
  | Sea_analysis.Analyzer.WarnOnly | Sea_analysis.Analyzer.Enforce -> (
      let report, _ = analyzed t in
      (match on_report with Some f -> f report | None -> ());
      match (analyze, Sea_analysis.Report.errors report) with
      | Sea_analysis.Analyzer.Enforce, f :: _ ->
          Error
            (Printf.sprintf "static analysis rejected PAL %S (%s): %s" t.name
               (Sea_analysis.Report.verdict report)
               (Sea_analysis.Finding.to_string f))
      | _ -> Ok ())
let code_size t = String.length t.code

let pages_needed t =
  (String.length t.code + Sea_hw.Memory.page_size - 1) / Sea_hw.Memory.page_size
