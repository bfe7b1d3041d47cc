let cache : (string * int, Rsa.private_key) Hashtbl.t = Hashtbl.create 7

(* The cache is process-wide while machines may be created or keys
   fetched from several domains (fleet simulations); a lock keeps the
   table consistent. Key material itself stays deterministic: a given
   (label, bits) always rebuilds the identical key, so whichever domain
   populates an entry first, every reader sees the same key. *)
let lock = Mutex.create ()

(* Rebuild a key from its stored prime pair (e is always 65537). *)
let of_primes p_hex q_hex =
  let open Bignum in
  let p = of_hex p_hex and q = of_hex q_hex in
  let n = mul p q in
  let e = of_int 65537 in
  let phi = mul (sub p one) (sub q one) in
  match Option.bind (mod_inverse e ~m:phi) (fun d -> Rsa.make_private ~n ~e ~d ~p ~q) with
  | Some key -> key
  | None -> invalid_arg "Keyvault: embedded primes do not admit e = 65537"

let embedded ~label ~bits =
  List.find_map
    (fun (l, b, (p, q)) -> if l = label && b = bits then Some (of_primes p q) else None)
    Embedded_keys.table

let get ~label ~bits =
  let cached =
    Mutex.protect lock (fun () -> Hashtbl.find_opt cache (label, bits))
  in
  match cached with
  | Some key -> key
  | None ->
      (* Generation happens outside the lock (it can be slow for large
         keys); a concurrent generator of the same label derives the
         identical key, so a double-add is harmless and the first entry
         wins. *)
      let key =
        match embedded ~label ~bits with
        | Some key -> key
        | None ->
            let drbg =
              Drbg.create ~seed:(Printf.sprintf "sea-keyvault:%s:%d" label bits)
            in
            Rsa.generate ~bits drbg
      in
      Mutex.protect lock (fun () ->
          match Hashtbl.find_opt cache (label, bits) with
          | Some key -> key
          | None ->
              Hashtbl.add cache (label, bits) key;
              key)

let clear () = Mutex.protect lock (fun () -> Hashtbl.reset cache)
