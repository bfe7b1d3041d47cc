type public = { n : Bignum.t; e : Bignum.t }
type private_key = {
  pub : public;
  d : Bignum.t;
  p : Bignum.t;
  q : Bignum.t;
  dp : Bignum.t;
  dq : Bignum.t;
  qinv : Bignum.t;
}

let make_private ~n ~e ~d ~p ~q =
  let open Bignum in
  if compare p one <= 0 || compare q one <= 0 || not (equal (mul p q) n) then None
  else
    Option.map
      (fun qinv ->
        { pub = { n; e }; d; p; q; dp = rem d (sub p one); dq = rem d (sub q one); qinv })
      (mod_inverse q ~m:p)

let small_primes =
  [
    2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67; 71;
    73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149; 151;
    157; 163; 167; 173; 179; 181; 191; 193; 197; 199; 211; 223; 227; 229; 233;
    239; 241; 251;
  ]

let is_probable_prime n ~rounds drbg =
  let open Bignum in
  if compare n two < 0 then false
  else if List.exists (fun p -> equal n (of_int p)) small_primes then true
  else if
    List.exists (fun p -> is_zero (rem n (of_int p))) small_primes
  then false
  else if compare n (of_int (251 * 251)) < 0 then
    (* No factor among the tested primes and below 251²: certainly prime. *)
    true
  else begin
    begin
      (* n - 1 = d * 2^s with d odd *)
      let n1 = sub n one in
      let rec split d s = if test_bit d 0 then (d, s) else split (shift_right d 1) (s + 1) in
      let d, s = split n1 0 in
      let nbits = bit_length n in
      let random_base () =
        (* Uniform a in [2, n-2]: rejection sample below n, retry on edges. *)
        let rec go () =
          let a = of_random_bits (fun k -> Drbg.generate drbg k) nbits in
          if compare a two < 0 || compare a (sub n two) > 0 then go () else a
        in
        go ()
      in
      let witness a =
        let x = ref (mod_pow ~base:a ~exp:d ~m:n) in
        if equal !x one || equal !x n1 then false
        else begin
          let composite = ref true in
          (try
             for _ = 1 to s - 1 do
               x := mod_mul !x !x ~m:n;
               if equal !x n1 then begin
                 composite := false;
                 raise Exit
               end
             done
           with Exit -> ());
          !composite
        end
      in
      let rec rounds_left k = if k = 0 then true else if witness (random_base ()) then false else rounds_left (k - 1) in
      rounds_left rounds
    end
  end

let random_prime ~bits drbg =
  let open Bignum in
  let rec go () =
    let cand = of_random_bits (fun k -> Drbg.generate drbg k) bits in
    (* Force the top bit (exact bit length) and the low bit (odd). *)
    let cand = shift_left (shift_right cand 1) 1 in
    let cand = add cand one in
    let cand =
      if test_bit cand (bits - 1) then cand
      else add cand (shift_left one (bits - 1))
    in
    if is_probable_prime cand ~rounds:12 drbg then cand else go ()
  in
  go ()

let generate ~bits drbg =
  if bits < 32 then invalid_arg "Rsa.generate: modulus too small";
  let open Bignum in
  let e_big = of_int 65537 in
  let half = bits / 2 in
  let rec go () =
    let p = random_prime ~bits:half drbg in
    let q = random_prime ~bits:(bits - half) drbg in
    if equal p q then go ()
    else begin
      let n = mul p q in
      if bit_length n <> bits then go ()
      else begin
        let phi = mul (sub p one) (sub q one) in
        match
          Option.bind (mod_inverse e_big ~m:phi) (fun d -> make_private ~n ~e:e_big ~d ~p ~q)
        with
        | None -> go ()
        | Some key -> key
      end
    end
  in
  go ()

let key_bytes pub = (Bignum.bit_length pub.n + 7) / 8
let max_plaintext pub = key_bytes pub - 11

(* PKCS#1 v1.5 DigestInfo prefix for SHA-1 (RFC 8017 §9.2 notes). *)
let sha1_digest_info =
  "\x30\x21\x30\x09\x06\x05\x2b\x0e\x03\x02\x1a\x05\x00\x04\x14"

let emsa_pkcs1_v15 ~em_len digest =
  let t = sha1_digest_info ^ digest in
  let t_len = String.length t in
  if em_len < t_len + 11 then invalid_arg "Rsa: key too small for signature";
  let ps = String.make (em_len - t_len - 3) '\xff' in
  "\x00\x01" ^ ps ^ "\x00" ^ t

(* c^d mod n by the CRT: two half-size exponentiations, recombined by
   Garner's formula. *)
let private_op key c =
  let open Bignum in
  let m1 = mod_pow ~base:c ~exp:key.dp ~m:key.p in
  let m2 = mod_pow ~base:c ~exp:key.dq ~m:key.q in
  let h = mod_mul key.qinv (mod_sub m1 m2 ~m:key.p) ~m:key.p in
  add m2 (mul h key.q)

let sign key msg =
  let em_len = key_bytes key.pub in
  let em = emsa_pkcs1_v15 ~em_len (Sha1.digest msg) in
  Bignum.to_bytes_be ~pad_to:em_len (private_op key (Bignum.of_bytes_be em))

let verify pub ~msg ~signature =
  let em_len = key_bytes pub in
  if String.length signature <> em_len then false
  else begin
    let s = Bignum.of_bytes_be signature in
    if Bignum.compare s pub.n >= 0 then false
    else begin
      let m = Bignum.mod_pow ~base:s ~exp:pub.e ~m:pub.n in
      let em = Bignum.to_bytes_be ~pad_to:em_len m in
      let expected = emsa_pkcs1_v15 ~em_len (Sha1.digest msg) in
      Hmac.equal_constant_time em expected
    end
  end

let encrypt pub drbg plaintext =
  let k = key_bytes pub in
  let m_len = String.length plaintext in
  if m_len > k - 11 then invalid_arg "Rsa.encrypt: plaintext too long";
  (* Type-2 padding: 00 02 <nonzero random> 00 <plaintext>. PS is one
     DRBG draw; each zero byte in it is redrawn a byte at a time. *)
  let ps_len = k - m_len - 3 in
  let ps = Drbg.generate drbg ps_len in
  for i = 0 to ps_len - 1 do
    while Bytes.get ps i = '\000' do
      Bytes.set ps i (Bytes.get (Drbg.generate drbg 1) 0)
    done
  done;
  let em = "\x00\x02" ^ Bytes.to_string ps ^ "\x00" ^ plaintext in
  let m = Bignum.of_bytes_be em in
  let c = Bignum.mod_pow ~base:m ~exp:pub.e ~m:pub.n in
  Bignum.to_bytes_be ~pad_to:k c

let decrypt key ciphertext =
  let k = key_bytes key.pub in
  if String.length ciphertext <> k then None
  else begin
    let c = Bignum.of_bytes_be ciphertext in
    if Bignum.compare c key.pub.n >= 0 then None
    else begin
      let em = Bignum.to_bytes_be ~pad_to:k (private_op key c) in
      if String.length em < 11 || em.[0] <> '\000' || em.[1] <> '\002' then None
      else begin
        (* Find the 00 separator after at least 8 padding bytes. *)
        let rec find i =
          if i >= String.length em then None
          else if em.[i] = '\000' then if i >= 10 then Some i else None
          else find (i + 1)
        in
        match find 2 with
        | None -> None
        | Some sep -> Some (String.sub em (sep + 1) (String.length em - sep - 1))
      end
    end
  end
