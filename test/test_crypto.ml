(* Tests for the from-scratch crypto substrate: SHA-1/SHA-256 against
   published vectors, HMAC vectors, bignum ring laws (qcheck), RSA
   roundtrips and negative cases, DRBG determinism, AEAD tamper
   resistance, and Wire codec totality. *)

open Sea_crypto

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* --- SHA-1: RFC 3174 / FIPS vectors --- *)

let test_sha1_vectors () =
  checks "empty" "da39a3ee5e6b4b0d3255bfef95601890afd80709" (Sha1.hex "");
  checks "abc" "a9993e364706816aba3e25717850c26c9cd0d89d" (Sha1.hex "abc");
  checks "two-block"
    "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    (Sha1.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  checks "million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Sha1.hex (String.make 1_000_000 'a'))

let test_sha1_streaming_equivalence () =
  let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  (* Feed in awkward chunk sizes across block boundaries. *)
  List.iter
    (fun chunk ->
      let ctx = Sha1.init () in
      let rec go off =
        if off < String.length msg then begin
          let len = min chunk (String.length msg - off) in
          Sha1.update ctx (String.sub msg off len);
          go (off + len)
        end
      in
      go 0;
      checks
        (Printf.sprintf "chunk=%d" chunk)
        (Sha1.digest msg) (Sha1.finalize ctx))
    [ 1; 3; 63; 64; 65; 127; 1000 ]

(* Known answers from Python's hashlib at lengths that straddle the
   padding boundary (55/56 bytes leave no room for the length) and the
   block boundary (63/64/65, 119/120). *)
let kat_message n = String.init n (fun i -> Char.chr (((i * 31) + 7) land 0xff))

let kat_digests =
  [
    (0, "da39a3ee5e6b4b0d3255bfef95601890afd80709",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    (1, "5d1be7e9dda1ee8896be5b7e34a85ee16452a7b4",
     "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879");
    (55, "749bbefb28edc4638b28b2b9a9e03ab9a4032b90",
     "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b");
    (56, "a5b6e9c29d201c774753ff8e7fb64931656f5e63",
     "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63");
    (57, "eb0737bed5451790722b2df351829ce117e3d9dd",
     "5b46e502092be01b1100193e089fdda95638c12e19a1d24f308eb2c3d3ae849d");
    (63, "d1a454409359fc372b4d22b3cea6488d6ba1be00",
     "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076");
    (64, "39a0d8b645ad85f1f976731ed112ac9455e28b78",
     "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd");
    (65, "d0c96e18890114a14716e9686528d2e3fdba8d9e",
     "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0");
    (119, "562ecf8a430f8e1056e3619bae33628e9a1d0a4e",
     "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe");
    (120, "353f6d2bf0e91aa91b74a2e0b3f297510f7d825f",
     "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656");
    (1000, "414475341017ec91703435a6f290324818f983e9",
     "5097e7d587352f5097062ae679f37bda5802d9f875aba14c8cb4d1a188ada179");
  ]

let test_sha1_length_padding_edges () =
  List.iter
    (fun (n, sha1, _) -> checks (Printf.sprintf "len %d" n) sha1 (Sha1.hex (kat_message n)))
    kat_digests

(* --- SHA-256: FIPS 180-4 vectors --- *)

let test_sha256_vectors () =
  checks "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  checks "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  checks "two-block"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  checks "million a" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_sha256_length_padding_edges () =
  List.iter
    (fun (n, _, sha256) ->
      checks (Printf.sprintf "len %d" n) sha256 (Sha256.hex (kat_message n)))
    kat_digests

(* --- Reference hash kernels ---

   The block functions the library used before its kernels read words in
   place: each block is copied into a buffer and read a byte at a time,
   and every SHA-1 round selects its function and constant. The library's
   kernels must give the same digests. *)

let mask32 = 0xFFFFFFFF
let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32
let rotr32 x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

let load_words w block =
  for i = 0 to 15 do
    let j = 4 * i in
    w.(i) <-
      (Char.code (Bytes.get block j) lsl 24)
      lor (Char.code (Bytes.get block (j + 1)) lsl 16)
      lor (Char.code (Bytes.get block (j + 2)) lsl 8)
      lor Char.code (Bytes.get block (j + 3))
  done

let ref_sha1_block h block =
  let w = Array.make 80 0 in
  load_words w block;
  for i = 16 to 79 do
    w.(i) <- rotl32 (w.(i - 3) lxor w.(i - 8) lxor w.(i - 14) lxor w.(i - 16)) 1
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) and e = ref h.(4) in
  for i = 0 to 79 do
    let f, k =
      if i < 20 then ((!b land !c) lor (lnot !b land !d) land mask32, 0x5A827999)
      else if i < 40 then (!b lxor !c lxor !d, 0x6ED9EBA1)
      else if i < 60 then ((!b land !c) lor (!b land !d) lor (!c land !d), 0x8F1BBCDC)
      else (!b lxor !c lxor !d, 0xCA62C1D6)
    in
    let tmp = (rotl32 !a 5 + (f land mask32) + !e + k + w.(i)) land mask32 in
    e := !d;
    d := !c;
    c := rotl32 !b 30;
    b := !a;
    a := tmp
  done;
  List.iteri (fun i v -> h.(i) <- (h.(i) + v) land mask32) [ !a; !b; !c; !d; !e ]

let sha256_k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let ref_sha256_block h block =
  let w = Array.make 64 0 in
  load_words w block;
  for i = 16 to 63 do
    let s0 = rotr32 w.(i - 15) 7 lxor rotr32 w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
    let s1 = rotr32 w.(i - 2) 17 lxor rotr32 w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask32
  done;
  let a = ref h.(0)
  and b = ref h.(1)
  and c = ref h.(2)
  and d = ref h.(3)
  and e = ref h.(4)
  and f = ref h.(5)
  and g = ref h.(6)
  and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr32 !e 6 lxor rotr32 !e 11 lxor rotr32 !e 25 in
    let ch = (!e land !f) lxor (lnot !e land !g) land mask32 in
    let t1 = (!hh + s1 + ch + sha256_k.(i) + w.(i)) land mask32 in
    let s0 = rotr32 !a 2 lxor rotr32 !a 13 lxor rotr32 !a 22 in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    let t2 = (s0 + maj) land mask32 in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + t2) land mask32
  done;
  List.iteri (fun i v -> h.(i) <- (h.(i) + v) land mask32) [ !a; !b; !c; !d; !e; !f; !g; !hh ]

(* Pad the whole message (0x80, zeros, 64-bit big-endian bit length) and
   run [block] over each 64-byte block, copied out as the old kernels
   did. *)
let ref_digest ~iv ~block msg =
  let len = String.length msg in
  let padded = ((len + 9 + 63) / 64) * 64 in
  let m = Bytes.make padded '\000' in
  Bytes.blit_string msg 0 m 0 len;
  Bytes.set m len '\x80';
  for i = 0 to 7 do
    Bytes.set m (padded - 1 - i) (Char.chr (((len * 8) lsr (8 * i)) land 0xff))
  done;
  let h = Array.copy iv and blk = Bytes.create 64 in
  for b = 0 to (padded / 64) - 1 do
    Bytes.blit m (64 * b) blk 0 64;
    block h blk
  done;
  String.init (4 * Array.length h) (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff))

let ref_sha1 =
  ref_digest ~iv:[| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |]
    ~block:ref_sha1_block

let ref_sha256 =
  ref_digest
    ~iv:
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
        0x1f83d9ab; 0x5be0cd19;
      |]
    ~block:ref_sha256_block

let random_message st n = String.init n (fun _ -> Char.chr (Random.State.int st 256))

let check_kernels name msg =
  checks (name ^ " sha1") (ref_sha1 msg) (Sha1.digest msg);
  checks (name ^ " sha256") (ref_sha256 msg) (Sha256.digest msg)

let test_kernels_short_messages () =
  let st = Random.State.make [| 18 |] in
  for n = 0 to 300 do
    check_kernels (Printf.sprintf "len %d" n) (random_message st n)
  done

let test_kernels_64k_messages () =
  let st = Random.State.make [| 64 |] in
  List.iter
    (fun n -> check_kernels (Printf.sprintf "len %d" n) (random_message st n))
    [ 65535; 65536; 65537 ]

(* A message of up to 600 bytes fed to the streaming interface in random
   pieces, empty ones included. *)
let arb_split =
  QCheck.make
    ~print:(fun (msg, cuts) ->
      Printf.sprintf "len %d, pieces %s" (String.length msg)
        (String.concat "," (List.map string_of_int cuts)))
    QCheck.Gen.(
      pair (string_size ~gen:char (int_bound 600)) (list_size (int_bound 12) (int_bound 130)))

let stream ~init ~update ~finalize msg cuts =
  let ctx = init () in
  let rec go off = function
    | _ when off >= String.length msg -> ()
    | [] -> update ctx (String.sub msg off (String.length msg - off))
    | n :: rest ->
        let n = min n (String.length msg - off) in
        update ctx (String.sub msg off n);
        go (off + n) rest
  in
  go 0 cuts;
  finalize ctx

let prop_streaming_matches_reference =
  QCheck.Test.make ~name:"random streaming splits match the reference kernels" ~count:300
    arb_split (fun (msg, cuts) ->
      stream ~init:Sha1.init ~update:Sha1.update ~finalize:Sha1.finalize msg cuts
      = ref_sha1 msg
      && stream ~init:Sha256.init ~update:Sha256.update ~finalize:Sha256.finalize msg cuts
         = ref_sha256 msg)

(* --- HMAC: RFC 2202 / RFC 4231 vectors --- *)

let hex_of s =
  let buf = Buffer.create (String.length s * 2) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let test_hmac_sha1_vectors () =
  checks "rfc2202 case 1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (hex_of (Hmac.sha1 ~key:(String.make 20 '\x0b') "Hi There"));
  checks "rfc2202 case 2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (hex_of (Hmac.sha1 ~key:"Jefe" "what do ya want for nothing?"))

let test_hmac_sha256_vector () =
  checks "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex_of (Hmac.sha256 ~key:(String.make 20 '\x0b') "Hi There"))

let test_hmac_long_key () =
  (* Keys longer than the block size must be hashed first. *)
  let k = String.make 131 '\xaa' in
  checks "rfc4231 case 6 (sha256)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex_of
       (Hmac.sha256 ~key:k "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_constant_time_equal () =
  checkb "equal" true (Hmac.equal_constant_time "abc" "abc");
  checkb "different" false (Hmac.equal_constant_time "abc" "abd");
  checkb "length mismatch" false (Hmac.equal_constant_time "abc" "abcd");
  checkb "empty" true (Hmac.equal_constant_time "" "")

(* --- Bignum: unit tests --- *)

let bn = Alcotest.testable Bignum.pp Bignum.equal

let test_bignum_of_to_int () =
  check bn "zero" Bignum.zero (Bignum.of_int 0);
  checkb "to_int roundtrip" true
    (Bignum.to_int_opt (Bignum.of_int 123456789) = Some 123456789);
  checkb "to_int max_int" true (Bignum.to_int_opt (Bignum.of_int max_int) = Some max_int);
  checkb "to_int overflow" true
    (Bignum.to_int_opt (Bignum.mul (Bignum.of_int max_int) (Bignum.of_int 2)) = None);
  Alcotest.check_raises "negative" (Invalid_argument "Bignum.of_int: negative")
    (fun () -> ignore (Bignum.of_int (-1)))

let test_bignum_hex_roundtrip () =
  let cases = [ "0"; "1"; "ff"; "deadbeef"; "123456789abcdef0123456789abcdef" ] in
  List.iter
    (fun h ->
      checks ("hex " ^ h) h (Bignum.to_hex (Bignum.of_hex h)))
    cases;
  check bn "leading zeros" (Bignum.of_hex "ff") (Bignum.of_hex "00ff")

let test_bignum_bytes_roundtrip () =
  let v = Bignum.of_hex "0102030405060708090a" in
  checks "to_bytes" "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a" (Bignum.to_bytes_be v);
  check bn "of_bytes" v (Bignum.of_bytes_be (Bignum.to_bytes_be v));
  checks "padded" "\x00\x00\x01" (Bignum.to_bytes_be ~pad_to:3 Bignum.one);
  Alcotest.check_raises "pad too small"
    (Invalid_argument "Bignum.to_bytes_be: value exceeds pad_to") (fun () ->
      ignore (Bignum.to_bytes_be ~pad_to:1 (Bignum.of_hex "ffff")))

let test_bignum_sub_negative () =
  Alcotest.check_raises "negative result"
    (Invalid_argument "Bignum.sub: negative result") (fun () ->
      ignore (Bignum.sub Bignum.one Bignum.two))

let test_bignum_division_cases () =
  let a = Bignum.of_hex "ffffffffffffffffffffffffffffffffff" in
  let q, r = Bignum.divmod a (Bignum.of_int 1) in
  check bn "div by 1" a q;
  check bn "rem by 1" Bignum.zero r;
  let q, r = Bignum.divmod Bignum.one a in
  check bn "small / large" Bignum.zero q;
  check bn "small mod large" Bignum.one r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bignum.divmod a Bignum.zero))

let test_bignum_shifts () =
  let v = Bignum.of_hex "1234" in
  check bn "shl 0" v (Bignum.shift_left v 0);
  check bn "shl 4" (Bignum.of_hex "12340") (Bignum.shift_left v 4);
  check bn "shr 4" (Bignum.of_hex "123") (Bignum.shift_right v 4);
  check bn "shr beyond" Bignum.zero (Bignum.shift_right v 100);
  check bn "shl across limbs"
    (Bignum.of_hex "48d000000000000000")
    (Bignum.shift_left v 58)

let test_bignum_bit_ops () =
  Alcotest.(check int) "bitlen 0" 0 (Bignum.bit_length Bignum.zero);
  Alcotest.(check int) "bitlen 1" 1 (Bignum.bit_length Bignum.one);
  Alcotest.(check int) "bitlen 0x100" 9 (Bignum.bit_length (Bignum.of_hex "100"));
  checkb "testbit" true (Bignum.test_bit (Bignum.of_int 5) 0);
  checkb "testbit clear" false (Bignum.test_bit (Bignum.of_int 5) 1);
  checkb "testbit high" true (Bignum.test_bit (Bignum.of_int 5) 2)

let test_bignum_modpow_known () =
  let m = Bignum.of_int 1000000007 in
  (* Fermat: 2^(p-1) = 1 mod p for prime p (odd -> Montgomery path). *)
  check bn "fermat"
    Bignum.one
    (Bignum.mod_pow ~base:Bignum.two ~exp:(Bignum.sub m Bignum.one) ~m);
  (* Even modulus exercises the non-Montgomery path. *)
  check bn "even modulus"
    (Bignum.of_int 6)
    (Bignum.mod_pow ~base:(Bignum.of_int 6) ~exp:Bignum.one ~m:(Bignum.of_int 10));
  check bn "exp zero" Bignum.one
    (Bignum.mod_pow ~base:(Bignum.of_int 12345) ~exp:Bignum.zero ~m);
  check bn "mod one" Bignum.zero
    (Bignum.mod_pow ~base:Bignum.two ~exp:Bignum.two ~m:Bignum.one)

let test_bignum_mod_inverse () =
  (match Bignum.mod_inverse (Bignum.of_int 3) ~m:(Bignum.of_int 7) with
  | Some i -> check bn "3^-1 mod 7" (Bignum.of_int 5) i
  | None -> Alcotest.fail "inverse should exist");
  checkb "no inverse when gcd > 1" true
    (Bignum.mod_inverse (Bignum.of_int 4) ~m:(Bignum.of_int 8) = None);
  checkb "mod 1" true (Bignum.mod_inverse Bignum.two ~m:Bignum.one = None)

let test_bignum_gcd () =
  check bn "gcd(12,18)" (Bignum.of_int 6)
    (Bignum.gcd (Bignum.of_int 12) (Bignum.of_int 18));
  check bn "gcd with zero" (Bignum.of_int 5) (Bignum.gcd (Bignum.of_int 5) Bignum.zero)

(* --- Bignum: qcheck ring laws --- *)

let gen_bignum =
  (* Random naturals up to ~256 bits, built from hex strings. *)
  QCheck.Gen.(
    map
      (fun digits ->
        let s = String.concat "" (List.map (Printf.sprintf "%x") digits) in
        Bignum.of_hex (if s = "" then "0" else s))
      (list_size (int_range 1 64) (int_bound 15)))

let arb_bignum = QCheck.make ~print:Bignum.to_hex gen_bignum

let prop_add_comm =
  QCheck.Test.make ~name:"bignum add commutes" ~count:300
    (QCheck.pair arb_bignum arb_bignum) (fun (a, b) ->
      Bignum.equal (Bignum.add a b) (Bignum.add b a))

let prop_add_assoc =
  QCheck.Test.make ~name:"bignum add associates" ~count:300
    (QCheck.triple arb_bignum arb_bignum arb_bignum) (fun (a, b, c) ->
      Bignum.equal
        (Bignum.add (Bignum.add a b) c)
        (Bignum.add a (Bignum.add b c)))

let prop_mul_comm =
  QCheck.Test.make ~name:"bignum mul commutes" ~count:200
    (QCheck.pair arb_bignum arb_bignum) (fun (a, b) ->
      Bignum.equal (Bignum.mul a b) (Bignum.mul b a))

let prop_distributive =
  QCheck.Test.make ~name:"bignum mul distributes over add" ~count:200
    (QCheck.triple arb_bignum arb_bignum arb_bignum) (fun (a, b, c) ->
      Bignum.equal
        (Bignum.mul a (Bignum.add b c))
        (Bignum.add (Bignum.mul a b) (Bignum.mul a c)))

let prop_divmod_identity =
  QCheck.Test.make ~name:"a = (a/b)*b + a mod b, with a mod b < b" ~count:300
    (QCheck.pair arb_bignum arb_bignum) (fun (a, b) ->
      QCheck.assume (not (Bignum.is_zero b));
      let q, r = Bignum.divmod a b in
      Bignum.equal a (Bignum.add (Bignum.mul q b) r) && Bignum.compare r b < 0)

let prop_sub_add_roundtrip =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:300
    (QCheck.pair arb_bignum arb_bignum) (fun (a, b) ->
      Bignum.equal a (Bignum.sub (Bignum.add a b) b))

let prop_shift_mul =
  QCheck.Test.make ~name:"a << k = a * 2^k" ~count:200
    (QCheck.pair arb_bignum (QCheck.int_bound 100)) (fun (a, k) ->
      Bignum.equal (Bignum.shift_left a k)
        (Bignum.mul a (Bignum.mod_pow ~base:Bignum.two ~exp:(Bignum.of_int k)
                         ~m:(Bignum.shift_left Bignum.one 200))))

let prop_modpow_matches_naive =
  QCheck.Test.make ~name:"Montgomery mod_pow matches naive square-multiply"
    ~count:100
    (QCheck.triple (QCheck.int_range 2 10_000) (QCheck.int_range 0 50)
       (QCheck.int_range 3 10_000))
    (fun (base, e, m) ->
      let m = if m mod 2 = 0 then m + 1 else m in
      let naive =
        let rec go acc k = if k = 0 then acc else go (acc * base mod m) (k - 1) in
        go 1 e
      in
      let fast =
        Bignum.mod_pow ~base:(Bignum.of_int base) ~exp:(Bignum.of_int e)
          ~m:(Bignum.of_int m)
      in
      Bignum.to_int_opt fast = Some naive)

let prop_mod_inverse_correct =
  QCheck.Test.make ~name:"mod_inverse: a * a^-1 = 1 (mod m)" ~count:200
    (QCheck.pair (QCheck.int_range 1 100_000) (QCheck.int_range 3 100_000))
    (fun (a, m) ->
      let a = Bignum.of_int a and m = Bignum.of_int m in
      match Bignum.mod_inverse a ~m with
      | None -> not (Bignum.equal (Bignum.gcd a m) Bignum.one)
      | Some inv -> Bignum.equal (Bignum.mod_mul a inv ~m) (Bignum.rem Bignum.one m))

(* --- Bignum: word-level algorithms against bit-level references --- *)

(* The bit-serial long division Bignum used before algorithm D, kept as
   the reference the word-level division is checked against. *)
let divmod_bitwise a b =
  if Bignum.compare a b < 0 then (Bignum.zero, a)
  else begin
    let shift = Bignum.bit_length a - Bignum.bit_length b in
    let q = ref Bignum.zero and r = ref a in
    let d = ref (Bignum.shift_left b shift) in
    for i = shift downto 0 do
      if Bignum.compare !r !d >= 0 then begin
        r := Bignum.sub !r !d;
        q := Bignum.add !q (Bignum.shift_left Bignum.one i)
      end;
      d := Bignum.shift_right !d 1
    done;
    (!q, !r)
  end

let of_limbs limbs =
  List.fold_left
    (fun acc l -> Bignum.add (Bignum.shift_left acc 31) (Bignum.of_int l))
    Bignum.zero limbs

(* Limbs, most significant first, biased to the values that exercise
   algorithm D's estimate and carries: 0, 1, 2^30 and 2^31 - 1. The top
   limb of a divisor is never 0, so its limb count is exact. *)
let gen_limbs ~nonzero_top n =
  QCheck.Gen.(
    let limb =
      frequency
        [ (1, return 0); (1, return 1); (1, return (1 lsl 30)); (1, return ((1 lsl 31) - 1));
          (2, int_bound ((1 lsl 31) - 1)) ]
    in
    list_repeat n limb >|= fun ls ->
    match ls with
    | 0 :: rest when nonzero_top -> 1 :: rest
    | ls -> ls)

let arb_division =
  QCheck.make
    ~print:(fun (a, b) -> Bignum.to_hex a ^ " / " ^ Bignum.to_hex b)
    QCheck.Gen.(
      oneof [ return 1; return 2; int_range 3 6 ] >>= fun nb ->
      int_range 1 12 >>= fun na ->
      pair (gen_limbs ~nonzero_top:false na >|= of_limbs)
        (gen_limbs ~nonzero_top:true nb >|= of_limbs))

let prop_divmod_matches_bitwise =
  QCheck.Test.make ~name:"divmod matches the bit-serial reference" ~count:1000 arb_division
    (fun (a, b) ->
      let q, r = Bignum.divmod a b and q', r' = divmod_bitwise a b in
      Bignum.equal q q' && Bignum.equal r r')

let test_divmod_add_back () =
  (* Algorithm D's first estimate of the low quotient limb is 2^30, one
     too large, so this division takes the add-back step. *)
  let a = Bignum.of_hex "7fffffff00000000000000080000000"
  and b = Bignum.of_hex "1fffffffc00000007fffffff" in
  let q, r = Bignum.divmod a b in
  check bn "quotient" (Bignum.of_hex "3fffffff") q;
  check bn "remainder" (Bignum.of_hex "1fffffffa00000013fffffff") r;
  let q', r' = divmod_bitwise a b in
  check bn "reference quotient" q' q;
  check bn "reference remainder" r' r

(* Shift-and-add decoders and bit-at-a-time encoders. *)
let of_digits_ref ~width digit s =
  String.fold_left
    (fun acc c -> Bignum.add (Bignum.shift_left acc width) (Bignum.of_int (digit c)))
    Bignum.zero s

let digit_ref a ~width i =
  let v = ref 0 in
  for j = width - 1 downto 0 do
    v := (!v lsl 1) lor if Bignum.test_bit a ((i * width) + j) then 1 else 0
  done;
  !v

let hex_digit c = int_of_string ("0x" ^ String.make 1 c)

(* Lengths on both sides of the 31-bit limb boundaries at 31, 62, 93 and
   124 bits, in bytes and in hex digits. *)
let byte_lengths = [ 0; 1; 3; 4; 7; 8; 11; 12; 15; 16; 64; 65 ]
let hex_lengths = [ 1; 7; 8; 15; 16; 23; 24; 31; 32; 128; 129 ]

let prop_bytes_match_reference =
  QCheck.Test.make ~name:"bytes roundtrip against shift-and-add" ~count:300
    QCheck.(make ~print:(fun s -> Printf.sprintf "%S" s)
              Gen.(oneofl byte_lengths >>= fun n -> string_size ~gen:char (return n)))
    (fun s ->
      let v = Bignum.of_bytes_be s in
      let len = String.length s in
      let nbytes = max 1 ((Bignum.bit_length v + 7) / 8) in
      let expected = String.init nbytes (fun i -> Char.chr (digit_ref v ~width:8 (nbytes - 1 - i))) in
      Bignum.equal v (of_digits_ref ~width:8 Char.code s)
      && Bignum.to_bytes_be v = expected
      && (len = 0 || Bignum.to_bytes_be ~pad_to:len v = s)
      && Bignum.to_bytes_be ~pad_to:(len + 5) v = String.make (len + 5 - nbytes) '\000' ^ expected)

let prop_hex_matches_reference =
  QCheck.Test.make ~name:"hex roundtrip against shift-and-add" ~count:300
    QCheck.(make ~print:Fun.id
              Gen.(oneofl hex_lengths >>= fun n ->
                   string_size ~gen:(oneofl (List.init 16 (fun d -> "0123456789abcdef".[d]))) (return n)))
    (fun h ->
      let v = Bignum.of_hex h in
      let n = max 1 ((Bignum.bit_length v + 3) / 4) in
      let expected = String.init n (fun i -> "0123456789abcdef".[digit_ref v ~width:4 (n - 1 - i)]) in
      Bignum.equal v (of_digits_ref ~width:4 hex_digit h)
      && Bignum.to_hex v = expected
      && Bignum.equal (Bignum.of_hex (String.uppercase_ascii h)) v)

(* Square-and-multiply with mod_mul: the reference for the windowed
   Montgomery exponentiation. *)
let mod_pow_ref ~base ~exp ~m =
  let acc = ref (Bignum.rem Bignum.one m) and b = ref (Bignum.rem base m) in
  for i = 0 to Bignum.bit_length exp - 1 do
    if Bignum.test_bit exp i then acc := Bignum.mod_mul !acc !b ~m;
    b := Bignum.mod_mul !b !b ~m
  done;
  !acc

let arb_mod_pow =
  let value_of_bytes n = QCheck.Gen.(string_size ~gen:char (return n) >|= Bignum.of_bytes_be) in
  QCheck.make
    ~print:(fun (b, e, m) ->
      Printf.sprintf "base %s exp %s m %s" (Bignum.to_hex b) (Bignum.to_hex e) (Bignum.to_hex m))
    QCheck.Gen.(
      int_range 1 70 >>= fun mlen ->
      (* Exponent bit lengths that are not multiples of the 4-bit window. *)
      oneofl [ 1; 2; 3; 5; 17; 31; 62; 127; 257 ] >>= fun ebits ->
      triple (value_of_bytes (mlen + 2))
        (value_of_bytes ((ebits + 7) / 8) >|= fun e ->
         Bignum.add (Bignum.rem e (Bignum.shift_left Bignum.one (ebits - 1)))
           (Bignum.shift_left Bignum.one (ebits - 1)))
        (frequency
           [ (3, value_of_bytes mlen >|= fun m ->
                 Bignum.add (Bignum.shift_left (Bignum.shift_right m 1) 1) Bignum.one);
             (* Just below a limb boundary, where a Montgomery product can
                carry past the top limb before its final subtraction. *)
             (1, int_bound 1000 >|= fun r ->
                 let top = Bignum.shift_left Bignum.one (31 * ((mlen + 3) / 4)) in
                 Bignum.sub top (Bignum.of_int ((2 * r) + 1))) ]))

let prop_mod_pow_matches_reference =
  QCheck.Test.make ~name:"mod_pow matches square-and-multiply, odd moduli of 1-70 bytes"
    ~count:200 arb_mod_pow (fun (base, exp, m) ->
      Bignum.bit_length exp mod 4 <> 0
      && Bignum.equal (Bignum.mod_pow ~base ~exp ~m) (mod_pow_ref ~base ~exp ~m))

(* --- RSA --- *)

let drbg () = Drbg.create ~seed:"test-crypto-rsa"

let test_rsa_sign_verify () =
  let key = Rsa.generate ~bits:512 (drbg ()) in
  let msg = "attestation payload" in
  let s = Rsa.sign key msg in
  Alcotest.(check int) "signature length" (Rsa.key_bytes key.Rsa.pub) (String.length s);
  checkb "verifies" true (Rsa.verify key.Rsa.pub ~msg ~signature:s);
  checkb "wrong message" false (Rsa.verify key.Rsa.pub ~msg:"other" ~signature:s);
  let tampered = String.mapi (fun i c -> if i = 5 then Char.chr (Char.code c lxor 1) else c) s in
  checkb "tampered signature" false (Rsa.verify key.Rsa.pub ~msg ~signature:tampered);
  checkb "wrong length" false (Rsa.verify key.Rsa.pub ~msg ~signature:"short")

(* EMSA-PKCS1-v1_5 over SHA-1, rebuilt here so the CRT signature can be
   compared with the plain exponentiation it replaces. *)
let emsa_sha1 ~em_len msg =
  let t = "\x30\x21\x30\x09\x06\x05\x2b\x0e\x03\x02\x1a\x05\x00\x04\x14" ^ Sha1.digest msg in
  "\x00\x01" ^ String.make (em_len - String.length t - 3) '\xff' ^ "\x00" ^ t

let test_rsa_crt_matches_plain () =
  let labels = List.map (fun (label, _, _) -> label) Embedded_keys.table in
  let keys =
    List.map (fun label -> (label, 2048)) labels
    @ List.filter_map (fun label -> if label = "privacy-ca" then None else Some (label, 512)) labels
  in
  Alcotest.(check int) "privacy CA, ten at 2048, ten at 512" 21 (List.length keys);
  List.iter
    (fun (label, bits) ->
      let key = Keyvault.get ~label ~bits in
      let em_len = Rsa.key_bytes key.Rsa.pub in
      let msg = "crt cross-check " ^ label in
      let m = Bignum.of_bytes_be (emsa_sha1 ~em_len msg) in
      checks
        (Printf.sprintf "%s/%d" label bits)
        (Bignum.to_bytes_be ~pad_to:em_len
           (Bignum.mod_pow ~base:m ~exp:key.Rsa.d ~m:key.Rsa.pub.Rsa.n))
        (Rsa.sign key msg))
    keys

let test_rsa_encrypt_decrypt () =
  let d = drbg () in
  let key = Rsa.generate ~bits:512 d in
  let pt = "seal me" in
  let ct = Rsa.encrypt key.Rsa.pub d pt in
  checkb "decrypts" true (Rsa.decrypt key ct = Some pt);
  let other = Rsa.generate ~bits:512 d in
  checkb "wrong key fails" true (Rsa.decrypt other ct = None);
  let tampered =
    String.mapi (fun i c -> if i = 10 then Char.chr (Char.code c lxor 1) else c) ct
  in
  (* Tampered ciphertext: padding check almost surely fails, and even if it
     decodes, the plaintext must differ. *)
  checkb "tampered ciphertext" true (Rsa.decrypt key tampered <> Some pt)

(* PKCS#1 type-2 padding draws PS in one DRBG call and redraws each zero
   byte. With a 512-bit key a full-length plaintext leaves a 29-byte PS,
   which holds a zero in about 11 % of draws, and shorter plaintexts
   leave longer ones, so these 216 round trips redraw many times. *)
let test_rsa_type2_padding () =
  let key = Keyvault.get ~label:"srk:Broadcom" ~bits:512 in
  let pub = key.Rsa.pub in
  let k = Rsa.key_bytes pub and max = Rsa.max_plaintext pub in
  let plaintexts =
    List.init (4 * (max + 1)) (fun i ->
        String.init (i mod (max + 1)) (fun j -> Char.chr ((i + j) land 0xff)))
  in
  let encrypt_all seed =
    let d = Drbg.create ~seed in
    List.map (fun pt -> Rsa.encrypt pub d pt) plaintexts
  in
  let cts = encrypt_all "type-2" in
  List.iteri
    (fun i (pt, ct) ->
      let em =
        Bignum.to_bytes_be ~pad_to:k
          (Bignum.mod_pow ~base:(Bignum.of_bytes_be ct) ~exp:key.Rsa.d ~m:pub.Rsa.n)
      in
      let ps_len = k - String.length pt - 3 in
      checkb (Printf.sprintf "#%d: 00 02 <nonzero PS> 00 <plaintext>" i) true
        (String.sub em 0 2 = "\x00\x02"
        && String.for_all (fun c -> c <> '\000') (String.sub em 2 ps_len)
        && em.[2 + ps_len] = '\000'
        && String.sub em (3 + ps_len) (String.length pt) = pt);
      checkb (Printf.sprintf "#%d decrypts" i) true (Rsa.decrypt key ct = Some pt))
    (List.combine plaintexts cts);
  checkb "same seed, same ciphertexts" true (cts = encrypt_all "type-2")

let test_rsa_encrypt_limits () =
  let d = drbg () in
  let key = Rsa.generate ~bits:512 d in
  let max = Rsa.max_plaintext key.Rsa.pub in
  Alcotest.(check int) "max payload" (64 - 11) max;
  let big = String.make (max + 1) 'x' in
  Alcotest.check_raises "too long" (Invalid_argument "Rsa.encrypt: plaintext too long")
    (fun () -> ignore (Rsa.encrypt key.Rsa.pub d big));
  let edge = String.make max 'x' in
  checkb "exactly max roundtrips" true
    (Rsa.decrypt key (Rsa.encrypt key.Rsa.pub d edge) = Some edge);
  checkb "empty roundtrips" true (Rsa.decrypt key (Rsa.encrypt key.Rsa.pub d "") = Some "")

let test_rsa_deterministic_from_seed () =
  let k1 = Rsa.generate ~bits:256 (Drbg.create ~seed:"same") in
  let k2 = Rsa.generate ~bits:256 (Drbg.create ~seed:"same") in
  checkb "same seed, same key" true (Bignum.equal k1.Rsa.pub.Rsa.n k2.Rsa.pub.Rsa.n);
  let k3 = Rsa.generate ~bits:256 (Drbg.create ~seed:"different") in
  checkb "different seed, different key" false
    (Bignum.equal k1.Rsa.pub.Rsa.n k3.Rsa.pub.Rsa.n)

let test_rsa_modulus_size () =
  List.iter
    (fun bits ->
      let k = Rsa.generate ~bits (drbg ()) in
      Alcotest.(check int)
        (Printf.sprintf "%d-bit modulus" bits)
        bits
        (Bignum.bit_length k.Rsa.pub.Rsa.n))
    [ 64; 128; 512 ]

let test_miller_rabin () =
  let d = drbg () in
  let prime p = Rsa.is_probable_prime (Bignum.of_int p) ~rounds:10 d in
  List.iter (fun p -> checkb (Printf.sprintf "%d prime" p) true (prime p))
    [ 2; 3; 5; 101; 251; 257; 65537; 1000003 ];
  List.iter (fun c -> checkb (Printf.sprintf "%d composite" c) false (prime c))
    [ 1; 4; 100; 255; 65535; 1000001; 561 (* Carmichael *); 8911 ]

(* --- DRBG --- *)

let test_drbg_deterministic () =
  let a = Drbg.create ~seed:"s" and b = Drbg.create ~seed:"s" in
  checks "same stream" (Drbg.generate_string a 64) (Drbg.generate_string b 64);
  checkb "stream advances" true
    (Drbg.generate_string a 16 <> Drbg.generate_string a 16)

let test_drbg_seed_and_reseed () =
  let a = Drbg.create ~seed:"s1" and b = Drbg.create ~seed:"s2" in
  checkb "different seeds" true
    (Drbg.generate_string a 32 <> Drbg.generate_string b 32);
  let c = Drbg.create ~seed:"s1" and d = Drbg.create ~seed:"s1" in
  ignore (Drbg.generate_string c 32);
  ignore (Drbg.generate_string d 32);
  Drbg.reseed c "extra entropy";
  checkb "reseed diverges" true
    (Drbg.generate_string c 32 <> Drbg.generate_string d 32)

let test_drbg_output_sizes () =
  let d = Drbg.create ~seed:"sz" in
  List.iter
    (fun n -> Alcotest.(check int) (Printf.sprintf "%d bytes" n) n
        (String.length (Drbg.generate_string d n)))
    [ 1; 31; 32; 33; 100; 1000 ]

(* --- AEAD --- *)

let test_aead_roundtrip () =
  let key = String.make Aead.key_size 'k' and nonce = String.make Aead.nonce_size 'n' in
  let pt = "PAL state to protect across a context switch" in
  let ct = Aead.encrypt ~key ~nonce pt in
  Alcotest.(check int) "overhead" (String.length pt + Aead.overhead) (String.length ct);
  checkb "roundtrip" true (Aead.decrypt ~key ~nonce ct = Some pt);
  checkb "empty plaintext" true
    (Aead.decrypt ~key ~nonce (Aead.encrypt ~key ~nonce "") = Some "")

let test_aead_tamper_detect () =
  let key = String.make Aead.key_size 'k' and nonce = String.make Aead.nonce_size 'n' in
  let ct = Aead.encrypt ~key ~nonce "secret" in
  for i = 0 to String.length ct - 1 do
    let t = String.mapi (fun j c -> if i = j then Char.chr (Char.code c lxor 1) else c) ct in
    checkb (Printf.sprintf "bit flip at %d detected" i) true
      (Aead.decrypt ~key ~nonce t = None)
  done

let test_aead_wrong_key_nonce () =
  let key = String.make Aead.key_size 'k' and nonce = String.make Aead.nonce_size 'n' in
  let ct = Aead.encrypt ~key ~nonce "secret" in
  checkb "wrong key" true
    (Aead.decrypt ~key:(String.make Aead.key_size 'x') ~nonce ct = None);
  checkb "wrong nonce" true
    (Aead.decrypt ~key ~nonce:(String.make Aead.nonce_size 'x') ct = None);
  checkb "truncated" true (Aead.decrypt ~key ~nonce "short" = None);
  Alcotest.check_raises "bad key size" (Invalid_argument "Aead: bad key size")
    (fun () -> ignore (Aead.encrypt ~key:"short" ~nonce "x"))

let prop_aead_roundtrip =
  QCheck.Test.make ~name:"AEAD roundtrips arbitrary payloads" ~count:100
    QCheck.(string_of_size (QCheck.Gen.int_bound 2048))
    (fun pt ->
      let key = Sha256.digest "k" and nonce = String.sub (Sha256.digest "n") 0 16 in
      Aead.decrypt ~key ~nonce (Aead.encrypt ~key ~nonce pt) = Some pt)

(* --- Wire --- *)

let test_wire_roundtrip () =
  let enc = Wire.encoder () in
  Wire.add_string enc "hello";
  Wire.add_int enc 123456789;
  Wire.add_list enc (fun x -> Wire.add_string enc x) [ "a"; "bb"; "" ];
  let d = Wire.decoder (Wire.contents enc) in
  checkb "string" true (Wire.read_string d = Some "hello");
  checkb "int" true (Wire.read_int d = Some 123456789);
  checkb "list" true (Wire.read_list d (fun () -> Wire.read_string d) = Some [ "a"; "bb"; "" ]);
  checkb "at end" true (Wire.at_end d)

let test_wire_malformed_is_total () =
  (* Arbitrary junk must decode to None, never raise. *)
  List.iter
    (fun junk ->
      let d = Wire.decoder junk in
      ignore (Wire.read_string d);
      let d = Wire.decoder junk in
      ignore (Wire.read_int d);
      let d = Wire.decoder junk in
      ignore (Wire.read_list d (fun () -> Wire.read_string d)))
    [ ""; "\xff"; "\xff\xff\xff\xff"; "\x00\x00\x00\x10abc"; String.make 3 '\x00' ];
  checkb "truncated string" true (Wire.read_string (Wire.decoder "\x00\x00\x00\x05ab") = None);
  checkb "short int" true (Wire.read_int (Wire.decoder "\x00\x00\x00") = None);
  checkb "huge count rejected" true
    (Wire.read_list (Wire.decoder "\x7f\xff\xff\xff") (fun () -> Some ()) = None)

let prop_wire_string_roundtrip =
  QCheck.Test.make ~name:"wire string roundtrip" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_bound 300))
    (fun s ->
      let enc = Wire.encoder () in
      Wire.add_string enc s;
      Wire.read_string (Wire.decoder (Wire.contents enc)) = Some s)

(* --- Keyvault --- *)

let test_keyvault_memoizes () =
  let a = Keyvault.get ~label:"test-kv" ~bits:256 in
  let b = Keyvault.get ~label:"test-kv" ~bits:256 in
  checkb "same object" true (a == b);
  let c = Keyvault.get ~label:"test-kv-2" ~bits:256 in
  checkb "distinct labels distinct keys" false
    (Bignum.equal a.Rsa.pub.Rsa.n c.Rsa.pub.Rsa.n)

let test_keyvault_embedded () =
  (* The embedded 2048-bit keys must load fast and be valid signing keys. *)
  let t0 = Unix.gettimeofday () in
  let k = Keyvault.get ~label:"privacy-ca" ~bits:2048 in
  let elapsed = Unix.gettimeofday () -. t0 in
  checkb "loads without generation" true (elapsed < 1.0);
  Alcotest.(check int) "2048 bits" 2048 (Bignum.bit_length k.Rsa.pub.Rsa.n);
  let s = Rsa.sign k "check" in
  checkb "valid key" true (Rsa.verify k.Rsa.pub ~msg:"check" ~signature:s)

let () =
  Alcotest.run "crypto"
    [
      ( "sha1",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha1_vectors;
          Alcotest.test_case "streaming equivalence" `Quick test_sha1_streaming_equivalence;
          Alcotest.test_case "padding edge lengths" `Quick test_sha1_length_padding_edges;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "padding edge lengths" `Quick test_sha256_length_padding_edges;
        ] );
      (* Group names stay within 8 characters: alcotest pads every group to
         the longest, which narrows the width it truncates test names to. *)
      ( "kernels",
        [
          Alcotest.test_case "match the reference, 0-300 bytes" `Quick
            test_kernels_short_messages;
          Alcotest.test_case "match the reference, 64 KB" `Quick test_kernels_64k_messages;
          QCheck_alcotest.to_alcotest prop_streaming_matches_reference;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "HMAC-SHA1 RFC2202" `Quick test_hmac_sha1_vectors;
          Alcotest.test_case "HMAC-SHA256 RFC4231" `Quick test_hmac_sha256_vector;
          Alcotest.test_case "long key" `Quick test_hmac_long_key;
          Alcotest.test_case "constant-time equality" `Quick test_constant_time_equal;
        ] );
      ( "bignum",
        [
          Alcotest.test_case "of/to int" `Quick test_bignum_of_to_int;
          Alcotest.test_case "hex roundtrip" `Quick test_bignum_hex_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick test_bignum_bytes_roundtrip;
          Alcotest.test_case "sub underflow" `Quick test_bignum_sub_negative;
          Alcotest.test_case "division cases" `Quick test_bignum_division_cases;
          Alcotest.test_case "shifts" `Quick test_bignum_shifts;
          Alcotest.test_case "bit operations" `Quick test_bignum_bit_ops;
          Alcotest.test_case "mod_pow known values" `Quick test_bignum_modpow_known;
          Alcotest.test_case "mod_inverse" `Quick test_bignum_mod_inverse;
          Alcotest.test_case "gcd" `Quick test_bignum_gcd;
          QCheck_alcotest.to_alcotest prop_add_comm;
          QCheck_alcotest.to_alcotest prop_add_assoc;
          QCheck_alcotest.to_alcotest prop_mul_comm;
          QCheck_alcotest.to_alcotest prop_distributive;
          QCheck_alcotest.to_alcotest prop_divmod_identity;
          QCheck_alcotest.to_alcotest prop_sub_add_roundtrip;
          QCheck_alcotest.to_alcotest prop_shift_mul;
          QCheck_alcotest.to_alcotest prop_modpow_matches_naive;
          QCheck_alcotest.to_alcotest prop_mod_inverse_correct;
          QCheck_alcotest.to_alcotest prop_divmod_matches_bitwise;
          Alcotest.test_case "divmod add-back step" `Quick test_divmod_add_back;
          QCheck_alcotest.to_alcotest prop_bytes_match_reference;
          QCheck_alcotest.to_alcotest prop_hex_matches_reference;
          QCheck_alcotest.to_alcotest prop_mod_pow_matches_reference;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "sign/verify" `Quick test_rsa_sign_verify;
          Alcotest.test_case "encrypt/decrypt" `Quick test_rsa_encrypt_decrypt;
          Alcotest.test_case "payload limits" `Quick test_rsa_encrypt_limits;
          Alcotest.test_case "type-2 padding round trips" `Quick test_rsa_type2_padding;
          Alcotest.test_case "deterministic from seed" `Quick test_rsa_deterministic_from_seed;
          Alcotest.test_case "modulus size" `Quick test_rsa_modulus_size;
          Alcotest.test_case "Miller-Rabin" `Quick test_miller_rabin;
          Alcotest.test_case "CRT sign matches plain exponent" `Quick test_rsa_crt_matches_plain;
        ] );
      ( "drbg",
        [
          Alcotest.test_case "deterministic" `Quick test_drbg_deterministic;
          Alcotest.test_case "seed and reseed" `Quick test_drbg_seed_and_reseed;
          Alcotest.test_case "output sizes" `Quick test_drbg_output_sizes;
        ] );
      ( "aead",
        [
          Alcotest.test_case "roundtrip" `Quick test_aead_roundtrip;
          Alcotest.test_case "tamper detection" `Quick test_aead_tamper_detect;
          Alcotest.test_case "wrong key/nonce" `Quick test_aead_wrong_key_nonce;
          QCheck_alcotest.to_alcotest prop_aead_roundtrip;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "malformed input is total" `Quick test_wire_malformed_is_total;
          QCheck_alcotest.to_alcotest prop_wire_string_roundtrip;
        ] );
      ( "keyvault",
        [
          Alcotest.test_case "memoization" `Quick test_keyvault_memoizes;
          Alcotest.test_case "embedded 2048-bit keys" `Quick test_keyvault_embedded;
        ] );
    ]
