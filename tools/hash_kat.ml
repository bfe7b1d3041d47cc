(* Known-answer lines for the hash kernels: one line per message,
   "<length> <sha1> <sha256> <hmac-sha256>" in lowercase hex, for
   lengths 0-300 and 65536. Byte i of the message of length n is
   (131 i + 17 n) mod 256; the HMAC key is the first n mod 97 bytes of
   the message of length 97, so keys both shorter and longer than the
   64-byte block occur. An independent implementation recomputes every
   line (CI does it with Python's hashlib and hmac):

     dune exec tools/hash_kat.exe *)

open Sea_crypto

let message n = String.init n (fun i -> Char.chr (((131 * i) + (17 * n)) land 0xff))

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let () =
  let key_source = message 97 in
  List.iter
    (fun n ->
      let m = message n in
      let key = String.sub key_source 0 (n mod 97) in
      Printf.printf "%d %s %s %s\n" n (Sha1.hex m) (Sha256.hex m)
        (hex (Hmac.sha256 ~key m)))
    (List.init 301 Fun.id @ [ 65536 ])
