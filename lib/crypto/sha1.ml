(* 32-bit arithmetic carried out in native ints, masked to 32 bits. *)

let digest_size = 20
let mask32 = 0xFFFFFFFF
let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

type ctx = {
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  buf : Bytes.t; (* 64-byte buffer for a block split across updates *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h0 = 0x67452301;
    h1 = 0xEFCDAB89;
    h2 = 0x98BADCFE;
    h3 = 0x10325476;
    h4 = 0xC3D2E1F0;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 80 0;
  }

(* [process_block ctx s off] compresses the 64-byte block of [s] at
   [off], reading its big-endian words in place. The four round groups
   are separate loops so no round selects its function or constant. *)
let process_block ctx s off =
  let w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (String.get_int32_be s (off + (4 * i))) land mask32
  done;
  for i = 16 to 79 do
    w.(i) <- rotl32 (w.(i - 3) lxor w.(i - 8) lxor w.(i - 14) lxor w.(i - 16)) 1
  done;
  let a = ref ctx.h0
  and b = ref ctx.h1
  and c = ref ctx.h2
  and d = ref ctx.h3
  and e = ref ctx.h4 in
  for i = 0 to 19 do
    let f = (!b land !c) lor (lnot !b land !d) in
    let tmp = (rotl32 !a 5 + f + !e + 0x5A827999 + w.(i)) land mask32 in
    e := !d;
    d := !c;
    c := rotl32 !b 30;
    b := !a;
    a := tmp
  done;
  for i = 20 to 39 do
    let tmp = (rotl32 !a 5 + (!b lxor !c lxor !d) + !e + 0x6ED9EBA1 + w.(i)) land mask32 in
    e := !d;
    d := !c;
    c := rotl32 !b 30;
    b := !a;
    a := tmp
  done;
  for i = 40 to 59 do
    let f = (!b land !c) lor (!b land !d) lor (!c land !d) in
    let tmp = (rotl32 !a 5 + f + !e + 0x8F1BBCDC + w.(i)) land mask32 in
    e := !d;
    d := !c;
    c := rotl32 !b 30;
    b := !a;
    a := tmp
  done;
  for i = 60 to 79 do
    let tmp = (rotl32 !a 5 + (!b lxor !c lxor !d) + !e + 0xCA62C1D6 + w.(i)) land mask32 in
    e := !d;
    d := !c;
    c := rotl32 !b 30;
    b := !a;
    a := tmp
  done;
  ctx.h0 <- (ctx.h0 + !a) land mask32;
  ctx.h1 <- (ctx.h1 + !b) land mask32;
  ctx.h2 <- (ctx.h2 + !c) land mask32;
  ctx.h3 <- (ctx.h3 + !d) land mask32;
  ctx.h4 <- (ctx.h4 + !e) land mask32

let update ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Top up a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      process_block ctx (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    process_block ctx s !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

let finalize ctx =
  let bit_len = ctx.total * 8 in
  (* Padding: 0x80, zeros, 64-bit big-endian length. *)
  let pad_len =
    let rem = (ctx.total + 1 + 8) mod 64 in
    if rem = 0 then 1 else 1 + (64 - rem)
  in
  let pad = Bytes.make (pad_len + 8) '\000' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad (pad_len + i) (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  update ctx (Bytes.to_string pad);
  assert (ctx.buf_len = 0);
  let out = Bytes.create 20 in
  let put i v =
    Bytes.set out (4 * i) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr (v land 0xff))
  in
  put 0 ctx.h0;
  put 1 ctx.h1;
  put 2 ctx.h2;
  put 3 ctx.h3;
  put 4 ctx.h4;
  Bytes.to_string out

let digest msg =
  let ctx = init () in
  update ctx msg;
  finalize ctx

let digest_bytes b = digest (Bytes.to_string b)

let hex msg =
  let d = digest msg in
  let buf = Buffer.create 40 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf
