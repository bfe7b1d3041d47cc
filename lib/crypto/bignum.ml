(* Little-endian arrays of 31-bit limbs, canonical (no trailing zero limb).
   Base 2^31 keeps every intermediate product below 2^63 on 64-bit ints:
   limb*limb < 2^62 and the schoolbook inner loop adds at most 2^32 more. *)

let limb_bits = 31
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero a = Array.length a = 0

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Bignum.of_int: negative";
  if n = 0 then zero
  else begin
    let rec count acc v = if v = 0 then acc else count (acc + 1) (v lsr limb_bits) in
    let len = count 0 n in
    Array.init len (fun i -> (n lsr (i * limb_bits)) land limb_mask)
  end

let to_int_opt a =
  (* max_int is 2^62-1: values of up to three limbs may fit (3*31 = 93 > 62),
     so accumulate carefully and detect overflow. *)
  let rec go acc shift i =
    if i >= Array.length a then Some acc
    else if shift >= 63 then None
    else
      let limb = a.(i) in
      if shift + limb_bits > 62 && limb lsr (62 - shift) > 0 then None
      else go (acc lor (limb lsl shift)) (shift + limb_bits) (i + 1)
  in
  go 0 0 0

let equal a b = a = b

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

(* Significant bits in one limb. *)
let limb_width v =
  let rec go n v = if v = 0 then n else go (n + 1) (v lsr 1) in
  go 0 v

let bit_length a =
  let l = Array.length a in
  if l = 0 then 0 else ((l - 1) * limb_bits) + limb_width a.(l - 1)

let test_bit a i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let av = if i < la then a.(i) else 0 in
    let bv = if i < lb then b.(i) else 0 in
    let s = av + bv + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let bv = if i < lb then b.(i) else 0 in
    let d = a.(i) - bv - !borrow in
    if d < 0 then begin
      r.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- cur land limb_mask;
        carry := cur lsr limb_bits
      done;
      (* Propagate the final carry, which may itself overflow one limb. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = r.(!k) + !carry in
        r.(!k) <- cur land limb_mask;
        carry := cur lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let shift_left a n =
  if n < 0 then invalid_arg "Bignum.shift_left: negative shift";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / limb_bits and bits = n mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land limb_mask);
      r.(i + limbs + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right a n =
  if n < 0 then invalid_arg "Bignum.shift_right: negative shift";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / limb_bits and bits = n mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi =
          if bits = 0 || i + limbs + 1 >= la then 0
          else (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* One pass from the top limb down for a divisor [d] below 2^31:
   [r * 2^31 + limb] stays below 2^62. *)
let divmod_limb a d =
  let q = Array.make (Array.length a) 0 in
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    let qi = cur / d in
    q.(i) <- qi;
    r := cur - (qi * d)
  done;
  (normalize q, of_int !r)

(* Knuth's algorithm D (TAOCP vol. 2, 4.3.1) for a divisor of n >= 2 limbs
   and [a >= b]. Both operands are shifted so the divisor's top limb has
   bit 30 set; each quotient limb is then estimated from the top two limbs
   of the running remainder, corrected against the divisor's second limb,
   and is at most one too large, which the add-back step repairs. *)
let divmod_knuth a b =
  let n = Array.length b in
  let s = limb_bits - limb_width b.(n - 1) in
  let v = shift_left b s in
  let m = Array.length a - n in
  let u = Array.make (Array.length a + 1) 0 in
  let a' = shift_left a s in
  Array.blit a' 0 u 0 (Array.length a');
  let q = Array.make (m + 1) 0 in
  let vtop = v.(n - 1) and vnext = v.(n - 2) in
  for j = m downto 0 do
    (* qhat <= 2^31 + 1 here, so qhat * vnext stays within max_int. *)
    let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
    let qhat = ref (num / vtop) in
    let rhat = ref (num - (!qhat * vtop)) in
    while
      !rhat < limb_base
      && (!qhat >= limb_base
         || !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + n - 2))
    do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* u[j..j+n] -= qhat * v *)
    let borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = !qhat * v.(i) in
      let t = u.(i + j) - !borrow - (p land limb_mask) in
      u.(i + j) <- t land limb_mask;
      borrow := (p lsr limb_bits) - (t asr limb_bits)
    done;
    let t = u.(j + n) - !borrow in
    u.(j + n) <- t land limb_mask;
    if t < 0 then begin
      (* qhat was one too large: add v back once. *)
      decr qhat;
      let carry = ref 0 in
      for i = 0 to n - 1 do
        let s = u.(i + j) + v.(i) + !carry in
        u.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      u.(j + n) <- (u.(j + n) + !carry) land limb_mask
    end;
    q.(j) <- !qhat
  done;
  (normalize q, shift_right (normalize (Array.sub u 0 n)) s)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_limb a b.(0)
  else divmod_knuth a b

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let mod_add a b ~m = rem (add a b) m

let mod_sub a b ~m =
  let a = rem a m and b = rem b m in
  if compare a b >= 0 then sub a b else sub (add a m) b

let mod_mul a b ~m = rem (mul a b) m

(* --- Montgomery machinery for odd moduli --- *)

(* Inverse of [x] modulo 2^31 by Newton iteration; [x] must be odd. *)
let inv_limb x =
  let y = ref x in
  (* Each iteration doubles the number of correct low bits; 5 iterations
     exceed 31 bits starting from the 3 bits correct in x itself. *)
  for _ = 1 to 5 do
    y := !y * (2 - (x * !y)) land limb_mask
  done;
  !y land limb_mask

(* The [i]th [width]-bit digit of [a] (width <= 31), least significant
   first; zero past the top. *)
let digit a ~width i =
  let bit = i * width in
  let limb = bit / limb_bits and off = bit mod limb_bits in
  let la = Array.length a in
  let lo = if limb < la then a.(limb) lsr off else 0 in
  let hi =
    if off + width > limb_bits && limb + 1 < la then a.(limb + 1) lsl (limb_bits - off)
    else 0
  in
  (lo lor hi) land ((1 lsl width) - 1)

(* Montgomery product over k-limb arrays (k = length of [m], operands
   below [m]): [dst] gets a*b*2^(-31k) mod m. Each row of the product is
   folded into one reduction step (CIOS) in the (k+1)-limb scratch [t],
   with two carries so no sum exceeds (2^31-1)^2 + 2(2^31-1) = max_int.
   [dst] may alias [a] or [b]. *)
let mont_mul_into ~m ~m0' ~t dst a b =
  let k = Array.length m in
  Array.fill t 0 (k + 1) 0;
  for i = 0 to k - 1 do
    let ai = a.(i) in
    let s = t.(0) + (ai * b.(0)) in
    let lo = s land limb_mask in
    let u = lo * m0' land limb_mask in
    let c1 = ref (s lsr limb_bits) in
    let c2 = ref ((lo + (u * m.(0))) lsr limb_bits) in
    for j = 1 to k - 1 do
      let s = t.(j) + (ai * b.(j)) + !c1 in
      c1 := s lsr limb_bits;
      let s = (s land limb_mask) + (u * m.(j)) + !c2 in
      c2 := s lsr limb_bits;
      t.(j - 1) <- s land limb_mask
    done;
    let s = t.(k) + !c1 + !c2 in
    t.(k - 1) <- s land limb_mask;
    t.(k) <- s lsr limb_bits
  done;
  (* t < 2m: subtract m once if t >= m. *)
  let rec below j = j >= 0 && (t.(j) < m.(j) || (t.(j) = m.(j) && below (j - 1))) in
  if t.(k) = 0 && below (k - 1) then Array.blit t 0 dst 0 k
  else begin
    let borrow = ref 0 in
    for j = 0 to k - 1 do
      let d = t.(j) - m.(j) - !borrow in
      dst.(j) <- d land limb_mask;
      borrow := (d asr limb_bits) land 1
    done
  end

(* Fixed 4-bit windows over the exponent, top window first, against a
   table of base^1 .. base^15 in Montgomery form. *)
let mod_pow_mont ~base ~exp ~m =
  let k = Array.length m in
  let m0' = limb_base - inv_limb m.(0) in
  let t = Array.make (k + 1) 0 in
  let mul dst a b = mont_mul_into ~m ~m0' ~t dst a b in
  let limbs v =
    let r = Array.make k 0 in
    Array.blit v 0 r 0 (Array.length v);
    r
  in
  (* R^2 mod m, R = 2^(31k), turns base into base*R mod m. *)
  let r2 = limbs (rem (shift_left one (2 * k * limb_bits)) m) in
  let table = Array.init 16 (fun _ -> Array.make k 0) in
  mul table.(1) (limbs (rem base m)) r2;
  for w = 2 to 15 do
    mul table.(w) table.(w - 1) table.(1)
  done;
  let windows = (bit_length exp + 3) / 4 in
  let acc = Array.copy table.(digit exp ~width:4 (windows - 1)) in
  for i = windows - 2 downto 0 do
    for _ = 1 to 4 do
      mul acc acc acc
    done;
    let w = digit exp ~width:4 i in
    if w <> 0 then mul acc acc table.(w)
  done;
  (* Out of Montgomery form: multiply by 1. *)
  mul acc acc (limbs one);
  normalize acc

let mod_pow ~base ~exp ~m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else if is_zero exp then one
  else if m.(0) land 1 = 1 then mod_pow_mont ~base ~exp ~m
  else begin
    let acc = ref one in
    let b = ref (rem base m) in
    let nbits = bit_length exp in
    for i = 0 to nbits - 1 do
      if test_bit exp i then acc := mod_mul !acc !b ~m;
      b := mod_mul !b !b ~m
    done;
    !acc
  end

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

let mod_inverse a ~m =
  if is_zero m || equal m one then None
  else begin
    (* Iterative extended Euclid keeping Bezout coefficients reduced mod m,
       which keeps everything in the naturals. *)
    let t = ref zero and newt = ref one in
    let r = ref m and newr = ref (rem a m) in
    while not (is_zero !newr) do
      let q, r' = divmod !r !newr in
      let t' = mod_sub !t (mod_mul q !newt ~m) ~m in
      t := !newt;
      newt := t';
      r := !newr;
      newr := r'
    done;
    if equal !r one then Some !t else None
  end

(* The value whose [n] digits of [width] bits, most significant first,
   are [digit 0] .. [digit (n - 1)]: one pass from the last digit,
   emitting each limb as it fills. *)
let pack ~width n digit =
  let r = Array.make (((n * width) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and bits = ref 0 and k = ref 0 in
  for i = n - 1 downto 0 do
    acc := !acc lor (digit i lsl !bits);
    bits := !bits + width;
    if !bits >= limb_bits then begin
      r.(!k) <- !acc land limb_mask;
      acc := !acc lsr limb_bits;
      bits := !bits - limb_bits;
      incr k
    end
  done;
  if !bits > 0 then r.(!k) <- !acc;
  normalize r

let of_bytes_be s = pack ~width:8 (String.length s) (fun i -> Char.code s.[i])

let to_bytes_be ?pad_to a =
  let nbytes = (bit_length a + 7) / 8 in
  let nbytes = if nbytes = 0 then 1 else nbytes in
  let width =
    match pad_to with
    | None -> nbytes
    | Some w ->
        if w < nbytes then invalid_arg "Bignum.to_bytes_be: value exceeds pad_to";
        w
  in
  String.init width (fun i -> Char.chr (digit a ~width:8 (width - 1 - i)))

let of_hex s =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bignum.of_hex: invalid character"
  in
  pack ~width:4 (String.length s) (fun i -> digit s.[i])

let to_hex a =
  if is_zero a then "0"
  else
    let n = (bit_length a + 3) / 4 in
    String.init n (fun i -> "0123456789abcdef".[digit a ~width:4 (n - 1 - i)])

let of_random_bits gen bits =
  if bits <= 0 then zero
  else begin
    let nbytes = (bits + 7) / 8 in
    let b = gen nbytes in
    let excess = (nbytes * 8) - bits in
    if excess > 0 then
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land (0xff lsr excess)));
    of_bytes_be (Bytes.to_string b)
  end

let pp fmt a = Format.pp_print_string fmt (to_hex a)
