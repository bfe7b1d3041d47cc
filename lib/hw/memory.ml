let page_size = 4096

(* Pages are materialised on first touch: a fresh machine's 64 MB of
   RAM is one option array, not 16k zeroed buffers. An untouched page
   reads as zeroes, exactly as if it had been allocated eagerly — this
   is what makes constructing a whole fleet of machines cheap. *)
type t = { pages : Bytes.t option array }

let create ~pages =
  if pages <= 0 then invalid_arg "Memory.create: page count must be positive";
  { pages = Array.make pages None }

let page_count t = Array.length t.pages

let check t ~page ~off ~len =
  if page < 0 || page >= Array.length t.pages then
    invalid_arg (Printf.sprintf "Memory: page %d out of range" page);
  if off < 0 || len < 0 || off + len > page_size then
    invalid_arg "Memory: access crosses page boundary"

let materialise t page =
  match t.pages.(page) with
  | Some b -> b
  | None ->
      let b = Bytes.make page_size '\000' in
      t.pages.(page) <- Some b;
      b

let read t ~page ~off ~len =
  check t ~page ~off ~len;
  match t.pages.(page) with
  | Some b -> Bytes.sub_string b off len
  | None -> String.make len '\000'

let write t ~page ~off data =
  check t ~page ~off ~len:(String.length data);
  Bytes.blit_string data 0 (materialise t page) off (String.length data)

let span_iter pages off len f =
  (* Visit (page, page_off, chunk_len, span_off) for a linear range laid
     over the page list. *)
  let arr = Array.of_list pages in
  let pos = ref off and remaining = ref len and span_off = ref 0 in
  while !remaining > 0 do
    let idx = !pos / page_size in
    if idx >= Array.length arr then invalid_arg "Memory: span too short";
    let page_off = !pos mod page_size in
    let chunk = min !remaining (page_size - page_off) in
    f arr.(idx) page_off chunk !span_off;
    pos := !pos + chunk;
    remaining := !remaining - chunk;
    span_off := !span_off + chunk
  done

(* Spans blit straight between the pages and the span's own bytes, so a
   launch copies its image once into memory and once back out. *)
let read_span t ~pages ~off ~len =
  let buf = Bytes.create len in
  span_iter pages off len (fun page page_off chunk span_off ->
      check t ~page ~off:page_off ~len:chunk;
      match t.pages.(page) with
      | Some b -> Bytes.blit b page_off buf span_off chunk
      | None -> Bytes.fill buf span_off chunk '\000');
  Bytes.unsafe_to_string buf

let write_span t ~pages ~off data =
  span_iter pages off (String.length data) (fun page page_off chunk span_off ->
      check t ~page ~off:page_off ~len:chunk;
      Bytes.blit_string data span_off (materialise t page) page_off chunk)

let zero_page t page =
  check t ~page ~off:0 ~len:page_size;
  match t.pages.(page) with
  | Some b -> Bytes.fill b 0 page_size '\000'
  | None -> () (* never touched: already all zeroes *)
