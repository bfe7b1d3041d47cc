type state =
  | All
  | Cpu_only of { cpu : int; secb_id : int }
  | Shared of { cpus : int list; secb_id : int }
  | None_access of { secb_id : int }

type t = { table : state array }

let create ~pages =
  if pages <= 0 then invalid_arg "Access_control.create: page count must be positive";
  { table = Array.make pages All }

let page_count t = Array.length t.table

let get t page =
  if page < 0 || page >= Array.length t.table then
    invalid_arg (Printf.sprintf "Access_control: page %d out of range" page);
  t.table.(page)

let transition t pages ~check ~next =
  (* All-or-nothing: verify every page before mutating any. *)
  let rec verify = function
    | [] -> Ok ()
    | p :: rest -> (
        match check (get t p) with
        | Ok () -> verify rest
        | Error e -> Error (Printf.sprintf "page %d: %s" p e))
  in
  match verify pages with
  | Error e -> Error e
  | Ok () ->
      List.iter (fun p -> t.table.(p) <- next) pages;
      Ok ()

let claim t ~secb_id ~cpu pages =
  transition t pages
    ~check:(function
      | All -> Ok ()
      | Cpu_only _ | Shared _ -> Error "already exclusive to a CPU"
      | None_access _ -> Error "held by a suspended PAL")
    ~next:(Cpu_only { cpu; secb_id })

let suspend t ~secb_id ~cpu pages =
  transition t pages
    ~check:(function
      | Cpu_only o when o.cpu = cpu && o.secb_id = secb_id -> Ok ()
      | Cpu_only _ -> Error "exclusive to a different CPU or PAL"
      | Shared _ -> Error "multicore PAL: other CPUs must leave first"
      | All -> Error "not protected"
      | None_access _ -> Error "already suspended")
    ~next:(None_access { secb_id })

let resume t ~secb_id ~cpu pages =
  transition t pages
    ~check:(function
      | None_access o when o.secb_id = secb_id -> Ok ()
      | None_access _ -> Error "suspended but owned by another PAL"
      | All -> Error "not in suspended state"
      | Cpu_only _ | Shared _ -> Error "PAL already executing on a CPU")
    ~next:(Cpu_only { cpu; secb_id })

let release t ~secb_id pages =
  transition t pages
    ~check:(function
      | Cpu_only o when o.secb_id = secb_id -> Ok ()
      | None_access o when o.secb_id = secb_id -> Ok ()
      (* Freeing under a joined CPU would leave it executing a freed
         PAL: like suspension, release needs a single owner. *)
      | Shared o when o.secb_id = secb_id ->
          Error "multicore PAL: other CPUs must leave first"
      | All -> Error "not owned"
      | Cpu_only _ | Shared _ | None_access _ -> Error "owned by another PAL")
    ~next:All

(* Current executing CPU set of a page owned by [secb_id], if any. *)
let executing_cpus state ~secb_id =
  match state with
  | Cpu_only o when o.secb_id = secb_id -> Some [ o.cpu ]
  | Shared o when o.secb_id = secb_id -> Some o.cpus
  | _ -> None

let join t ~secb_id ~cpu pages =
  (* All pages of one SECB share a state, so inspecting the first page
     suffices to compute the joined set; the transition still checks every
     page before mutating. *)
  match pages with
  | [] -> Error "no pages"
  | first :: _ -> (
      let st = get t first in
      match executing_cpus st ~secb_id with
      | Some cpus when List.mem cpu cpus -> Error "CPU already joined"
      | Some cpus ->
          let next = Shared { cpus = List.sort Int.compare (cpu :: cpus); secb_id } in
          transition t pages
            ~check:(fun s ->
              if s = st then Ok ()
              else Error "inconsistent page states for this SECB")
            ~next
      | None -> (
          match st with
          | Cpu_only _ | Shared _ -> Error "owned by another PAL"
          | All -> Error "PAL not executing"
          | None_access _ -> Error "PAL is suspended"))

let leave t ~secb_id ~cpu pages =
  match pages with
  | [] -> Error "no pages"
  | first :: _ -> (
      let st = get t first in
      match st with
      | Shared o when o.secb_id = secb_id && List.mem cpu o.cpus ->
          let remaining = List.filter (fun c -> c <> cpu) o.cpus in
          let next =
            match remaining with
            | [ last ] -> Cpu_only { cpu = last; secb_id }
            | _ -> Shared { cpus = remaining; secb_id }
          in
          transition t pages
            ~check:(fun s ->
              if s = st then Ok ()
              else Error "inconsistent page states for this SECB")
            ~next
      | Shared _ -> Error "CPU not joined to this PAL"
      | Cpu_only _ -> Error "last CPU cannot leave; use SYIELD or SFREE"
      | All -> Error "PAL not executing"
      | None_access _ -> Error "PAL is suspended")

let cpu_may_access t ~cpu page =
  match get t page with
  | All -> true
  | Cpu_only o -> o.cpu = cpu
  | Shared o -> List.mem cpu o.cpus
  | None_access _ -> false

let dma_may_access t page = match get t page with All -> true | _ -> false

let owned_pages t ~secb_id =
  let acc = ref [] in
  Array.iteri
    (fun p s ->
      match s with
      | Cpu_only o when o.secb_id = secb_id -> acc := p :: !acc
      | Shared o when o.secb_id = secb_id -> acc := p :: !acc
      | None_access o when o.secb_id = secb_id -> acc := p :: !acc
      | _ -> ())
    t.table;
  List.rev !acc
