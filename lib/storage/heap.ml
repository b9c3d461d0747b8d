module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
module Schema = Perm_catalog.Schema
module Column = Perm_catalog.Column

(* one hash index: value -> positions in the row vector, newest first *)
module Value_key = struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end

module Value_hash = Hashtbl.Make (Value_key)

(* Chaos-harness injection points (no-ops unless armed via Perm_fault). *)
let fp_scan = Perm_fault.point "heap.scan"
let fp_insert = Perm_fault.point "heap.insert"

type index = int list Value_hash.t

type t = {
  schema : Schema.t;
  cols : Column.t array;
  rows : Tuple.t Vec.t;
  distinct : int array;
      (* per-column distinct counts, -1 until first asked for after the
         last mutation *)
  mutable batch_cache : (int * Batch.t array) option;
      (* (batch_rows, columnar image) — transposed once per table version
         and shared by every vectorized scan until the next mutation *)
  indexes : (int, index) Hashtbl.t;  (* column position -> index *)
}

let create schema =
  let cols = Array.of_list (Schema.columns schema) in
  {
    schema;
    cols;
    rows = Vec.create ();
    distinct = Array.make (Array.length cols) (-1);
    batch_cache = None;
    indexes = Hashtbl.create 4;
  }

let copy t =
  let indexes = Hashtbl.create (Hashtbl.length t.indexes) in
  Hashtbl.iter (fun col idx -> Hashtbl.replace indexes col (Value_hash.copy idx)) t.indexes;
  (* [batch_cache] is shared: batches are immutable, and each copy
     invalidates its own cache on its own mutations *)
  { t with rows = Vec.copy t.rows; distinct = Array.copy t.distinct; indexes }

let schema t = t.schema
let row_count t = Vec.length t.rows

let index_add idx key pos =
  if not (Value.is_null key) then
    let prev = match Value_hash.find_opt idx key with Some l -> l | None -> [] in
    Value_hash.replace idx key (pos :: prev)

let coerce_cell (col : Column.t) v =
  match v, col.ty with
  | Value.Null, _ -> Ok Value.Null
  | Value.Int i, Dtype.Float -> Ok (Value.Float (float_of_int i))
  | v, ty ->
    if Dtype.equal (Value.type_of v) ty then Ok v
    else
      Error
        (Printf.sprintf "column %S expects %s, got %s (%s)" col.name
           (Dtype.to_string ty)
           (Dtype.to_string (Value.type_of v))
           (Value.to_string v))

(* Validate a row's arity and coerce its cells into a fresh tuple; the
   heap is not touched. *)
let stage t row =
  if Array.length row <> Array.length t.cols then
    Error
      (Printf.sprintf "expected %d values, got %d" (Array.length t.cols)
         (Array.length row))
  else
    let out = Array.make (Array.length row) Value.Null in
    let rec fill i =
      if i >= Array.length row then Ok out
      else
        match coerce_cell t.cols.(i) row.(i) with
        | Ok v ->
          out.(i) <- v;
          fill (i + 1)
        | Error e -> Error e
    in
    fill 0

let push t out =
  let pos = Vec.length t.rows in
  Vec.push t.rows out;
  Hashtbl.iter (fun col idx -> index_add idx out.(col) pos) t.indexes

let invalidate t =
  Array.fill t.distinct 0 (Array.length t.distinct) (-1);
  t.batch_cache <- None

let insert t row =
  Perm_fault.trip fp_insert;
  match stage t row with
  | Error e -> Error e
  | Ok out ->
    push t out;
    invalidate t;
    Ok ()

let insert_all t rows =
  let rec go = function
    | [] -> Ok ()
    | r :: rest -> ( match insert t r with Ok () -> go rest | Error e -> Error e)
  in
  go rows

(* Position [p] once the ascending [deleted] positions are gone, or -1
   when [p] is one of them. *)
let shifted deleted p =
  let lo = ref 0 and hi = ref (Array.length deleted) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if deleted.(mid) < p then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length deleted && deleted.(!lo) = p then -1 else p - !lo

(* Index position lists are newest first, so a list whose head precedes
   the first deleted position is unchanged. *)
let remap_index deleted idx =
  Value_hash.filter_map_inplace
    (fun _ positions ->
      match positions with
      | p :: _ when p < deleted.(0) -> Some positions
      | _ -> (
        match
          List.filter_map
            (fun p ->
              let q = shifted deleted p in
              if q < 0 then None else Some q)
            positions
        with
        | [] -> None
        | l -> Some l))
    idx

(* All-or-nothing row delta for DELETE/UPDATE: the fault point trips,
   every appended row is staged and the positions are checked before
   the first mutation, so an error — or an injected fault — leaves the
   table and its indexes exactly as they were. *)
let apply_delta t ~deleted ~appended =
  Perm_fault.trip fp_insert;
  let rec stage_all acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest -> (
      match stage t r with Ok o -> stage_all (o :: acc) rest | Error e -> Error e)
  in
  match stage_all [] appended with
  | Error e -> Error e
  | Ok staged -> (
    match Vec.remove_sorted t.rows deleted with
    | exception Invalid_argument msg -> Error msg
    | () ->
      if Array.length deleted > 0 then
        Hashtbl.iter (fun _ idx -> remap_index deleted idx) t.indexes;
      List.iter (push t) staged;
      if Array.length deleted > 0 || staged <> [] then invalidate t;
      Ok ())

let truncate t =
  Vec.clear t.rows;
  invalidate t;
  (* keep index definitions, drop their contents *)
  Hashtbl.iter (fun _ idx -> Value_hash.reset idx) t.indexes

let scan t =
  Perm_fault.trip fp_scan;
  Vec.to_seq t.rows

let to_list t = Vec.to_list t.rows

(* Chunked access for morsel-driven parallel scans: contiguous row slices
   in insertion order, so concatenating the chunks reproduces [scan]. *)
let scan_chunk t ~pos ~len = Vec.sub t.rows pos len

let scan_morsels t ~rows =
  Perm_fault.trip fp_scan;
  Vec.chunks t.rows ~size:rows

(* Columnar scan for the vectorized executor. The transpose runs once per
   (table version, batch size) and the resulting image — column arrays
   shared by every batch — is reused by all later scans; any mutation
   drops it. The fault point trips per scan, like [scan_morsels], so
   chaos schedules are unchanged by caching. *)
let scan_batches t ~rows =
  Perm_fault.trip fp_scan;
  let size = max 1 rows in
  match t.batch_cache with
  | Some (sz, batches) when sz = size -> batches
  | _ ->
    let n = Vec.length t.rows in
    let arity = Schema.arity t.schema in
    let batches =
      Array.init
        ((n + size - 1) / size)
        (fun bi ->
          let pos = bi * size in
          let len = min size (n - pos) in
          let cols =
            Array.init arity (fun c ->
                Array.init len (fun i -> (Vec.get t.rows (pos + i)).(c)))
          in
          Batch.dense cols len)
    in
    t.batch_cache <- Some (size, batches);
    batches

module Int_set = Hashtbl.Make (Int)
module String_set = Hashtbl.Make (String)

exception Off_type

(* Distinct values of one column, NULL counting as one value. Int, Date
   and Text columns hash the unboxed payload; other types, or a column
   holding an off-type value, take the generic path, which keys on
   [(Value.hash v, v)] under structural equality (so NaN is one value
   and -0.0 equals 0.0). Both paths count the same values. *)
let count_distinct t col =
  let typed (type k) (module H : Hashtbl.S with type key = k) unbox =
    let set = H.create 64 and null = ref 0 in
    Vec.iter
      (fun row ->
        match row.(col) with
        | Value.Null -> null := 1
        | v -> H.replace set (unbox v) ())
      t.rows;
    H.length set + !null
  in
  let generic () =
    let set = Hashtbl.create 64 in
    Vec.iter (fun row -> let v = row.(col) in Hashtbl.replace set (Value.hash v, v) ()) t.rows;
    Hashtbl.length set
  in
  try
    match t.cols.(col).ty with
    | Dtype.Int ->
      typed (module Int_set) (function Value.Int i -> i | _ -> raise Off_type)
    | Dtype.Date ->
      typed (module Int_set) (function Value.Date d -> d | _ -> raise Off_type)
    | Dtype.Text ->
      typed (module String_set) (function Value.Text s -> s | _ -> raise Off_type)
    | Dtype.Float | Dtype.Bool | Dtype.Any -> generic ()
  with Off_type -> generic ()

let distinct_estimate t col =
  if col < 0 || col >= Array.length t.distinct then
    invalid_arg "Heap.distinct_estimate: column out of range";
  if t.distinct.(col) < 0 then t.distinct.(col) <- count_distinct t col;
  t.distinct.(col)

let create_index t col =
  if col < 0 || col >= Schema.arity t.schema then
    invalid_arg "Heap.create_index: column out of range";
  if not (Hashtbl.mem t.indexes col) then begin
    let idx = Value_hash.create 256 in
    Vec.iteri (fun pos row -> index_add idx row.(col) pos) t.rows;
    Hashtbl.replace t.indexes col idx
  end

let drop_index t col = Hashtbl.remove t.indexes col
let has_index t col = Hashtbl.mem t.indexes col

let index_probe t col key =
  match Hashtbl.find_opt t.indexes col with
  | None -> invalid_arg "Heap.index_probe: column is not indexed"
  | Some idx ->
    if Value.is_null key then Seq.empty
    else (
      match Value_hash.find_opt idx key with
      | None -> Seq.empty
      | Some positions ->
        List.to_seq (List.rev_map (fun pos -> Vec.get t.rows pos) positions))
