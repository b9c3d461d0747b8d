type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let copy t = { data = Array.copy t.data; len = t.len }
let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let grow t elt =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let data = Array.make new_cap elt in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let clear t =
  t.data <- [||];
  t.len <- 0

(* Compact in place past each removed slot; vacated tail slots are
   refilled with a surviving element so they hold no stale reference. *)
let remove_sorted t positions =
  let k = Array.length positions in
  Array.iteri
    (fun i p ->
      if p < 0 || p >= t.len || (i > 0 && p <= positions.(i - 1)) then
        invalid_arg "Vec.remove_sorted: positions must ascend within bounds")
    positions;
  if k = 0 then ()
  else if k = t.len then clear t
  else begin
    let dst = ref positions.(0) and next = ref 1 in
    for src = positions.(0) + 1 to t.len - 1 do
      if !next < k && positions.(!next) = src then incr next
      else begin
        t.data.(!dst) <- t.data.(src);
        incr dst
      end
    done;
    Array.fill t.data !dst (t.len - !dst) t.data.(0);
    t.len <- !dst
  end

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))

let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Vec.sub: range out of bounds";
  Array.sub t.data pos len

(* Fixed-size slices in element order: the morsels of morsel-driven
   execution. The final chunk may be short; an empty vector has none. *)
let chunks t ~size =
  if size <= 0 then invalid_arg "Vec.chunks: size must be positive";
  let n = (t.len + size - 1) / size in
  Array.init n (fun i ->
      let pos = i * size in
      Array.sub t.data pos (min size (t.len - pos)))

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t

let to_seq t =
  let rec node i () =
    if i >= t.len then Seq.Nil else Seq.Cons (t.data.(i), node (i + 1))
  in
  node 0
