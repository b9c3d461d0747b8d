(* Clock, order statistics and result fingerprints shared by the workloads
   and the traced run. *)

module Tuple = Perm_storage.Tuple

(* Monotonic clock in seconds (CLOCK_MONOTONIC via bechamel's stub). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolated quantile of an unsorted array, [q] in [0, 1]. *)
let quantile values q =
  let n = Array.length values in
  if n = 0 then nan
  else begin
    let a = Array.copy values in
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median values = quantile values 0.5

(* The tail percentile ladder. A workload names the percentile it reports
   (chosen so its nominal sample count leaves well over ten samples beyond
   it); if a run has fewer, the next lower rung with at least ten samples
   beyond it is used instead. Returns (percentile, samples beyond, value). *)
let ladder = [ 99.9; 99.5; 99.0; 98.0; 95.0; 90.0; 75.0; 50.0 ]

let tail ~target values =
  let n = Array.length values in
  let beyond p = int_of_float (float_of_int n *. (1. -. (p /. 100.))) in
  let rungs = List.filter (fun p -> p <= target) ladder in
  let p =
    match List.find_opt (fun p -> beyond p >= 10) rungs with
    | Some p -> p
    | None -> 50.0
  in
  (p, beyond p, quantile values (p /. 100.))

(* Growable float buffer for latency samples. It lives outside the OCaml
   heap (a Bigarray), so [Gc.top_heap_words] measures the workload and not
   the benchmark's own bookkeeping, which grows with throughput. *)
module Samples = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout 1024; n = 0 }

  let add t x =
    if t.n = Array1.dim t.a then begin
      let b = Array1.create float64 c_layout (2 * t.n) in
      Array1.blit t.a (Array1.sub b 0 t.n);
      t.a <- b
    end;
    Array1.unsafe_set t.a t.n x;
    t.n <- t.n + 1

  let to_array t = Array.init t.n (Array1.get t.a)
  let length t = t.n
end

(* Order-independent result fingerprints: a row count plus a sum of mixed
   row hashes. Cheap enough to check every result of a timed run. *)
let mix h =
  let h = h lxor (h lsr 33) in
  let h = h * 0x62a9d9ed799705f5 in
  let h = h lxor (h lsr 28) in
  h * 0x4be98134a5976fd3

type fingerprint = { fp_rows : int; fp_sum : int }

let multiset rows =
  List.fold_left
    (fun fp r -> { fp_rows = fp.fp_rows + 1; fp_sum = fp.fp_sum + mix (Tuple.hash r) })
    { fp_rows = 0; fp_sum = 0 } rows

(* The distinct rows of [rows] projected onto their first [n] columns. *)
let projected_set n rows =
  let seen = Tuple.Hash.create 256 in
  List.iter (fun r -> Tuple.Hash.replace seen (Array.sub r 0 n) ()) rows;
  Tuple.Hash.fold
    (fun r () fp -> { fp_rows = fp.fp_rows + 1; fp_sum = fp.fp_sum + mix (Tuple.hash r) })
    seen { fp_rows = 0; fp_sum = 0 }

let set_of rows =
  match rows with [] -> projected_set 0 [] | r :: _ -> projected_set (Array.length r) rows
