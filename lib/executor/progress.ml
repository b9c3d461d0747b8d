(* A lock-free progress counter for a running statement: rows produced at
   the plan root. The executing domain only touches an atomic; readers
   (the CLI's progress sampler on another domain, Engine.progress) load it
   without coordination, so sampling never perturbs execution. *)

type t = int Atomic.t

let create () = Atomic.make 0
let add_rows t n = if n > 0 then ignore (Atomic.fetch_and_add t n)
let incr_rows t = ignore (Atomic.fetch_and_add t 1)
let rows t = Atomic.get t
