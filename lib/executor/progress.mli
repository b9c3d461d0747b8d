(** Lock-free live progress for a running statement.

    One value per top-level statement, written by the executing domain
    (rows materialized at the plan root) and read concurrently by progress
    samplers — the CLI's [\progress] ticker and [Engine.progress] —
    without locks or coordination. *)

type t

val create : unit -> t
val add_rows : t -> int -> unit
val incr_rows : t -> unit

val rows : t -> int
(** Rows materialized at the plan root so far. *)
