(** Span-based tracing for the statement pipeline.

    A span is a named wall-clock interval with attributes and child spans;
    the engine opens one root span per statement and a child per phase
    (parse → analyze → rewrite → optimize → execute), giving every
    statement a duration breakdown as a tree.

    Spans are plain mutable records with no global state: whoever starts
    the root owns the trace. Creating a span costs two small allocations
    and one clock read, so per-statement tracing is cheap enough to stay
    always-on; per-{e row} instrumentation lives in the executor and is
    opt-in. *)

type span

val now : unit -> float
(** Wall-clock seconds ([Unix.gettimeofday]). *)

val start : string -> span
(** A fresh root span, started now. *)

val finish : span -> unit
(** Freeze the duration. Idempotent: the first call wins. *)

val child : span -> string -> span
(** Start a new span attached under the parent. *)

val attach : span -> span -> unit
val annotate : span -> string -> string -> unit

val timed : span -> string -> (unit -> 'a) -> 'a
(** [timed parent name f] runs [f] inside a fresh child span, finishing it
    even when [f] raises. *)

val duration_ms : span -> float
(** Duration in milliseconds; for an open span, time since start. *)

val name : span -> string
val children : span -> span list
(** Children in start order. *)

val attrs : span -> (string * string) list
val find : span -> string -> span option
(** First direct child with the given name. *)

val iter : (span -> unit) -> span -> unit
(** Pre-order traversal of the span tree. *)

val to_string : span -> string
(** Indented tree with per-span milliseconds and percent of the root. *)

val to_json : span -> Json.t

val start_s : span -> float
(** Absolute start time in seconds ([Unix.gettimeofday] domain). *)

val to_chrome_json : span list -> Json.t
(** Render finished root spans in Chrome trace-event format (an object
    with a ["traceEvents"] array of "X" complete events, timestamps in
    microseconds relative to the earliest root) — loadable in
    about://tracing or Perfetto. Every span renders on [tid] 1, which a
    [thread_name] metadata event labels "engine". *)
