(** Statement-statistics accumulator — the [pg_stat_statements] analog.

    Statements are aggregated by fingerprint (normalized SQL text supplied
    by the caller, so this module has no dependency on the SQL frontend);
    base relations by name. The engine records into an accumulator it owns
    and serves the contents back as the [perm_stat_statements] and
    [perm_stat_relations] system views. At most {!max_statements}
    fingerprints are kept: a new one beyond that evicts the least-called
    entry. *)

type statement_stat = private {
  st_fingerprint : string;
  st_query : string;  (** first raw SQL text seen for this fingerprint *)
  mutable st_calls : int;
  mutable st_errors : int;
  mutable st_rows : int;
  mutable st_total_ms : float;
  mutable st_max_ms : float;
  mutable st_phase_ms : (string * float) list;
  mutable st_rule_counts : (string * int) list;
  st_provenance : bool;
}

type relation_stat = private {
  rel_name : string;
  mutable rel_scans : int;
  mutable rel_rows : int;
}

type t

val create : unit -> t

val max_statements : int
(** Bound on retained fingerprints (256, like the history store). *)

val reset : t -> unit

val record_statement :
  t ->
  fingerprint:string ->
  sql:string ->
  ms:float ->
  phases:(string * float) list ->
  rules:(string * int) list ->
  provenance:bool ->
  rows:int ->
  error:bool ->
  unit
(** Fold one completed statement into the accumulator. [phases] are
    per-phase durations (analyze/rewrite/optimize/execute), [rules] the
    rewrite-rule firing counts for this statement. *)

val record_scan : t -> relation:string -> rows:int -> unit
(** Fold one base-relation scan (from executor instrumentation). *)

val phase_ms : statement_stat -> string -> float
(** Accumulated milliseconds for a named phase; [0.] when never seen. *)

val rule_firings : statement_stat -> int
(** Total rewrite-rule firings across all rules. *)

val mean_ms : statement_stat -> float

val statements : t -> statement_stat list
(** Sorted by total time descending, then fingerprint. *)

val relations : t -> relation_stat list
(** Sorted by relation name. *)
