(** Logical optimizer and cost model (paper Fig. 3, "Planner").

    Perm hands rewritten provenance queries to the host DBMS optimizer and
    "benefits from the query optimization techniques incorporated into
    PostgreSQL" (§2.3); this module plays that role. It also supplies the
    cost oracle behind the paper's "cost-based solution for choosing the
    best rewrite strategy" (§2.2).

    Rewrites (each independently switchable, for the optimizer-ablation
    bench):
    - constant folding over scalar expressions (errors like division by
      zero are left in place to fail at runtime, as SQL requires);
    - predicate pushdown: filters move below projections (with
      substitution) and into the matching side of inner/cross joins —
      never past outer joins, aggregates or limits. A join-key equality
      that spans both sides of an inner/cross join joins its predicate
      (a comma join becomes a hash join), and a constant pushed onto one
      join key is carried to the other side of an inner, cross or semi
      join;
    - projection pruning: unused projection columns and aggregate calls are
      dropped, and identity projections removed.

    The cardinality model uses table statistics (row counts and per-column
    distinct counts) with textbook selectivities: [1/distinct] for
    equality with a constant, [1/max(distinct)] for equi-joins, fixed
    selectivities for ranges. *)

type stats = {
  table_rows : string -> int;
  table_distinct : string -> string -> int;
      (** [table_distinct table column] — distinct values, [>= 1] *)
  has_index : string -> string -> bool;
      (** [has_index table column] — a hash index exists, enabling the
          [Filter(col = const)(Scan)] to [Index_scan] rewrite *)
}

val no_stats : stats
(** Assumes 1000 rows and 100 distinct values everywhere; used when the
    caller has no statistics (plain unit tests). *)

val estimate_rows : stats -> Perm_algebra.Plan.t -> float

val node_estimates :
  stats -> Perm_algebra.Plan.t -> (Perm_algebra.Plan.t * float) list
(** Cardinality estimates for every node of the plan, in pre-order — the
    same numbering {!Perm_executor.Executor.node_ids} assigns, so the
    i-th entry is the estimate for node id i. Feeds the EXPLAIN ANALYZE
    est/act annotations and the [perm_stat_plans] view. *)

val estimate_total : stats -> Perm_algebra.Plan.t -> float
(** Sum of {!node_estimates} over the whole tree — the per-execution
    "estimated row traffic" scalar retained by the telemetry history.
    Estimates are deliberately kept out of {!Perm_executor.Executor.plan_hash}:
    refreshed statistics move this total without moving the hash unless
    the optimizer actually picks a different plan. *)

val cost : stats -> Perm_algebra.Plan.t -> float
(** Abstract cost units; only comparisons between plans are meaningful. *)

type config = {
  fold_constants : bool;
  push_predicates : bool;
  prune_projections : bool;
  decorrelate_applies : bool;
      (** rewrite [Apply] over an uncorrelated (filtered) right side into
          the equivalent semi/anti/inner/left hash join. Separately
          switchable because it also de-correlates the provenance
          rewriter's {e lateral} aggregation strategy back into the join
          strategy — the strategy-ablation bench turns it off to measure
          the raw lateral plan. *)
  use_indexes : bool;
      (** replace [Filter(col = const)] directly over a [Scan] by an
          [Index_scan] when the session has a matching hash index *)
}

val default_config : config
(** Everything on. *)

val disabled_config : config

val optimize : ?config:config -> stats -> Perm_algebra.Plan.t -> Perm_algebra.Plan.t
(** Semantics-preserving (pinned by qcheck equivalence properties in the
    test suite). Plans must be marker-free. *)
