(** An in-memory heap relation: the rows of one base table.

    Insertion validates arity and types against the table schema (with
    implicit int→float widening, as PostgreSQL does on assignment). *)

type t

val create : Perm_catalog.Schema.t -> t

val copy : t -> t
(** Snapshot for transactions: rows are shared (tuples are never mutated in
    place — DML removes and appends whole rows), the row vector and the
    index structures are duplicated. *)

val schema : t -> Perm_catalog.Schema.t
val row_count : t -> int
val insert : t -> Tuple.t -> (unit, string) result
val insert_all : t -> Tuple.t list -> (unit, string) result
(** Fails atomically-per-row: rows before the offending one are kept (the
    engine wraps DML so callers see the error). *)

val apply_delta :
  t -> deleted:int array -> appended:Tuple.t list -> (unit, string) result
(** The write path behind DELETE and UPDATE: remove the rows at
    [deleted] (strictly ascending positions) in place, then append
    [appended], so the heap holds the surviving rows in their old order
    followed by the new ones. All-or-nothing: the [heap.insert] fault
    point trips, every appended row is validated (and type-coerced) and
    the positions are checked {e before} the first mutation, so on
    [Error] — or an injected fault — the table and its indexes are
    untouched. *)

val truncate : t -> unit
val scan : t -> Tuple.t Seq.t
val to_list : t -> Tuple.t list

val scan_chunk : t -> pos:int -> len:int -> Tuple.t array
(** Contiguous slice of the heap in insertion order.
    @raise Invalid_argument when the range is out of bounds. *)

val scan_batches : t -> rows:int -> Batch.t array
(** The heap as columnar batches of at most [rows] rows each, in
    insertion order: their live tuples reproduce {!scan}. The transpose
    runs once per (table version, batch size) and is cached until the
    next write, so repeated vectorized scans share one immutable columnar
    image. Callers must not mutate the column arrays. *)

val distinct_estimate : t -> int -> int
(** [distinct_estimate h col] is the exact number of distinct values in
    column [col] (NULL counts as one value), computed for that column
    alone on first use and cached until the next write. Used
    by the planner's cardinality model (paper: "cost-based solution for
    choosing the best rewrite strategy"). *)

(** {1 Hash indexes}

    Equality indexes on single columns, maintained incrementally by
    {!insert} and {!apply_delta} and dropped content-wise by {!truncate}
    (the index definition survives). NULL keys are not indexed — SQL
    equality never matches them. *)

val create_index : t -> int -> unit
(** Indexes column [col]; idempotent. Builds from existing rows. *)

val drop_index : t -> int -> unit
val has_index : t -> int -> bool

val index_probe : t -> int -> Perm_value.Value.t -> Tuple.t Seq.t
(** Rows whose column [col] equals the key under SQL [=] (NULL probes
    return nothing).
    @raise Invalid_argument if the column is not indexed. *)
