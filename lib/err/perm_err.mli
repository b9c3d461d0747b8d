(** Typed error taxonomy and the cooperative cancellation token behind the
    resource governor.

    Every failure surfaced by {!Perm_engine.Engine} carries a {!kind}, so
    callers can distinguish retryable conditions (a statement killed by the
    governor, an injected fault) from fatal ones (a malformed query, a
    genuine runtime error) without parsing message strings. The legacy
    string surface is preserved through {!to_string}, which returns the
    bare message unchanged. *)

type kind =
  | Parse  (** the statement never parsed *)
  | Analyze  (** semantic analysis failed: unknown relation, type error, … *)
  | Runtime  (** data-dependent execution error: division by zero, casts *)
  | Timeout  (** killed by [statement_timeout] *)
  | Resource_exhausted  (** killed by [row_limit] or the tuple budget *)
  | Cancelled  (** cooperatively cancelled by the session *)
  | Internal  (** an invariant broke; a bug, never the user's fault *)
  | Faulted  (** a {!Perm_fault} injection point fired *)

type t = { kind : kind; msg : string }

val make : kind -> string -> t
val parse : string -> t
val analyze : string -> t
val runtime : string -> t
val timeout : string -> t
val resource : string -> t
val cancelled : string -> t
val internal : string -> t
val faulted : string -> t

val kind_label : kind -> string
(** Stable lowercase slug: ["parse"], ["timeout"], … (metric suffixes and
    the CLI error tag). *)

val to_string : t -> string
(** The bare message, unchanged — the compatibility shim for the legacy
    [(_, string) result] surface. *)

val describe : t -> string
(** ["msg"] for [Parse]/[Analyze]/[Runtime] (self-explanatory messages),
    ["kind: msg"] for governor/fault kinds, so interactive users see why a
    statement was killed. *)

val retryable : t -> bool
(** [true] for transient failures where re-running the statement (possibly
    with raised limits) can succeed: [Timeout], [Resource_exhausted],
    [Cancelled] and [Faulted]. *)

exception Cancel of kind * string
(** Raised cooperatively from {!Token.check}/{!Token.charge} inside the
    executor; mapped back to an [Error] of the same kind at the engine
    boundary. [kind] is always [Timeout], [Resource_exhausted] or
    [Cancelled]. *)

(** A cooperative cancellation token: one per top-level statement, checked
    by the executor at operator boundaries. All state is atomic, so a
    [cancel] from another domain is seen at the executor's next check. *)
module Token : sig
  type t

  val none : t
  (** The inert token: never cancels, never charges. The executor skips
      its per-row guard entirely when handed [none], so sessions without
      guardrails pay nothing. *)

  val create : ?timeout_ms:float -> ?tuple_budget:int -> unit -> t
  (** [timeout_ms] arms a wall-clock deadline measured from now;
      [tuple_budget] arms a cumulative tuple-flow budget (tuples counted
      across operator boundaries, the governor's memory proxy). Omitted
      limits stay unarmed. *)

  val active : t -> bool
  (** [true] when the token can ever fire (armed limits, or not [none]) —
      the executor's cue to install its per-operator guard. *)

  val cancel : t -> string -> unit
  (** Manual cooperative cancel ([Cancelled] kind); idempotent, safe from
      any domain. No effect on [none]. *)

  val cancelled : t -> (kind * string) option

  val check : t -> unit
  (** Raise {!Cancel} if the token has fired or the deadline has passed. *)

  val charge : t -> int -> unit
  (** Count [n] more tuples against the budget, then {!check}. Raises
      {!Cancel} with [Resource_exhausted] once the budget is exceeded. *)
end
