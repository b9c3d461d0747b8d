(** The always-on flight recorder: a bounded ring of typed events.

    Every subsystem milestone worth a post-mortem — statement lifecycle,
    plan-node cardinalities, WAL appends/fsyncs/checkpoints/replays, spill
    runs and fallbacks, GC major slices, fault firings, governor verdicts,
    watchdog flags — lands here as a structured
    payload, not a formatted string. When the engine detects an anomaly it
    snapshots the tail of this ring into the forensics bundle, so the
    bundle shows what the whole system was doing in the run-up, not just
    the failing statement.

    Recording is wait-free for writers: one atomic fetch-and-add plus an
    array store, no mutex. That makes it safe to call from any domain and
    from reentrant contexts (a [Gc.alarm] firing mid-record takes the next
    slot instead of deadlocking), and cheap enough to leave on by default
    — the B14 bench gates the on-vs-off overhead. Readers ([recent],
    [snapshot]) may race a concurrent writer and see a ring that is one
    event ahead or behind; every event they see is complete and typed.

    Capacity [0] disables the recorder entirely (and, in the engine,
    forensics-bundle capture with it) — the bench's off-arm knob, mirror
    of [History.set_capacity h 0]. *)

type payload =
  | Stmt_start of { sql : string; fingerprint : string }
  | Stmt_finish of {
      fingerprint : string;
      ms : float;
      rows : int;
      error : string option;  (** the error kind label, [None] on success *)
    }
  | Plan_node of {
      fingerprint : string;
      node : int;
      operator : string;
      est_rows : float;
      act_rows : int;
    }  (** recorded on the profiled (instrumented) path *)
  | Wal_append of { frame : string }  (** frame label: ["begin"], ["insert"], … *)
  | Wal_fsync of { fsyncs : int }  (** total fsyncs after this one *)
  | Wal_checkpoint of { epoch : int; ok : bool }
  | Wal_replay of {
      records : int;
      committed : int;
      discarded : int;
      skipped : int;
      truncated_bytes : int;
    }  (** what crash recovery found when the log was opened *)
  | Spill of { kind : string; detail : string }
      (** [kind] one of ["spill"], ["run"], ["chunk"], ["fallback"];
          [detail] carries the batch-path fallback reason when known *)
  | Gc_major of { heap_words : int; major_collections : int }
  | Fault of { point : string }
  | Governor of { verdict : string; detail : string }
      (** [verdict] is the kill kind label: ["timeout"], ["cancelled"],
          ["resource_exhausted"] *)
  | Watchdog of { fingerprint : string; factor : float; cause : string }
  | Note of { tag : string; detail : string }  (** escape hatch *)

type event = {
  ev_seq : int;  (** global, monotone; total order over the session *)
  ev_ts : float;  (** unix seconds *)
  ev_payload : payload;
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 512 events. *)

val enabled : t -> bool
val capacity : t -> int

val set_capacity : t -> int -> unit
(** Replace the ring, keeping the newest events that fit. [0] disables
    recording and discards everything retained (the off-arm knob);
    negative values are clamped to [0]. *)

val record : t -> payload -> unit
(** Stamp and append one event; a no-op while disabled. Wait-free, safe
    from any domain. *)

val recorded : t -> int
(** Total events ever recorded (including those the ring has forgotten). *)

val dropped : t -> int
(** Events lost to ring wrap-around or capacity changes (approximate
    under concurrent writers, exact otherwise). *)

val recent : ?limit:int -> t -> event list
(** The retained tail in sequence order, oldest first; [limit] keeps only
    the newest that many. *)

val payload_kind : payload -> string
(** Stable slug: ["stmt_start"], ["wal_append"], ["gc_major"], … — the
    ["kind"] field of the JSON rendering. *)

val event_to_json : event -> Json.t
(** One flat object: [seq], [ts], [kind], then the payload's fields. *)
