(** Append-only, CRC-checksummed write-ahead log with crash recovery.

    File layout: an 8-byte magic ["PERMWAL1"] followed by records, each
    [u32 LE payload-length][u32 LE CRC-32][payload] where the payload is
    one {!frame}. The engine appends mutation frames at statement
    boundaries between a lazy [Begin] and a [Commit], and fsyncs on
    [Commit] only — the durability contract is: committed work survives a
    crash, a torn tail may lose (exactly) the open transaction.

    {!open_} replays the log through caller callbacks: it applies the
    [snapshot.sql] checkpoint first (if present), then every committed
    transaction in order; the scan stops at the first structurally bad
    record (short header, bad CRC, undecodable frame) and truncates that
    torn tail off the file. Uncommitted trailing frames are discarded and
    duplicate [Commit]s are ignored, so replaying twice — or replaying a
    log whose crash landed between append and engine bookkeeping — is
    idempotent.

    Checkpoints are crash-atomic via an epoch protocol: {!checkpoint}
    first appends a fsynced [Checkpoint] marker frame carrying the new
    epoch, then publishes the snapshot (tmp file + rename + directory
    fsync) with the same epoch in a leading header comment, then
    truncates the log. Replay skips every record up to and including the
    last marker whose epoch is [<=] the snapshot's epoch — those records
    are already contained in the snapshot — so a crash in any window of
    the checkpoint recovers to exactly the committed state, never a
    double application.

    Fault points ["wal.append"], ["wal.fsync"], ["wal.replay"],
    ["wal.checkpoint.mark"], ["wal.checkpoint.publish"] and
    ["wal.checkpoint.truncate"] ({!Perm_fault}) fire before the
    corresponding I/O so the chaos suite can kill-and-recover at every
    stage of a commit or checkpoint. *)

val magic : string

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, polynomial [0xedb88320]) as a non-negative int. *)

type frame =
  | Begin
  | Commit
  | Abort
  | Create of string  (** canonical DDL: CREATE TABLE/VIEW/INDEX *)
  | Drop of string  (** canonical DDL: DROP TABLE/VIEW *)
  | Insert of string * Perm_storage.Tuple.t list  (** rows appended *)
  | Delete of string  (** heap truncated *)
  | Replace of string * Perm_storage.Tuple.t list
      (** heap replaced: written by older versions only; replay still
          applies it, as a truncate followed by an insert *)
  | Delta of string * int array * Perm_storage.Tuple.t list
      (** DELETE/UPDATE: remove the rows at the ascending positions, then
          append the rows ({!Perm_storage.Heap.apply_delta}) *)
  | Prov of string * string list  (** provenance-column names of a table *)
  | Checkpoint of int
      (** epoch marker: every record before this one is captured by the
          snapshot published for this epoch *)

val frame_label : frame -> string
(** Stable lowercase slug (["begin"], ["insert"], ["checkpoint"], …) —
    the flight recorder's [wal_append] event tag. *)

val encode_frame : frame -> string
(** Payload bytes of one record (length/CRC header not included). *)

val decode_frame : string -> frame option
(** [None] on any malformed payload (wrong tag, short read, trailing
    bytes) — replay treats that record as the start of a torn tail. *)

(** Replay callbacks. Each returns [Error msg] to abort the whole replay
    (the engine restores its pre-replay state in that case). *)
type apply = {
  ap_sql : string -> (unit, string) result;
      (** run canonical DDL, or the whole snapshot script *)
  ap_insert : string -> Perm_storage.Tuple.t list -> (unit, string) result;
  ap_truncate : string -> (unit, string) result;
  ap_delta :
    string -> int array -> Perm_storage.Tuple.t list -> (unit, string) result;
  ap_prov : string -> string list -> (unit, string) result;
}

type replay = {
  rp_snapshot : bool;  (** a snapshot.sql was applied first *)
  rp_records : int;  (** structurally valid records scanned *)
  rp_committed : int;  (** committed transactions applied *)
  rp_discarded : int;  (** trailing uncommitted frames discarded *)
  rp_skipped : int;
      (** records skipped because the snapshot already contained them
          (crash landed between snapshot publish and log truncation) *)
  rp_truncated_bytes : int;  (** torn-tail bytes chopped off the log *)
}

val no_replay : replay

type t

val open_ : dir:string -> apply:apply -> (t * replay, string) result
(** Open (creating [dir] and the log as needed) and replay. On [Error]
    nothing is kept open; an [Error] from a callback or an I/O failure
    surfaces here, while a fault injected at ["wal.replay"] escapes as
    {!Perm_fault.Injected} (no resources are held at the trip point) so
    the engine can map it to its typed [Faulted] error. A log shorter
    than the magic is restarted from scratch (torn creation); a file
    with a wrong magic is refused. *)

val append : t -> frame -> unit
(** Append one record (single [write]). Trips ["wal.append"] first; on
    {!Perm_fault.Injected} or an I/O exception nothing is recorded and
    the engine marks the log dirty. *)

val fsync : t -> unit
(** Flush to stable storage; trips ["wal.fsync"] first. *)

val checkpoint : t -> snapshot_sql:string -> prov:(string * string list) list -> unit
(** Compact: append a fsynced [Checkpoint] marker for the next epoch,
    publish [snapshot_sql] to [snapshot.sql] (temp file + fsync + rename
    + directory fsync, with the epoch in a header comment), truncate the
    log back to the magic, and re-log [prov] (table → provenance
    columns, the one piece of state the SQL snapshot cannot express) as
    a single committed transaction. Crash-safe at every step: replay
    skips records the published snapshot already contains (see the
    module doc). Trips ["wal.checkpoint.mark"],
    ["wal.checkpoint.publish"] and ["wal.checkpoint.truncate"] before
    the marker append, the rename and the truncation respectively. *)

type status = {
  st_dir : string;
  st_bytes : int;  (** log size in bytes *)
  st_records : int;  (** records since the last checkpoint *)
  st_last_lsn : int;  (** monotonic record ordinal, replay included *)
  st_fsyncs : int;  (** fsyncs since open *)
  st_epoch : int;  (** epoch of the published snapshot (0 = none) *)
  st_replay : replay;  (** what {!open_} recovered *)
}

val status : t -> status
val log_path : t -> string
val close : t -> unit
