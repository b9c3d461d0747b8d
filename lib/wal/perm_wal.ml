(* Append-only, CRC-checksummed write-ahead log.

   File layout: an 8-byte magic ("PERMWAL1") followed by records, each
   [u32 LE payload-length][u32 LE CRC-32 of payload][payload]. A payload
   is one {!frame}, written by the engine at statement boundaries:
   mutations accumulate between a lazy [Begin] and the [Commit] appended
   when the top-level statement (or explicit transaction) finishes, and
   only [Commit] is fsynced — the fsync contract is "committed work
   survives a crash; a torn tail may lose the open transaction".

   Replay scans from the magic, stops at the first structurally bad
   record (short header, over-long length, CRC mismatch, undecodable
   frame), truncates that torn tail off the file, and applies each
   committed transaction's frames through caller-supplied callbacks.
   Frames after the last [Commit] are discarded; a duplicate [Commit]
   (possible when a crash lands between the engine's append and its
   bookkeeping) applies nothing and is ignored.

   [checkpoint] compacts the log under a monotonically increasing
   *epoch* so the snapshot and the log can never disagree after a crash:
   (1) a fsynced [Checkpoint epoch] marker is appended, (2) the caller's
   SQL snapshot — prefixed with an epoch header line — is written to a
   temp file, fsynced, renamed over [snapshot.sql], and the directory is
   fsynced so the rename is durable, (3) only then is the log truncated
   back to the magic and provenance-column metadata (the one piece of
   engine state the SQL snapshot cannot express) re-logged as a
   committed [Prov] transaction. A crash anywhere in that sequence
   recovers exactly: replay skips every record up to (and including) the
   last [Checkpoint e] marker with [e <= snapshot epoch], because those
   records are provably captured by the applied snapshot — so the
   rename-landed-but-truncate-didn't window can no longer double-apply
   committed transactions, and the directory fsync stops the reverse
   window (truncate persisted, rename reverted) from losing them. *)

module Value = Perm_value.Value
module Tuple = Perm_storage.Tuple

let fp_append = Perm_fault.point "wal.append"
let fp_fsync = Perm_fault.point "wal.fsync"
let fp_replay = Perm_fault.point "wal.replay"

(* Checkpoint crash windows, in protocol order: [mark] fires before the
   epoch marker is appended, [publish] after the temp snapshot is written
   but before the rename, [truncate] after the rename is durable but
   before the log shrinks. The chaos suite kills at each and recovery
   must reproduce the committed state exactly. *)
let fp_ckpt_mark = Perm_fault.point "wal.checkpoint.mark"
let fp_ckpt_publish = Perm_fault.point "wal.checkpoint.publish"
let fp_ckpt_truncate = Perm_fault.point "wal.checkpoint.truncate"
let magic = "PERMWAL1"

(* ---- CRC-32 (IEEE 802.3, poly 0xedb88320) ------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xedb88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffffl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int
          (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xffl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.to_int (Int32.logxor !c 0xffffffffl) land 0xffffffff

(* ---- frames and their codec --------------------------------------- *)

type frame =
  | Begin
  | Commit
  | Abort
  | Create of string  (** canonical DDL: CREATE TABLE/VIEW/INDEX *)
  | Drop of string  (** canonical DDL: DROP TABLE/VIEW *)
  | Insert of string * Tuple.t list  (** rows appended to a heap *)
  | Delete of string  (** heap truncated *)
  | Replace of string * Tuple.t list
      (** heap contents replaced; no longer written, replayed for older
          logs *)
  | Delta of string * int array * Tuple.t list
      (** DELETE/UPDATE: rows removed at ascending positions, then rows
          appended *)
  | Prov of string * string list  (** provenance-column names of a table *)
  | Checkpoint of int
      (** epoch marker: every record before this one is captured by the
          snapshot carrying the same epoch *)

exception Corrupt

let add_u32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let add_i64 buf (n : int64) =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical n (8 * i)) 0xffL)))
  done

let add_lstring buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let add_value buf (v : Value.t) =
  match v with
  | Value.Null -> Buffer.add_char buf '\000'
  | Value.Int n ->
    Buffer.add_char buf '\001';
    add_i64 buf (Int64.of_int n)
  | Value.Float f ->
    Buffer.add_char buf '\002';
    add_i64 buf (Int64.bits_of_float f)
  | Value.Bool b ->
    Buffer.add_char buf '\003';
    Buffer.add_char buf (if b then '\001' else '\000')
  | Value.Text s ->
    Buffer.add_char buf '\004';
    add_lstring buf s
  | Value.Date d ->
    Buffer.add_char buf '\005';
    add_i64 buf (Int64.of_int d)

let add_rows buf rows =
  add_u32 buf (List.length rows);
  List.iter
    (fun row ->
      add_u32 buf (Array.length row);
      Array.iter (add_value buf) row)
    rows

let frame_label = function
  | Begin -> "begin"
  | Commit -> "commit"
  | Abort -> "abort"
  | Create _ -> "create"
  | Drop _ -> "drop"
  | Insert _ -> "insert"
  | Delete _ -> "delete"
  | Replace _ -> "replace"
  | Delta _ -> "delta"
  | Prov _ -> "prov"
  | Checkpoint _ -> "checkpoint"

let encode_frame frame =
  let buf = Buffer.create 64 in
  (match frame with
  | Begin -> Buffer.add_char buf '\000'
  | Commit -> Buffer.add_char buf '\001'
  | Abort -> Buffer.add_char buf '\002'
  | Create sql ->
    Buffer.add_char buf '\003';
    add_lstring buf sql
  | Drop sql ->
    Buffer.add_char buf '\004';
    add_lstring buf sql
  | Insert (tbl, rows) ->
    Buffer.add_char buf '\005';
    add_lstring buf tbl;
    add_rows buf rows
  | Delete tbl ->
    Buffer.add_char buf '\006';
    add_lstring buf tbl
  | Replace (tbl, rows) ->
    Buffer.add_char buf '\007';
    add_lstring buf tbl;
    add_rows buf rows
  | Prov (tbl, cols) ->
    Buffer.add_char buf '\008';
    add_lstring buf tbl;
    add_u32 buf (List.length cols);
    List.iter (add_lstring buf) cols
  | Checkpoint epoch ->
    Buffer.add_char buf '\009';
    add_i64 buf (Int64.of_int epoch)
  | Delta (tbl, deleted, rows) ->
    Buffer.add_char buf '\010';
    add_lstring buf tbl;
    add_u32 buf (Array.length deleted);
    Array.iter (add_u32 buf) deleted;
    add_rows buf rows);
  Buffer.contents buf

(* Decoding: a cursor over the payload string; any out-of-bounds read or
   unknown tag raises [Corrupt], which replay treats as a torn tail. *)

let u8 s pos =
  if !pos >= String.length s then raise Corrupt;
  let c = Char.code s.[!pos] in
  incr pos;
  c

let u32 s pos =
  let a = u8 s pos in
  let b = u8 s pos in
  let c = u8 s pos in
  let d = u8 s pos in
  a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

let i64 s pos =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor !v (Int64.shift_left (Int64.of_int (u8 s pos)) (8 * i))
  done;
  !v

let lstring s pos =
  let len = u32 s pos in
  if len < 0 || !pos + len > String.length s then raise Corrupt;
  let r = String.sub s !pos len in
  pos := !pos + len;
  r

let value s pos =
  match u8 s pos with
  | 0 -> Value.Null
  | 1 -> Value.Int (Int64.to_int (i64 s pos))
  | 2 -> Value.Float (Int64.float_of_bits (i64 s pos))
  | 3 -> Value.Bool (u8 s pos <> 0)
  | 4 -> Value.Text (lstring s pos)
  | 5 -> Value.Date (Int64.to_int (i64 s pos))
  | _ -> raise Corrupt

let rows s pos =
  let n = u32 s pos in
  if n < 0 || n > String.length s then raise Corrupt;
  List.init n (fun _ ->
      let arity = u32 s pos in
      if arity < 0 || arity > String.length s then raise Corrupt;
      Array.init arity (fun _ -> value s pos))

let decode_frame payload =
  match
    let pos = ref 0 in
    let frame =
      match u8 payload pos with
      | 0 -> Begin
      | 1 -> Commit
      | 2 -> Abort
      | 3 -> Create (lstring payload pos)
      | 4 -> Drop (lstring payload pos)
      | 5 ->
        let tbl = lstring payload pos in
        Insert (tbl, rows payload pos)
      | 6 -> Delete (lstring payload pos)
      | 7 ->
        let tbl = lstring payload pos in
        Replace (tbl, rows payload pos)
      | 8 ->
        let tbl = lstring payload pos in
        let n = u32 payload pos in
        if n < 0 || n > String.length payload then raise Corrupt;
        Prov (tbl, List.init n (fun _ -> lstring payload pos))
      | 9 ->
        let epoch = Int64.to_int (i64 payload pos) in
        if epoch < 0 then raise Corrupt;
        Checkpoint epoch
      | 10 ->
        let tbl = lstring payload pos in
        let n = u32 payload pos in
        if n > String.length payload then raise Corrupt;
        let deleted = Array.init n (fun _ -> u32 payload pos) in
        Delta (tbl, deleted, rows payload pos)
      | _ -> raise Corrupt
    in
    if !pos <> String.length payload then raise Corrupt;
    frame
  with
  | frame -> Some frame
  | exception Corrupt -> None

(* ---- replay -------------------------------------------------------- *)

type apply = {
  ap_sql : string -> (unit, string) result;
      (** run canonical DDL (or a whole snapshot script) *)
  ap_insert : string -> Tuple.t list -> (unit, string) result;
  ap_truncate : string -> (unit, string) result;
  ap_delta : string -> int array -> Tuple.t list -> (unit, string) result;
  ap_prov : string -> string list -> (unit, string) result;
}

type replay = {
  rp_snapshot : bool;  (** a snapshot.sql was applied first *)
  rp_records : int;  (** structurally valid records scanned *)
  rp_committed : int;  (** committed transactions applied *)
  rp_discarded : int;  (** trailing uncommitted frames discarded *)
  rp_skipped : int;
      (** records already captured by the snapshot (a checkpoint crashed
          between its rename and its log truncation) and skipped *)
  rp_truncated_bytes : int;  (** torn-tail bytes chopped off the log *)
}

let no_replay =
  {
    rp_snapshot = false;
    rp_records = 0;
    rp_committed = 0;
    rp_discarded = 0;
    rp_skipped = 0;
    rp_truncated_bytes = 0;
  }

type t = {
  dir : string;
  log_path : string;
  snapshot_path : string;
  fd : Unix.file_descr;
  mutable bytes : int;
  mutable records : int;  (** records in the log since the last checkpoint *)
  mutable last_lsn : int;  (** monotonic record ordinal, replay included *)
  mutable fsyncs : int;
  mutable epoch : int;  (** epoch of the published snapshot (0 = none) *)
  replayed : replay;
}

type status = {
  st_dir : string;
  st_bytes : int;
  st_records : int;
  st_last_lsn : int;
  st_fsyncs : int;
  st_epoch : int;
  st_replay : replay;
}

exception Apply_error of string

let ap = function Ok () -> () | Error msg -> raise (Apply_error msg)

let apply_one apply = function
  | Begin | Commit | Abort | Checkpoint _ -> ()
  | Create sql | Drop sql -> ap (apply.ap_sql sql)
  | Insert (tbl, rows) -> ap (apply.ap_insert tbl rows)
  | Delete tbl -> ap (apply.ap_truncate tbl)
  | Replace (tbl, rows) ->
    ap (apply.ap_truncate tbl);
    ap (apply.ap_insert tbl rows)
  | Delta (tbl, deleted, rows) -> ap (apply.ap_delta tbl deleted rows)
  | Prov (tbl, cols) -> ap (apply.ap_prov tbl cols)

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let u32_at s p =
  Char.code s.[p]
  lor (Char.code s.[p + 1] lsl 8)
  lor (Char.code s.[p + 2] lsl 16)
  lor (Char.code s.[p + 3] lsl 24)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Make a rename durable: fsync the containing directory. Best-effort on
   filesystems that reject fsync on a directory fd. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    Unix.close dfd
  | exception Unix.Unix_error _ -> ()

(* The snapshot carries its checkpoint epoch as a leading SQL-comment
   header so replay can prove which log records it already contains. The
   header is stripped before the script reaches the engine; a snapshot
   without one (or with an unparsable one) is epoch 0. *)
let epoch_header = "-- perm-wal-epoch: "

let render_snapshot ~epoch sql = Printf.sprintf "%s%d\n%s" epoch_header epoch sql

let split_snapshot data =
  let hlen = String.length epoch_header in
  if String.length data >= hlen && String.sub data 0 hlen = epoch_header then
    match String.index_opt data '\n' with
    | Some nl -> (
      match int_of_string_opt (String.trim (String.sub data hlen (nl - hlen))) with
      | Some epoch when epoch >= 0 ->
        (epoch, String.sub data (nl + 1) (String.length data - nl - 1))
      | _ -> (0, data))
    | None -> (0, data)
  else (0, data)

let open_ ~dir ~apply =
  let log_path = Filename.concat dir "wal.log" in
  let snapshot_path = Filename.concat dir "snapshot.sql" in
  try
    mkdir_p dir;
    let snapshot_epoch, snapshot_applied =
      if Sys.file_exists snapshot_path then begin
        let data = In_channel.with_open_bin snapshot_path In_channel.input_all in
        let epoch, sql = split_snapshot data in
        ap (apply.ap_sql sql);
        (epoch, true)
      end
      else (0, false)
    in
    let data =
      if Sys.file_exists log_path then
        In_channel.with_open_bin log_path In_channel.input_all
      else ""
    in
    if String.length data >= 8 && String.sub data 0 8 <> magic then
      Error (Printf.sprintf "%s is not a WAL file (bad magic)" log_path)
    else begin
      (* A log shorter than the magic can only be a torn creation — start
         it over. *)
      let fresh = String.length data < 8 in
      let total = String.length data in
      let pos = ref 8 in
      let good = ref 8 in
      let torn = ref false in
      let frames = ref [] in
      (* Pass 1 — structural scan: find the valid prefix and collect its
         frames without applying anything, because the skip point (below)
         depends on Checkpoint markers that may sit anywhere in the log. *)
      if not fresh then begin
        while (not !torn) && !pos + 8 <= total do
          let len = u32_at data !pos in
          let crc = u32_at data (!pos + 4) in
          if len < 0 || len > total - (!pos + 8) then torn := true
          else begin
            let payload = String.sub data (!pos + 8) len in
            if crc32 payload <> crc then torn := true
            else
              match decode_frame payload with
              | None -> torn := true
              | Some frame ->
                Perm_fault.trip fp_replay;
                frames := frame :: !frames;
                good := !pos + 8 + len;
                pos := !good
          end
        done;
        if !pos < total then torn := true
      end;
      let frames = Array.of_list (List.rev !frames) in
      let records = Array.length frames in
      (* Every record before a [Checkpoint e] marker is captured by the
         snapshot published for epoch [e]. If the snapshot on disk is at
         least that epoch, those records have already been applied via the
         snapshot — replaying them would double-apply committed work (the
         crash window between snapshot rename and log truncation). Skip
         through the LAST such marker; a log with no qualifying marker
         (the common case: truncation succeeded) replays in full. *)
      let skip_to = ref 0 in
      let max_epoch = ref snapshot_epoch in
      Array.iteri
        (fun i frame ->
          match frame with
          | Checkpoint e ->
            if e > !max_epoch then max_epoch := e;
            if e <= snapshot_epoch then skip_to := i + 1
          | _ -> ())
        frames;
      let skipped = !skip_to in
      (* Pass 2 — transactional replay of the surviving suffix. *)
      let pending = ref [] in
      let in_txn = ref false in
      let committed = ref 0 in
      let discarded = ref 0 in
      for i = skipped to records - 1 do
        match frames.(i) with
        | Begin ->
          (* an open transaction cut short by a new Begin never
             committed — discard it *)
          discarded := !discarded + List.length !pending;
          pending := [];
          in_txn := true
        | Commit ->
          if !in_txn || !pending <> [] then begin
            List.iter (apply_one apply) (List.rev !pending);
            incr committed;
            pending := [];
            in_txn := false
          end
          (* duplicate Commit: nothing pending, nothing to do *)
        | Abort ->
          discarded := !discarded + List.length !pending;
          pending := [];
          in_txn := false
        | Checkpoint _ -> ()
        | frame -> pending := frame :: !pending
      done;
      discarded := !discarded + List.length !pending;
      let fd = Unix.openfile log_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
      let truncated_bytes = if fresh then 0 else total - !good in
      if fresh then begin
        Unix.ftruncate fd 0;
        write_all fd (Bytes.of_string magic) 0 8
      end
      else if !good < total then Unix.ftruncate fd !good;
      let replayed =
        {
          rp_snapshot = snapshot_applied;
          rp_records = records;
          rp_committed = !committed;
          rp_discarded = !discarded;
          rp_truncated_bytes = truncated_bytes;
          rp_skipped = skipped;
        }
      in
      Ok
        ( {
            dir;
            log_path;
            snapshot_path;
            fd;
            bytes = (if fresh then 8 else !good);
            records;
            last_lsn = records;
            fsyncs = 0;
            epoch = !max_epoch;
            replayed;
          },
          replayed )
    end
  with
  | Apply_error msg -> Error ("WAL replay: " ^ msg)
  (* Perm_fault.Injected at wal.replay escapes on purpose: the engine
     maps it to its typed Faulted error after restoring its state *)
  | Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "WAL open: %s: %s" fn (Unix.error_message e))
  | Sys_error msg -> Error ("WAL open: " ^ msg)

let raw_append t frame =
  let payload = encode_frame frame in
  let buf = Buffer.create (String.length payload + 8) in
  add_u32 buf (String.length payload);
  add_u32 buf (crc32 payload);
  Buffer.add_string buf payload;
  let b = Buffer.to_bytes buf in
  write_all t.fd b 0 (Bytes.length b);
  t.bytes <- t.bytes + Bytes.length b;
  t.records <- t.records + 1;
  t.last_lsn <- t.last_lsn + 1

let append t frame =
  Perm_fault.trip fp_append;
  raw_append t frame

let fsync t =
  Perm_fault.trip fp_fsync;
  Unix.fsync t.fd;
  t.fsyncs <- t.fsyncs + 1

(* Compact: snapshot the whole state as SQL, then truncate the log. Also
   the repair path the engine takes after an append/fsync failure left
   the log behind the heaps.

   Crash-atomic via the epoch protocol. Three durable steps, each safe to
   crash after:
     1. append + fsync a [Checkpoint (epoch+1)] marker — a crash here
        leaves the old snapshot; the marker's epoch exceeds it, so replay
        skips nothing and recovery is the pre-checkpoint state.
     2. write snapshot tmp (with the epoch header), fsync, rename over
        snapshot.sql, fsync the directory — a crash here leaves the new
        snapshot plus the full old log; replay sees the marker with the
        snapshot's own epoch and skips everything up to it, so committed
        work is applied exactly once.
     3. truncate the log — the steady state. *)
let checkpoint t ~snapshot_sql ~prov =
  let epoch = t.epoch + 1 in
  Perm_fault.trip fp_ckpt_mark;
  raw_append t (Checkpoint epoch);
  Unix.fsync t.fd;
  let tmp = t.snapshot_path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let b = Bytes.of_string (render_snapshot ~epoch snapshot_sql) in
  write_all fd b 0 (Bytes.length b);
  Unix.fsync fd;
  Unix.close fd;
  Perm_fault.trip fp_ckpt_publish;
  Sys.rename tmp t.snapshot_path;
  fsync_dir t.dir;
  t.epoch <- epoch;
  Perm_fault.trip fp_ckpt_truncate;
  Unix.ftruncate t.fd 8;
  t.bytes <- 8;
  t.records <- 0;
  (* prov-column metadata is engine state the SQL snapshot cannot
     express — re-log it as one committed transaction *)
  if prov <> [] then begin
    raw_append t Begin;
    List.iter (fun (tbl, cols) -> raw_append t (Prov (tbl, cols))) prov;
    raw_append t Commit
  end;
  Unix.fsync t.fd

let status t =
  {
    st_dir = t.dir;
    st_bytes = t.bytes;
    st_records = t.records;
    st_last_lsn = t.last_lsn;
    st_fsyncs = t.fsyncs;
    st_epoch = t.epoch;
    st_replay = t.replayed;
  }

let log_path t = t.log_path
let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
