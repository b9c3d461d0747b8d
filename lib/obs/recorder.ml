type payload =
  | Stmt_start of { sql : string; fingerprint : string }
  | Stmt_finish of {
      fingerprint : string;
      ms : float;
      rows : int;
      error : string option;
    }
  | Plan_node of {
      fingerprint : string;
      node : int;
      operator : string;
      est_rows : float;
      act_rows : int;
    }
  | Wal_append of { frame : string }
  | Wal_fsync of { fsyncs : int }
  | Wal_checkpoint of { epoch : int; ok : bool }
  | Wal_replay of {
      records : int;
      committed : int;
      discarded : int;
      skipped : int;
      truncated_bytes : int;
    }
  | Spill of { kind : string; detail : string }
  | Gc_major of { heap_words : int; major_collections : int }
  | Fault of { point : string }
  | Governor of { verdict : string; detail : string }
  | Watchdog of { fingerprint : string; factor : float; cause : string }
  | Note of { tag : string; detail : string }

type event = { ev_seq : int; ev_ts : float; ev_payload : payload }

(* The slot array and its capacity swap together (set_capacity publishes a
   whole new ring), so they live in one atomically-replaced record. A
   writer that raced the swap lands its event in the retiring array and
   the event is lost — equivalent to an immediate wrap-around drop. *)
type ring = { r_slots : event option array; r_cap : int }

type t = {
  ring : ring Atomic.t;
  seq : int Atomic.t;  (* total events ever recorded *)
  lost : int Atomic.t;  (* shed by capacity changes, on top of wrap-around *)
}

let default_capacity = 512

let make_ring cap = { r_slots = Array.make (max cap 1) None; r_cap = cap }

let create ?(capacity = default_capacity) () =
  {
    ring = Atomic.make (make_ring (max capacity 0));
    seq = Atomic.make 0;
    lost = Atomic.make 0;
  }

let enabled t = (Atomic.get t.ring).r_cap > 0
let capacity t = (Atomic.get t.ring).r_cap
let recorded t = Atomic.get t.seq

let record t payload =
  let ring = Atomic.get t.ring in
  if ring.r_cap > 0 then begin
    let seq = Atomic.fetch_and_add t.seq 1 in
    ring.r_slots.(seq mod ring.r_cap) <-
      Some { ev_seq = seq; ev_ts = Unix.gettimeofday (); ev_payload = payload }
  end

(* Retained events in sequence order. Slot index is [seq mod cap], so the
   physical order is scrambled once the ring has wrapped; events carry
   their own sequence number, and the ring is small, so sorting is fine at
   read frequency (anomaly capture, \debug, /debug/bundles). *)
let snapshot ring =
  Array.to_seq ring.r_slots
  |> Seq.filter_map Fun.id
  |> List.of_seq
  |> List.sort (fun a b -> compare a.ev_seq b.ev_seq)

let recent ?limit t =
  let events = snapshot (Atomic.get t.ring) in
  match limit with
  | None -> events
  | Some n ->
    let drop = List.length events - n in
    if drop <= 0 then events else List.filteri (fun i _ -> i >= drop) events

let dropped t =
  let retained = List.length (snapshot (Atomic.get t.ring)) in
  Atomic.get t.lost + max 0 (Atomic.get t.seq - Atomic.get t.lost - retained)

let set_capacity t cap =
  let cap = max cap 0 in
  let old = Atomic.get t.ring in
  let kept = snapshot old in
  let keep =
    let drop = List.length kept - cap in
    if drop <= 0 then kept else List.filteri (fun i _ -> i >= drop) kept
  in
  let ring = make_ring cap in
  (* each event keeps its canonical slot [ev_seq mod cap], so the next
     write (at the live sequence counter) naturally lands after the
     preserved tail and wrap-around overwrites oldest-first *)
  if cap > 0 then
    List.iter (fun ev -> ring.r_slots.(ev.ev_seq mod cap) <- Some ev) keep;
  Atomic.set t.lost
    (Atomic.get t.lost + (List.length kept - List.length keep));
  Atomic.set t.ring ring

let payload_kind = function
  | Stmt_start _ -> "stmt_start"
  | Stmt_finish _ -> "stmt_finish"
  | Plan_node _ -> "plan_node"
  | Wal_append _ -> "wal_append"
  | Wal_fsync _ -> "wal_fsync"
  | Wal_checkpoint _ -> "wal_checkpoint"
  | Wal_replay _ -> "wal_replay"
  | Spill _ -> "spill"
  | Gc_major _ -> "gc_major"
  | Fault _ -> "fault"
  | Governor _ -> "governor"
  | Watchdog _ -> "watchdog"
  | Note _ -> "note"

let payload_fields = function
  | Stmt_start { sql; fingerprint } ->
    [ ("sql", Json.String sql); ("fingerprint", Json.String fingerprint) ]
  | Stmt_finish { fingerprint; ms; rows; error } ->
    [
      ("fingerprint", Json.String fingerprint);
      ("ms", Json.Float ms);
      ("rows", Json.Int rows);
      ("error", match error with Some e -> Json.String e | None -> Json.Null);
    ]
  | Plan_node { fingerprint; node; operator; est_rows; act_rows } ->
    [
      ("fingerprint", Json.String fingerprint);
      ("node", Json.Int node);
      ("operator", Json.String operator);
      ("est_rows", Json.Float est_rows);
      ("act_rows", Json.Int act_rows);
    ]
  | Wal_append { frame } -> [ ("frame", Json.String frame) ]
  | Wal_fsync { fsyncs } -> [ ("fsyncs", Json.Int fsyncs) ]
  | Wal_checkpoint { epoch; ok } ->
    [ ("epoch", Json.Int epoch); ("ok", Json.Bool ok) ]
  | Wal_replay { records; committed; discarded; skipped; truncated_bytes } ->
    [
      ("records", Json.Int records);
      ("committed", Json.Int committed);
      ("discarded", Json.Int discarded);
      ("skipped", Json.Int skipped);
      ("truncated_bytes", Json.Int truncated_bytes);
    ]
  | Spill { kind; detail } ->
    [ ("spill", Json.String kind); ("detail", Json.String detail) ]
  | Gc_major { heap_words; major_collections } ->
    [
      ("heap_words", Json.Int heap_words);
      ("major_collections", Json.Int major_collections);
    ]
  | Fault { point } -> [ ("point", Json.String point) ]
  | Governor { verdict; detail } ->
    [ ("verdict", Json.String verdict); ("detail", Json.String detail) ]
  | Watchdog { fingerprint; factor; cause } ->
    [
      ("fingerprint", Json.String fingerprint);
      ("factor", Json.Float factor);
      ("cause", Json.String cause);
    ]
  | Note { tag; detail } ->
    [ ("tag", Json.String tag); ("detail", Json.String detail) ]

let event_to_json ev =
  Json.Obj
    ([
       ("seq", Json.Int ev.ev_seq);
       ("ts", Json.Float ev.ev_ts);
       ("kind", Json.String (payload_kind ev.ev_payload));
     ]
    @ payload_fields ev.ev_payload)
