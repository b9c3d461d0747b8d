(* The four workloads: each one's data set-up, its seeded statement stream
   and the expected result of every statement.

   A stream is a sequence of rounds. A round holds a fixed multiset of
   statement templates in a seeded order with seeded parameters, so every
   seed runs the same mix and the run's figures are comparable across
   seeds. The stream depends on the seed alone, never on engine output:
   the mixed-write generator carries its own model of the tables it
   writes and derives expected results from it. *)

module Engine = Perm_engine.Engine
module Value = Perm_value.Value
module Tuple = Perm_storage.Tuple
module Forum = Perm_workload.Forum
module Star = Perm_workload.Star

type sem = Plain | Influence | Copy
type kind = Read | Write | Checkpoint  (** [Engine.checkpoint], no SQL *)

let sem_name = function Plain -> "plain" | Influence -> "influence" | Copy -> "copy"

type expect =
  | Succeeds  (** no result to compare (DDL, STORE PROVENANCE) *)
  | Same_as of string
      (** same multiset as the reference result of this SQL *)
  | Projects_to of string
      (** projected onto the columns of this plain SQL's reference
          result, the same set as that result *)
  | Multiset of Bstat.fingerprint  (** from the generator's model *)
  | Projected of int * Bstat.fingerprint
      (** the first [n] columns, as a set, from the generator's model *)
  | Lookup of Value.t
      (** exactly one row, whose first column is this key *)
  | Affects of int  (** a write that changes this many rows *)

type stmt = {
  tmpl : string;  (** template name, unique within the workload *)
  cls : string;  (** query class of the provenance overhead table *)
  sem : sem;
  kind : kind;
  sql : string;
  params : Value.t list option;  (** [Some] runs through [query_params] *)
  literal : string;  (** [sql] with parameters written as literals *)
  expect : expect;
}

type gen = {
  next_round : unit -> stmt list;
  model : unit -> (string * Tuple.t list) list;
      (** the generator's own contents of the tables it writes *)
}

type t = {
  name : string;
  data : string;  (** data sizes, for the report *)
  setup : unit -> Engine.t;  (** a fresh loaded session (timed as setup_s) *)
  reference : (unit -> Engine.t) option;
      (** builds the session that computes reference results ([spill]: an
          unbudgeted twin); [None] uses the measured session itself *)
  generator : unit -> gen;
  tail_pct : float;
  wal_dir : string option;
  known_defects : (string * string * string) list;
      (** (name, plain SQL, provenance SQL) answered wrongly today *)
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let exec e sql =
  match Engine.execute e sql with
  | Ok _ -> ()
  | Error msg -> failwith (Printf.sprintf "set-up failed on %S: %s" sql msg)

(* A session at the engine defaults: vectorized on, parallel off, default
   batch size, whatever the environment says. *)
let fresh () =
  let e = Engine.create () in
  Engine.set_vectorized e true;
  Engine.set_parallel e Engine.Par_off;
  Engine.set_batch_rows e Perm_executor.Executor.default_batch_rows;
  e

let provenance sem sql =
  let rest = String.sub sql 7 (String.length sql - 7) in
  match sem with
  | Plain -> sql
  | Influence -> "SELECT PROVENANCE " ^ rest
  | Copy -> "SELECT PROVENANCE ON CONTRIBUTION (COPY) " ^ rest

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let read ?params ?literal ~tmpl ~cls ~sem ~expect sql =
  {
    tmpl;
    cls;
    sem;
    kind = Read;
    sql;
    params;
    literal = Option.value literal ~default:sql;
    expect;
  }

let write ~tmpl ~expect sql =
  { tmpl; cls = "write"; sem = Plain; kind = Write; sql; params = None; literal = sql; expect }

(* The three variants of one read template: plain, influence and copy.
   Provenance results must project onto the plain result. *)
let triple ~tmpl ~cls sql =
  List.map
    (fun sem ->
      let expect = if sem = Plain then Same_as sql else Projects_to sql in
      read ~tmpl:(tmpl ^ "." ^ sem_name sem) ~cls ~sem ~expect (provenance sem sql))
    [ Plain; Influence; Copy ]

let data_seed rng = 1 + Random.State.int rng 1_000_000

let no_model () = []

(* ------------------------------------------------------------------ *)
(* analytic: the paper's query classes over the forum and a star schema *)
(* ------------------------------------------------------------------ *)

(* Provenance of Q18 (ORDER BY ... LIMIT 10 over an aggregate) covers the
   witnesses of only one of its ten result rows, so its influence and
   copy variants fail the projection check. They stay out of the timed
   mix until the rewriter is fixed and are probed once per run instead. *)
let limit_defect = Star.top_customers

let limit_probes =
  List.map
    (fun sem ->
      ("Q18-top-customers." ^ sem_name sem, limit_defect, provenance sem limit_defect))
    [ Influence; Copy ]

let analytic_messages = 2000
let analytic_users = 40
let analytic_star_scale = 300

let analytic ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  let forum_seed = data_seed rng and star_seed = data_seed rng in
  let setup () =
    let e = fresh () in
    Forum.load_scaled e ~messages:analytic_messages ~users:analytic_users
      ~seed:forum_seed ();
    Star.load e ~scale:analytic_star_scale ~seed:star_seed ();
    exec e "CREATE INDEX messages_mid ON messages (mid)";
    e
  in
  let generator () =
    let rng = Random.State.make [| seed; 2 |] in
    let next_round () =
      let r7 = Random.State.int rng 7 and r3 = Random.State.int rng 3 in
      let k = 1 + Random.State.int rng analytic_messages in
      let templates =
        [
          ( "spj",
            "spj",
            Printf.sprintf
              "SELECT m.text, a.uid FROM messages m JOIN approved a ON m.mid = \
               a.mid WHERE m.mid %% 7 = %d"
              r7 );
          ( "spj_comma",
            "spj_comma",
            "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid" );
          ("agg", "agg", Forum.q3);
          ("union", "union", Forum.q1);
          ( "nested",
            "nested",
            Printf.sprintf
              "SELECT text FROM messages WHERE mid IN (SELECT mid FROM approved \
               WHERE uid %% 3 <> %d)"
              r3 );
          ( "selective",
            "selective",
            Printf.sprintf
              "SELECT m.text, a.uid FROM messages m JOIN approved a ON m.mid = \
               a.mid WHERE m.mid = %d"
              k );
        ]
        @ List.map (fun (name, plain, _) -> (name, "warehouse", plain)) Star.queries
      in
      shuffle rng
        (List.concat_map
           (fun (tmpl, cls, sql) ->
             List.filter
               (fun st -> st.sem = Plain || sql <> limit_defect)
               (triple ~tmpl ~cls sql))
           templates)
    in
    { next_round; model = no_model }
  in
  {
    name = "analytic";
    data =
      Printf.sprintf
        "forum %d messages / %d users / %d imports (+ ~1.5 approvals each), \
         star scale %d (~%d lineitems); index on messages(mid)"
        analytic_messages analytic_users (analytic_messages / 2)
        analytic_star_scale (analytic_star_scale * 7 / 2);
    setup;
    reference = None;
    generator;
    tail_pct = 99.0;
    wal_dir = None;
    known_defects = limit_probes;
  }

(* ------------------------------------------------------------------ *)
(* point: indexed single-row lookups, where the front end dominates     *)
(* ------------------------------------------------------------------ *)

let point_messages = 20000
let point_users = 1000

(* Per table and semantics, a round has two literal lookups and one
   through query_params. The forms differ in cost by about 2x. *)

let point ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let forum_seed = data_seed rng in
  let setup () =
    let e = fresh () in
    Forum.load_scaled e ~messages:point_messages ~users:point_users
      ~seed:forum_seed ();
    exec e "CREATE INDEX messages_mid ON messages (mid)";
    exec e "CREATE INDEX users_uid ON users (uid)";
    e
  in
  let generator () =
    let rng = Random.State.make [| seed; 4 |] in
    let lookups =
      [
        ("messages", "SELECT mid, text, uid FROM messages WHERE mid = ", point_messages);
        ("users", "SELECT uid, name FROM users WHERE uid = ", point_users);
      ]
    in
    let next_round () =
      shuffle rng
        (List.concat_map
           (fun (table, prefix, n) ->
             List.concat_map
               (fun sem ->
                 let tmpl form = Printf.sprintf "%s.%s.%s" table form (sem_name sem) in
                 let lit k = provenance sem (prefix ^ string_of_int k) in
                 let literal () =
                   let k = 1 + Random.State.int rng n in
                   read ~tmpl:(tmpl "literal") ~cls:"point" ~sem
                     ~expect:(Lookup (Value.Int k)) (lit k)
                 in
                 let k = 1 + Random.State.int rng n in
                 [
                   literal ();
                   literal ();
                   read ~tmpl:(tmpl "params") ~cls:"point" ~sem
                     ~params:[ Value.Int k ] ~literal:(lit k)
                     ~expect:(Lookup (Value.Int k))
                     (provenance sem (prefix ^ "$1"));
                 ])
               [ Plain; Influence; Copy ])
           lookups)
    in
    { next_round; model = no_model }
  in
  {
    name = "point";
    data =
      Printf.sprintf
        "forum %d messages / %d users / %d imports; indexes on messages(mid) \
         and users(uid)"
        point_messages point_users (point_messages / 2);
    setup;
    reference = None;
    generator;
    tail_pct = 99.9;
    wal_dir = None;
    known_defects = [];
  }

(* ------------------------------------------------------------------ *)
(* mixed-write: writes through the WAL interleaved with reads            *)
(* ------------------------------------------------------------------ *)

let mw_messages = 600
let mw_users = 40
let mw_store_every = 16

(* UPDATE and DELETE log a full image of the table, so the log grows with
   run time; a periodic checkpoint keeps it, and recovery, bounded. *)
let mw_checkpoint_every = 32

let words =
  [| "lorem"; "ipsum"; "dolor"; "sit"; "amet"; "hello"; "world"; "forum";
     "post"; "reply"; "thread"; "topic"; "question"; "answer"; "idea" |]

(* A resizable bag with O(1) random pick and removal. *)
module Bag = struct
  type 'a t = { mutable a : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { a = Array.make 64 dummy; n = 0; dummy }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) t.dummy in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let pick rng t = Random.State.int rng t.n

  let remove t i =
    t.n <- t.n - 1;
    t.a.(i) <- t.a.(t.n);
    t.a.(t.n) <- t.dummy

  let to_list t = Array.to_list (Array.sub t.a 0 t.n)
end

(* The generator's model of [messages] and [approved]. *)
type mw_model = {
  messages : (int * string * int) Bag.t;  (** mid, text, uid *)
  approved : (int * int) Bag.t;  (** uid, mid *)
  mutable next_mid : int;
}

let mw_text rng =
  let w () = words.(Random.State.int rng (Array.length words)) in
  Printf.sprintf "%s %s %s" (w ()) (w ()) (w ())

(* Initial contents, a pure function of the seed: the set-up loads them
   and the generator starts its model from them. *)
let mw_initial seed =
  let rng = Random.State.make [| seed; 5 |] in
  let m = { messages = Bag.create (0, "", 0); approved = Bag.create (0, 0); next_mid = 0 } in
  for mid = 1 to mw_messages do
    Bag.add m.messages (mid, mw_text rng, 1 + Random.State.int rng mw_users)
  done;
  let imports =
    List.init (mw_messages / 2) (fun i -> (mw_messages + i + 1, mw_text rng))
  in
  for mid = 1 to mw_messages + (mw_messages / 2) do
    for _ = 1 to Random.State.int rng 4 do
      Bag.add m.approved (1 + Random.State.int rng mw_users, mid)
    done
  done;
  m.next_mid <- mw_messages + (mw_messages / 2) + 1;
  (m, imports)

let batched e table rows =
  let rec go = function
    | [] -> ()
    | rows ->
      let batch = List.filteri (fun i _ -> i < 500) rows in
      let rest = List.filteri (fun i _ -> i >= 500) rows in
      exec e (Printf.sprintf "INSERT INTO %s VALUES %s" table (String.concat ", " batch));
      go rest
  in
  go rows

let mw_rows_messages m =
  List.map
    (fun (mid, text, uid) -> [| Value.Int mid; Value.Text text; Value.Int uid |])
    (Bag.to_list m.messages)

let mw_rows_approved m =
  List.map (fun (uid, mid) -> [| Value.Int uid; Value.Int mid |]) (Bag.to_list m.approved)

let mixed_write ~seed ~work_dir =
  let wal_dir = Filename.concat work_dir "wal" in
  let setup () =
    Fsutil.remove_tree wal_dir;
    let e = fresh () in
    let m, imports = mw_initial seed in
    List.iter (exec e)
      [
        "CREATE TABLE messages (mid int, text text, uid int)";
        "CREATE TABLE users (uid int, name text)";
        "CREATE TABLE imports (mid int, text text, origin text)";
        "CREATE TABLE approved (uid int, mid int)";
        "CREATE VIEW v1 AS SELECT mid, text FROM messages UNION SELECT mid, \
         text FROM imports";
      ];
    batched e "users"
      (List.init mw_users (fun i -> Printf.sprintf "(%d, 'user%d')" (i + 1) (i + 1)));
    batched e "messages"
      (List.map
         (fun (mid, text, uid) -> Printf.sprintf "(%d, '%s', %d)" mid text uid)
         (Bag.to_list m.messages));
    batched e "imports"
      (List.map (fun (mid, text) -> Printf.sprintf "(%d, '%s', 'HiBoard')" mid text) imports);
    batched e "approved"
      (List.map (fun (uid, mid) -> Printf.sprintf "(%d, %d)" uid mid) (Bag.to_list m.approved));
    (* fsync latency is the disk's, and on a shared disk it swings far
       more than the engine's own work; the log is written, not synced *)
    Engine.set_wal_fsync e false;
    (match Engine.enable_wal e wal_dir with
    | Ok _ -> ()
    | Error err -> failwith ("enable_wal: " ^ Perm_err.to_string err));
    e
  in
  let generator () =
    let m, _ = mw_initial seed in
    let rng = Random.State.make [| seed; 6 |] in
    let round_no = ref 0 in
    let user () = 1 + Random.State.int rng mw_users in
    let messages_of u =
      List.filter_map
        (fun (mid, text, uid) ->
          if uid = u then Some [| Value.Int mid; Value.Text text |] else None)
        (Bag.to_list m.messages)
    in
    let joined u =
      let live = Hashtbl.create 1024 in
      List.iter (fun (mid, _, _) -> Hashtbl.replace live mid ()) (Bag.to_list m.messages);
      List.filter_map
        (fun (uid, mid) ->
          if uid = u && Hashtbl.mem live mid then Some [| Value.Int mid; Value.Int uid |]
          else None)
        (Bag.to_list m.approved)
    in
    (* all approvals equal to [pair]: their positions, last first *)
    let matching pair =
      let rec go i acc =
        if i >= m.approved.Bag.n then acc
        else go (i + 1) (if m.approved.Bag.a.(i) = pair then i :: acc else acc)
      in
      go 0 []
    in
    let approved_pick () = m.approved.Bag.a.(Bag.pick rng m.approved) in
    let insert_messages () =
      let mid = m.next_mid and u = user () and text = mw_text rng in
      m.next_mid <- mid + 1;
      Bag.add m.messages (mid, text, u);
      write ~tmpl:"insert.messages" ~expect:(Affects 1)
        (Printf.sprintf "INSERT INTO messages VALUES (%d, '%s', %d)" mid text u)
    in
    let update_messages () =
      let i = Bag.pick rng m.messages in
      let mid, _, uid = m.messages.Bag.a.(i) and text = mw_text rng in
      m.messages.Bag.a.(i) <- (mid, text, uid);
      write ~tmpl:"update.messages" ~expect:(Affects 1)
        (Printf.sprintf "UPDATE messages SET text = '%s' WHERE mid = %d" text mid)
    in
    let delete_messages () =
      let i = Bag.pick rng m.messages in
      let mid, _, _ = m.messages.Bag.a.(i) in
      Bag.remove m.messages i;
      write ~tmpl:"delete.messages" ~expect:(Affects 1)
        (Printf.sprintf "DELETE FROM messages WHERE mid = %d" mid)
    in
    let insert_approved () =
      let mid, _, _ = m.messages.Bag.a.(Bag.pick rng m.messages) and u = user () in
      Bag.add m.approved (u, mid);
      write ~tmpl:"insert.approved" ~expect:(Affects 1)
        (Printf.sprintf "INSERT INTO approved VALUES (%d, %d)" u mid)
    in
    let update_approved () =
      let uid, mid = approved_pick () and u = user () in
      let hits = matching (uid, mid) in
      List.iter (fun i -> m.approved.Bag.a.(i) <- (u, mid)) hits;
      write ~tmpl:"update.approved" ~expect:(Affects (List.length hits))
        (Printf.sprintf "UPDATE approved SET uid = %d WHERE uid = %d AND mid = %d" u uid mid)
    in
    let delete_approved () =
      let uid, mid = approved_pick () in
      let hits = matching (uid, mid) in
      (* last position first, so the swap-removals do not disturb the rest *)
      List.iter (Bag.remove m.approved) hits;
      write ~tmpl:"delete.approved" ~expect:(Affects (List.length hits))
        (Printf.sprintf "DELETE FROM approved WHERE uid = %d AND mid = %d" uid mid)
    in
    let messages_read ?(name = "messages") sem () =
      let u = user () in
      let rows = messages_of u in
      read ~tmpl:(name ^ "." ^ sem_name sem) ~cls:name ~sem
        ~expect:(if sem = Plain then Multiset (Bstat.multiset rows) else Projected (2, Bstat.set_of rows))
        (provenance sem (Printf.sprintf "SELECT mid, text FROM messages WHERE uid = %d" u))
    in
    let join_read sem () =
      let u = user () in
      let rows = joined u in
      read ~tmpl:("join." ^ sem_name sem) ~cls:"join" ~sem
        ~expect:(if sem = Plain then Multiset (Bstat.multiset rows) else Projected (2, Bstat.set_of rows))
        (provenance sem
           (Printf.sprintf
              "SELECT m.mid, a.uid FROM messages m JOIN approved a ON m.mid = a.mid \
               WHERE a.uid = %d"
              u))
    in
    let approved_read () =
      let u = user () in
      let rows =
        List.filter_map
          (fun (uid, mid) -> if uid = u then Some [| Value.Int uid; Value.Int mid |] else None)
          (Bag.to_list m.approved)
      in
      read ~tmpl:"approved.plain" ~cls:"approved" ~sem:Plain
        ~expect:(Multiset (Bstat.multiset rows))
        (Printf.sprintf "SELECT uid, mid FROM approved WHERE uid = %d" u)
    in
    (* A fixed interleaving: every read but the last follows a write to a
       table it reads, so it takes the cache-rebuild path; the last one
       reads [messages] again with its cache warm. Each op is materialized
       when its turn comes, against the model as the writes before it left
       it. *)
    let pairs =
      [
        (insert_messages, messages_read Plain);
        (update_messages, messages_read Influence);
        (delete_messages, messages_read Copy);
        (insert_approved, join_read Plain);
        (update_approved, approved_read);
        (delete_approved, join_read Influence);
      ]
    in
    (* eager provenance: re-materialize, then read back as external
       provenance; the stored table is a snapshot of this moment *)
    let store () =
      let n = !round_no / mw_store_every and u = user () in
      let table = Printf.sprintf "stored_prov_%d" n in
      let expected = Bstat.set_of (messages_of u) in
      (if n > 0 then
         [ write ~tmpl:"drop.stored" ~expect:Succeeds
             (Printf.sprintf "DROP TABLE stored_prov_%d" (n - 1)) ]
       else [])
      @ [
          write ~tmpl:"store.provenance" ~expect:Succeeds
            (Printf.sprintf
               "STORE PROVENANCE SELECT mid, text FROM messages WHERE uid = %d \
                INTO %s"
               u table);
          read ~tmpl:"stored.external" ~cls:"stored" ~sem:Influence
            ~expect:(Projected (2, expected))
            (Printf.sprintf
               "SELECT PROVENANCE mid, text FROM %s PROVENANCE \
                (prov_messages_mid, prov_messages_text, prov_messages_uid)"
               table);
        ]
    in
    let checkpoint =
      { (write ~tmpl:"checkpoint" ~expect:Succeeds "") with kind = Checkpoint }
    in
    let next_round () =
      let stmts =
        List.concat_map
          (fun (w, r) ->
            let w = w () in
            [ w; r () ])
          pairs
      in
      let stmts = stmts @ [ messages_read ~name:"messages_warm" Influence () ] in
      let stmts = if !round_no mod mw_store_every = 0 then stmts @ store () else stmts in
      let stmts =
        if !round_no mod mw_checkpoint_every = mw_checkpoint_every - 1 then
          stmts @ [ checkpoint ]
        else stmts
      in
      incr round_no;
      stmts
    in
    let model () =
      [ ("messages", mw_rows_messages m); ("approved", mw_rows_approved m) ]
    in
    { next_round; model }
  in
  {
    name = "mixed-write";
    data =
      Printf.sprintf
        "forum %d messages / %d users / %d imports (+ ~1.5 approvals each); \
         WAL on, wal_fsync off (a commit frame per statement, not \
         fsynced)"
        mw_messages mw_users (mw_messages / 2);
    setup;
    reference = None;
    generator;
    tail_pct = 99.0;
    wal_dir = Some wal_dir;
    known_defects = [];
  }

(* ------------------------------------------------------------------ *)
(* spill: a tuple budget below the sort and join-build sizes             *)
(* ------------------------------------------------------------------ *)

let spill_messages = 3000
let spill_users = 100
let spill_budget = 1000
let spill_keys = 6

let spill ~seed ~work_dir =
  let rng = Random.State.make [| seed; 7 |] in
  let forum_seed = data_seed rng in
  let load () =
    let e = fresh () in
    Forum.load_scaled e ~messages:spill_messages ~users:spill_users ~seed:forum_seed ();
    e
  in
  let setup () =
    let e = load () in
    Engine.set_spill_dir e (Filename.concat work_dir "spill");
    Engine.set_spill e true;
    Engine.set_tuple_budget e spill_budget;
    e
  in
  let generator () =
    let rng = Random.State.make [| seed; 8 |] in
    let next_round () =
      let key () = 1 + Random.State.int rng spill_keys in
      let same ~tmpl ~cls ~sem sql = read ~tmpl ~cls ~sem ~expect:(Same_as sql) sql in
      let join k =
        Printf.sprintf
          "SELECT m.mid, m.text, a.uid FROM messages m JOIN approved a ON m.mid \
           = a.mid WHERE a.uid <> %d"
          k
      in
      let sort () =
        same ~tmpl:"sort.plain" ~cls:"sort" ~sem:Plain
          (Printf.sprintf
             "SELECT mid, text, uid FROM messages WHERE uid <> %d ORDER BY \
              text, mid"
             (key ()))
      in
      (* two sorts: the plain and overall medians then fall inside the sort
         cluster, not between two clusters *)
      shuffle rng
        [
          sort ();
          sort ();
          same ~tmpl:"join.plain" ~cls:"join" ~sem:Plain (join (key ()));
          same ~tmpl:"join.influence" ~cls:"join" ~sem:Influence
            (provenance Influence (join (key ())));
          same ~tmpl:"agg.plain" ~cls:"agg" ~sem:Plain
            (Printf.sprintf
               "SELECT uid %% 4 AS g, count(*) AS n, max(mid) AS hi FROM \
                messages WHERE uid <> %d GROUP BY uid %% 4"
               (key ()));
        ]
    in
    { next_round; model = no_model }
  in
  {
    name = "spill";
    data =
      Printf.sprintf
        "forum %d messages / %d users / %d imports (+ ~1.5 approvals each); \
         tuple_budget %d with spill on"
        spill_messages spill_users (spill_messages / 2) spill_budget;
    setup;
    reference = Some load;
    generator;
    tail_pct = 95.0;
    wal_dir = None;
    known_defects = [];
  }

let names = [ "analytic"; "point"; "mixed-write"; "spill" ]

let make name ~seed ~work_dir =
  match name with
  | "analytic" -> Some (analytic ~seed)
  | "point" -> Some (point ~seed)
  | "mixed-write" -> Some (mixed_write ~seed ~work_dir)
  | "spill" -> Some (spill ~seed ~work_dir)
  | _ -> None
