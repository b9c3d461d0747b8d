(* DML equivalence: DELETE and UPDATE apply row deltas to the heap and the
   log, and the result must be exactly what a full rebuild gives.

   The oracle works on the table as a scan returns it (heap order): a
   DELETE keeps the rows its predicate does not select, an UPDATE keeps
   those and appends the updated images of the selected ones, in heap
   order ([keep @ updated]). Predicates and assignments are evaluated by
   hand in OCaml, independently of the engine. Tables hold duplicate
   rows and NULLs, and [k] is indexed, so every step also checks that
   index lookups agree with a filtered scan. A failed UPDATE must leave
   the heap and the log as they were, and a reopen from the log alone
   must reproduce the final table. *)

module Engine = Perm_engine.Engine
module Err = Perm_err
module Fault = Perm_fault
open Perm_testkit.Kit

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rm_rf dir = ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let cmp op a b =
  match a, b with
  | Value.Null, _ | _, Value.Null -> false
  | a, b -> op (Value.compare a b) 0

(* WHERE clauses: SQL text and the rows it selects (true, not unknown). *)
let predicates =
  [
    ("k = 1", fun r -> cmp ( = ) r.(0) (i 1));
    ("k IS NULL", fun r -> Value.is_null r.(0));
    ("v = 'a'", fun r -> cmp ( = ) r.(1) (s "a"));
    ("k > 1", fun r -> cmp ( > ) r.(0) (i 1));
    ("x < 0", fun r -> cmp ( < ) r.(2) (f 0.));
    ("k = 2 OR v = 'b'", fun r -> cmp ( = ) r.(0) (i 2) || cmp ( = ) r.(1) (s "b"));
    ("NOT (k = 0)", fun r -> cmp ( <> ) r.(0) (i 0));
  ]

(* SET lists: SQL text and the updated image of a selected row. *)
let assignments =
  [
    ("v = 'u'", fun r -> [| r.(0); s "u"; r.(2) |]);
    ( "k = k + 1",
      fun r -> [| (match r.(0) with Value.Int n -> i (n + 1) | v -> v); r.(1); r.(2) |] );
    ("x = 7", fun r -> [| r.(0); r.(1); f 7. |]);
    ("k = NULL, v = 'n'", fun r -> [| nl; s "n"; r.(2) |]);
  ]

let literal_row rng =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  Printf.sprintf "(%s, %s, %s)"
    (pick [| "NULL"; "0"; "1"; "2"; "3" |])
    (pick [| "NULL"; "'a'"; "'b'" |])
    (pick [| "NULL"; "0.5"; "-2.0"; "1" |])

let scan e = (query_ok e "SELECT * FROM t;").Engine.rows

let check_table what e expected =
  Alcotest.(check rows_testable) what (strings_of_rows expected) (strings_of_rows (scan e));
  (* the planner answers [k = c] from the index *)
  List.iter
    (fun key ->
      let filtered = List.filter (fun r -> cmp ( = ) r.(0) (i key)) expected in
      check_rows ~ordered:true e
        (Printf.sprintf "SELECT * FROM t WHERE k = %d;" key)
        (strings_of_rows filtered))
    [ 0; 1; 2; 3; 4 ]

let log_bytes e =
  match Engine.wal_status e with
  | Some ws -> ws.Engine.ws_bytes
  | None -> Alcotest.fail "wal_status"

let setup rng dir =
  let e = engine () in
  (match Engine.enable_wal e dir with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "enable_wal: %s" (Err.to_string err));
  exec_all e
    [
      "CREATE TABLE t (k INTEGER, v TEXT, x FLOAT);";
      "CREATE INDEX t_k ON t (k);";
      Printf.sprintf "INSERT INTO t VALUES %s;"
        (String.concat ", " (List.init (5 + Random.State.int rng 20) (fun _ -> literal_row rng)));
    ];
  e

let test_random_dml () =
  for seed = 1 to 25 do
    let rng = Random.State.make [| seed; 13 |] in
    let dir = temp_dir "perm_dml" in
    let e = setup rng dir in
    for step = 1 to 12 do
      let before = scan e in
      let where, selected = List.nth predicates (Random.State.int rng (List.length predicates)) in
      let keep = List.filter (fun r -> not (selected r)) before in
      let hits = List.filter selected before in
      let what = Printf.sprintf "seed %d step %d" seed step in
      (match Random.State.int rng 3 with
      | 0 ->
        let sql = Printf.sprintf "DELETE FROM t WHERE %s;" where in
        (match exec_ok e sql with
        | Engine.Affected n -> Alcotest.(check int) (what ^ ": rows deleted") (List.length hits) n
        | _ -> Alcotest.failf "%s: DELETE did not report a row count" what);
        check_table (what ^ ": " ^ sql) e keep
      | 1 ->
        let set, image = List.nth assignments (Random.State.int rng (List.length assignments)) in
        let sql = Printf.sprintf "UPDATE t SET %s WHERE %s;" set where in
        ignore (exec_ok e sql);
        check_table (what ^ ": " ^ sql) e (keep @ List.map image hits)
      | _ ->
        let sql = Printf.sprintf "INSERT INTO t VALUES %s;" (literal_row rng) in
        ignore (exec_ok e sql))
    done;
    let dump = Engine.dump_sql e in
    Engine.close e;
    let e2 = engine () in
    (match Engine.enable_wal e2 dir with
    | Ok _ -> ()
    | Error err -> Alcotest.failf "reopen: %s" (Err.to_string err));
    Alcotest.(check string) (Printf.sprintf "seed %d: the log alone rebuilds the table" seed)
      dump (Engine.dump_sql e2);
    Engine.close e2;
    rm_rf dir
  done

let test_failed_update_changes_nothing () =
  let rng = Random.State.make [| 99 |] in
  let dir = temp_dir "perm_dml_fail" in
  let e = setup rng dir in
  exec_all e [ "INSERT INTO t VALUES (1, 'a', 1), (1, 'a', 1), (2, NULL, NULL);" ];
  let rows = scan e and dump = Engine.dump_sql e and bytes = log_bytes e in
  let unchanged what =
    check_table what e rows;
    Alcotest.(check string) (what ^ ": dump") dump (Engine.dump_sql e);
    Alcotest.(check int) (what ^ ": log size") bytes (log_bytes e)
  in
  (match Engine.execute_err e "UPDATE t SET k = 'oops' WHERE k = 1;" with
  | Ok _ -> Alcotest.fail "an uncoercible UPDATE succeeded"
  | Error _ -> ());
  unchanged "coercion failure";
  Fault.reset ();
  Fault.set_seed 3;
  Fault.set "heap.insert" 1.0;
  (match Engine.execute_err e "UPDATE t SET v = 'f' WHERE k = 2;" with
  | Ok _ -> Alcotest.fail "the armed heap.insert fault did not fire"
  | Error err ->
    Alcotest.(check string) "fault surfaces as Faulted" "faulted" (Err.kind_label err.Err.kind));
  Fault.reset ();
  unchanged "injected heap.insert fault";
  (* the session carries on, and the log still replays to it *)
  ignore (exec_ok e "UPDATE t SET v = 'ok' WHERE k = 2;");
  let dump = Engine.dump_sql e in
  Engine.close e;
  let e2 = engine () in
  (match Engine.enable_wal e2 dir with
  | Ok _ -> ()
  | Error err -> Alcotest.failf "reopen: %s" (Err.to_string err));
  Alcotest.(check string) "replayed" dump (Engine.dump_sql e2);
  Engine.close e2;
  rm_rf dir

let () =
  Alcotest.run "dml"
    [
      ( "delta",
        [
          case "random DELETE/UPDATE equal the full rebuild" test_random_dml;
          case "failed UPDATE leaves heap and log unchanged"
            test_failed_update_changes_nothing;
        ] );
    ]
