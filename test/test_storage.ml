(* Unit tests for storage: growable vectors, tuples, heaps, the store. *)

module Vec = Perm_storage.Vec
module Tuple = Perm_storage.Tuple
module Heap = Perm_storage.Heap
module Store = Perm_storage.Store
module Schema = Perm_catalog.Schema
module Column = Perm_catalog.Column
module Dtype = Perm_value.Dtype
module Value = Perm_value.Value
open Perm_testkit.Kit

let vec_tests =
  [
    case "push/get/length" (fun () ->
        let v = Vec.create () in
        for k = 0 to 99 do
          Vec.push v k
        done;
        Alcotest.(check int) "length" 100 (Vec.length v);
        Alcotest.(check int) "get 57" 57 (Vec.get v 57));
    case "get out of bounds" (fun () ->
        let v = Vec.create () in
        Vec.push v 1;
        Alcotest.check_raises "negative" (Invalid_argument "Vec.get: index out of bounds")
          (fun () -> ignore (Vec.get v (-1)));
        Alcotest.check_raises "past end" (Invalid_argument "Vec.get: index out of bounds")
          (fun () -> ignore (Vec.get v 1)));
    case "to_list round trip" (fun () ->
        let l = [ 3; 1; 4; 1; 5 ] in
        Alcotest.(check (list int)) "" l (Vec.to_list (Vec.of_list l)));
    case "clear" (fun () ->
        let v = Vec.of_list [ 1; 2 ] in
        Vec.clear v;
        Alcotest.(check int) "" 0 (Vec.length v));
    case "fold and iteri" (fun () ->
        let v = Vec.of_list [ 1; 2; 3 ] in
        Alcotest.(check int) "fold" 6 (Vec.fold ( + ) 0 v);
        let acc = ref [] in
        Vec.iteri (fun idx x -> acc := (idx, x) :: !acc) v;
        Alcotest.(check int) "iteri count" 3 (List.length !acc));
    case "to_seq is lazy over current contents" (fun () ->
        let v = Vec.of_list [ 1; 2; 3 ] in
        Alcotest.(check (list int)) "" [ 1; 2; 3 ] (List.of_seq (Vec.to_seq v)));
    qcheck
      (QCheck.Test.make ~name:"vec behaves like a list" ~count:200
         QCheck.(small_list small_int)
         (fun l -> Vec.to_list (Vec.of_list l) = l));
    qcheck
      (QCheck.Test.make ~name:"remove_sorted keeps the rest in order" ~count:200
         QCheck.(pair (small_list small_int) (small_list bool))
         (fun (l, drop) ->
           let drop_at k = match List.nth_opt drop k with Some d -> d | None -> false in
           let positions =
             Array.of_list
               (List.filteri (fun k _ -> drop_at k) (List.init (List.length l) Fun.id))
           in
           let v = Vec.of_list l in
           Vec.remove_sorted v positions;
           Vec.to_list v = List.filteri (fun k _ -> not (drop_at k)) l));
    case "remove_sorted rejects bad positions untouched" (fun () ->
        let v = Vec.of_list [ 1; 2; 3 ] in
        List.iter
          (fun positions ->
            (match Vec.remove_sorted v positions with
            | () -> Alcotest.fail "accepted bad positions"
            | exception Invalid_argument _ -> ());
            Alcotest.(check (list int)) "unchanged" [ 1; 2; 3 ] (Vec.to_list v))
          [ [| 3 |]; [| -1 |]; [| 1; 1 |]; [| 2; 0 |] ]);
  ]

let tuple_tests =
  [
    case "equal is null-safe" (fun () ->
        Alcotest.(check bool) "" true (Tuple.equal (row [ nl; i 1 ]) (row [ nl; i 1 ])));
    case "equal numeric cross-type" (fun () ->
        Alcotest.(check bool) "" true (Tuple.equal (row [ i 1 ]) (row [ f 1.0 ])));
    case "unequal arity" (fun () ->
        Alcotest.(check bool) "" false (Tuple.equal (row [ i 1 ]) (row [ i 1; i 2 ])));
    case "hash consistent with equal" (fun () ->
        Alcotest.(check int) ""
          (Tuple.hash (row [ nl; i 2 ]))
          (Tuple.hash (row [ nl; f 2.0 ])));
    case "compare lexicographic" (fun () ->
        Alcotest.(check bool) "" true
          (Tuple.compare (row [ i 1; i 9 ]) (row [ i 2; i 0 ]) < 0));
    case "project" (fun () ->
        Alcotest.(check string) "" "(3, 1)"
          (Tuple.to_string (Tuple.project [ 2; 0 ] (row [ i 1; i 2; i 3 ]))));
    case "concat" (fun () ->
        Alcotest.(check string) "" "(1, a)"
          (Tuple.to_string (Tuple.concat (row [ i 1 ]) (row [ s "a" ]))));
  ]

let forum_schema =
  Schema.make_exn
    [ Column.make "mid" Dtype.Int; Column.make "text" Dtype.Text; Column.make "uid" Dtype.Int ]

let heap_tests =
  [
    case "insert validates arity" (fun () ->
        let h = Heap.create forum_schema in
        Alcotest.(check bool) "" true (Result.is_error (Heap.insert h (row [ i 1 ]))));
    case "insert validates types" (fun () ->
        let h = Heap.create forum_schema in
        Alcotest.(check bool) "" true
          (Result.is_error (Heap.insert h (row [ s "x"; s "t"; i 1 ]))));
    case "insert accepts nulls" (fun () ->
        let h = Heap.create forum_schema in
        Alcotest.(check bool) "" true (Result.is_ok (Heap.insert h (row [ nl; nl; nl ]))));
    case "int widens to float column" (fun () ->
        let schema = Schema.make_exn [ Column.make "x" Dtype.Float ] in
        let h = Heap.create schema in
        Alcotest.(check bool) "insert" true (Result.is_ok (Heap.insert h (row [ i 3 ])));
        match Heap.to_list h with
        | [ r ] -> Alcotest.(check string) "widened" "3.0" (Perm_value.Value.to_string r.(0))
        | _ -> Alcotest.fail "expected one row");
    case "scan in insertion order" (fun () ->
        let h = Heap.create forum_schema in
        ignore (Result.get_ok (Heap.insert h (row [ i 1; s "a"; i 1 ])));
        ignore (Result.get_ok (Heap.insert h (row [ i 2; s "b"; i 2 ])));
        Alcotest.(check int) "count" 2 (Heap.row_count h);
        Alcotest.(check string) "first" "(1, a, 1)"
          (Tuple.to_string (List.hd (List.of_seq (Heap.scan h)))));
    case "truncate" (fun () ->
        let h = Heap.create forum_schema in
        ignore (Result.get_ok (Heap.insert h (row [ i 1; s "a"; i 1 ])));
        Heap.truncate h;
        Alcotest.(check int) "" 0 (Heap.row_count h));
    case "distinct estimate exact and cached" (fun () ->
        let h = Heap.create forum_schema in
        ignore
          (Result.get_ok
             (Heap.insert_all h
                [ row [ i 1; s "a"; i 1 ]; row [ i 2; s "a"; i 1 ]; row [ i 3; s "b"; nl ] ]));
        Alcotest.(check int) "mid" 3 (Heap.distinct_estimate h 0);
        Alcotest.(check int) "text" 2 (Heap.distinct_estimate h 1);
        Alcotest.(check int) "uid incl null" 2 (Heap.distinct_estimate h 2);
        ignore (Result.get_ok (Heap.insert h (row [ i 4; s "c"; i 9 ])));
        Alcotest.(check int) "invalidated" 3 (Heap.distinct_estimate h 1));
  ]

(* ---- row deltas --------------------------------------------------- *)

let delta_schema =
  Schema.make_exn
    [ Column.make "k" Dtype.Int; Column.make "v" Dtype.Text; Column.make "x" Dtype.Float ]

(* Small domains so that duplicate rows and keys are common. *)
let random_row rng =
  let pick a = a.(Random.State.int rng (Array.length a)) in
  row
    [
      pick [| nl; i 0; i 1; i 2; i 3 |];
      pick [| nl; s "a"; s "b" |];
      pick [| nl; f 0.5; f (-2.); i 1 |] (* an Int is widened on store *);
    ]

let probe_keys = [| [| nl; i 0; i 1; i 2; i 3; i 9 |]; [| nl; s "a"; s "b"; s "z" |] |]

(* Everything observable about a heap: its rows in order, then for every
   indexed column and probe key the rows the index returns. *)
let heap_image h =
  strings_of_rows (Heap.to_list h)
  @ List.concat_map
      (fun col ->
        Array.to_list
          (Array.map
             (fun key -> strings_of_rows (List.of_seq (Heap.index_probe h col key)))
             probe_keys.(col))
        |> List.concat)
      [ 0; 1 ]

(* The index must return what a scan filtered on SQL [=] returns, in scan
   order. *)
let check_index_matches_scan h =
  List.iter
    (fun col ->
      Array.iter
        (fun key ->
          let scanned =
            List.filter
              (fun r -> (not (Value.is_null key)) && Value.equal r.(col) key)
              (Heap.to_list h)
          in
          Alcotest.(check rows_testable)
            (Printf.sprintf "probe col %d = %s" col (Value.to_string key))
            (strings_of_rows scanned)
            (strings_of_rows (List.of_seq (Heap.index_probe h col key))))
        probe_keys.(col))
    [ 0; 1 ]

let delta_tests =
  [
    case "apply_delta equals the full rebuild, indexes agree with scans" (fun () ->
        for seed = 1 to 60 do
          let rng = Random.State.make [| seed |] in
          let h = Heap.create delta_schema in
          (* index one column before loading and one after *)
          Heap.create_index h 0;
          ignore
            (Result.get_ok
               (Heap.insert_all h (List.init (Random.State.int rng 25) (fun _ -> random_row rng))));
          Heap.create_index h 1;
          for _ = 1 to 8 do
            let before = Heap.to_list h in
            let deleted =
              Array.of_list
                (List.filteri (fun _ _ -> Random.State.int rng 3 = 0)
                   (List.init (List.length before) Fun.id))
            in
            let appended = List.init (Random.State.int rng 4) (fun _ -> random_row rng) in
            let keep =
              List.filteri (fun pos _ -> not (Array.mem pos deleted)) before
            in
            let oracle = Heap.create delta_schema in
            ignore (Result.get_ok (Heap.insert_all oracle (keep @ appended)));
            ignore (Result.get_ok (Heap.apply_delta h ~deleted ~appended));
            Alcotest.(check rows_testable)
              (Printf.sprintf "seed %d: keep @ appended" seed)
              (strings_of_rows (Heap.to_list oracle))
              (strings_of_rows (Heap.to_list h));
            check_index_matches_scan h
          done
        done);
    case "a failing delta leaves rows and indexes untouched" (fun () ->
        let h = Heap.create delta_schema in
        Heap.create_index h 0;
        Heap.create_index h 1;
        let rng = Random.State.make [| 7 |] in
        ignore (Result.get_ok (Heap.insert_all h (List.init 12 (fun _ -> random_row rng))));
        let image = heap_image h in
        let unchanged what =
          Alcotest.(check rows_testable) what image (heap_image h);
          check_index_matches_scan h
        in
        let refused what ~deleted ~appended =
          Alcotest.(check bool) what true
            (Result.is_error (Heap.apply_delta h ~deleted ~appended));
          unchanged what
        in
        refused "uncoercible appended row" ~deleted:[| 0; 5 |]
          ~appended:[ row [ i 1; s "ok"; f 1. ]; row [ s "not an int"; nl; nl ] ];
        refused "wrong arity" ~deleted:[| 1 |] ~appended:[ row [ i 1 ] ];
        refused "position past the end" ~deleted:[| 3; 12 |] ~appended:[];
        refused "positions out of order" ~deleted:[| 4; 2 |] ~appended:[];
        refused "repeated position" ~deleted:[| 2; 2 |] ~appended:[];
        Perm_fault.reset ();
        Perm_fault.set "heap.insert" 1.0;
        (match Heap.apply_delta h ~deleted:[| 0 |] ~appended:[ row [ i 1; nl; nl ] ] with
        | _ -> Alcotest.fail "the armed fault did not fire"
        | exception Perm_fault.Injected _ -> ());
        Perm_fault.reset ();
        unchanged "injected heap.insert fault");
  ]

(* ---- statistics ---------------------------------------------------- *)

(* The all-columns count [distinct_estimate] used before it went per
   column: one polymorphic set per column keyed on (Value.hash v, v). *)
let all_columns_distinct h =
  let arity = Schema.arity (Heap.schema h) in
  let sets = Array.init arity (fun _ -> Hashtbl.create 64) in
  List.iter
    (fun r -> Array.iteri (fun c v -> Hashtbl.replace sets.(c) (Value.hash v, v) ()) r)
    (Heap.to_list h);
  Array.map Hashtbl.length sets

let stats_schema =
  Schema.make_exn
    [
      Column.make "n" Dtype.Int;
      Column.make "x" Dtype.Float;
      Column.make "t" Dtype.Text;
      Column.make "d" Dtype.Date;
      Column.make "b" Dtype.Bool;
    ]

let stats_rows =
  [
    row [ i 1; f nan; s "a"; Value.Date 0; b true ];
    row [ i 1; f (-0.0); s "a"; Value.Date 1; nl ];
    row [ nl; f 0.0; s ""; Value.Date 0; b false ];
    row [ i (-1); f nan; nl; nl; b true ];
    row [ i max_int; i 2 (* widened to 2.0 *); s "A"; Value.Date (-3); b false ];
    row [ i 0; f 2.0; s "a\000"; Value.Date 1; nl ];
    row [ nl; nl; s "b"; Value.Date 40000; b true ];
  ]

let check_stats what h =
  let expected = all_columns_distinct h in
  Array.iteri
    (fun c n ->
      Alcotest.(check int) (Printf.sprintf "%s: column %d" what c) n
        (Heap.distinct_estimate h c))
    expected

let stats_tests =
  [
    case "per-column counts equal the all-columns count" (fun () ->
        let h = Heap.create stats_schema in
        check_stats "empty" h;
        ignore (Result.get_ok (Heap.insert_all h stats_rows));
        check_stats "loaded" h;
        (* NaN is one value, -0.0 equals 0.0, NULL counts once *)
        Alcotest.(check int) "float column" 4 (Heap.distinct_estimate h 1));
    case "every write invalidates the counts" (fun () ->
        let h = Heap.create stats_schema in
        ignore (Result.get_ok (Heap.insert_all h stats_rows));
        check_stats "warm" h;
        ignore (Result.get_ok (Heap.insert h (row [ i 42; f 9.5; s "new"; Value.Date 9; b true ])));
        check_stats "after insert" h;
        ignore
          (Result.get_ok
             (Heap.apply_delta h ~deleted:[| 1 |]
                ~appended:[ row [ i 43; f 1.25; s "upd"; Value.Date 10; nl ] ]));
        check_stats "after update" h;
        ignore (Result.get_ok (Heap.apply_delta h ~deleted:[| 0; 2; 3 |] ~appended:[]));
        check_stats "after delete" h;
        Heap.truncate h;
        check_stats "after truncate" h;
        Alcotest.(check int) "truncated column" 0 (Heap.distinct_estimate h 0));
    case "out-of-range column rejected" (fun () ->
        let h = Heap.create stats_schema in
        Alcotest.check_raises "past the end"
          (Invalid_argument "Heap.distinct_estimate: column out of range") (fun () ->
            ignore (Heap.distinct_estimate h 5)));
  ]

let store_tests =
  [
    case "create and find" (fun () ->
        let st = Store.create () in
        ignore (Result.get_ok (Store.create_table st "T" forum_schema));
        Alcotest.(check bool) "" true (Store.find st "t" <> None));
    case "duplicate rejected" (fun () ->
        let st = Store.create () in
        ignore (Result.get_ok (Store.create_table st "t" forum_schema));
        Alcotest.(check bool) "" true (Result.is_error (Store.create_table st "t" forum_schema)));
    case "drop" (fun () ->
        let st = Store.create () in
        ignore (Result.get_ok (Store.create_table st "t" forum_schema));
        Alcotest.(check bool) "drop" true (Result.is_ok (Store.drop_table st "t"));
        Alcotest.(check bool) "missing drop" true (Result.is_error (Store.drop_table st "t")));
    case "table_names sorted" (fun () ->
        let st = Store.create () in
        ignore (Result.get_ok (Store.create_table st "b" forum_schema));
        ignore (Result.get_ok (Store.create_table st "a" forum_schema));
        Alcotest.(check (list string)) "" [ "a"; "b" ] (Store.table_names st));
  ]

let () =
  Alcotest.run "storage"
    [
      ("vec", vec_tests);
      ("tuple", tuple_tests);
      ("heap", heap_tests);
      ("delta", delta_tests);
      ("stats", stats_tests);
      ("store", store_tests);
    ]
