(* Vectorized batch-at-a-time execution.

   The row-at-a-time closures are the correctness oracle: with
   vectorization on, every query must return byte-identical rows in
   identical order — across adversarial batch sizes (1, 7, and the
   default), including the provenance rewrites (influence + copy, lazy
   and eager). *)

module Engine = Perm_engine.Engine
module Executor = Perm_executor.Executor
module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
open Perm_testkit.Kit

(* Batch sizes under test: degenerate (1), prime (7), and the shipped
   default. *)
let batch_sizes = [ 1; 7; Executor.default_batch_rows ]

let ordered_rows e sql = strings_of_rows (query_ok e sql).Engine.rows

(* Oracle: the row path. *)
let row_oracle e sql =
  Engine.set_vectorized e false;
  let rows = ordered_rows e sql in
  Engine.set_vectorized e true;
  rows

let check_against_oracle e sql =
  let oracle = row_oracle e sql in
  List.iter
    (fun bn ->
      Engine.set_batch_rows e bn;
      Alcotest.(check rows_testable)
        (Printf.sprintf "%s [row = batch, batch_rows=%d]" sql bn)
        oracle (ordered_rows e sql))
    batch_sizes;
  Engine.set_batch_rows e Executor.default_batch_rows

let forum_queries =
  [
    "SELECT mid, text FROM messages WHERE mid >= 0";
    "SELECT * FROM users";
    "SELECT mid, mid % 2, upper(text) FROM messages WHERE mid % 2 = 0";
    "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid";
    "SELECT uid, count(*) FROM messages GROUP BY uid";
    "SELECT count(*), min(mid), max(mid) FROM messages";
    "SELECT mid, text FROM messages ORDER BY mid DESC LIMIT 7";
    "SELECT DISTINCT uid FROM messages";
    Perm_workload.Forum.q1;
    Perm_workload.Forum.q3;
    (* provenance rewrites: influence through union/aggregate, and the
       copy-contribution variant *)
    Perm_workload.Forum.q1_provenance;
    "SELECT PROVENANCE m.text FROM messages m WHERE m.mid > 2";
    "SELECT PROVENANCE uid, count(*) FROM messages GROUP BY uid";
    "SELECT PROVENANCE ON CONTRIBUTION (COPY) mid, text FROM messages \
     WHERE mid > 1";
  ]

let suite_identity =
  [
    case "forum figure-1 data: row oracle = batch paths at 1/7/default"
      (fun () ->
        let e = forum_engine () in
        List.iter (check_against_oracle e) forum_queries;
        Engine.close e);
    case "scaled forum: row oracle = batch paths, batch path engaged"
      (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        List.iter (check_against_oracle e) forum_queries;
        Alcotest.(check bool) "batch path engaged" true
          (List.for_all
             (fun sql ->
               match Engine.plan_query e sql with
               | Ok (_, plan) -> Executor.batch_eligible plan
               | Error msg -> Alcotest.failf "%s: %s" sql msg)
             forum_queries);
        Engine.close e);
    case "star workload: row oracle = batch paths incl. provenance"
      (fun () ->
        let e = engine () in
        Perm_workload.Star.load e ~scale:120 ();
        List.iter
          (fun (_, q, qp) ->
            check_against_oracle e q;
            check_against_oracle e qp)
          Perm_workload.Star.queries;
        Engine.close e);
    case "eager provenance stored through the batch path = lazy rows"
      (fun () ->
        let e = forum_engine () in
        (* lazy answer on the row oracle *)
        let lazy_rows =
          row_oracle e "SELECT PROVENANCE mid, text FROM messages"
        in
        Engine.set_batch_rows e 7;
        ignore
          (exec_ok e
             "STORE PROVENANCE SELECT mid, text FROM messages INTO vec_eager");
        let eager =
          List.sort compare (ordered_rows e "SELECT * FROM vec_eager")
        in
        Alcotest.(check rows_testable)
          "eager store = lazy provenance" (List.sort compare lazy_rows) eager;
        Engine.close e);
  ]

let suite_dispatch =
  [
    case "batch_eligible declines Apply and Prov shapes" (fun () ->
        let e = forum_engine () in
        (* a surviving correlated Apply must fall back to the row path and
           still answer correctly *)
        let sql =
          "SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM messages \
           m WHERE m.uid < u.uid)"
        in
        check_against_oracle e sql;
        Engine.close e);
    case "\\set vectorized off pins the row path; plan hash sees the mode"
      (fun () ->
        let e = forum_engine () in
        let h = Engine.history e in
        Perm_obs.History.set_capacity h 8;
        Perm_obs.History.set_cadence h 0.;
        let sql = "SELECT mid FROM messages" in
        let last_hash () =
          match List.rev (Perm_obs.History.executions h) with
          | r :: _ -> r.Perm_obs.History.ex_plan_hash
          | [] -> Alcotest.fail "no execution recorded"
        in
        Engine.set_vectorized e true;
        ignore (query_ok e sql);
        let vec_hash = last_hash () in
        Engine.set_vectorized e false;
        ignore (query_ok e sql);
        let row_hash = last_hash () in
        Alcotest.(check bool) "mode is part of the plan hash" true
          (vec_hash <> row_hash);
        Engine.close e);
    case "batch_rows floor is 1" (fun () ->
        let e = forum_engine () in
        Engine.set_batch_rows e 0;
        Alcotest.(check int) "clamped" 1 (Engine.batch_rows e);
        ignore (query_ok e "SELECT mid FROM messages");
        Engine.close e);
  ]

(* A plan the batch compiler declines runs on the row path even with
   vectorization on: same rows as the row oracle, and the same plan hash
   as under [\set vectorized off], since the mode recorded is the path
   that actually ran. *)
let suite_row_fallbacks =
  [
    case "correlated Apply stays on the row path under vectorized on"
      (fun () ->
        let e = forum_engine () in
        let h = Engine.history e in
        Perm_obs.History.set_capacity h 8;
        Perm_obs.History.set_cadence h 0.;
        (* non-equality correlation defeats decorrelation, so an Apply
           survives into the optimized plan *)
        let sql =
          "SELECT u.name FROM users u WHERE EXISTS (SELECT 1 FROM messages \
           m WHERE m.uid < u.uid)"
        in
        (match Engine.plan_query e sql with
        | Ok (_, plan) ->
            Alcotest.(check bool) "plan is not batch eligible" false
              (Executor.batch_eligible plan)
        | Error msg -> Alcotest.failf "%s: %s" sql msg);
        let last_hash () =
          match List.rev (Perm_obs.History.executions h) with
          | r :: _ -> r.Perm_obs.History.ex_plan_hash
          | [] -> Alcotest.fail "no execution recorded"
        in
        Engine.set_vectorized e false;
        let oracle = ordered_rows e sql in
        let row_hash = last_hash () in
        Engine.set_vectorized e true;
        Alcotest.(check rows_testable) "fallback = row oracle" oracle
          (ordered_rows e sql);
        Alcotest.(check string) "recorded as a row-path run" row_hash
          (last_hash ());
        Engine.close e);
  ]

let suite_profiler =
  [
    case "instrumented batch run reports exact peak bytes" (fun () ->
        let e = engine () in
        Perm_workload.Forum.load_scaled e ~messages:300 ~users:40 ();
        Engine.set_instrumentation e true;
        let sql = "SELECT mid, text FROM messages WHERE mid % 2 = 0" in
        let serial = row_oracle e sql in
        Alcotest.(check rows_testable) "instrumented batch = row oracle"
          serial (ordered_rows e sql);
        let prof = Engine.plan_profile e in
        Alcotest.(check bool) "profile populated" true (prof <> []);
        List.iter
          (fun pn ->
            Alcotest.(check bool)
              (pn.Perm_obs.Profile.pn_operator ^ " has measured bytes")
              true
              (pn.Perm_obs.Profile.pn_peak_bytes > 0))
          prof;
        Engine.close e);
  ]

(* ---- join tables ------------------------------------------------- *)

(* Every join build site shares one hash table, typed for single Int,
   Date and Text keys. These joins run straight on the executor over
   fixture tables (key column, then payload) that hold NULL keys,
   duplicate keys and values off their column's type — which no SQL
   statement can store — on the row path and the batch path at every
   batch size. All must return byte-identical rows, and
   the row path must equal a nested-loop evaluation of the join. *)

let big = 9007199254740992 (* 2^53: Int neighbours share one Float *)

let jt_tables =
  let d n = Value.Date n in
  [
    ( "ints_l",
      Dtype.Int,
      [ [ i 1; s "a" ]; [ nl; s "b" ]; [ i 2; s "c" ]; [ i 2; s "d" ];
        [ i 7; s "e" ]; [ nl; s "f" ]; [ i (big + 1); s "g" ] ] );
    ( "ints_r",
      Dtype.Int,
      [ [ i 2; s "p" ]; [ nl; s "q" ]; [ i 1; s "r" ]; [ i 2; s "s" ];
        [ i 9; s "t" ]; [ nl; s "u" ]; [ i big; s "v" ]; [ i (big + 1); s "w" ] ] );
    (* probe values off the Int type: a Float equal to an Int, a Float
       equal to two Ints, a fraction, a Text and a Date *)
    ( "odd_l",
      Dtype.Int,
      [ [ f 2.0; s "a" ]; [ i 1; s "b" ]; [ f (float_of_int big); s "c" ];
        [ f 2.5; s "d" ]; [ s "2"; s "e" ]; [ d 2; s "f" ]; [ nl; s "g" ] ] );
    (* a build value off the Int type sends the build to the generic
       table *)
    ( "odd_r",
      Dtype.Int,
      [ [ i 2; s "p" ]; [ f 1.0; s "q" ]; [ nl; s "r" ]; [ i (big + 1); s "s" ];
        [ i 2; s "t" ] ] );
    ( "dates_l",
      Dtype.Date,
      [ [ d 10; s "a" ]; [ nl; s "b" ]; [ d 11; s "c" ]; [ d 10; s "d" ];
        [ i 10; s "e" ] ] );
    ( "dates_r",
      Dtype.Date,
      [ [ d 11; s "p" ]; [ d 10; s "q" ]; [ nl; s "r" ]; [ d 10; s "s" ];
        [ d 12; s "t" ] ] );
    ( "texts_l",
      Dtype.Text,
      [ [ s "x"; s "a" ]; [ s ""; s "b" ]; [ nl; s "c" ]; [ s "y"; s "d" ];
        [ s "x"; s "e" ]; [ i 1; s "f" ] ] );
    ( "texts_r",
      Dtype.Text,
      [ [ s "y"; s "p" ]; [ s "x"; s "q" ]; [ nl; s "r" ]; [ s ""; s "s" ];
        [ s "x"; s "t" ]; [ s "z"; s "u" ] ] );
  ]

let jt_rows table =
  let _, _, rows = List.find (fun (n, _, _) -> n = table) jt_tables in
  List.map row rows

let jt_provider : Executor.provider =
  {
    Executor.scan_table = (fun t -> List.to_seq (jt_rows t));
    Executor.probe_index = (fun _ _ _ -> Seq.empty);
    Executor.scan_batches =
      (fun t n -> Executor.batches_of_list ~arity:2 ~batch_rows:n (jt_rows t));
  }

let jt_scan table =
  let _, ty, _ = List.find (fun (n, _, _) -> n = table) jt_tables in
  let attrs = [ Attr.fresh "k" ty; Attr.fresh "p" Dtype.Text ] in
  (Plan.Scan { table; attrs }, attrs)

(* [l = r], or the null-safe form the provenance rejoin emits *)
let key_eq ~null_safe l r =
  let eq = Expr.Binop (Expr.Eq, Expr.Attr l, Expr.Attr r) in
  if not null_safe then eq
  else
    Expr.Binop
      ( Expr.Or,
        eq,
        Expr.Binop
          ( Expr.And,
            Expr.Unop (Expr.Is_null, Expr.Attr l),
            Expr.Unop (Expr.Is_null, Expr.Attr r) ) )

(* The join's definition, evaluated as a nested loop. *)
let nested_loop kind ~matches lrows rrows =
  let pad n = Array.make n Value.Null in
  let hits l = List.filter (matches l) rrows in
  let main =
    List.concat_map
      (fun l ->
        match kind, hits l with
        | Plan.Semi, hs -> if hs <> [] then [ l ] else []
        | Plan.Anti, hs -> if hs = [] then [ l ] else []
        | (Plan.Left | Plan.Full), [] -> [ Array.append l (pad 2) ]
        | _, hs -> List.map (Array.append l) hs)
      lrows
  in
  match kind with
  | Plan.Full ->
    main
    @ List.filter_map
        (fun r ->
          if List.exists (fun l -> matches l r) lrows then None
          else Some (Array.append (pad 2) r))
        rrows
  | _ -> main

(* constructor-tagged, so an Int never passes for an equal Float *)
let show_rows rows =
  List.map
    (fun r ->
      List.map
        (fun v -> Dtype.to_string (Value.type_of v) ^ ":" ^ Value.to_string v)
        (Array.to_list r))
    rows

let ok_rows what = function
  | Ok rows -> show_rows rows
  | Error msg -> Alcotest.failf "%s: %s" what msg

let check_join ~ltable ~rtable ~keys ~null_safe kind =
  let left, lattrs = jt_scan ltable and right, rattrs = jt_scan rtable in
  let key_cols = List.init keys Fun.id in
  let pred =
    Expr.conjoin
      (List.map
         (fun c -> key_eq ~null_safe (List.nth lattrs c) (List.nth rattrs c))
         key_cols)
  in
  let plan = Plan.Join { kind; left; right; pred = Some pred } in
  let name =
    Printf.sprintf "%s %s %s keys=%d%s" ltable (Plan.join_kind_name kind)
      rtable keys
      (if null_safe then " null-safe" else "")
  in
  let matches (l : Value.t array) (r : Value.t array) =
    List.for_all
      (fun c ->
        match l.(c), r.(c) with
        | Value.Null, Value.Null -> null_safe
        | a, b -> Value.equal a b)
      key_cols
  in
  let oracle = ok_rows name (Executor.run ~provider:jt_provider plan) in
  Alcotest.(check rows_testable)
    (name ^ " [row = nested loop]")
    (show_rows (nested_loop kind ~matches (jt_rows ltable) (jt_rows rtable)))
    oracle;
  List.iter
    (fun bn ->
      Alcotest.(check rows_testable)
        (Printf.sprintf "%s [row = batch, batch_rows=%d]" name bn)
        oracle
        (ok_rows name (Executor.run ~batch_rows:bn ~provider:jt_provider plan)))
    batch_sizes

let suite_join_tables =
  let pairs =
    [
      ("ints_l", "ints_r", 1);
      ("odd_l", "ints_r", 1);
      ("ints_l", "odd_r", 1);
      ("odd_l", "odd_r", 1);
      ("dates_l", "dates_r", 1);
      ("texts_l", "texts_r", 1);
      ("ints_l", "ints_l", 2);
      ("texts_l", "texts_r", 2);
    ]
  in
  [
    case "typed and generic join tables: row = nested loop = batch" (fun () ->
        List.iter
          (fun (ltable, rtable, keys) ->
            List.iter
              (fun null_safe ->
                List.iter
                  (check_join ~ltable ~rtable ~keys ~null_safe)
                  [ Plan.Inner; Plan.Left; Plan.Full; Plan.Semi; Plan.Anti ])
              [ false; true ])
          pairs);
  ]

let () =
  Alcotest.run "vectorized"
    [
      ("identity", suite_identity);
      ("dispatch", suite_dispatch);
      ("profiler", suite_profiler);
      ("join-tables", suite_join_tables);
      ("row-fallbacks", suite_row_fallbacks);
    ]
