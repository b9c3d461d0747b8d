(* Planner tests: constant folding, predicate pushdown, projection pruning
   must preserve semantics; the cost model must rank plans sensibly. *)

module Plan = Perm_algebra.Plan
module Expr = Perm_algebra.Expr
module Attr = Perm_algebra.Attr
module Pretty = Perm_algebra.Pretty
module Planner = Perm_planner.Planner
module Engine = Perm_engine.Engine
module Value = Perm_value.Value
module Dtype = Perm_value.Dtype
open Perm_testkit.Kit

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go idx = idx + n <= h && (String.sub hay idx n = needle || go (idx + 1)) in
  n = 0 || go 0

let setup () =
  let e = engine () in
  exec_all e
    [
      "CREATE TABLE r (a int, b text)";
      "INSERT INTO r VALUES (1, 'x'), (2, 'y'), (3, 'z'), (3, 'w')";
      "CREATE TABLE s (a int, c int)";
      "INSERT INTO s VALUES (1, 10), (2, 20), (9, 90)";
    ];
  e

(* run the same query with the optimizer on and off; results must agree *)
let check_equivalent sql =
  let run config =
    let e = setup () in
    Engine.set_optimizer_config e config;
    strings_of_rows (query_ok e sql).Engine.rows |> List.sort compare
  in
  Alcotest.(check rows_testable)
    sql
    (run Planner.disabled_config)
    (run Planner.default_config)

let equivalence_corpus =
  [
    "SELECT a + 0 FROM r WHERE 1 = 1 AND a > 1";
    "SELECT r.a, s.c FROM r, s WHERE r.a = s.a AND r.b <> 'zzz'";
    "SELECT x.b FROM (SELECT a * 2 AS d, b FROM r) x WHERE x.d > 2";
    "SELECT b, count(*) FROM r WHERE a >= 1 GROUP BY b HAVING count(*) >= 1";
    "SELECT a FROM r WHERE a IN (SELECT a FROM s) ORDER BY a";
    "SELECT DISTINCT b FROM r WHERE a = 3";
    "SELECT a FROM r UNION ALL SELECT a FROM s ORDER BY a LIMIT 4";
    "SELECT r.a FROM r LEFT JOIN s ON r.a = s.a WHERE r.a > 1";
    "SELECT PROVENANCE a, b FROM r WHERE a = 3";
    "SELECT PROVENANCE count(*), b FROM r GROUP BY b";
    "SELECT a, (SELECT max(c) FROM s) FROM r LIMIT 2";
    "SELECT CASE WHEN 1 = 1 THEN a ELSE 0 END FROM r";
  ]

let equivalence_tests =
  [
    case "optimizer preserves semantics on corpus" (fun () ->
        List.iter check_equivalent equivalence_corpus);
  ]

let folding_tests =
  [
    case "constants fold" (fun () ->
        let e = Planner.optimize Planner.no_stats
            (Plan.Filter
               {
                 child = Plan.Values { attrs = []; rows = [ [] ] };
                 pred =
                   Expr.Binop
                     ( Expr.Eq,
                       Expr.Binop (Expr.Add, Expr.Const (Value.Int 1), Expr.Const (Value.Int 2)),
                       Expr.Const (Value.Int 3) );
               })
        in
        (* 1+2=3 folds to TRUE and the filter disappears *)
        match e with
        | Plan.Values _ -> ()
        | p -> Alcotest.failf "expected filter elimination, got %s" (Pretty.plan_summary p));
    case "division by zero is not folded away" (fun () ->
        let pred =
          Expr.Binop
            (Expr.Eq, Expr.Binop (Expr.Div, Expr.Const (Value.Int 1), Expr.Const (Value.Int 0)),
             Expr.Const (Value.Int 1))
        in
        let p =
          Planner.optimize Planner.no_stats
            (Plan.Filter { child = Plan.Values { attrs = []; rows = [ [] ] }; pred })
        in
        match p with
        | Plan.Filter _ -> ()
        | p -> Alcotest.failf "fold must keep the error: %s" (Pretty.plan_summary p));
    case "kleene shortcuts respect three-valued logic" (fun () ->
        (* false AND unknown folds to false; true AND x folds to x *)
        let a = Attr.fresh "a" Dtype.Bool in
        let x = Expr.Attr a in
        let fold e =
          let p =
            Planner.optimize Planner.no_stats
              (Plan.Filter { child = Plan.Scan { table = "t"; attrs = [ a ] }; pred = e })
          in
          match p with
          | Plan.Filter { pred; _ } -> Some pred
          | Plan.Scan _ -> None
          | _ -> Alcotest.fail "unexpected plan"
        in
        (match fold (Expr.Binop (Expr.And, Expr.Const (Value.Bool true), x)) with
        | Some (Expr.Attr _) -> ()
        | _ -> Alcotest.fail "true AND x should fold to x");
        match fold (Expr.Binop (Expr.Or, x, Expr.Const (Value.Bool false))) with
        | Some (Expr.Attr _) -> ()
        | _ -> Alcotest.fail "x OR false should fold to x");
  ]

let structure_tests =
  [
    case "predicate pushes below projection into the join side" (fun () ->
        let e = setup () in
        match Engine.plan_query e "SELECT r.b FROM r, s WHERE r.a = 1 AND s.c > 5" with
        | Ok (_, optimized) ->
          let txt = Pretty.plan_to_string ~show_attrs:false optimized in
          (* both single-side conjuncts must sit below the join *)
          let join_line =
            String.split_on_char '\n' txt
            |> List.find_opt (fun l -> contains ~needle:"Join" l)
          in
          Alcotest.(check bool) "join exists" true (join_line <> None);
          Alcotest.(check bool) "filters below join" true
            (let lines = String.split_on_char '\n' txt in
             let join_idx = ref (-1) and filter_idx = ref (-1) in
             List.iteri
               (fun idx l ->
                 if contains ~needle:"CrossJoin" l && !join_idx < 0 then join_idx := idx;
                 if contains ~needle:"Select" l && !filter_idx < 0 then filter_idx := idx)
               lines;
             !join_idx >= 0 && !filter_idx > !join_idx)
        | Error msg -> Alcotest.fail msg);
    case "pruning removes unused aggregate calls" (fun () ->
        let e = setup () in
        match
          Engine.plan_query e
            "SELECT x.b FROM (SELECT b, count(*) AS c, sum(a) AS s1 FROM r GROUP BY b) x"
        with
        | Ok (_, optimized) ->
          let txt = Pretty.plan_to_string ~show_attrs:false optimized in
          Alcotest.(check bool) "sum pruned" false (contains ~needle:"sum" txt)
        | Error msg -> Alcotest.fail msg);
    case "top projection kept (it renames), nothing else added" (fun () ->
        (* identity-project elimination only fires on rewriter-generated
           self-maps; the analyzer's top projection introduces fresh output
           attributes and must stay *)
        let e = setup () in
        match Engine.plan_query e "SELECT a, b FROM r" with
        | Ok (_, optimized) ->
          Alcotest.(check string) "" "Project(Scan(r))" (Pretty.plan_summary optimized)
        | Error msg -> Alcotest.fail msg);
    case "rewriter-generated identity projections are dropped" (fun () ->
        let e = setup () in
        match Engine.plan_query e "SELECT PROVENANCE a, b FROM r" with
        | Ok (_, optimized) ->
          (* the unoptimized rewrite stacks three projections over the scan;
             pruning must collapse the pure-identity ones *)
          Alcotest.(check bool) "few operators" true (Plan.count_operators optimized <= 3)
        | Error msg -> Alcotest.fail msg);
    case "no pushdown past outer joins" (fun () ->
        let e = setup () in
        match
          Engine.plan_query e "SELECT r.a FROM r LEFT JOIN s ON r.a = s.a WHERE s.c IS NULL"
        with
        | Ok (_, optimized) ->
          let txt = Pretty.plan_to_string ~show_attrs:false optimized in
          let lines = String.split_on_char '\n' txt in
          let filter_idx = ref (-1) and join_idx = ref (-1) in
          List.iteri
            (fun idx l ->
              if contains ~needle:"Select" l && !filter_idx < 0 then filter_idx := idx;
              if contains ~needle:"LeftJoin" l && !join_idx < 0 then join_idx := idx)
            lines;
          Alcotest.(check bool) "filter above left join" true
            (!filter_idx >= 0 && !join_idx > !filter_idx)
        | Error msg -> Alcotest.fail msg);
  ]

let cost_tests =
  let stats =
    {
      Planner.table_rows = (function "big" -> 100000 | _ -> 10);
      Planner.table_distinct = (fun _ _ -> 10);
      Planner.has_index = (fun _ _ -> false);
    }
  in
  let scan_big =
    Plan.Scan { table = "big"; attrs = [ Attr.fresh "x" Dtype.Int ] }
  in
  let scan_small =
    Plan.Scan { table = "small"; attrs = [ Attr.fresh "y" Dtype.Int ] }
  in
  [
    case "bigger tables cost more" (fun () ->
        Alcotest.(check bool) "" true
          (Planner.cost stats scan_big > Planner.cost stats scan_small));
    case "filters reduce estimated rows" (fun () ->
        let x = match Plan.schema scan_big with [ x ] -> x | _ -> assert false in
        let filtered =
          Plan.Filter
            {
              child = scan_big;
              pred = Expr.Binop (Expr.Eq, Expr.Attr x, Expr.Const (Value.Int 1));
            }
        in
        Alcotest.(check bool) "" true
          (Planner.estimate_rows stats filtered < Planner.estimate_rows stats scan_big));
    case "hash join cheaper than nested loop apply" (fun () ->
        let join =
          Plan.Join
            {
              kind = Plan.Inner;
              left = scan_big;
              right = scan_small;
              pred =
                Some
                  (Expr.Binop
                     ( Expr.Eq,
                       Expr.Attr (List.hd (Plan.schema scan_big)),
                       Expr.Attr (List.hd (Plan.schema scan_small)) ));
            }
        in
        let apply = Plan.Apply { kind = Plan.A_cross; left = scan_big; right = scan_small } in
        Alcotest.(check bool) "" true (Planner.cost stats join < Planner.cost stats apply));
    case "estimate: distinct group count bounded by input" (fun () ->
        let x = List.hd (Plan.schema scan_small) in
        let agg =
          Plan.Aggregate
            { child = scan_small; group_by = [ (Expr.Attr x, Attr.fresh "g" Dtype.Int) ]; aggs = [] }
        in
        Alcotest.(check bool) "" true (Planner.estimate_rows stats agg <= 10.));
    case "limit caps the estimate" (fun () ->
        let lim = Plan.Limit { child = scan_big; limit = Some 5; offset = 0 } in
        Alcotest.(check bool) "" true (Planner.estimate_rows stats lim <= 5.));
  ]

(* ---- join conditions and constant carrying ------------------------ *)

let optimized e sql =
  match Engine.plan_query e sql with
  | Ok (_, optimized) -> optimized
  | Error msg -> Alcotest.failf "%s: %s" sql msg

let rec fold_plan f acc (p : Plan.t) =
  List.fold_left (fold_plan f) (f acc p) (Plan.children p)

(* joins in pre-order: kind and the column names of each conjunct *)
let joins plan =
  List.rev
    (fold_plan
       (fun acc -> function
         | Plan.Join { kind; pred; _ } ->
           let conj =
             match pred with
             | None -> []
             | Some p ->
               List.map
                 (fun c ->
                   Expr.attrs c |> Attr.Set.elements
                   |> List.map (fun (a : Attr.t) -> a.Attr.name)
                   |> List.sort compare)
                 (Expr.conjuncts p)
           in
           (kind, conj) :: acc
         | _ -> acc)
       [] plan)

(* base tables read under a filter [col = 2] (or probed by an index) *)
let filtered_tables plan =
  let is_two = function
    | Expr.Binop (Expr.Eq, Expr.Attr _, Expr.Const (Value.Int 2))
    | Expr.Binop (Expr.Eq, Expr.Const (Value.Int 2), Expr.Attr _) ->
      true
    | _ -> false
  in
  List.sort compare
    (fold_plan
       (fun acc -> function
         | Plan.Filter { child = Plan.Scan { table; _ }; pred }
           when List.exists is_two (Expr.conjuncts pred) ->
           table :: acc
         | Plan.Index_scan { table; _ } -> table :: acc
         | _ -> acc)
       [] plan)

let no_cross plan =
  List.for_all (fun (kind, _) -> kind <> Plan.Cross) (joins plan)

let join_tests =
  let three_way () =
    let e = engine () in
    exec_all e
      [
        "CREATE TABLE x1 (k1 int, v int)";
        "CREATE TABLE x2 (k1 int, k2 int)";
        "CREATE TABLE x3 (k2 int, w int)";
      ];
    e
  in
  [
    case "two-way comma join plans as a hash join" (fun () ->
        let p = optimized (setup ()) "SELECT r.b, s.c FROM r, s WHERE r.a = s.a" in
        Alcotest.(check bool) "no CrossJoin" true (no_cross p);
        match joins p with
        | [ (Plan.Inner, [ [ "a"; "a" ] ]) ] -> ()
        | _ -> Alcotest.failf "expected Join [a = a]: %s" (Pretty.plan_summary p));
    case "three-way comma join: each conjunct on its lowest join" (fun () ->
        let e = three_way () in
        List.iter
          (fun sql ->
            let p = optimized e sql in
            Alcotest.(check bool) (sql ^ ": no CrossJoin") true (no_cross p);
            (match joins p with
            | [ (Plan.Inner, [ [ "k2"; "k2" ] ]); (Plan.Inner, [ [ "k1"; "k1" ] ]) ]
              ->
              ()
            | _ -> Alcotest.failf "%s: %s" sql (Pretty.plan_summary p));
            (* the non-equality spanning all three stays above as a filter *)
            let rec top_filter = function
              | Plan.Project { child; _ } -> top_filter child
              | Plan.Filter { child = Plan.Join _; _ } -> true
              | _ -> false
            in
            Alcotest.(check bool) (sql ^ ": v > w stays a filter") true
              (top_filter p))
          [
            "SELECT x1.v FROM x1, x2, x3 WHERE x1.k1 = x2.k1 AND x2.k2 = x3.k2 \
             AND x1.v > x3.w";
            "SELECT x1.v FROM x1, x2, x3 WHERE x1.v > x3.w AND x2.k2 = x3.k2 \
             AND x1.k1 = x2.k1";
          ]);
    case "a constant is carried across an inner join key, both ways"
      (fun () ->
        let e = setup () in
        List.iter
          (fun sql ->
            Alcotest.(check (list string)) sql [ "r"; "s" ]
              (filtered_tables (optimized e sql)))
          [
            "SELECT r.b, s.c FROM r JOIN s ON r.a = s.a WHERE r.a = 2";
            "SELECT r.b, s.c FROM r JOIN s ON r.a = s.a WHERE s.a = 2";
            "SELECT r.b, s.c FROM r, s WHERE r.a = 2 AND r.a = s.a";
            "SELECT r.b, s.c FROM r, s WHERE s.a = 2 AND r.a = s.a";
            (* through the projections the provenance rewrite stacks up *)
            "SELECT PROVENANCE r.b, s.c FROM r JOIN s ON r.a = s.a WHERE r.a = 2";
            "SELECT PROVENANCE r.b, s.c FROM r, s WHERE s.a = 2 AND r.a = s.a";
            "SELECT x.b FROM (SELECT r.a AS k, r.b FROM r) x JOIN s ON x.k = \
             s.a WHERE x.k = 2";
            (* IN de-correlates to a semi join *)
            "SELECT b FROM r WHERE a IN (SELECT a FROM s) AND a = 2";
          ]);
    case "nothing merged or carried where it is not sound" (fun () ->
        let r_a = Attr.fresh "a" Dtype.Int and r_b = Attr.fresh "b" Dtype.Text in
        let s_a = Attr.fresh "a" Dtype.Int and s_c = Attr.fresh "c" Dtype.Int in
        let outer = Attr.fresh "o" Dtype.Int in
        let r = Plan.Scan { table = "r"; attrs = [ r_a; r_b ] }
        and s = Plan.Scan { table = "s"; attrs = [ s_a; s_c ] } in
        let eq a b = Expr.Binop (Expr.Eq, a, b) in
        let ra = Expr.Attr r_a and sa = Expr.Attr s_a in
        let two = Expr.Const (Value.Int 2) in
        let opt plan = Planner.optimize Planner.no_stats plan in
        (* no carrying across Left, Full or Anti joins *)
        List.iter
          (fun kind ->
            let p =
              opt
                (Plan.Filter
                   {
                     child = Plan.Join { kind; left = r; right = s; pred = Some (eq ra sa) };
                     pred = eq ra two;
                   })
            in
            Alcotest.(check bool)
              (Plan.join_kind_name kind ^ ": build side unfiltered")
              false
              (List.mem "s" (filtered_tables p)))
          [ Plan.Left; Plan.Full; Plan.Anti ];
        (* nor for a non-equality constant conjunct *)
        let p =
          opt
            (Plan.Filter
               {
                 child =
                   Plan.Join { kind = Plan.Inner; left = r; right = s; pred = Some (eq ra sa) };
                 pred = Expr.Binop (Expr.Gt, ra, two);
               })
        in
        Alcotest.(check int) "r > 2 is not carried" 1
          (fold_plan (fun n -> function Plan.Filter _ -> n + 1 | _ -> n) 0 p);
        (* a spanning non-equality or a correlated equality stays above the
           cross join *)
        List.iter
          (fun (what, pred) ->
            match opt (Plan.Filter { child = Plan.Join { kind = Plan.Cross; left = r; right = s; pred = None }; pred }) with
            | Plan.Filter { child = Plan.Join { kind = Plan.Cross; _ }; _ } -> ()
            | p -> Alcotest.failf "%s merged: %s" what (Pretty.plan_summary p))
          [
            ("r.a < s.a", Expr.Binop (Expr.Lt, ra, sa));
            ("r.a + o = s.a", eq (Expr.Binop (Expr.Add, ra, Expr.Attr outer)) sa);
            ("r.a = o", eq ra (Expr.Attr outer));
          ]);
    case "comma-form forum and star queries: same rows with planner off"
      (fun () ->
        let run load sql config =
          let e = engine () in
          load e;
          Engine.set_optimizer_config e config;
          List.sort compare (strings_of_rows (query_ok e sql).Engine.rows)
        in
        let check load sql =
          List.iter
            (fun sql ->
              Alcotest.(check rows_testable) sql
                (run load sql Planner.disabled_config)
                (run load sql Planner.default_config))
            [ sql; "SELECT PROVENANCE " ^ String.sub sql 7 (String.length sql - 7) ]
        in
        let forum e = Perm_workload.Forum.load_scaled e ~messages:120 ~users:12 () in
        List.iter (check forum)
          [
            "SELECT m.text, u.name FROM messages m, users u WHERE m.uid = u.uid";
            "SELECT m.text, u.name FROM messages m, users u WHERE m.mid = 2 AND \
             m.uid = u.uid";
            "SELECT u.name, count(*) FROM messages m, users u WHERE m.uid = \
             u.uid GROUP BY u.name";
            "SELECT m.text, a.uid FROM messages m, approved a WHERE a.mid = 3 \
             AND m.mid = a.mid";
            "SELECT u.name, m.text FROM users u, messages m, approved a WHERE \
             u.uid = a.uid AND a.mid = m.mid";
          ];
        let star e = Perm_workload.Star.load e ~scale:60 () in
        List.iter (check star)
          [
            "SELECT p.brand, count(*) AS items, sum(l.qty) FROM lineitem l, \
             part p WHERE l.partkey = p.partkey GROUP BY p.brand";
            "SELECT c.name, count(*), sum(l.qty) FROM customer c, orders o, \
             lineitem l WHERE c.custkey = o.custkey AND o.orderkey = \
             l.orderkey GROUP BY c.custkey, c.name HAVING sum(l.qty) > 50";
            "SELECT c.segment, count(*) FROM customer c, orders o, lineitem l \
             WHERE o.orderkey = l.orderkey AND c.segment = 'BUILDING' AND \
             c.custkey = o.custkey AND o.odate >= DATE '1995-01-01' GROUP BY \
             c.segment";
            "SELECT o.orderkey, l.qty FROM orders o, lineitem l WHERE \
             o.orderkey = 3 AND o.orderkey = l.orderkey";
          ]);
  ]

let () =
  Alcotest.run "planner"
    [
      ("equivalence", equivalence_tests);
      ("folding", folding_tests);
      ("structure", structure_tests);
      ("cost", cost_tests);
      ("joins", join_tests);
    ]
