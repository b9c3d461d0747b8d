(* The traced run: per-layer metrics measured from outside the engine.

   Each read is run once through [Engine.query] (the statement as users
   run it) and once more as the separate layer calls the engine makes
   internally: [Parser.parse_query] -> [Analyzer.analyze_query] ->
   [Rewriter.rewrite] (default Heuristic configuration) ->
   [Planner.optimize] -> [Engine.run_plan] -> [Render.table]. A span is
   recorded around every call; spans of one statement share its id, stay
   in memory and are written out when the run ends. The plan assembled
   from the layer calls must hash like [Engine.plan_query]'s plan for the
   same statement, so the trace measures what the engine runs. *)

module Engine = Perm_engine.Engine
module Plan = Perm_algebra.Plan
module Executor = Perm_executor.Executor
module Planner = Perm_planner.Planner
module Rewriter = Perm_provenance.Rewriter
module Analyzer = Perm_analyzer.Analyzer
module Parser = Perm_sql.Parser
module Metrics = Perm_obs.Metrics
module Profile = Perm_obs.Profile
open Workloads

type span = { id : int; name : string; parent : string option; t0 : float; t1 : float }

let spans : span list ref = ref []

(* A layer call inside statement [id]; the statement's own span is added
   when it ends. *)
let span id name f =
  let t0 = Bstat.now () in
  let x = f () in
  spans := { id; name; parent = Some "statement"; t0; t1 = Bstat.now () } :: !spans;
  x

let dur s = s.t1 -. s.t0

(* Operator names of [Plan.operator_name] without the table suffix, i.e.
   every operator an executable (marker-free) plan can contain. *)
let operators =
  [ "Scan"; "IndexScan"; "Values"; "Project"; "Select"; "Join"; "LeftJoin";
    "RightJoin"; "FullJoin"; "CrossJoin"; "SemiJoin"; "AntiJoin"; "ApplyCross";
    "ApplyOuter"; "ApplyScalar"; "ApplySemi"; "ApplyAnti"; "Aggregate";
    "Distinct"; "Union"; "UnionAll"; "Intersect"; "IntersectAll"; "Except";
    "ExceptAll"; "Sort"; "Limit" ]

let base_operator name =
  match String.index_opt name '(' with Some i -> String.sub name 0 i | None -> name

let operator_list plan =
  List.map (fun (node, _) -> Plan.operator_name node) (Executor.node_ids plan)

let classes = [ "spj"; "agg"; "union"; "nested"; "selective"; "warehouse" ]

(* What one traced read leaves behind besides its spans. *)
type read_info = {
  r_id : int;
  r_stmt : stmt;
  r_rules : int;  (** rewrite rule firings *)
  r_prov_cols : int;
  r_plan : Plan.t;
}

exception Layer_failed of string

let ok what = function Ok x -> x | Error msg -> raise (Layer_failed (what ^ ": " ^ msg))

(* One statement, traced. Engine.query runs first so it sees the session
   exactly as the untraced run would; the layer calls follow. *)
let traced_step e refs l id st =
  Harness.prepare refs st;
  let t0 = Bstat.now () in
  let query_name =
    match st.kind with
    | Read -> "engine.query"
    | Write -> "engine.execute"
    | Checkpoint -> "engine.checkpoint"
  in
  let outcome = span id query_name (fun () -> Harness.run e st) in
  l.Harness.attempted <- l.Harness.attempted + 1;
  let good = Harness.check refs st outcome in
  let info =
    match st.kind with
    | Write | Checkpoint -> None
    | Read -> (
      try
        let q = span id "sql.parse" (fun () -> Parser.parse_query st.sql) in
        let q = ok "parse" (Result.map_error (fun e -> e.Parser.message) q) in
        let q =
          match st.params with
          | None -> q
          | Some ps -> span id "sql.bind" (fun () -> ok "bind" (Perm_sql.Ast.bind_params ps q))
        in
        let analyzed =
          span id "analyzer.analyze" (fun () ->
              ok "analyze" (Analyzer.analyze_query (Engine.catalog e) q))
        in
        let rewritten, report =
          span id "provenance.rewrite" (fun () ->
              Rewriter.rewrite ~config:Rewriter.default_config analyzed)
        in
        let optimized =
          span id "planner.optimize" (fun () -> Planner.optimize (Engine.stats e) rewritten)
        in
        let rows =
          span id "executor.run_plan" (fun () -> ok "run_plan" (Engine.run_plan e optimized))
        in
        let columns = Analyzer.output_names analyzed in
        ignore (span id "engine.render" (fun () -> Perm_engine.Render.table ~columns ~rows));
        let _, engine_plan =
          span id "engine.plan_query" (fun () -> ok "plan_query" (Engine.plan_query e st.literal))
        in
        if Executor.plan_hash optimized <> Executor.plan_hash engine_plan then
          raise (Layer_failed "layered plan differs from Engine.plan_query's");
        Some
          {
            r_id = id;
            r_stmt = st;
            r_rules = List.fold_left (fun n (_, k) -> n + k) 0 report.Rewriter.rule_counts;
            r_prov_cols =
              List.length
                (List.filter (fun c -> String.starts_with ~prefix:"prov_" c) columns);
            r_plan = optimized;
          }
      with Layer_failed msg | Rewriter.Rewrite_error msg ->
        Printf.eprintf "TRACE FAILED %s: %s\n  %s\n%!" st.tmpl msg st.sql;
        l.Harness.failed <- l.Harness.failed + 1;
        None)
  in
  spans := { id; name = "statement"; parent = None; t0; t1 = Bstat.now () } :: !spans;
  if not good then l.Harness.failed <- l.Harness.failed + 1;
  info

let gauge e name = Option.value (Metrics.gauge (Engine.metrics e) name) ~default:0.

let spill_gauges =
  [ "executor.spill.runs"; "executor.spill.chunks"; "executor.spill.rows";
    "executor.spill.bytes"; "executor.spill.fallbacks" ]

let geomean = function
  | [] -> 0.
  | xs -> exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

(* Provenance overhead per class and semantics: median provenance latency
   over median plain latency of the same template (geometric mean over a
   class's templates). *)
let overheads (l : Harness.latencies) (stmts : stmt list) =
  let median tmpl =
    Option.map
      (fun t -> Bstat.median (Bstat.Samples.to_array t.Harness.t_s))
      (Hashtbl.find_opt l.by_tmpl tmpl)
  in
  let base st =
    let t = st.tmpl in
    String.sub t 0 (String.rindex t '.')
  in
  List.concat_map
    (fun cls ->
      List.map
        (fun sem ->
          let bases =
            List.sort_uniq compare
              (List.filter_map (fun st -> if st.cls = cls then Some (base st) else None) stmts)
          in
          let ratios =
            List.filter_map
              (fun b ->
                match median (b ^ ".plain"), median (b ^ "." ^ sem_name sem) with
                | Some p, Some v when p > 0. -> Some (v /. p)
                | _ -> None)
              bases
          in
          (Printf.sprintf "provenance.overhead_x.%s.%s" cls (sem_name sem), geomean ratios))
        [ Influence; Copy ])
    classes

let traced (w : Workloads.t) ~seconds ~out_dir ~seed =
  let e = w.setup () in
  let ref_session = match w.reference with Some f -> f () | None -> e in
  let refs = Harness.refs ref_session in
  let g = w.generator () in
  let l = Harness.latencies () in
  l.attempted <- l.attempted + 1;
  if not (Harness.figure2_ok ()) then l.failed <- l.failed + 1;
  List.iter (Harness.step e refs l) (g.next_round ());
  let defects = Harness.probe_defects e w in
  (* pass A: untraced, as in the end-to-end run *)
  let a = Harness.latencies () in
  (* log growth is summed over the write statements themselves: a
     checkpoint truncates the log and restarts its record count *)
  let wal_bytes = ref 0 and wal_records = ref 0 and wal_fsyncs = ref 0 in
  let wal_step e r l st =
    let before = Engine.wal_status e in
    Harness.step e r l st;
    match st.kind, before, Engine.wal_status e with
    | Write, Some s0, Some s1 ->
      wal_bytes := !wal_bytes + s1.Engine.ws_bytes - s0.Engine.ws_bytes;
      wal_records := !wal_records + s1.Engine.ws_last_lsn - s0.Engine.ws_last_lsn;
      wal_fsyncs := !wal_fsyncs + s1.Engine.ws_fsyncs - s0.Engine.ws_fsyncs
    | _ -> ()
  in
  let spill0 = List.map (gauge e) spill_gauges in
  let gc0 = Gc.quick_stat () in
  let rounds_a = Harness.loop ~step:wal_step ~seconds:(0.4 *. seconds) e refs a g in
  let gc1 = Gc.quick_stat () in
  let spill1 = List.map (gauge e) spill_gauges in
  (* pass B: the same number of rounds (at most 4000 statements, 0.6 of
     the run), traced *)
  let b = Harness.latencies () in
  let infos = ref [] and id = ref 0 and stmts_b = ref 0 and rounds_b = ref 0 in
  let tb = Bstat.now () in
  while !rounds_b < rounds_a && !stmts_b < 4000 && Bstat.now () -. tb < 0.6 *. seconds do
    List.iter
      (fun st ->
        incr id;
        incr stmts_b;
        match traced_step e refs b !id st with
        | Some i -> infos := i :: !infos
        | None -> ())
      (g.next_round ());
    incr rounds_b
  done;
  let infos = List.rev !infos in
  (* executor and planner: EXPLAIN ANALYZE each read template once, on its
     latest instance (earlier stored-provenance tables are dropped) *)
  let profiled = Hashtbl.create 32 in
  List.iter
    (fun i ->
      if not (Hashtbl.mem profiled i.r_stmt.tmpl) then begin
        Engine.reset_statement_stats e;
        match Engine.explain_analyze e i.r_stmt.literal with
        | Ok ea -> Hashtbl.replace profiled i.r_stmt.tmpl (ea.Engine.ea_rows, Engine.plan_profile e)
        | Error msg -> Printf.eprintf "EXPLAIN ANALYZE %s: %s\n%!" i.r_stmt.tmpl msg
      end)
    (List.rev infos);
  (* storage: cold minus warm run_plan of a bare scan right after a write
     (after nothing, on the read-only workloads) *)
  let scan_plan table = snd (Result.get_ok (Engine.plan_query e ("SELECT * FROM " ^ table))) in
  let cache = Bstat.Samples.create () in
  let probe table =
    let plan = scan_plan table in
    let cold = snd (Bstat.time (fun () -> Engine.run_plan e plan)) in
    let warm = snd (Bstat.time (fun () -> Engine.run_plan e plan)) in
    Bstat.Samples.add cache (cold -. warm)
  in
  if w.wal_dir = None then
    for _ = 1 to 20 do
      probe "messages"
    done
  else
    while Bstat.Samples.length cache < 20 do
      List.iter
        (fun st ->
          Harness.step e refs l st;
          match st.kind, String.index_opt st.tmpl '.' with
          | Write, Some i ->
            let table = String.sub st.tmpl (i + 1) (String.length st.tmpl - i - 1) in
            if table = "messages" || table = "approved" then probe table
          | _ -> ())
        (g.next_round ())
    done;
  let recovery =
    match w.wal_dir with None -> None | Some dir -> Some (Harness.recover ~dir e g)
  in
  if Option.is_some recovery then l.attempted <- l.attempted + 1;
  (match recovery with
  | Some (Ok (_, _, matched, total)) when matched < total -> l.failed <- l.failed + 1
  | Some (Error _) -> l.failed <- l.failed + 1
  | _ -> ());
  (* ---- spans -> per-layer figures ---- *)
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.add by_id s.id s) !spans;
  let durs name ids =
    Array.of_list
      (List.filter_map
         (fun id ->
           List.find_opt (fun s -> s.name = name) (Hashtbl.find_all by_id id)
           |> Option.map dur)
         ids)
  in
  let read_ids = List.map (fun i -> i.r_id) infos in
  let prov_ids = List.filter_map (fun i -> if i.r_stmt.sem <> Plain then Some i.r_id else None) infos in
  let med name ids = Report.ms (Bstat.median (durs name ids)) in
  let med0 name ids = match durs name ids with [||] -> 0. | a -> Report.ms (Bstat.median a) in
  let layer_sum id =
    List.fold_left
      (fun acc s ->
        if List.mem s.name
             [ "sql.parse"; "sql.bind"; "analyzer.analyze"; "provenance.rewrite";
               "planner.optimize"; "executor.run_plan" ]
        then acc +. dur s
        else acc)
      0. (Hashtbl.find_all by_id id)
  in
  let residual =
    Array.of_list
      (List.map
         (fun id ->
           let q = (durs "engine.query" [ id ]).(0) in
           q -. layer_sum id)
         read_ids)
  in
  let mean_int f xs =
    match xs with
    | [] -> 0.
    | _ -> float_of_int (List.fold_left (fun a x -> a + f x) 0 xs) /. float_of_int (List.length xs)
  in
  let prov_infos = List.filter (fun i -> i.r_stmt.sem <> Plain) infos in
  (* plan shapes, one per template *)
  let plans = Hashtbl.create 32 in
  List.iter
    (fun i ->
      if not (Hashtbl.mem plans i.r_stmt.tmpl) then
        Hashtbl.replace plans i.r_stmt.tmpl
          (Executor.plan_hash i.r_plan, operator_list i.r_plan))
    infos;
  let plan_rows = Hashtbl.fold (fun t p acc -> (t, p) :: acc) plans [] |> List.sort compare in
  let crossjoins =
    List.fold_left
      (fun n (_, (_, ops)) -> n + List.length (List.filter (( = ) "CrossJoin") ops))
      0 plan_rows
  in
  (* est vs act and operator self time from the profiled templates *)
  let profiles = Hashtbl.fold (fun _ p acc -> p :: acc) profiled [] in
  let nodes = List.concat_map snd profiles in
  let err_x (n : Profile.plan_node) =
    let act = float_of_int n.pn_act_rows /. float_of_int (max 1 n.pn_loops) in
    let est = n.pn_est_rows in
    Float.max (Float.max est 1.) (Float.max act 1.) /. Float.min (Float.max est 1.) (Float.max act 1.)
  in
  let errs = List.map err_x nodes in
  let result_rows = List.fold_left (fun a (r, _) -> a + r) 0 profiles in
  let examined = List.fold_left (fun a (n : Profile.plan_node) -> a + n.pn_act_rows) 0 nodes in
  let n_profiled = max 1 (List.length profiles) in
  let op_self =
    List.map
      (fun op ->
        let total =
          List.fold_left
            (fun a (n : Profile.plan_node) ->
              if base_operator n.pn_operator = op then a +. n.pn_self_ms else a)
            0. nodes
        in
        (Printf.sprintf "executor.op.%s.self_ms" op, total /. float_of_int n_profiled))
      operators
  in
  (* wal, gc, spill over pass A *)
  let writes_a = Bstat.Samples.to_array a.writes in
  let n_writes = Array.length writes_a in
  let per_write x = if n_writes = 0 then 0. else float_of_int x /. float_of_int n_writes in
  let spill_d = List.map2 (fun x y -> y -. x) spill0 spill1 in
  let spill_get name = List.assoc name (List.combine spill_gauges spill_d) in
  let n_a = Bstat.Samples.length a.all in
  let alloc (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words in
  let untraced_p50 = Bstat.median (Bstat.Samples.to_array a.all) in
  let traced_p50 =
    Bstat.median
      (Array.of_list
         (List.filter_map
            (fun s ->
              if s.name = "engine.query" || s.name = "engine.execute" then Some (dur s) else None)
            !spans))
  in
  let write_tail = if n_writes = 0 then 0. else let _, _, t = Bstat.tail ~target:w.tail_pct writes_a in t in
  let recovery_s, replay_records =
    match recovery with
    | Some (Ok (s, r, _, _)) -> (s, float_of_int r.Perm_wal.rp_records)
    | _ -> (0., 0.)
  in
  let user_bytes = float_of_int a.write_bytes in
  let metrics =
    [
      ("sql.parse_ms", "ms", med "sql.parse" read_ids);
      ("analyzer.analyze_ms", "ms", med "analyzer.analyze" read_ids);
      ("provenance.rewrite_ms", "ms", med0 "provenance.rewrite" prov_ids);
      ("provenance.rules_fired", "count", mean_int (fun i -> i.r_rules) prov_infos);
      ("provenance.prov_cols", "count", mean_int (fun i -> i.r_prov_cols) prov_infos);
      ( "provenance.defect_coverage",
        "ratio",
        List.fold_left (fun m (_, c) -> Float.min m c) 1. defects );
    ]
    @ List.map (fun (n, v) -> (n, "x", v)) (overheads a (List.map (fun i -> i.r_stmt) infos))
    @ [
        ("planner.optimize_ms", "ms", med "planner.optimize" read_ids);
        ("planner.crossjoin_nodes", "count", float_of_int crossjoins);
        ("planner.est_err_max_x", "x", List.fold_left Float.max 1. errs);
        ( "planner.misestimates_10x",
          "count",
          float_of_int (List.length (List.filter (fun x -> x >= 10.) errs)) );
        ("executor.run_ms", "ms", med "executor.run_plan" read_ids);
        ( "executor.rows_examined_per_row",
          "ratio",
          float_of_int examined /. float_of_int (max 1 result_rows) );
      ]
    @ List.map (fun (n, v) -> (n, "ms", v)) op_self
    @ [
        ("executor.spill_fallbacks", "count", spill_get "executor.spill.fallbacks");
        ("storage.scan_cache_build_ms", "ms", Report.ms (Bstat.median (Bstat.Samples.to_array cache)));
        ("storage.spill_runs", "count", spill_get "executor.spill.runs");
        ("storage.spill_chunks", "count", spill_get "executor.spill.chunks");
        ( "storage.spill_bytes_per_row",
          "B",
          let rows = spill_get "executor.spill.rows" in
          if rows > 0. then spill_get "executor.spill.bytes" /. rows else 0. );
        ( "wal.bytes_per_user_byte",
          "ratio",
          if user_bytes > 0. then float_of_int !wal_bytes /. user_bytes else 0. );
        ("wal.records_per_write", "count", per_write !wal_records);
        ("wal.fsyncs_per_write", "count", per_write !wal_fsyncs);
        ("wal.write_p50_ms", "ms", if n_writes = 0 then 0. else Report.ms (Bstat.median writes_a));
        ("wal.write_tail_ms", "ms", Report.ms write_tail);
        ("wal.replay_ms", "ms", Report.ms recovery_s);
        ("wal.replay_records", "count", replay_records);
        ("obs.residual_ms", "ms", Report.ms (Bstat.median residual));
        ("engine.render_ms", "ms", med "engine.render" read_ids);
        ("gc.alloc_words_per_stmt", "words", (alloc gc1 -. alloc gc0) /. float_of_int (max 1 n_a));
        ( "gc.minor_per_stmt",
          "count",
          float_of_int (gc1.minor_collections - gc0.minor_collections) /. float_of_int (max 1 n_a) );
        ("gc.major_collections", "count", float_of_int (gc1.major_collections - gc0.major_collections));
        ("trace.overhead_frac", "ratio", (traced_p50 -. untraced_p50) /. untraced_p50);
      ]
  in
  (* ---- report ---- *)
  Printf.printf "pass A (untraced): %d rounds, %d statements; pass B (traced): %d rounds, %d statements\n"
    rounds_a n_a !rounds_b !stmts_b;
  Printf.printf "plan shapes (optimized plan hash, pre-order operators):\n";
  List.iter
    (fun (t, (h, ops)) -> Printf.printf "  %-36s %s  %s\n" t h (String.concat " " ops))
    plan_rows;
  Printf.printf "per-layer metrics:\n";
  List.iter (fun (n, u, v) -> Printf.printf "  %-44s %14.6f %s\n" n v u) metrics;
  (* spans, written once the run is over *)
  let b_spans = Buffer.create (1 lsl 20) in
  Buffer.add_string b_spans "{\"spans\": [\n";
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity !spans in
  List.iteri
    (fun k s ->
      let children =
        List.filter (fun c -> c.parent = Some s.name) (Hashtbl.find_all by_id s.id)
      in
      let self = dur s -. List.fold_left (fun a c -> a +. dur c) 0. children in
      Buffer.add_string b_spans
        (Printf.sprintf
           "%s{\"id\": %d, \"name\": %s, \"parent\": %s, \"start_us\": %.3f, \"dur_us\": %.3f, \"self_us\": %.3f}\n"
           (if k = 0 then "" else ",")
           s.id (Report.json_string s.name)
           (match s.parent with None -> "null" | Some p -> Report.json_string p)
           ((s.t0 -. origin) *. 1e6) (dur s *. 1e6) (self *. 1e6)))
    (List.rev !spans);
  Buffer.add_string b_spans "],\n\"plans\": [\n";
  List.iteri
    (fun k (t, (h, ops)) ->
      Buffer.add_string b_spans
        (Printf.sprintf "%s{\"template\": %s, \"plan_hash\": %s, \"operators\": [%s]}\n"
           (if k = 0 then "" else ",")
           (Report.json_string t) (Report.json_string h)
           (String.concat ", " (List.map Report.json_string ops))))
    plan_rows;
  Buffer.add_string b_spans "]}\n";
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" w.name seed) in
  Report.write_file path (Buffer.contents b_spans);
  Printf.printf "spans and plan shapes written to %s\n" path;
  let attempted = l.attempted + a.attempted + b.attempted in
  let failed = l.failed + a.failed + b.failed in
  (attempted, failed, List.map (fun (n, u, v) -> Report.metric n u v) metrics)
