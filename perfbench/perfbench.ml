(* The repository benchmark. One process, one session, one client in a
   closed loop; see perfbench/README.md for the workloads and metrics.

     perfbench --workload <analytic|point|mixed-write|spill> --seed <n>
               --seconds <s> --trace <0|1>

   The last line of standard output is the JSON result. *)

module Engine = Perm_engine.Engine
open Workloads

(* Relative to the checkout root, where the benchmark runs: scratch space
   (WAL, spill files), removed at exit, and kept result and trace files. *)
let work_root = ".perfbench_work"
let out_dir = ".perfbench_out"
let setup_min_runs = 3
let setup_min_s = 1.0
let digest_stmts = 2000

(* The first [digest_stmts] statements of the stream, SQL and parameters:
   the same seed gives the same digest, another seed another one. *)
let stream_digest (w : Workloads.t) =
  let g = w.generator () in
  let b = Buffer.create 65536 in
  let rec go n =
    if n < digest_stmts then
      go
        (List.fold_left
           (fun n st ->
             if n < digest_stmts then begin
               Buffer.add_string b st.sql;
               Option.iter
                 (List.iter (fun v ->
                      Buffer.add_char b '\x00';
                      Buffer.add_string b (Perm_value.Value.to_string v)))
                 st.params;
               Buffer.add_char b '\n'
             end;
             n + 1)
           n (g.next_round ()))
  in
  go 0;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Set up from scratch at least [setup_min_runs] times and for at least
   [setup_min_s] seconds. Returns the last session and the set-up times. *)
let set_up (w : Workloads.t) =
  let times = Bstat.Samples.create () and session = ref None in
  let t0 = Bstat.now () in
  while
    Bstat.Samples.length times < setup_min_runs || Bstat.now () -. t0 < setup_min_s
  do
    (* a session holds a GC alarm until it is closed *)
    Option.iter Engine.close !session;
    session := None;
    Gc.compact ();
    let e, dt = Bstat.time w.setup in
    Bstat.Samples.add times dt;
    session := Some e
  done;
  (Option.get !session, Bstat.Samples.to_array times)

let print_templates (l : Harness.latencies) =
  let rows =
    Hashtbl.fold
      (fun name t acc -> (name, Bstat.Samples.to_array t.Harness.t_s) :: acc)
      l.by_tmpl []
    |> List.sort compare
  in
  List.iter
    (fun (t, a) ->
      Printf.printf "  %-36s n=%-7d p50=%.4f ms  p95=%.4f ms\n" t (Array.length a)
        (Report.ms (Bstat.median a))
        (Report.ms (Bstat.quantile a 0.95)))
    rows

let untraced (w : Workloads.t) ~seconds =
  let session, setup_before = set_up w in
  let ref_session = match w.reference with Some f -> f () | None -> session in
  let refs = Harness.refs ref_session in
  let g = w.generator () in
  let l = Harness.latencies () in
  let figure2 = Harness.figure2_ok () in
  (* warm-up: one untimed round, checked like the timed ones *)
  let warm = Harness.latencies () in
  List.iter (Harness.step session refs warm) (g.next_round ());
  ignore (Harness.probe_defects session w);
  let rounds = Harness.loop ~seconds session refs l g in
  (* the workload's own footprint, before the end-of-run checks *)
  let heap = Harness.peak_heap_mb () in
  let recovery =
    match w.wal_dir with
    | None -> None
    | Some dir -> Some (Harness.recover ~dir session g)
  in
  (* more set-ups after the run: the machine's speed drifts over seconds,
     and set-ups taken a whole run apart give a steadier median
     than set-ups taken in one stretch *)
  let discard, setup_after = set_up w in
  Engine.close discard;
  let setup_times = Array.append setup_before setup_after in
  Printf.printf "set-up runs (s):%s\n"
    (String.concat "" (List.map (Printf.sprintf " %.4f") (Array.to_list setup_times)));
  let all = Bstat.Samples.to_array l.all in
  let n = Array.length all in
  let pct, beyond, tail = Bstat.tail ~target:w.tail_pct all in
  let failed_checks =
    (if figure2 then 0 else 1)
    + warm.failed
    + (match recovery with
      | None | Some (Ok (_, _, _, 0)) -> 0
      | Some (Ok (_, _, matched, total)) -> total - matched
      | Some (Error _) -> 1)
  in
  let attempted = l.attempted + warm.attempted + 1 + Option.fold ~none:0 ~some:(fun _ -> 1) recovery in
  let failed = l.failed + failed_checks in
  Printf.printf "figure 2 sanity (q1 provenance has 4 rows): %s\n"
    (if figure2 then "ok" else "FAILED");
  Printf.printf "timed: %d rounds, %d statements, %.3f s in the engine\n" rounds n l.engine_s;
  Printf.printf "tail: p%g over %d statements (%d beyond it)\n" pct n beyond;
  Printf.printf "per-template latency:\n";
  print_templates l;
  let writes = Bstat.Samples.to_array l.writes in
  if Array.length writes > 0 then begin
    let wp, wb, wt = Bstat.tail ~target:w.tail_pct writes in
    Printf.printf "writes: %d, p50 %.4f ms, tail p%g %.4f ms (%d beyond)\n"
      (Array.length writes) (Report.ms (Bstat.median writes)) wp (Report.ms wt) wb
  end;
  (match recovery with
  | None -> ()
  | Some (Ok (s, replay, matched, total)) ->
    Printf.printf "recovery: %.4f s, %d records replayed, %d/%d tables match the model\n" s
      replay.Perm_wal.rp_records matched total
  | Some (Error msg) -> Printf.printf "recovery: FAILED %s\n" msg);
  Printf.printf "failed_frac: %d/%d = %g\n" failed attempted
    (float_of_int failed /. float_of_int attempted);
  let p50 = Harness.template_p50 l in
  let metrics =
    Report.
      [
        metric "setup_s" "s" (Bstat.median setup_times);
        metric "throughput_stmt_s" "stmt/s" (float_of_int n /. l.engine_s);
        metric "stmt_p50_gm_ms" "ms" (ms (p50 (fun t -> t.Harness.t_kind <> Checkpoint)));
        metric "stmt_tail_ms" "ms" (ms tail);
        metric "plain_p50_gm_ms" "ms" (ms (p50 (fun t -> t.Harness.t_kind = Read && t.t_sem = Plain)));
        metric "prov_p50_gm_ms" "ms" (ms (p50 (fun t -> t.Harness.t_kind = Read && t.t_sem <> Plain)));
        metric "peak_heap_mb" "MB" heap;
      ]
  in
  (attempted, failed, metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Workloads.names);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 1: traced run reporting per-layer metrics");
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad a)) "perfbench [options]";
  let work_dir =
    Filename.concat work_root (Printf.sprintf "%s-%d" !workload (Unix.getpid ()))
  in
  match Workloads.make !workload ~seed:!seed ~work_dir with
  | None ->
    Printf.eprintf "unknown workload %S (one of %s)\n" !workload
      (String.concat ", " Workloads.names);
    exit 2
  | Some w ->
    Fsutil.mkdir_p work_dir;
    let seconds = float_of_int (max 1 !seconds) in
    Printf.printf "workload %s, seed %d, %g s, %s run\n" w.name !seed seconds
      (if !trace = 1 then "traced" else "untraced");
    Printf.printf
      "load: closed loop, 1 client, 1 domain; engine defaults (vectorized on, \
       parallel off)\n";
    Printf.printf "data: %s\n" w.data;
    Printf.printf "stream digest (first %d statements): %s\n" digest_stmts (stream_digest w);
    let attempted, failed, metrics =
      Fun.protect
        ~finally:(fun () ->
          Fsutil.remove_tree work_dir;
          try Sys.rmdir work_root with Sys_error _ -> ())
        (fun () ->
          if !trace = 1 then Layers.traced w ~seconds ~out_dir ~seed:!seed
          else untraced w ~seconds)
    in
    let line = Report.result_line ~correct:(failed = 0) ~attempted ~failed metrics in
    Report.write_file
      (Filename.concat out_dir
         (Printf.sprintf "%s-seed%d-trace%d.json" w.name !seed !trace))
      (line ^ "\n");
    print_endline line
