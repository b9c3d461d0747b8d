(* Running statements against a session and checking their results. *)

module Engine = Perm_engine.Engine
module Value = Perm_value.Value
module Tuple = Perm_storage.Tuple
open Workloads

type outcome =
  | Rows of string list * Tuple.t list  (** columns, rows *)
  | Count of int  (** rows a write changed *)
  | Done  (** DDL and other statements without a row count *)
  | Failed of string

(* The one engine call a statement makes; this is what the timings cover. *)
let run e st =
  let rows = function
    | Ok rs -> Rows (rs.Engine.columns, rs.Engine.rows)
    | Error msg -> Failed msg
  in
  match st.kind, st.params with
  | Read, Some params -> rows (Engine.query_params e st.sql params)
  | Read, None -> rows (Engine.query e st.sql)
  | Checkpoint, _ -> (
    match Engine.checkpoint e with Ok () -> Done | Error err -> Failed (Perm_err.to_string err))
  | Write, _ -> (
    match Engine.execute e st.sql with
    | Ok (Engine.Affected n) -> Count n
    | Ok _ -> Done
    | Error msg -> Failed msg)

type reference = { arity : int; rows : Bstat.fingerprint; distinct : Bstat.fingerprint }

(* Reference results by SQL text, computed outside any timing. *)
type refs = { session : Engine.t; cache : (string, reference option) Hashtbl.t }

let refs session = { session; cache = Hashtbl.create 64 }

let reference r sql =
  match Hashtbl.find_opt r.cache sql with
  | Some x -> x
  | None ->
    let x =
      match Engine.query r.session sql with
      | Ok rs ->
        let arity = List.length rs.Engine.columns in
        Some
          {
            arity;
            rows = Bstat.multiset rs.Engine.rows;
            distinct = Bstat.projected_set arity rs.Engine.rows;
          }
      | Error _ -> None
    in
    Hashtbl.replace r.cache sql x;
    x

(* Resolve the references a statement needs before it is timed, so a
   reference query never runs between the clock reads. *)
let prepare r st =
  match st.expect with
  | Same_as sql | Projects_to sql -> ignore (reference r sql)
  | Succeeds | Multiset _ | Projected _ | Lookup _ | Affects _ -> ()

let check r st outcome =
  match outcome, st.expect with
  | Failed _, _ -> false
  | Rows (_, rows), Same_as sql -> (
    match reference r sql with Some x -> Bstat.multiset rows = x.rows | None -> false)
  | Rows (_, rows), Projects_to sql -> (
    match reference r sql with
    | Some x -> Bstat.projected_set x.arity rows = x.distinct
    | None -> false)
  | Rows (_, rows), Multiset fp -> Bstat.multiset rows = fp
  | Rows (_, rows), Projected (n, fp) -> Bstat.projected_set n rows = fp
  | Rows (_, [ row ]), Lookup key -> Array.length row > 0 && Value.equal row.(0) key
  | Rows _, Lookup _ -> false
  | (Rows _ | Count _ | Done), Succeeds -> true
  | Count n, Affects m -> n = m
  | (Rows _ | Done), Affects _ | (Count _ | Done), (Same_as _ | Projects_to _ | Multiset _ | Projected _ | Lookup _) ->
    false

(* Figure 2 sanity: q1's provenance over the paper's own database has the
   paper's four rows. *)
let figure2_ok () =
  let e = fresh () in
  Perm_workload.Forum.load e;
  let ok =
    match Engine.query e Perm_workload.Forum.q1_provenance with
    | Ok rs -> List.length rs.Engine.rows = 4
    | Error _ -> false
  in
  Engine.close e;
  ok

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Statements the program answers wrongly today, kept out of the timed mix
   and run once per run instead, so the defect stays visible: the share of
   the plain result's rows that the provenance result covers (1 when
   correct). *)
let probe_defects e (w : Workloads.t) =
  List.map
    (fun (name, plain, prov) ->
      let coverage =
        match Engine.query e plain, Engine.query e prov with
        | Ok p, Ok v ->
          let n = List.length p.Engine.columns in
          let expected = Tuple.Hash.create 16 in
          List.iter (fun r -> Tuple.Hash.replace expected r ()) p.Engine.rows;
          let covered = Tuple.Hash.create 16 in
          List.iter
            (fun r ->
              let r = Array.sub r 0 n in
              if Tuple.Hash.mem expected r then Tuple.Hash.replace covered r ())
            v.Engine.rows;
          float_of_int (Tuple.Hash.length covered)
          /. float_of_int (max 1 (Tuple.Hash.length expected))
        | _ -> 0.
      in
      Printf.printf "known defect %s: provenance covers %.0f%% of the plain result's rows%s\n"
        name (coverage *. 100.)
        (if coverage = 1. then " (fixed: return it to the timed mix)" else "");
      (name, coverage))
    w.known_defects

(* The latencies of one statement template. *)
type template = { t_kind : kind; t_sem : sem; t_s : Bstat.Samples.t }

(* Per-statement latencies of a run, split the ways the metrics need. *)
type latencies = {
  all : Bstat.Samples.t;
  writes : Bstat.Samples.t;
  by_tmpl : (string, template) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable engine_s : float;  (** summed statement latencies *)
  mutable write_bytes : int;  (** SQL text of the writes: the user's bytes *)
}

let latencies () =
  {
    all = Bstat.Samples.create ();
    writes = Bstat.Samples.create ();
    by_tmpl = Hashtbl.create 32;
    attempted = 0;
    failed = 0;
    engine_s = 0.;
    write_bytes = 0;
  }

(* A checkpoint is maintenance, not a statement: it is reported under its
   own template only. *)
let record l st seconds =
  let add s = Bstat.Samples.add s seconds in
  if st.kind <> Checkpoint then begin
    add l.all;
    l.engine_s <- l.engine_s +. seconds
  end;
  if st.kind = Write then begin
    add l.writes;
    l.write_bytes <- l.write_bytes + String.length st.sql
  end;
  let t =
    match Hashtbl.find_opt l.by_tmpl st.tmpl with
    | Some t -> t
    | None ->
      let t = { t_kind = st.kind; t_sem = st.sem; t_s = Bstat.Samples.create () } in
      Hashtbl.replace l.by_tmpl st.tmpl t;
      t
  in
  add t.t_s

(* The geometric mean, over the templates [keep] selects, of each
   template's median latency. Templates differ several-fold in cost, so a
   median pooled over them sits at the edge of one template's cluster and
   jumps to the next one with small changes in speed; a template's own
   median does not, and the geometric mean weighs every template's
   relative change alike. *)
let template_p50 l keep =
  let logs =
    Hashtbl.fold
      (fun _ t acc ->
        if keep t then log (Bstat.median (Bstat.Samples.to_array t.t_s)) :: acc else acc)
      l.by_tmpl []
  in
  exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))

(* One statement: resolve its reference, time the engine call, check. *)
let step e r l st =
  prepare r st;
  let t0 = Bstat.now () in
  let outcome = run e st in
  let dt = Bstat.now () -. t0 in
  record l st dt;
  l.attempted <- l.attempted + 1;
  if not (check r st outcome) then begin
    l.failed <- l.failed + 1;
    match outcome with
    | Failed msg -> Printf.eprintf "FAILED %s: %s\n  %s\n%!" st.tmpl msg st.sql
    | _ -> Printf.eprintf "WRONG RESULT %s\n  %s\n%!" st.tmpl st.sql
  end

(* Closed loop, one client: whole rounds until [seconds] have passed.
   Returns the number of rounds. *)
let loop ?(step = step) ~seconds e r l (g : gen) =
  let t0 = Bstat.now () and rounds = ref 0 in
  while Bstat.now () -. t0 < seconds do
    List.iter (step e r l) (g.next_round ());
    incr rounds
  done;
  !rounds

(* After the run: a fresh session reopened on the WAL directory alone must
   hold exactly the generator's model of every table it wrote. Returns
   (seconds to reopen, replay, tables that matched, tables checked). *)
let recover ~dir e (g : gen) =
  Engine.disable_wal e;
  let fresh_e = fresh () in
  let replay, seconds = Bstat.time (fun () -> Engine.enable_wal fresh_e dir) in
  match replay with
  | Error err -> Error (Perm_err.to_string err)
  | Ok replay ->
    let tables = g.model () in
    let matched =
      List.filter
        (fun (table, rows) ->
          match Engine.query fresh_e ("SELECT * FROM " ^ table) with
          | Ok rs -> Bstat.multiset rs.Engine.rows = Bstat.multiset rows
          | Error _ -> false)
        tables
    in
    Engine.disable_wal fresh_e;
    Engine.close fresh_e;
    Ok (seconds, replay, List.length matched, List.length tables)
