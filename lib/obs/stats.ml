(* Statement-statistics accumulator — the pg_stat_statements analog.

   Statements are grouped by fingerprint (normalized SQL text, computed by
   the caller so this module stays independent of the SQL frontend); base
   relations are grouped by name. The engine records into an accumulator
   it owns and exposes the contents back out as the perm_stat_statements /
   perm_stat_relations system views. *)

type statement_stat = {
  st_fingerprint : string;
  st_query : string;  (* first raw SQL text seen for this fingerprint *)
  mutable st_calls : int;
  mutable st_errors : int;
  mutable st_rows : int;
  mutable st_total_ms : float;
  mutable st_max_ms : float;
  mutable st_phase_ms : (string * float) list;  (* unordered accumulation *)
  mutable st_rule_counts : (string * int) list;
  st_provenance : bool;
}

type relation_stat = {
  rel_name : string;
  mutable rel_scans : int;
  mutable rel_rows : int;
}

type t = {
  stmts : (string, statement_stat) Hashtbl.t;
  rels : (string, relation_stat) Hashtbl.t;
}

let create () = { stmts = Hashtbl.create 32; rels = Hashtbl.create 16 }

(* Fingerprints kept, like the history store's bound: a session whose
   statements keep naming new tables would otherwise grow the
   accumulator without limit. *)
let max_statements = 256

(* Make room for a new fingerprint by dropping the least-called one
   (ties: the smallest fingerprint), as pg_stat_statements evicts its
   least-used entries. *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun _ st acc ->
        match acc with
        | Some v
          when v.st_calls < st.st_calls
               || (v.st_calls = st.st_calls && v.st_fingerprint < st.st_fingerprint)
          ->
          acc
        | _ -> Some st)
      t.stmts None
  in
  Option.iter (fun v -> Hashtbl.remove t.stmts v.st_fingerprint) victim

let reset t =
  Hashtbl.reset t.stmts;
  Hashtbl.reset t.rels

let bump assoc key by =
  let rec go = function
    | [] -> [ (key, by) ]
    | (k, v) :: rest when String.equal k key -> (k, v +. by) :: rest
    | kv :: rest -> kv :: go rest
  in
  go assoc

let bump_int assoc key by =
  let rec go = function
    | [] -> [ (key, by) ]
    | (k, v) :: rest when String.equal k key -> (k, v + by) :: rest
    | kv :: rest -> kv :: go rest
  in
  go assoc

let record_statement t ~fingerprint ~sql ~ms ~phases ~rules ~provenance ~rows
    ~error =
  let st =
    match Hashtbl.find_opt t.stmts fingerprint with
    | Some st -> st
    | None ->
      let st =
        {
          st_fingerprint = fingerprint;
          st_query = sql;
          st_calls = 0;
          st_errors = 0;
          st_rows = 0;
          st_total_ms = 0.;
          st_max_ms = 0.;
          st_phase_ms = [];
          st_rule_counts = [];
          st_provenance = provenance;
        }
      in
      if Hashtbl.length t.stmts >= max_statements then evict_one t;
      Hashtbl.replace t.stmts fingerprint st;
      st
  in
  st.st_calls <- st.st_calls + 1;
  if error then st.st_errors <- st.st_errors + 1;
  st.st_rows <- st.st_rows + rows;
  st.st_total_ms <- st.st_total_ms +. ms;
  if ms > st.st_max_ms then st.st_max_ms <- ms;
  List.iter
    (fun (phase, pms) -> st.st_phase_ms <- bump st.st_phase_ms phase pms)
    phases;
  List.iter
    (fun (rule, count) ->
      st.st_rule_counts <- bump_int st.st_rule_counts rule count)
    rules

let record_scan t ~relation ~rows =
  let rel =
    match Hashtbl.find_opt t.rels relation with
    | Some rel -> rel
    | None ->
      let rel = { rel_name = relation; rel_scans = 0; rel_rows = 0 } in
      Hashtbl.replace t.rels relation rel;
      rel
  in
  rel.rel_scans <- rel.rel_scans + 1;
  rel.rel_rows <- rel.rel_rows + rows

let phase_ms st name =
  match List.assoc_opt name st.st_phase_ms with Some v -> v | None -> 0.

let rule_firings st =
  List.fold_left (fun acc (_, n) -> acc + n) 0 st.st_rule_counts

let mean_ms st =
  if st.st_calls = 0 then 0. else st.st_total_ms /. float_of_int st.st_calls

(* Costliest first; ties broken by fingerprint for deterministic output. *)
let statements t =
  Hashtbl.fold (fun _ st acc -> st :: acc) t.stmts []
  |> List.sort (fun a b ->
         match compare b.st_total_ms a.st_total_ms with
         | 0 -> compare a.st_fingerprint b.st_fingerprint
         | c -> c)

let relations t =
  Hashtbl.fold (fun _ rel acc -> rel :: acc) t.rels []
  |> List.sort (fun a b -> compare a.rel_name b.rel_name)
