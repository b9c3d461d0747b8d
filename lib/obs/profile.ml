(* Retained plan-node profiles — the accumulator behind the
   perm_stat_plans system view.

   Profiles are keyed by (statement fingerprint, node id): the engine
   assigns stable pre-order ids over the optimized plan, so repeated
   executions of the same statement shape fold into one row per operator.
   The store is string/int keyed so this module stays independent of the
   algebra. *)

type plan_node = {
  pn_fingerprint : string;
  pn_node : int;  (* stable pre-order id within the optimized plan *)
  pn_operator : string;
  mutable pn_est_rows : float;  (* planner estimate, latest plan wins *)
  mutable pn_act_rows : int;  (* actual rows out, summed over executions *)
  mutable pn_self_ms : float;  (* self wall-time (exclusive of children) *)
  mutable pn_loops : int;  (* operator (re)invocations *)
  mutable pn_peak_bytes : int;  (* peak batch memory estimate, max *)
}

type t = (string * int, plan_node) Hashtbl.t

let create () : t = Hashtbl.create 64
let reset t = Hashtbl.reset t

let record_plan_node t ~fingerprint ~node ~operator ~est_rows ~act_rows
    ~self_ms ~loops ~peak_bytes =
  let key = (fingerprint, node) in
  let pn =
    match Hashtbl.find_opt t key with
    | Some pn -> pn
    | None ->
      let pn =
        {
          pn_fingerprint = fingerprint;
          pn_node = node;
          pn_operator = operator;
          pn_est_rows = est_rows;
          pn_act_rows = 0;
          pn_self_ms = 0.;
          pn_loops = 0;
          pn_peak_bytes = 0;
        }
      in
      Hashtbl.replace t key pn;
      pn
  in
  pn.pn_est_rows <- est_rows;
  pn.pn_act_rows <- pn.pn_act_rows + act_rows;
  pn.pn_self_ms <- pn.pn_self_ms +. self_ms;
  pn.pn_loops <- pn.pn_loops + loops;
  if peak_bytes > pn.pn_peak_bytes then pn.pn_peak_bytes <- peak_bytes

(* Fingerprint order, then tree order — the natural reading order of the
   perm_stat_plans view. *)
let plan_nodes t =
  Hashtbl.fold (fun _ pn acc -> pn :: acc) t []
  |> List.sort (fun a b ->
         match compare a.pn_fingerprint b.pn_fingerprint with
         | 0 -> compare a.pn_node b.pn_node
         | c -> c)
