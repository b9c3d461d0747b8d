(** Retained plan-node profiles.

    The accumulator behind the [perm_stat_plans] system view:
    per-(fingerprint, node id) operator cardinality/time profiles fed by
    the executor's plan-node profiler. Keys are plain strings and ints so
    the module has no dependency on the algebra. *)

type plan_node = {
  pn_fingerprint : string;  (** statement fingerprint the plan belongs to *)
  pn_node : int;  (** stable pre-order node id within the optimized plan *)
  pn_operator : string;  (** [Plan.operator_name] of the node *)
  mutable pn_est_rows : float;  (** planner estimate (latest execution) *)
  mutable pn_act_rows : int;  (** actual rows out, summed over executions *)
  mutable pn_self_ms : float;  (** self wall-time, exclusive of children *)
  mutable pn_loops : int;  (** operator (re)invocations *)
  mutable pn_peak_bytes : int;
      (** peak batch memory estimate: max rows streamed through one
          invocation times an estimated row width *)
}

type t

val create : unit -> t
val reset : t -> unit

val record_plan_node :
  t ->
  fingerprint:string ->
  node:int ->
  operator:string ->
  est_rows:float ->
  act_rows:int ->
  self_ms:float ->
  loops:int ->
  peak_bytes:int ->
  unit

val plan_nodes : t -> plan_node list
(** Sorted by fingerprint, then node id (tree pre-order). *)
