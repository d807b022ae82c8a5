(** Simulation under time-varying network conditions.

    Each timestep the engine materialises the effective topology from
    the {!Condition}, hands the strategy a context whose instance
    carries that topology (so adaptive heuristics see current
    conditions, like real systems probing their links), and then
    *enforces* the effective capacities: moves beyond an arc's
    effective capacity — e.g. from a strategy still acting on stale
    state — are dropped, modelling congestion loss of the excess.
    Moves on fully-down arcs are likewise dropped.

    The recorded schedule contains only the moves that were actually
    delivered; since effective capacities never exceed base
    capacities, it is always a valid §3.1 schedule of the *static*
    instance, and is revalidated as such.

    A vertex whose wants are temporarily unreachable simply waits;
    the stall guard therefore defaults to a more generous patience
    than the static engine's.

    This is {!Ocd_engine.Engine.loop} with a
    {!Ocd_engine.Engine.Lossy} admission built from
    {!Condition.effective} and a view built from {!Condition.graph_at}:
    the round semantics, stop conditions and revalidation are the
    engine's own.  A strategy bug (a move on a non-existent arc, a
    vertex or token out of range, a token its sender lacks) raises
    {!Ocd_engine.Engine.Strategy_error}. *)

open Ocd_core

type run = Ocd_engine.Engine.run = {
  strategy_name : string;
  seed : int;
  outcome : Ocd_engine.Engine.outcome;
  schedule : Schedule.t;
  metrics : Metrics.t;
  fresh_deliveries : int;
      (** distinct [(dst, token)] pairs delivered over the run *)
  dropped_moves : int;
      (** proposals discarded by the condition (congestion losses) *)
}

val run :
  ?obs:Ocd_obs.t ->
  ?step_limit:int ->
  ?stall_patience:int ->
  condition:Condition.t ->
  strategy:Ocd_engine.Strategy.t ->
  seed:int ->
  Instance.t ->
  run
(** Defaults and instrumentation are {!Ocd_engine.Engine.loop}'s under
    a lossy admission: [obs] feeds the [engine/*] counters (moves count
    delivered moves only) plus [engine/dropped_moves], and the
    [engine/<strategy>/{decide,apply,post}] probe phases.
    Instrumentation never perturbs the run. *)
