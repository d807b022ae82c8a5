(** The timestep simulator: the one synchronous round loop.

    Implements the §3.1 semantics: at each timestep the strategy
    proposes a set of simultaneous moves; the engine checks them
    against the arc-existence, set-semantics, capacity and possession
    constraints (an invalid proposal is a strategy bug and raises
    {!Strategy_error}), applies the deliveries, and repeats until all
    wants are satisfied or the run aborts.

    A run aborts as [Stalled] when no *new* token delivery happened
    for [stall_patience] consecutive steps while wants remain — every
    correct heuristic on a strongly connected instance makes progress
    well within the default patience — or as [Step_limit] at the hard
    cap.  The produced schedule is re-checked by
    {!Ocd_core.Validate.check_successful} before metrics are computed,
    so reported numbers never rest on the engine's own bookkeeping.

    The §6 extensions change only which proposed moves land and when a
    run stops, so they run through the same loop ({!loop}) with a
    different {!admission} or {!goal}: changing network conditions
    ({!Ocd_dynamics.Dynamic_engine}), shared physical links
    ({!Ocd_underlay.Underlay}) and coded tokens ({!Ocd_coding.Coding}). *)

open Ocd_core
exception Strategy_error of string

type outcome =
  | Completed
  | Stalled of int  (** the step at which progress ceased *)
  | Step_limit

type run = {
  strategy_name : string;
  seed : int;
  outcome : outcome;
  schedule : Schedule.t;
      (** trailing all-want-satisfied steps are not recorded *)
  metrics : Metrics.t;
      (** [metrics.complete] is false (and the makespan not meaningful)
          unless [outcome = Completed] *)
  fresh_deliveries : int;
      (** distinct [(dst, token)] pairs delivered over the run — two
          sources sending one token to one destination in the same
          step count once *)
  dropped_moves : int;
      (** proposals a {!Lossy} admission discarded (congestion losses);
          always 0 under {!Strict} *)
}

val run :
  ?obs:Ocd_obs.t ->
  ?step_limit:int ->
  ?stall_patience:int ->
  strategy:Strategy.t ->
  seed:int ->
  Instance.t ->
  run
(** [loop ~admission:Strict ~goal:Wants].  With [n] vertices and [m]
    tokens, [step_limit] defaults to [min (m(n-1) + n + 64) 10^6]
    (Theorem 1's move bound plus slack for silent steps) and
    [stall_patience] to [2m + 16].

    [obs] (default {!Ocd_obs.disabled}) attaches an observability
    scope.  Counters [engine/rounds], [engine/moves],
    [engine/fresh_deliveries], [engine/quiet_steps] and the
    [engine/moves_per_step] histogram are fed in sim-time; the trace
    sink receives one ['X'] event per step (tid 0) and per fresh
    delivery (tid = receiving vertex, ts = step); a probe times
    [engine/<strategy>/decide], [.../apply] and [.../post] phases in
    wall-clock.  Instrumentation never affects the run: schedule and
    metrics are byte-identical with and without it. *)

val completed_exn : run -> run
(** Returns the run, raising [Failure] with a diagnostic when it did
    not complete — used by benches that require success. *)

(** {1 The shared round loop} *)

(** Which proposed moves land.  Under both, a move naming a vertex
    outside the graph, a token out of range, a missing arc, or a token
    its sender does not hold raises {!Strategy_error}. *)
type admission =
  | Strict
      (** §3.1 as a contract: a repeated [(arc, token)] or an exceeded
          capacity also raises; every proposed move lands. *)
  | Lossy of {
      view : step:int -> Instance.t;
          (** the instance the strategy sees at [step] (its decision
              context); the run itself stays on the base instance *)
      fits : step:int -> load:int -> cap:int -> Move.t -> bool;
          (** called in proposal order on each first [(arc, token)]
              of a step, with [load] moves already admitted on the arc
              this step and its base capacity [cap]: [true] admits the
              move (consuming whatever else [fits] tracks), [false]
              drops it and counts it in [dropped_moves] *)
    }
      (** the network decides: a repeated [(arc, token)] is dropped
          silently, every other move is admitted or dropped by [fits].
          Since the recorded schedule holds only admitted moves, [fits]
          must never admit beyond [cap] for it to stay §3.1-valid. *)

(** When a run completes. *)
type goal =
  | Wants  (** every vertex holds its wants, [w(v) ⊆ p(v)] *)
  | Until of {
      on_fresh : step:int -> dst:int -> token:int -> unit;
          (** called once per fresh [(dst, token)] delivery, visible at
              boundary [step] *)
      is_done : unit -> bool;  (** tested before every step *)
    }
      (** a caller-tracked predicate; the completed schedule is then
          checked by {!Ocd_core.Validate.check} only *)

val loop :
  ?obs:Ocd_obs.t ->
  ?step_limit:int ->
  ?stall_patience:int ->
  admission:admission ->
  goal:goal ->
  strategy:Strategy.t ->
  seed:int ->
  Instance.t ->
  run
(** The round loop behind {!run} and the §6 extension engines.
    Defaults follow from the admission: {!Strict} as in {!run};
    {!Lossy} doubles the step budget, [min (2m(n-1) + n + 128) 10^6],
    and waits longer for progress, [stall_patience = 4m + 64].
    Instrumentation is {!run}'s, plus an [engine/dropped_moves] counter
    under {!Lossy}; the metrics count admitted moves only. *)
