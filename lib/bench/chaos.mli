(** Chaos campaign: a Pool-parallel robustness sweep for the
    asynchronous runtime.

    A campaign crosses a list of {e environment cells} — message loss,
    link flaps, vertex churn, node crash rate, network partitions —
    with every registered async protocol and [trials] seeds, runs each
    combination through {!Ocd_async.Runtime.run} under a runtime
    invariant monitor ({!Ocd_async.Monitor}), re-checks every produced
    schedule with {!Ocd_core.Validate}, and aggregates per (cell,
    protocol): completion rate, p95 completion ticks, mean
    retransmissions and duplicates, fault counters, monitor
    violations, and — for timed-out runs — the {!Ocd_async.Diagnosis}
    verdict census.

    Determinism: every task derives its run, condition, and fault seeds
    from the campaign's base seed and the task's grid coordinates
    alone, and {!Ocd_prelude.Pool.map} preserves input order, so the
    rendered report is byte-identical for any [--jobs]. *)

type cell = {
  label : string;  (** stable row label for the report *)
  loss : float;  (** i.i.d. per-message loss probability *)
  flaps : bool;  (** link up/down Markov process *)
  churn : bool;  (** vertex departures (sources protected) *)
  crash_prob : float;  (** per-round node crash probability; 0 = off *)
  partition : (float * float) option;
      (** [(split_prob, heal_prob)] for a seeded two-sided partition
          process ({!Ocd_dynamics.Faults.partitions}); [None] = off *)
}

type grid = {
  n : int;  (** vertex count of the campaign instance *)
  tokens : int;
  trials : int;
  cells : cell list;
}

val smoke_grid : grid
(** Tiny fixed grid (4 cells, 2 trials, 12 vertices) for CI: exercises
    no-fault, loss + crash, flaps + crash, and crash + partition in
    seconds. *)

val default_grid : grid
(** The full campaign grid: loss {m \times} flaps {m \times} churn
    {m \times} crash-rate cells over a 24-vertex instance, plus
    partition cells. *)

val failing_grid : grid
(** A one-cell, one-trial grid constructed to fail deterministically
    (near-permanent partition): the input for the [--shrink] CI
    smoke.  See {!failures} and {!Shrink}. *)

type agg = {
  env : string;
  protocol : string;
  trials : int;
  completed : int;
  p95_ticks : float option;  (** over completed trials; [None] if none *)
  retrans_mean : float;
  duplicates_mean : float;
  crashes : int;  (** total crash events across trials *)
  restarts : int;
  lost_tokens : int;
  failed_jobs : int;
  verdicts : (string * int) list;
      (** diagnosis verdict census of timed-out trials, by
          {!Ocd_async.Diagnosis.verdict_name}, fixed name order *)
  invalid : int;  (** schedules rejected by {!Ocd_core.Validate} *)
  violations : int;  (** runtime monitor violations across trials *)
  undiagnosed : int;  (** timed-out trials missing a diagnosis: bug *)
}

type trial_setup = {
  t_instance : Ocd_core.Instance.t;
  t_profile : Ocd_async.Net.profile;
  t_condition : Ocd_dynamics.Condition.t;
  t_faults : Ocd_dynamics.Faults.t;
  t_run_seed : int;
  t_protocol : Ocd_async.Protocol.t;
  t_cell : cell;
  t_flap_seed : int option;  (** link-flap seed, if the cell flaps *)
  t_churn_seed : int option;  (** churn seed, if the cell churns *)
  t_part_seed : int;  (** partition seed (used iff the cell splits) *)
}
(** Everything needed to replay one (cell, protocol, trial) grid point
    outside the campaign — same instance, profile, condition, fault
    plan and run seed the campaign task derived (the campaign, the
    failure extraction and {!trial_setup} build their trials through
    one function), so a standalone {!Ocd_async.Runtime.run} (e.g.
    under a causal log, for [ocd explain]) reproduces the campaign
    trial tick-for-tick.  The process seeds let {!failures} re-express
    the trial as a {!Shrink.case}. *)

val trial_setup :
  seed:int ->
  grid ->
  cell_label:string ->
  protocol:string ->
  trial:int ->
  (trial_setup, string) result
(** Resolves a cell by its {!cell.label} (see the campaign report's
    [env] column) and a protocol by registry name.  [Error] carries a
    human-readable message listing valid labels. *)

val run : ?obs:Ocd_obs.t -> ?jobs:int -> seed:int -> grid -> agg list
(** Executes the campaign.  Order: cells outer, protocols (registry
    order) inner.  Every trial runs under a fresh {!Ocd_async.Monitor}
    — the monitor only observes (no coin draws, no messages), so
    enabling it does not perturb any trial outcome.

    [?obs] (default disabled) instruments every trial: each task runs
    its {!Ocd_async.Runtime.run} under {!Ocd_obs.child} (fresh
    registry and memory sink, so worker domains share nothing) and the
    children are absorbed back in task order with
    [prefix = "chaos/<cell>/<protocol>/"] and [pid] = cell index —
    the merged metrics render and trace stream are byte-identical for
    any [jobs].  With a probe, each trial is timed under
    [chaos/<cell>] (calls = trials {m \times} protocols, so the
    profile row reads as trials/sec). *)

val failures : ?jobs:int -> seed:int -> grid -> (Shrink.case * string) list
(** Re-runs the campaign's task grid through {!Shrink.run_case} —
    each trial converted to an explicit, self-contained {!Shrink.case}
    (probabilistic crash and partition plans extracted to literal
    spans/windows, which replay byte-identically) — and returns the
    failing cases with their failure tags, in task order.  Because the
    evaluator is the very one {!Shrink.shrink} uses, every returned
    case is guaranteed shrinkable.  Deterministic for any [jobs]. *)

val report : ?obs:Ocd_obs.t -> ?jobs:int -> seed:int -> grid -> unit
(** Runs the campaign and renders the aggregate table (plus its CSV
    mirror) to stdout. *)
