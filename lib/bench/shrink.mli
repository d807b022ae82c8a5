(** Fault-schedule shrinking: from a failing chaos trial to a minimal
    replayable reproducer.

    A failing chaos cell names a seed, which explains nothing.  This
    module turns the probabilistic plans of such a trial into their
    {e explicit} form — literal crash down-spans
    ({!Ocd_dynamics.Faults.of_downtime}) and partition windows
    ({!Ocd_dynamics.Faults.of_windows}), which the plan extraction
    guarantees replay byte-identically — and then delta-debugs the
    combined event list down to a 1-minimal subset that still produces
    the {e same} failure tag.  The result round-trips through a small
    text artifact, so a reproducer found in CI replays anywhere.

    A {!case} is a fully self-contained trial description: the
    instance is rebuilt from [(instance_seed, n, tokens)] with the
    exact construction Chaos uses, the link conditions from the
    optional flap/churn seeds, and the fault plan from the explicit
    event lists.  {!run_case} is the single evaluator used for the
    original failure, every ddmin probe, and the final replay — there
    is no separate "check" path to drift out of sync. *)

module Faults := Ocd_dynamics.Faults
module Condition := Ocd_dynamics.Condition
open Ocd_core

type case = {
  protocol : string;  (** async protocol registry name *)
  instance_seed : int;  (** seeds graph + scenario construction *)
  n : int;
  tokens : int;
  loss : float;  (** network profile loss *)
  flap_seed : int option;  (** link-flap condition seed, if any *)
  churn_seed : int option;  (** churn condition seed, if any *)
  run_seed : int;  (** the runtime seed of the trial *)
  round_limit : int;
  durability : Faults.durability;
  part_seed : int;  (** side-assignment seed for partition windows *)
  groups : int;  (** partition group count *)
  downtime : (int * int * int) list;  (** explicit (node, from, until) *)
  windows : (int * int) list;  (** explicit partition (from, until) *)
}

val instance_of : seed:int -> n:int -> tokens:int -> Instance.t
(** The chaos campaign instance: an Erdős–Rényi graph and a
    single-file scenario drawn from one PRNG stream.  Chaos and the
    shrinker share this function, so a case rebuilds the very instance
    its trial ran on. *)

val sources_of : Instance.t -> n:int -> int list
(** Vertices with initial content (churn-protected set). *)

val condition_of :
  flap_seed:int option -> churn_seed:int option -> sources:int list ->
  Condition.t
(** The chaos campaign's link-condition stack (flaps down 0.1/up 0.5;
    churn leave 0.02/return 0.3, sources protected), shared with
    Chaos for the same reason as {!instance_of}. *)

val valid_schedule : Instance.t -> Ocd_async.Runtime.run -> bool
(** The campaign's schedule check: {!Validate.check_successful} for a
    completed run, {!Validate.check} otherwise. *)

val run_case : case -> string option
(** Replay the case under a fresh monitor and classify: [None] when
    the trial completes with a valid schedule and no violations,
    otherwise a stable failure tag — ["invalid-schedule"],
    ["monitor:<rule>"] (first violation's rule), or
    ["stall:<verdict>"] ({!Ocd_async.Diagnosis.verdict_name}). *)

val max_tests : int
(** Budget of {!run_case} probes per {!shrink} call (256): ddmin is
    quadratic in the worst case, and a reproducer that is merely small
    beats a minimal one that took an hour. *)

type shrunk = {
  minimal : case;  (** the reduced case; still fails with [tag] *)
  tag : string;  (** the preserved failure tag *)
  tests : int;  (** {!run_case} evaluations spent *)
}

val shrink : case -> (shrunk, string) result
(** Delta-debug the case's combined event list (crash spans and
    partition windows together — they interact, so they must shrink
    against each other).  Classic ddmin: try chunks, then complements,
    double granularity; a reduction counts only if the failure tag is
    unchanged.  [Error] if the case does not fail in the first
    place. *)

val to_string : case -> string
(** The replayable artifact: a line-based text format starting with
    ["ocd-chaos-repro v1"], one [key=value] line per scalar field
    (floats printed with [%.17g], so round-trips are exact), one
    [down v from until] line per crash span and [win from until] per
    partition window. *)

val of_string : string -> (case, string) result
(** Inverse of {!to_string}; tolerant of blank lines and surrounding
    whitespace. *)
