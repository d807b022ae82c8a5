(** Per-node protocol interface of the asynchronous runtime.

    A protocol is a name plus a node factory: [init] is called once per
    vertex with that vertex's capabilities (its private PRNG stream,
    clock access, timers, the transport, the runtime's delivery hook
    and its failure detector) and returns the node's event handlers,
    closing over whatever mutable per-node state the protocol keeps
    (belief tables, pending requests, retry counters).

    Nodes are epistemically local by construction: a node can observe
    only its own sets, its incident arcs (via [ctx.instance]'s graph)
    and the messages it receives — there is no shared possession array
    to peek at, unlike the synchronous {!Ocd_engine.Strategy} where
    locality is a documented convention.  The one global the runtime
    exposes is [finished], the termination signal, so periodic loops
    can stop rescheduling once every want is satisfied (the synchronous
    engine stops its step loop the same way). *)

open Ocd_prelude
open Ocd_core

type ctx = {
  instance : Instance.t;  (** topology and initial/want sets *)
  vertex : int;
  seed : int;
      (** the run seed — shared knowledge, like the topology; lets
          nodes that reconstruct the instance derive identical plans *)
  epoch : int;
      (** incarnation number: 0 for the initial boot, incremented per
          crash–restart.  A node's protocol state never survives an
          epoch change; anything the node "remembers" across epochs is
          a bug in the fault model. *)
  rng : Prng.t;
      (** private stream, derived from the run seed and the epoch — a
          restarted node does not replay its previous incarnation's
          draws *)
  pace : int;  (** ticks per round, from the network profile *)
  now : unit -> int;
  after : int -> (unit -> unit) -> unit;
      (** relative-time timer.  Timers die with the incarnation that
          set them: a callback scheduled before a crash never fires. *)
  send : dst:int -> Message.t -> unit;
  has : int -> bool;  (** own possession test *)
  have_copy : unit -> Bitset.t;  (** snapshot of own possession *)
  receive : src:int -> int -> bool;
      (** hand a received token to the runtime: updates possession,
          counts it, and logs the schedule move; [true] iff possession
          changed (first delivery, or re-delivery of a token lost in a
          crash) *)
  note_retransmission : unit -> unit;  (** metric hook *)
  suspected : int -> bool;
      (** the incarnation's failure detector ({!Detector.suspected}):
          has the peer been silent for more than four rounds?  The
          runtime owns the detector — one per incarnation, born with
          it — and records every received message as a sign of life
          before the handler runs, so protocols never feed it.  The
          first observation of each silence episode counts toward the
          runtime's [suspicions] and the [async/suspicions] metric. *)
  watch : int -> unit;
      (** {!Detector.watch} on the incarnation's detector: start the
          silence clock of a newly adopted, never-heard peer (e.g. a
          reported DHT successor) *)
  give_up : unit -> unit;
      (** metric hook: the node permanently abandoned a transfer it was
          responsible for (e.g. a planned job out of retry attempts).
          Feeds [failed_jobs] and the stall diagnosis. *)
  finished : unit -> bool;  (** all wants satisfied, globally *)
  monitor : Monitor.t;
      (** the run's invariant monitor, {!Monitor.disabled} unless the
          host enabled online safety checks.  Protocol layers with
          structural invariants of their own (the DHT ring) report
          through it; guard any non-trivial check on
          {!Monitor.enabled}. *)
  obs : Ocd_obs.t;
      (** the run's observability scope ({!Ocd_obs.disabled} unless the
          host instruments the run).  Protocol layers with control
          traffic of their own (the DHT's stabilise/lookup machinery)
          emit metrics, trace spans and probe timings through it;
          guard every use on [obs.on] / {!Ocd_obs.probe}. *)
}

type handlers = {
  on_start : unit -> unit;  (** runs at tick 0 *)
  on_message : src:int -> Message.t -> unit;
}

type t = {
  name : string;
  init : ctx -> handlers;
}
(** A [t] value may hold cross-node state created by its constructor
    (e.g. {!Flood_plan}'s shared plan cache), so use a fresh value per
    run: obtain protocols through {!Registry.find}. *)

val node_rng : seed:int -> int -> Prng.t
(** [node_rng ~seed v] is vertex [v]'s private stream.  Exposed so the
    lockstep differential test can drive a synchronous strategy from
    the exact same streams (see {!Local_rarest.sync_strategy}). *)

val incarnation_rng : seed:int -> epoch:int -> int -> Prng.t
(** The stream of vertex [v]'s [epoch]-th incarnation.  Epoch 0 is
    exactly {!node_rng} (the no-fault path is unchanged); later epochs
    are decorrelated so a restarted node explores fresh randomness. *)
