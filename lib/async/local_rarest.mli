(** Asynchronous local-rarest pull protocol (§5.1 "local" heuristic,
    message-passing form), and the pull core it shares with
    [Ocd_dht.Dht_rarest].

    Each round a node (a) announces its possession set to its
    out-neighbours, and (b) one tick later ranks the tokens it still
    lacks by {e neighbour-local} rarity — how many in-neighbours it
    believes hold each token, per their latest announcements — and
    requests each token from one believed holder chosen at random,
    respecting per-arc capacity budgets.  Holders answer requests with
    [Data]; non-holders stay silent and the request times out.

    Retry: an unanswered request backs off exponentially
    ([pace * 2^min(attempts, 6)] ticks) and re-issues, counting a
    retransmission.  Duplicate data is suppressed by the runtime.

    Failure detection: announce traffic doubles as heartbeats for the
    runtime's detector ([ctx.suspected]).  A suspected in-neighbour
    stops contributing to rarity counts and to the candidate pool, and
    any request pending against it is released immediately — the node
    re-targets another believed holder instead of riding the
    exponential backoff against a crashed peer.  A restarted neighbour
    clears its suspicion with its first announce.

    The decision core is shared with {!sync_strategy}, the synchronous
    twin used by the differential test: under {!Net.lockstep} (zero
    latency, zero loss, no pacing) announcements deliver perfect
    round-start knowledge and every request is answered within its
    round, so the async run replays the synchronous engine's schedule
    move for move. *)

val protocol : unit -> Protocol.t
(** Name ["async-local"]: the pull core ranked by neighbour-local
    rarity, with announced possession as the holder test. *)

val sync_strategy : seed:int -> Ocd_engine.Strategy.t
(** Synchronous strategy (name ["async-local-lockstep"]) driving the
    shared decision core from the same per-vertex streams
    ({!Protocol.node_rng}) the async nodes use, so a lockstep async run
    and an engine run agree exactly.  [seed] must equal the
    {!Runtime.run} seed; the engine-supplied rng is ignored. *)

(** {1 The pull core}

    Everything a rarest-first puller does except deciding {e what is
    rare} and {e who holds what}: the per-round announce, the belief
    table of announced possession, request bookkeeping (per-token
    retry deadline, attempt count with exponential backoff, and the
    targeted holder, released as soon as the detector suspects it),
    and [Announce]/[Request]/[Data] handling. *)

type pull

val pull : ?on_fresh:(int -> unit) -> Protocol.ctx -> pull
(** Fresh core state for [ctx]'s incarnation.  [on_fresh token] runs
    when a [Data] message newly gives the node [token]. *)

val believes : pull -> int -> int -> bool
(** [believes p u token]: [u]'s latest announce listed [token]. *)

val rounds :
  ?every_round:(unit -> unit) ->
  pull -> rank:(int -> int) -> holds:(int -> int -> bool) -> unit -> unit
(** The node's round loop, to run from [on_start]; it stops once the
    run is finished.  Each round announces possession to every
    out-neighbour (the heartbeat), runs [every_round], and one tick
    later releases requests whose target is suspected, ranks the
    missing tokens by ascending [rank] (random tie-breaks) and
    requests each eligible one (no pending request, or its deadline
    passed) from a random live in-neighbour [u] with [holds u token]
    and arc budget left. *)

val handle : pull -> src:int -> Message.t -> unit
(** Record an [Announce], answer a [Request] for a held token, accept
    [Data] (clearing its pending request); other messages are
    ignored. *)
