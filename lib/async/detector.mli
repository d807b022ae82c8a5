(** Per-node heartbeat/timeout failure detector.

    The async runtime ({!Runtime.run}) owns one detector per node
    incarnation, with a timeout of four rounds, and calls {!heard} for
    every message it delivers to the node, before the protocol's
    handler runs.  Protocols never feed the detector: they consult it
    through [ctx.suspected] when choosing peers (providers they pull
    from, receivers they push to) and [ctx.watch] when adopting a new
    peer.  Suspicion is purely local and unreliable in the classic
    sense: a peer is {e suspected} once nothing has been heard from it
    for [timeout] ticks.  There is no separate heartbeat message — the
    periodic traffic every protocol already emits (announcements,
    state floods, acks) doubles as the liveness signal, so the
    detector costs no bandwidth.

    Suspicion is self-healing: any later message from the peer (e.g.
    the re-announce a restarted node sends from [on_start]) clears it.
    False suspicion of a slow-but-live peer merely redirects requests,
    which the peer's next message undoes — detectors never exclude a
    peer permanently.

    Creation counts as contact: a peer is only suspected after a full
    [timeout] of silence from the detector's birth, so nodes do not
    suspect the whole world at tick 0.

    The contact table is sparse (hashed on peer id), so a detector
    over [n] peers costs memory proportional to the peers actually
    heard from, not [n] — a DHT node tracking O(log n) fingers out of
    a 10^4-node ring pays for just those fingers. *)

type t

val create :
  ?on_suspect:(int -> unit) -> now:(unit -> int) -> timeout:int -> n:int ->
  unit -> t
(** [create ~now ~timeout ~n ()] tracks peers [0 .. n-1]; [now] is the
    owner's clock (typically [ctx.now]).  [on_suspect] is an
    observability hook fired the first time each silence episode of a
    peer is observed by {!suspected} (the runtime counts it as a
    suspicion, records it in the causal log and checks the monitor's
    false-suspicion rule); it is re-armed by {!heard} and never changes
    what {!suspected} returns.
    @raise Invalid_argument unless [timeout > 0]. *)

val heard : t -> int -> unit
(** Record a sign of life from the peer (any received message). *)

val watch : t -> int -> unit
(** Begin expecting contact from a never-heard peer: counts as a sign
    of life now, so the timeout measures silence since observation
    began.  A no-op for peers already heard from — real contact wins.
    Used when adopting a newly learned peer (e.g. a reported DHT
    successor) that has had no chance to speak yet. *)

val suspected : t -> int -> bool
(** Has the peer been silent for more than [timeout] ticks? *)

val last_heard : t -> int -> int
(** Tick of the last sign of life (creation tick if none yet). *)

val suspects : t -> int list
(** Currently suspected peers, ascending.  For diagnosis displays. *)
