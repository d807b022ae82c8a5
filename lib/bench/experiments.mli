(** One reproduction function per paper figure, plus the extension
    experiments documented in EXPERIMENTS.md.

    Every function prints its data through {!Report} (aligned table +
    CSV mirror).  [full] switches figure 2/3 sweeps from the quick
    default to the paper's full parameters (graphs up to 1000
    vertices, 200-token file, 3 trials); the quick mode keeps the
    same shape at a fraction of the runtime.

    [jobs] (default 1) fans the sweep-based experiments over that many
    OCaml domains via {!Ocd_prelude.Pool}; every experiment derives its
    randomness from explicit seeds, so output is byte-identical for any
    [jobs] value. *)

val figure1 : unit -> unit
(** The time/bandwidth tension instance, solved exactly. *)

val figure2 : ?full:bool -> ?jobs:int -> unit -> unit
(** Moves & bandwidth vs graph size; random `2 ln n / n` graphs,
    single source and file, all receivers. *)

val figure3 : ?full:bool -> ?jobs:int -> unit -> unit
(** As figure 2 on transit-stub topologies. *)

val figure4 : ?full:bool -> ?jobs:int -> unit -> unit
(** Moves & bandwidth vs receiver-density threshold; n = 200. *)

val figure5 : ?full:bool -> ?jobs:int -> unit -> unit
(** Moves & bandwidth vs number of files (subdivision of one token
    pool), single source. *)

val figure6 : ?full:bool -> ?jobs:int -> unit -> unit
(** As figure 5 with a random sender per file. *)

val figure7 : unit -> unit
(** Appendix reduction: Dominating Set ⇔ 2-step FOCD equivalence
    counts over exhaustive small-graph samples. *)

val adversary : unit -> unit
(** Theorem 4 family: per-heuristic worst-case makespan vs the
    prescient optimum as decoys scale. *)

val ip_vs_search : unit -> unit
(** §3.4 IP vs combinatorial search cross-validation table. *)

val optimality_gap : unit -> unit
(** Heuristics vs exact FOCD/EOCD optima on exactly solvable
    instances — §5's stated purpose for computing bounds. *)

val baselines : ?jobs:int -> unit -> unit
(** Extension: related-work baseline systems vs the §5.1 heuristics. *)

val ablation_subdivision : ?jobs:int -> unit -> unit
(** Extension: the Local heuristic with and without request
    subdivision (duplicate-suppression ablation). *)

val ablation_staleness : ?jobs:int -> unit -> unit
(** Extension (suggested in §5.1's Random description): peer-state
    knowledge that is k turns old — bandwidth cost of staleness. *)

val dynamics : unit -> unit
(** Extension (§6 "Changing network conditions"): heuristic makespan
    inflation under cross traffic, link flaps and churn, against the
    static network. *)

val coding : unit -> unit
(** Extension (§6 "Encoding"): makespan of a k-of-n rateless-coded
    download as redundancy grows. *)

val underlay : unit -> unit
(** Extension (§6 "Realistic topologies"): overlay arcs routed over a
    shared physical network; makespan inflation from physical-link
    contention. *)

val async_overhead : ?jobs:int -> unit -> unit
(** Extension: the {!Ocd_async} message-passing runtime across network
    profiles (lockstep, default latency, loss, link flaps) — rounds to
    completion, control overhead, retransmissions, duplicates and
    goodput per protocol, against the synchronous engine's makespan.
    Deterministic for any [jobs] value. *)

val dht_lookup : ?jobs:int -> unit -> unit
(** Extension: the {!Ocd_dht} Chord overlay.  Two tables: routed-lookup
    scaling on converged rings at n = 10^2..10^4 (mean/max hops vs the
    2*log2(n) bound, correctness vs the ideal owner, message volume),
    and dht-rarest vs the omniscient async-local baseline across
    chaos-style cells (loss, crashes, churn) — makespan inflation,
    control overhead, lookup hops and ring repairs.  Deterministic for
    any [jobs] value. *)

val partition_heal : ?jobs:int -> unit -> unit
(** Extension (robustness): every async protocol across one explicit
    network partition window (split during rounds [5, 25), then heal)
    under the {!Ocd_async.Monitor} runtime invariant monitor —
    cut-dropped traffic, post-heal completion, and the monitor's
    violation count (expected 0).  Deterministic for any [jobs]. *)

val explain_attribution : ?jobs:int -> unit -> unit
(** Extension (observability): async-local under a live
    {!Ocd_obs.Causal} log across lockstep / default / loss / crash
    profiles, decomposed by {!Explain.of_causal} — one row per
    profile with the makespan's ticks split over the attribution
    categories next to the paper's scaled lower bound.  Each row's
    categories sum to its makespan exactly (asserted).  Deterministic
    for any [jobs] value. *)

val graph_scale : ?full:bool -> unit -> unit
(** Scale curve for the flat CSR graph core: build time, resident
    bytes per node ({!Obj.reachable_words}) and one-round tick rate
    for Erdős–Rényi and transit-stub graphs at n = 10^3..10^5
    ([full] adds 10^6).  Timings are machine-dependent, so this
    experiment is deliberately {e not} part of {!run_all}. *)

val engine_scale : ?n:int -> unit -> unit
(** Scale curve for the allocation-free engine round (packed CSR
    schedule, incremental aggregates, per-run strategy scratch): tick
    time, tick rate and allocated bytes per step for a local-rarest
    round on transit-stub graphs at n = 10^3..10^5 ([n] restricts the
    sweep to a single size — the CI smoke configuration).  Timings are
    machine-dependent, so this experiment is deliberately {e not} part
    of {!run_all}. *)

val run_all : ?full:bool -> ?jobs:int -> unit -> unit
(** Every figure and every deterministic extension experiment, in
    paper order — what [ocd experiment all] prints.  Byte-identical for
    any [jobs] value. *)
