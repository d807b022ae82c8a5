open Ocd_prelude
open Ocd_core

type ctx = {
  instance : Instance.t;
  vertex : int;
  seed : int;
  epoch : int;
  rng : Prng.t;
  pace : int;
  now : unit -> int;
  after : int -> (unit -> unit) -> unit;
  send : dst:int -> Message.t -> unit;
  has : int -> bool;
  have_copy : unit -> Bitset.t;
  receive : src:int -> int -> bool;
  note_retransmission : unit -> unit;
  suspected : int -> bool;
  watch : int -> unit;
  give_up : unit -> unit;
  finished : unit -> bool;
  monitor : Monitor.t;
  obs : Ocd_obs.t;
}

type handlers = {
  on_start : unit -> unit;
  on_message : src:int -> Message.t -> unit;
}

type t = {
  name : string;
  init : ctx -> handlers;
}

(* Same prime-multiply mixing as Condition's coin; SplitMix64's
   finaliser then decorrelates the consecutive seeds. *)
let node_rng ~seed v = Prng.create ~seed:((seed * 1_000_003) + v)

(* Epoch 0 must be byte-compatible with node_rng: the no-fault path
   (and the lockstep differential test) depends on it. *)
let incarnation_rng ~seed ~epoch v =
  if epoch = 0 then node_rng ~seed v
  else node_rng ~seed:(seed + (epoch * 65_537)) v
