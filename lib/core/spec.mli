(** The §2 model conditions as executable checks.

    Most of Property 1 is enforced online by the simulator (messages
    are never created, wakes are always enabled, deliverability is
    exact).  Two conditions are worth checking *about protocols* after
    the fact:

    - {b Property 1a} — every initial receiver state is the same.
      The [Protocol.make_receiver] signature already prevents input
      dependence; what remains checkable is that the constructor is
      deterministic (no hidden mutable or random state), which the
      product attack search relies on when it assumes the two runs'
      receivers start identical.  {!receiver_deterministic} checks
      it.

    - {b Property 2} — every point extends to a fair run.  Its
      executable protocol-facing face is {e recoverability}: from every
      reachable global state, a schedule completing the transmission
      still exists.  A protocol with reachable dead states needs the
      adversary's cooperation to be live — the §2 fairness machinery
      can't save it.  {!recoverability} explores the (move-capped)
      state graph forward, then marks backward reachability from
      completed states.

    Recoverability separates the zoo sharply: the paper's protocols
    and the retransmitting classics have none (every state can still
    complete, whatever the adversary did so far), while the one-shot
    naive protocol is dead the moment a deletion lands.  Experiment
    E12 tabulates this. *)

type recoverability = {
  states : int;  (** distinct reachable states explored *)
  completed : int;  (** states with [Y = X] *)
  dead : int;
      (** states from which completion is unreachable even though
          nothing about them was hidden by the exploration budget —
          every state they can reach was fully expanded, with no move
          filtered by a send cap and no successor refused by
          [max_states] *)
  frontier : int;  (** states cut off by the depth/state budget (unknown status) *)
  closed : bool;  (** the graph was exhausted: [dead] is exact, not a lower bound *)
}

val recoverability :
  Kernel.Protocol.t ->
  input:int list ->
  ?depth:int ->
  ?max_states:int ->
  ?max_sends_per_sender:int ->
  ?max_sends_per_receiver:int ->
  ?allow_drops:bool ->
  unit ->
  recoverability
(** Forward BFS on {!Kernel.Bfs} under the same send caps as the
    attack search (so deleting channels stay finite), then backward
    marking from the completed states.  Defaults mirror
    {!Attack.search_pair}. *)

val recoverable : recoverability -> bool
(** [closed], no dead states, and completion reachable at all. *)

val receiver_deterministic : Kernel.Protocol.t -> trials:int -> bool
(** Property 1a's residue: repeated construction yields the same
    initial receiver fingerprint. *)

val pp_recoverability : Format.formatter -> recoverability -> unit

val recoverability_report : ?protocol:string -> recoverability -> Stdx.Report.t
(** The analysis as typed IR (id ["recover"], [ok = recoverable]). *)
