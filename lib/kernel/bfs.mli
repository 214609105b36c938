(** One single-run breadth-first search over interned state keys.

    The engine behind {!Core.Attack.search_single} (one root),
    {!Core.Stab.search} (one root per corrupted start) and the forward
    pass of {!Core.Spec.recoverability} (one root, every edge reported
    to the caller).  Each generated state is emitted by the caller's
    [key] into a reusable codec buffer and hash-consed
    ({!Stdx.Intern.intern_bytes}) into a dense id, in first-seen order.
    Per visited state the engine keeps:
    - its interned key bytes;
    - its parent id and the code of the move that reached it, in int
      arrays indexed by id;
    - one array slot holding the state itself, filled only while the
      id waits on the frontier and cleared when it is popped.

    So a closed space costs its key bytes plus three words per visited
    state; full states are held for the frontier alone.  Witness paths
    are rebuilt by unwinding the parent arrays.  The frontier is a
    {!Stdx.Frontier} of bare ids: [mem_budget_bytes] bounds that id
    queue, not the states held for its members. *)

type 'm result = {
  found : (int * 'm list) option;
      (** The first goal state reached, as the index in [roots] of the
          root it was reached from and the moves from that root. *)
  closed : bool;
      (** [false] when [depth] or [max_states] cut the search short. *)
  states : int;  (** Visited states, roots included. *)
  frontier : Stdx.Frontier.stats;
}

val search :
  depth:int ->
  max_states:int ->
  ?mem_budget_bytes:int ->
  ?edge:(int -> int -> unit) ->
  key:(Stdx.Codec.t -> 's -> unit) ->
  moves:(int -> 's -> 'm list) ->
  step:('s -> 'm -> 's option) ->
  code:('m -> int) ->
  decode:(int -> 'm) ->
  goal:(int -> 's -> bool) ->
  push_goal:bool ->
  's list ->
  'm result
(** [search ~depth ~max_states ... roots] visits the roots in order
    (duplicates by key count once), then expands states level by level:
    [moves i s] in order, each stepped by [step s m] ([None] is no
    successor), until a state satisfies [goal] or the frontier drains.
    [i] is the state's id: visited states are numbered [0 .. states-1]
    in visiting order, so callers can keep their own per-state marks in
    int-indexed tables.  [goal] is asked once per visited
    state; a goal state ends the search at once, and it is still
    queued when [push_goal] holds, which only shows in the frontier
    counters.

    States at level [depth] are not expanded ([moves] is never asked
    for them), and no state is visited past the [max_states]th; either
    cut makes the search not [closed], so the result depends on the
    inputs alone.  [edge i j] reports every successor generated
    while expanding [i]: [j] is its id, or [-1] when the state budget
    refused it.  A refused state is not marked visited, so a later edge
    to it is refused and reported again.  [code]/[decode] map moves to
    the non-negative ints stored per state and back. *)
