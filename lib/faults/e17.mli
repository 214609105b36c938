(** Experiment E17: stabilisation beyond ABP, across the
    bounded-counter families.

    The positive half sweeps each stabilising family (abp-stab,
    stenning-stab, gbn-stab) over its declared corrupted-start space
    on a grid of alphabet sizes and input lengths and reports the
    worst-case time-to-stabilise curves — every point must converge.
    abp-stab and stenning-stab are one machine ({!Protocols.Abp_stab})
    on different default channels, so their curves differ by channel.
    The negative half runs the capped corrupted-root BFS
    ({!Core.Stab.search}) against each stock family: abp,
    stenning-mod, go-back-n, selective-repeat, and ladder each yield
    a violation witness checked by replay (and by relabel-replay
    where the perturb enumeration is data-independent), while stock
    stenning is the control — its search closes clean yet its sweep
    does not converge, separating safety-from-any-start from
    stabilisation proper.

    [ok] iff every curve point stabilises, every victim's witness
    replays (and relabel-replays where claimed), stenning's search
    closes, and stenning's sweep does {e not} fully converge. *)

val report :
  ?within:int ->
  ?max_steps:int ->
  ?depth:int ->
  ?max_states:int ->
  ?max_sends:int ->
  ?domains:int list ->
  ?lens:int list ->
  ?window:int ->
  unit ->
  Stdx.Report.t
(** [domains] (default [[2; 3]]) and [lens] (default [[2; 3; 4]])
    define the scaling grid; [window] (default 2) sizes gbn-stab's
    pipeline; the remaining knobs match {!E15.report}. *)
