module Chan = Channel.Chan

let all_moves _g _m = true

exception Enough

let iter_runs p ~input ~depth ?(move_filter = all_moves) ?max_runs f =
  let emitted = ref 0 in
  (* Replay the (reversed) move path from the initial state into a
     fresh trace builder and hand the finished run to [f].  Shared by
     the two leaf cases below — depth/quiescence stop and dead end —
     which used to duplicate the rebuild. *)
  let emit_path path =
    let builder = Trace.start p ~input in
    List.iter
      (fun m ->
        let g' = Sim.apply p (Trace.current builder) m in
        Trace.record builder m g')
      (List.rev path);
    f (Trace.finish builder);
    incr emitted;
    match max_runs with Some m when !emitted >= m -> raise Enough | _ -> ()
  in
  (* DFS; the trace builder is mutable, so we rebuild along the path by
     replaying prefixes: instead we carry the path of moves and rebuild
     only on emit, keeping the hot loop allocation-light. *)
  let rec go g d path =
    let stop_here =
      d >= depth || (Global.complete g && Sim.wake_only_complete p g)
    in
    if stop_here then emit_path path
    else begin
      let moves = List.filter (move_filter g) (Sim.enabled p g) in
      match moves with
      | [] -> emit_path path
      | _ -> List.iter (fun m -> go (Sim.apply p g m) (d + 1) (m :: path)) moves
    end
  in
  try go (Global.initial p ~input) 0 [] with Enough -> ()

let no_drops _g = function
  | Move.Drop_to_receiver _ | Move.Drop_to_sender _ -> false
  | Move.Wake_sender | Move.Wake_receiver | Move.Deliver_to_receiver _ | Move.Deliver_to_sender _
  | Move.Restart_sender | Move.Restart_receiver | Move.Corrupt_sender _ | Move.Corrupt_receiver _
    ->
      true
