module Chan = Channel.Chan
module Global = Kernel.Global
module Move = Kernel.Move
module Sim = Kernel.Sim
module Proc = Kernel.Proc
module Protocol = Kernel.Protocol

type recoverability = {
  states : int;
  completed : int;
  dead : int;
  frontier : int;
  closed : bool;
}

let recoverability (p : Protocol.t) ~input ?(depth = 80) ?(max_states = 200_000)
    ?(max_sends_per_sender = 12) ?(max_sends_per_receiver = 12) ?allow_drops () =
  let allow_drops =
    match allow_drops with Some b -> b | None -> Chan.deletes p.Protocol.channel
  in
  let keep =
    Attack.single_keep ~allow_drops ~send_cap:max_sends_per_sender
      ~recv_cap:max_sends_per_receiver
  in
  (* Forward exploration on the shared engine, which numbers the
     visited states [0 .. states-1]; every mark below is a bitset over
     those ids.  A state is expanded when its moves were generated,
     and capped when some of its behaviour is hidden by a budget: the
     send caps keep deleting channels finite but also filter moves (a
     retransmitting sender is not really out of copies), and a
     successor refused by [max_states] is unknown too.  Capped states
     and their ancestors must not be declared dead.  Reverse edges are
     kept per id for the backward pass. *)
  let completed = Stdx.Bitset.create () and expanded = Stdx.Bitset.create () in
  let capped = Stdx.Bitset.create () in
  let set b i = ignore (Stdx.Bitset.add b i : bool) in
  let preds = ref [||] in
  let add_pred j i =
    let n = Array.length !preds in
    if j >= n then preds := Array.append !preds (Array.make (max (j + 1 - n) (n + 1024)) []);
    !preds.(j) <- i :: !preds.(j)
  in
  let sa = p.Protocol.sender_alphabet and ra = p.Protocol.receiver_alphabet in
  let r =
    Kernel.Bfs.search ~depth ~max_states ~key:Global.emit
      ~moves:(fun i g ->
        set expanded i;
        let all = Sim.enabled p g in
        let kept = List.filter (keep g) all in
        if List.compare_lengths kept all < 0 then set capped i;
        kept)
      ~step:(fun g m -> Some (Sim.apply p g m))
      ~edge:(fun i j -> if j < 0 then set capped i else add_pred j i)
      ~code:(Move.code ~sa ~ra) ~decode:(Move.of_code ~sa ~ra)
      ~goal:(fun i g ->
        if Global.complete g then set completed i;
        false)
      ~push_goal:false
      [ Global.initial p ~input:(Array.of_list input) ]
  in
  (* Backward marking over reversed edges: which states can still
     complete, and which are tainted by a cap (they, or something they
     can reach, had behaviour hidden by the budget). *)
  let mark seed =
    let marked = Stdx.Bitset.create () in
    let q = Stdx.Frontier.create () in
    let push i = if Stdx.Bitset.add marked i then Stdx.Frontier.push q i in
    for i = 0 to r.Kernel.Bfs.states - 1 do
      if seed i then push i
    done;
    while not (Stdx.Frontier.is_empty q) do
      let i = Stdx.Frontier.pop q in
      if i < Array.length !preds then List.iter push !preds.(i)
    done;
    marked
  in
  let can_complete = mark (Stdx.Bitset.mem completed) in
  let tainted =
    mark (fun i -> Stdx.Bitset.mem capped i || not (Stdx.Bitset.mem expanded i))
  in
  let dead = ref 0 in
  for i = 0 to r.states - 1 do
    if
      Stdx.Bitset.mem expanded i
      && (not (Stdx.Bitset.mem can_complete i))
      && not (Stdx.Bitset.mem tainted i)
    then incr dead
  done;
  {
    states = r.states;
    completed = Stdx.Bitset.cardinal completed;
    dead = !dead;
    frontier = r.states - Stdx.Bitset.cardinal expanded;
    closed = r.closed;
  }

let recoverable r = r.closed && r.dead = 0 && r.completed > 0

let receiver_deterministic (p : Protocol.t) ~trials =
  let fingerprint () = Proc.encode (p.Protocol.make_receiver ()) in
  let base = fingerprint () in
  List.for_all (fun _ -> String.equal (fingerprint ()) base) (List.init (max 0 (trials - 1)) Fun.id)

let pp_recoverability ppf r =
  Format.fprintf ppf "%d states (%d completed, %d dead, %d frontier, %s)" r.states r.completed
    r.dead r.frontier
    (if r.closed then "closed" else "truncated")

let recoverability_report ?protocol r =
  let module R = Stdx.Report in
  let pairs =
    (match protocol with Some p -> [ ("protocol", R.str p) ] | None -> [])
    @ [
        ("states", R.int r.states);
        ("completed", R.int r.completed);
        ("dead", R.int r.dead);
        ("frontier", R.int r.frontier);
        ("closed", R.bool r.closed);
        ("recoverable", R.bool (recoverable r));
      ]
  in
  R.make ~id:"recover" ~title:"dead-state (Property 2) analysis"
    ~ok:(recoverable r)
    [ R.Metrics { title = None; pairs } ]
