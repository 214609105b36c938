(* Tests for the simulation kernel: histories, processes, the
   transition relation, the run driver, schedulers, and the explorer. *)

module Hist = Kernel.Hist
module Event = Kernel.Event
module Action = Kernel.Action
module Proc = Kernel.Proc
module Protocol = Kernel.Protocol
module Global = Kernel.Global
module Move = Kernel.Move
module Sim = Kernel.Sim
module Trace = Kernel.Trace
module Strategy = Kernel.Strategy
module Runner = Kernel.Runner
module Explore = Kernel.Explore
module Bfs = Kernel.Bfs
module Chan = Channel.Chan

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ------------------------- Hist ------------------------- *)

let test_hist_append_order () =
  let h = Hist.add (Hist.add Hist.empty Hist.Woke) (Hist.Got 3) in
  check Alcotest.int "length" 2 (Hist.length h);
  check Alcotest.bool "order" true (Hist.to_list h = [ Hist.Woke; Hist.Got 3 ])

let test_hist_encode_injective_cases () =
  let enc entries = Hist.encode (List.fold_left Hist.add Hist.empty entries) in
  check Alcotest.bool "got vs sent" true (enc [ Hist.Got 1 ] <> enc [ Hist.Sent 1 ]);
  check Alcotest.bool "symbol matters" true (enc [ Hist.Got 1 ] <> enc [ Hist.Got 2 ]);
  check Alcotest.bool "order matters" true
    (enc [ Hist.Got 1; Hist.Woke ] <> enc [ Hist.Woke; Hist.Got 1 ]);
  (* Multi-digit symbols must not glue ambiguously. *)
  check Alcotest.bool "12 vs 1,2" true (enc [ Hist.Got 12 ] <> enc [ Hist.Got 1; Hist.Got 2 ])

let test_hist_prefix () =
  let h = List.fold_left Hist.add Hist.empty [ Hist.Woke; Hist.Got 1; Hist.Sent 2 ] in
  let p = Hist.prefix h 2 in
  check Alcotest.bool "prefix content" true (Hist.to_list p = [ Hist.Woke; Hist.Got 1 ]);
  check Alcotest.bool "full prefix" true (Hist.equal (Hist.prefix h 3) h);
  check Alcotest.int "empty prefix" 0 (Hist.length (Hist.prefix h 0));
  Alcotest.check_raises "too long" (Invalid_argument "Hist.prefix: bad length") (fun () ->
      ignore (Hist.prefix h 4))

let test_hist_event_action_mapping () =
  let h = Hist.add_event Hist.empty (Event.Deliver 7) in
  let h = Hist.add_action h (Action.Write 3) in
  check Alcotest.bool "mapped" true (Hist.to_list h = [ Hist.Got 7; Hist.Wrote 3 ])

(* ------------------------- Proc ------------------------- *)

let test_proc_step_and_encode () =
  let p =
    Proc.make ~state:0
      ~step:(fun s -> function
        | Event.Wake -> (s + 1, [ Action.Send s ])
        | Event.Deliver _ -> (s, []))
      ()
  in
  let before = Proc.encode p in
  let p', actions = Proc.step p Event.Wake in
  check Alcotest.bool "action emitted" true (actions = [ Action.Send 0 ]);
  check Alcotest.bool "encode changed" true (Proc.encode p' <> before);
  let p2 = Proc.make ~state:0 ~step:(fun s _ -> (s, [])) () in
  check Alcotest.string "same state same encode" (Proc.encode p2) before

(* ------------------------- a tiny test protocol ------------------------- *)

(* Sender emits one message (its first input item) on first wake;
   receiver writes every delivery.  Enough to probe the kernel. *)
let tiny channel =
  {
    Protocol.name = "tiny";
    sender_alphabet = 4;
    receiver_alphabet = 1;
    channel;
    make_sender =
      (fun ~input ->
        Proc.make ~state:false
          ~step:(fun sent -> function
            | Event.Wake when (not sent) && Array.length input > 0 ->
                (true, [ Action.Send input.(0) ])
            | Event.Wake | Event.Deliver _ -> (sent, []))
          ());
    make_receiver =
      (fun () ->
        Proc.make ~state:()
          ~step:(fun () -> function
            | Event.Deliver d -> ((), [ Action.Write d ])
            | Event.Wake -> ((), []))
          ());
    symmetry = None;
    perturb = None;
  }

let bad_sender_writes =
  {
    Protocol.name = "bad-writer";
    sender_alphabet = 1;
    receiver_alphabet = 1;
    channel = Chan.Perfect;
    make_sender =
      (fun ~input:_ ->
        Proc.make ~state:() ~step:(fun () _ -> ((), [ Action.Write 0 ])) ());
    make_receiver = (fun () -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
    symmetry = None;
    perturb = None;
  }

let bad_alphabet =
  {
    Protocol.name = "bad-alphabet";
    sender_alphabet = 2;
    receiver_alphabet = 1;
    channel = Chan.Perfect;
    make_sender =
      (fun ~input:_ -> Proc.make ~state:() ~step:(fun () _ -> ((), [ Action.Send 7 ])) ());
    make_receiver = (fun () -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
    symmetry = None;
    perturb = None;
  }

(* ------------------------- Global / Sim ------------------------- *)

let test_global_initial () =
  let g = Global.initial (tiny Chan.Perfect) ~input:[| 1; 2 |] in
  check Alcotest.int "no output" 0 (Global.output_length g);
  check Alcotest.bool "safe" true (Global.safety_ok g);
  check Alcotest.bool "incomplete" false (Global.complete g);
  check Alcotest.int "time 0" 0 g.Global.time

let test_global_empty_input_complete () =
  let g = Global.initial (tiny Chan.Perfect) ~input:[||] in
  check Alcotest.bool "empty input complete at start" true (Global.complete g)

let test_sim_wake_and_deliver () =
  let p = tiny Chan.Perfect in
  let g = Global.initial p ~input:[| 3 |] in
  check Alcotest.bool "initial moves: wakes only" true
    (Sim.enabled p g = [ Move.Wake_sender; Move.Wake_receiver ]);
  let g = Sim.apply p g Move.Wake_sender in
  check Alcotest.bool "delivery now enabled" true
    (List.mem (Move.Deliver_to_receiver 3) (Sim.enabled p g));
  let g = Sim.apply p g (Move.Deliver_to_receiver 3) in
  check Alcotest.bool "output written" true (Global.output g = [ 3 ]);
  check Alcotest.bool "complete" true (Global.complete g);
  check Alcotest.int "time advanced" 2 g.Global.time

let test_sim_histories_recorded () =
  let p = tiny Chan.Perfect in
  let g = Global.initial p ~input:[| 3 |] in
  let g = Sim.apply p g Move.Wake_sender in
  let g = Sim.apply p g (Move.Deliver_to_receiver 3) in
  check Alcotest.bool "sender history" true
    (Hist.to_list g.Global.s_hist = [ Hist.Woke; Hist.Sent 3 ]);
  check Alcotest.bool "receiver history" true
    (Hist.to_list g.Global.r_hist = [ Hist.Got 3; Hist.Wrote 3 ])

let test_sim_rejects_sender_write () =
  let g = Global.initial bad_sender_writes ~input:[| 0 |] in
  Alcotest.check_raises "sender write"
    (Sim.Model_violation "sender attempted to write the output tape") (fun () ->
      ignore (Sim.apply bad_sender_writes g Move.Wake_sender))

let test_sim_rejects_alphabet_violation () =
  let g = Global.initial bad_alphabet ~input:[| 0 |] in
  Alcotest.check_raises "alphabet"
    (Sim.Model_violation "message symbol 7 outside declared alphabet of size 2") (fun () ->
      ignore (Sim.apply bad_alphabet g Move.Wake_sender))

let test_sim_rejects_bogus_delivery () =
  let p = tiny Chan.Perfect in
  let g = Global.initial p ~input:[| 1 |] in
  Alcotest.check_raises "not deliverable"
    (Sim.Model_violation "message 1 not deliverable to R") (fun () ->
      ignore (Sim.apply p g (Move.Deliver_to_receiver 1)))

let test_safety_detects_wrong_write () =
  let p = tiny Chan.Perfect in
  (* tiny receiver blindly writes whatever arrives — feed it a
     mismatching input by sending input.(0) on an input whose first
     element differs... easiest: input [|2|], deliver, then output [2]
     is a prefix.  For a violation, use input [||] so any write
     overshoots. *)
  let g = Global.initial p ~input:[||] in
  (* Sender sends nothing on empty input, so force a channel message by
     crafting the global by hand is impossible here; instead check the
     prefix logic directly through Trace on the counting protocol in
     test_protocols.  Here: outputs equal to input stay safe. *)
  check Alcotest.bool "empty stays safe" true (Global.safety_ok g)

let test_wake_only_complete_detects_deadlock () =
  (* A protocol that does nothing at all deadlocks immediately. *)
  let inert =
    {
      Protocol.name = "inert";
      sender_alphabet = 1;
      receiver_alphabet = 1;
      channel = Chan.Perfect;
      make_sender =
        (fun ~input:_ -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
      make_receiver = (fun () -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
      symmetry = None;
      perturb = None;
    }
  in
  let g = Global.initial inert ~input:[| 0 |] in
  check Alcotest.bool "quiescent" true (Sim.wake_only_complete inert g);
  let p = tiny Chan.Perfect in
  let g = Global.initial p ~input:[| 0 |] in
  check Alcotest.bool "tiny is not quiescent (sender will send)" false
    (Sim.wake_only_complete p g)

(* ------------------------- Runner ------------------------- *)

let test_runner_completes () =
  let p = tiny Chan.Perfect in
  let r =
    Runner.run p ~input:[| 2 |] ~strategy:Strategy.round_robin ~rng:(Stdx.Rng.create 1)
      ~max_steps:100 ()
  in
  check Alcotest.bool "completed" true (r.Runner.stop = Runner.Completed);
  check (Alcotest.option Alcotest.int) "no violation" None
    (Trace.first_safety_violation r.Runner.trace)

let test_runner_budget () =
  let inert =
    {
      Protocol.name = "inert2";
      sender_alphabet = 1;
      receiver_alphabet = 1;
      channel = Chan.Reorder_dup;
      make_sender =
        (* Sends forever so the system is never quiescent. *)
        (fun ~input:_ -> Proc.make ~state:() ~step:(fun () _ -> ((), [ Action.Send 0 ])) ());
      make_receiver = (fun () -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
      symmetry = None;
      perturb = None;
    }
  in
  let r =
    Runner.run inert ~input:[| 0 |] ~strategy:(Strategy.fair_random ())
      ~rng:(Stdx.Rng.create 1) ~max_steps:50 ()
  in
  check Alcotest.bool "budget" true (r.Runner.stop = Runner.Budget);
  check Alcotest.int "steps = budget" 50 r.Runner.steps

let test_runner_quiescent () =
  let inert =
    {
      Protocol.name = "inert3";
      sender_alphabet = 1;
      receiver_alphabet = 1;
      channel = Chan.Perfect;
      make_sender = (fun ~input:_ -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
      make_receiver = (fun () -> Proc.make ~state:() ~step:(fun () _ -> ((), [])) ());
      symmetry = None;
      perturb = None;
    }
  in
  let r =
    Runner.run inert ~input:[| 0 |] ~strategy:Strategy.round_robin ~rng:(Stdx.Rng.create 1)
      ~max_steps:100 ()
  in
  check Alcotest.bool "deadlock detected" true (r.Runner.stop = Runner.Quiescent)

let test_runner_post_roll () =
  let p = tiny Chan.Perfect in
  let r =
    Runner.run p ~input:[| 2 |] ~strategy:Strategy.round_robin ~rng:(Stdx.Rng.create 1)
      ~max_steps:100 ~post_roll:5 ()
  in
  let completed = Option.get (Trace.completed_at r.Runner.trace) in
  check Alcotest.bool "rolled past completion" true (Trace.length r.Runner.trace >= completed + 5)

let test_runner_deterministic () =
  let p = tiny Chan.Perfect in
  let run seed =
    let r =
      Runner.run p ~input:[| 1 |] ~strategy:(Strategy.fair_random ())
        ~rng:(Stdx.Rng.create seed) ~max_steps:100 ()
    in
    Array.to_list (Trace.moves r.Runner.trace)
  in
  check Alcotest.bool "same seed same run" true (run 5 = run 5)

(* ------------------------- Strategy ------------------------- *)

let test_scripted_replay () =
  let p = tiny Chan.Perfect in
  let script = [ Move.Wake_sender; Move.Deliver_to_receiver 3 ] in
  let r =
    Runner.run p ~input:[| 3 |] ~strategy:(Strategy.scripted script) ~rng:(Stdx.Rng.create 1)
      ~max_steps:100 ()
  in
  check Alcotest.bool "script reaches completion" true (r.Runner.stop = Runner.Completed);
  check Alcotest.bool "moves = script" true (Array.to_list (Trace.moves r.Runner.trace) = script)

let test_scripted_stops_on_disabled () =
  let p = tiny Chan.Perfect in
  let script = [ Move.Deliver_to_receiver 3 ] in
  let r =
    Runner.run p ~input:[| 3 |] ~strategy:(Strategy.scripted script) ~rng:(Stdx.Rng.create 1)
      ~max_steps:100 ()
  in
  check Alcotest.bool "ends" true (r.Runner.stop = Runner.Strategy_end);
  check Alcotest.int "nothing happened" 0 (Trace.length r.Runner.trace)

let test_drop_first_budget () =
  (* drop_first must stop dropping after its budget. *)
  let p = Protocols.Norep.del ~m:3 in
  let r =
    Runner.run p ~input:[| 0; 1; 2 |]
      ~strategy:(Strategy.drop_first 3 (Strategy.fair_random ()))
      ~rng:(Stdx.Rng.create 2) ~max_steps:5_000 ()
  in
  let final = Trace.final r.Runner.trace in
  let dropped =
    Chan.dropped_total final.Global.chan_sr + Chan.dropped_total final.Global.chan_rs
  in
  check Alcotest.int "exactly the budget" 3 dropped;
  check Alcotest.bool "still completes" true (r.Runner.stop = Runner.Completed)

let test_starve_receiver () =
  let p = tiny Chan.Perfect in
  let r =
    Runner.run p ~input:[| 1 |]
      ~strategy:(Strategy.starve_receiver ~until:20 Strategy.round_robin)
      ~rng:(Stdx.Rng.create 1) ~max_steps:200 ()
  in
  (* Nothing may reach R before time 20. *)
  check Alcotest.int "no output before starvation lifts" 0
    (Trace.output_length_at r.Runner.trace (min 20 (Trace.length r.Runner.trace)));
  check Alcotest.bool "completes afterwards" true (r.Runner.stop = Runner.Completed)

(* Every accepted spelling parses to the strategy whose name the help
   text promises — and parsing is a pure function of the spelling. *)
let strategy_spelling_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ "fair-random"; "round-robin"; "newest-first"; "dup-flood" ];
        map (fun p -> Printf.sprintf "drop:%.2f" p) (float_bound_inclusive 1.0);
        map (fun n -> Printf.sprintf "drop-first:%d" n) (int_bound 50);
      ])

let expected_strategy_name s =
  match String.split_on_char ':' s with
  | [ "dup-flood" ] -> "dup-flood(3)"
  | [ "drop"; p ] -> Printf.sprintf "fair-random+drop(%.2f)" (float_of_string p)
  | [ "drop-first"; n ] -> Printf.sprintf "fair-random+drop-first(%s)" n
  | _ -> s

let prop_strategy_of_string_roundtrip =
  QCheck.Test.make ~name:"Strategy.of_string round-trips accepted spellings" ~count:200
    (QCheck.make ~print:(fun s -> s) strategy_spelling_gen)
    (fun s ->
      match (Strategy.of_string s, Strategy.of_string s) with
      | Ok a, Ok b -> a.Strategy.name = expected_strategy_name s && a.Strategy.name = b.Strategy.name
      | _ -> false)

let test_strategy_of_string_errors () =
  let err s = match Strategy.of_string s with Error e -> e | Ok _ -> "OK" in
  (* Pinned: the unknown-name error quotes the offending spelling. *)
  check Alcotest.string "unknown name" {|unknown strategy "no-such"|} (err "no-such");
  check Alcotest.string "unknown with arg" {|unknown strategy "drop:0.2:extra"|}
    (err "drop:0.2:extra");
  check Alcotest.string "bad drop probability" "drop:P needs a float probability"
    (err "drop:lots");
  check Alcotest.string "bad drop-first count" "drop-first:N needs an integer"
    (err "drop-first:x")

let prop_fair_random_picks_enabled =
  QCheck.Test.make ~name:"fair_random picks an enabled move" QCheck.small_int (fun seed ->
      let p = tiny Chan.Reorder_dup in
      let g = Sim.apply p (Global.initial p ~input:[| 1 |]) Move.Wake_sender in
      let enabled = Sim.enabled p g in
      let s = Strategy.fair_random () in
      match s.Strategy.choose (Stdx.Rng.create seed) p g enabled with
      | Some m -> List.exists (Move.equal m) enabled
      | None -> false)

(* ------------------------- Trace ------------------------- *)

let test_trace_views_monotone () =
  let p = Protocols.Norep.dup ~m:3 in
  let r =
    Runner.run p ~input:[| 1; 0 |] ~strategy:Strategy.round_robin ~rng:(Stdx.Rng.create 1)
      ~max_steps:500 ()
  in
  let trace = r.Runner.trace in
  for t = 0 to Trace.length trace - 1 do
    let a = Hist.length (Trace.r_view trace t) in
    let b = Hist.length (Trace.r_view trace (t + 1)) in
    if b < a then Alcotest.failf "receiver view shrank at %d" t;
    if Trace.output_length_at trace (t + 1) < Trace.output_length_at trace t then
      Alcotest.failf "output shrank at %d" t
  done

let test_trace_view_prefix_property () =
  let p = Protocols.Norep.dup ~m:3 in
  let r =
    Runner.run p ~input:[| 2; 1 |] ~strategy:Strategy.round_robin ~rng:(Stdx.Rng.create 1)
      ~max_steps:500 ()
  in
  let trace = r.Runner.trace in
  let n = Trace.length trace in
  let final_view = Trace.r_view trace n in
  for t = 0 to n do
    let v = Trace.r_view trace t in
    if not (Hist.equal v (Hist.prefix final_view (Hist.length v))) then
      Alcotest.failf "view at %d is not a prefix of the final view" t
  done

(* ------------------------- Explore ------------------------- *)

let test_explore_iter_runs_counts () =
  let p = tiny Chan.Perfect in
  let count = ref 0 in
  Explore.iter_runs p ~input:[| 1 |] ~depth:3 (fun _ -> incr count);
  (* Depth-3 runs over a branching system: more than one, finitely many. *)
  check Alcotest.bool "enumerated" true (!count > 1)

let test_explore_max_runs () =
  let p = tiny Chan.Reorder_dup in
  let count = ref 0 in
  Explore.iter_runs p ~input:[| 1 |] ~depth:6 ~max_runs:10 (fun _ -> incr count);
  check Alcotest.int "capped" 10 !count

let test_explore_no_drops_filter () =
  let p = Protocols.Norep.del ~m:2 in
  let saw_drop = ref false in
  Explore.iter_runs p ~input:[| 0 |] ~depth:4 ~move_filter:Explore.no_drops ~max_runs:200
    (fun trace ->
      Array.iter
        (function
          | Move.Drop_to_receiver _ | Move.Drop_to_sender _ -> saw_drop := true
          | Move.Wake_sender | Move.Wake_receiver | Move.Deliver_to_receiver _
          | Move.Deliver_to_sender _ | Move.Restart_sender | Move.Restart_receiver
          | Move.Corrupt_sender _ | Move.Corrupt_receiver _ ->
              ())
        (Trace.moves trace));
  check Alcotest.bool "filter removes drops" false !saw_drop

let test_explore_dead_end_emitted () =
  (* A move filter that refuses everything makes the initial state a
     dead end: the enumeration must still emit that (empty) run rather
     than silently produce nothing. *)
  let p = tiny Chan.Perfect in
  let traces = ref [] in
  Explore.iter_runs p ~input:[| 1 |] ~depth:5
    ~move_filter:(fun _ _ -> false)
    (fun t -> traces := t :: !traces);
  match !traces with
  | [ t ] -> check Alcotest.int "empty run" 0 (Trace.length t)
  | ts -> Alcotest.failf "expected exactly one dead-end trace, got %d" (List.length ts)

(* The binary fingerprint must behave exactly like semantic equality
   of the fingerprinted components on states the engine visits: equal
   bytes iff equal (sender, receiver, channel bodies, output length).
   This is the injectivity/self-delimitation property the codec-based
   state tables rely on. *)
let prop_global_fingerprint_iff_components =
  QCheck.Test.make ~name:"Global fingerprint equality iff component equality" ~count:60
    QCheck.(pair small_int (int_range 5 40))
    (fun (seed, steps) ->
      let p = Protocols.Norep.del ~m:2 in
      let rng = Stdx.Rng.create seed in
      let g = ref (Global.initial p ~input:[| 0; 1 |]) in
      let states = ref [ !g ] in
      (try
         for _ = 1 to steps do
           match Sim.enabled p !g with
           | [] -> raise Exit
           | moves ->
               let m = List.nth moves (Stdx.Rng.int rng (List.length moves)) in
               g := Sim.apply p !g m;
               states := !g :: !states
         done
       with Exit -> ());
      let comps (g : Global.t) =
        ( Proc.encode g.Global.sender,
          Proc.encode g.Global.receiver,
          Chan.encode g.Global.chan_sr,
          Chan.encode g.Global.chan_rs,
          Global.output_length g )
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> String.equal (Global.encode a) (Global.encode b) = (comps a = comps b))
            !states)
        !states)

(* ------------------------- Move codes and Bfs ------------------------- *)

let test_move_code_roundtrip () =
  let sa = 3 and ra = 2 in
  let all = List.init (Move.code_space ~sa ~ra) (Move.of_code ~sa ~ra) in
  List.iteri
    (fun c m -> check Alcotest.int (Move.to_string m) c (Move.code ~sa ~ra m))
    all;
  check Alcotest.bool "every kind coded" true
    (List.mem (Move.Drop_to_sender 1) all && List.mem (Move.Deliver_to_receiver 2) all);
  check Alcotest.bool "corrupt moves have no code" true
    (match Move.code ~sa ~ra (Move.Corrupt_sender 0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* A toy space for the engine: ints up to 20 under +1 and *2. *)
let toy_search ?(depth = 100) ?(max_states = 100) ?(goal = fun _ -> false) ?edge roots =
  Bfs.search ~depth ~max_states ?edge
    ~key:(fun c n -> Stdx.Codec.add_varint c n)
    ~moves:(fun _ _ -> [ `Inc; `Dbl ])
    ~step:(fun n m ->
      let n' = match m with `Inc -> n + 1 | `Dbl -> 2 * n in
      if n' > 20 then None else Some n')
    ~code:(function `Inc -> 0 | `Dbl -> 1)
    ~decode:(function 0 -> `Inc | _ -> `Dbl)
    ~goal:(fun _ n -> goal n)
    ~push_goal:false roots

let test_bfs_budgets () =
  let shape (r : _ Bfs.result) = (r.Bfs.closed, r.Bfs.states) in
  let pair = Alcotest.(pair bool int) in
  check pair "closes over 1..20" (true, 20) (shape (toy_search [ 1 ]));
  check pair "duplicate roots count once" (true, 20) (shape (toy_search [ 1; 1 ]));
  check pair "depth cut" (false, 4) (shape (toy_search ~depth:2 [ 1 ]));
  check pair "state budget" (false, 3) (shape (toy_search ~max_states:3 [ 1 ]))

let test_bfs_edges () =
  let edges ?max_states () =
    let acc = ref [] in
    ignore (toy_search ?max_states ~edge:(fun i j -> acc := (i, j) :: !acc) [ 1 ]);
    List.rev !acc
  in
  (* Closed: every generated successor is an edge, repeats included
     (1 -> 2 twice), and none is refused. *)
  let closed = edges () in
  check Alcotest.int "one edge per successor" 29 (List.length closed);
  check Alcotest.(list (pair int int)) "first edges" [ (0, 1); (0, 1); (1, 2); (1, 3) ]
    (List.filteri (fun k _ -> k < 4) closed);
  (* Budget 3 visits 1, 2, 3.  The refused 4 is generated from 2 (by
     doubling) and again from 3 (by incrementing): both are reported
     refused, because a refused id does not stay visited. *)
  check Alcotest.(list (pair int int)) "refusals reported every time"
    [ (0, 1); (0, 1); (1, 2); (1, -1); (2, -1); (2, -1) ]
    (edges ~max_states:3 ())

let test_bfs_witness () =
  let goal n = n = 13 in
  (match (toy_search ~goal [ 1 ]).Bfs.found with
  | Some (0, path) ->
      check Alcotest.int "shortest path" 5 (List.length path);
      check Alcotest.int "replays to the goal" 13
        (List.fold_left (fun n m -> match m with `Inc -> n + 1 | `Dbl -> 2 * n) 1 path)
  | _ -> Alcotest.fail "goal reachable from root 0");
  check Alcotest.bool "the nearest root's index is reported" true
    ((toy_search ~goal [ 1; 1; 5 ]).Bfs.found = Some (2, [ `Inc; `Dbl; `Inc ]))

let () =
  Alcotest.run "kernel"
    [
      ( "hist",
        [
          Alcotest.test_case "append order" `Quick test_hist_append_order;
          Alcotest.test_case "encode distinguishes" `Quick test_hist_encode_injective_cases;
          Alcotest.test_case "prefix" `Quick test_hist_prefix;
          Alcotest.test_case "event/action mapping" `Quick test_hist_event_action_mapping;
        ] );
      ( "proc",
        [ Alcotest.test_case "step and encode" `Quick test_proc_step_and_encode ] );
      ( "sim",
        [
          Alcotest.test_case "initial global" `Quick test_global_initial;
          Alcotest.test_case "empty input complete" `Quick test_global_empty_input_complete;
          Alcotest.test_case "wake and deliver" `Quick test_sim_wake_and_deliver;
          Alcotest.test_case "histories recorded" `Quick test_sim_histories_recorded;
          Alcotest.test_case "rejects sender write" `Quick test_sim_rejects_sender_write;
          Alcotest.test_case "rejects alphabet violation" `Quick test_sim_rejects_alphabet_violation;
          Alcotest.test_case "rejects bogus delivery" `Quick test_sim_rejects_bogus_delivery;
          Alcotest.test_case "safety on empty" `Quick test_safety_detects_wrong_write;
          Alcotest.test_case "quiescence detection" `Quick test_wake_only_complete_detects_deadlock;
        ] );
      ( "runner",
        [
          Alcotest.test_case "completes" `Quick test_runner_completes;
          Alcotest.test_case "budget stop" `Quick test_runner_budget;
          Alcotest.test_case "quiescent stop" `Quick test_runner_quiescent;
          Alcotest.test_case "post roll" `Quick test_runner_post_roll;
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "scripted replay" `Quick test_scripted_replay;
          Alcotest.test_case "scripted stops when disabled" `Quick test_scripted_stops_on_disabled;
          Alcotest.test_case "drop_first budget" `Quick test_drop_first_budget;
          Alcotest.test_case "starve receiver" `Quick test_starve_receiver;
          Alcotest.test_case "of_string errors pinned" `Quick test_strategy_of_string_errors;
          qtest prop_fair_random_picks_enabled;
          qtest prop_strategy_of_string_roundtrip;
        ] );
      ( "trace",
        [
          Alcotest.test_case "views monotone" `Quick test_trace_views_monotone;
          Alcotest.test_case "view prefix property" `Quick test_trace_view_prefix_property;
        ] );
      ( "explore",
        [
          Alcotest.test_case "iter_runs" `Quick test_explore_iter_runs_counts;
          Alcotest.test_case "max_runs cap" `Quick test_explore_max_runs;
          Alcotest.test_case "no_drops filter" `Quick test_explore_no_drops_filter;
          Alcotest.test_case "dead end emitted" `Quick test_explore_dead_end_emitted;
          qtest prop_global_fingerprint_iff_components;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "move codes round-trip" `Quick test_move_code_roundtrip;
          Alcotest.test_case "budgets" `Quick test_bfs_budgets;
          Alcotest.test_case "witness" `Quick test_bfs_witness;
          Alcotest.test_case "edges and refusals" `Quick test_bfs_edges;
        ] );
    ]
