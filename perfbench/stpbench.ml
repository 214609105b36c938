(* The benchmark harness: one iteration of one workload per process.

   [stpbench.exe run WORKLOAD SEED DIR] builds the workload's inputs
   (set-up), times the calls into the libraries' public functions from
   the first call to the checked result, and prints one JSON object:
   wall and CPU seconds, the absolute time of the first timed call
   (run.py subtracts its spawn time to get set-up time), operations
   attempted, failed checks, and the workload's deterministic counts.
   [--trace] instead runs the workload's layer-by-layer path: each
   call into a layer is a span, the spans go to DIR as JSON when the
   run ends, and the per-layer metrics join the line.  All tracing
   lives in this file; nothing under lib/ is instrumented.

   [stpbench.exe selftest] checks that the seed-invariant counts agree
   across two seeds and that one seed renders one serve digest. *)

module Json = Stdx.Json
module Attack = Core.Attack
module Stab = Core.Stab
module Registry = Kernel.Registry

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---------------- spans ---------------- *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for the root *)
  start : float;
  mutable stop : float;
  mutable minor_words : float;
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : span list ref = ref []
let next_span = ref 0

(* [span name f] is [f ()]; when tracing it is also recorded as a span
   whose parent is the innermost open one.  The traced paths run on one
   domain, so a single stack is enough. *)
let span name f =
  if not !tracing then f ()
  else begin
    let parent = match !open_spans with [] -> -1 | s :: _ -> s.id in
    let s = { id = !next_span; name; parent; start = now (); stop = nan; minor_words = 0. } in
    incr next_span;
    open_spans := s :: !open_spans;
    let w0 = Gc.minor_words () in
    Fun.protect f ~finally:(fun () ->
        s.stop <- now ();
        s.minor_words <- Gc.minor_words () -. w0;
        open_spans := List.tl !open_spans;
        spans := s :: !spans)
  end

let duration s = s.stop -. s.start

(* Total duration of every span called [name]. *)
let span_total name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0. !spans

(* Per span name: self time (duration minus the children's, which run
   inside it and one after another) and allocated minor words.  A leaf
   whose total is already reported as [<name>_s] gets no self time: it
   would be the same number. *)
let span_summary ~reported =
  let names = List.sort_uniq compare (List.map (fun s -> s.name) !spans) in
  let children s = List.filter (fun k -> k.parent = s.id) !spans in
  List.concat_map
    (fun name ->
      let own = List.filter (fun s -> s.name = name) !spans in
      let self =
        List.fold_left
          (fun acc s ->
            acc +. duration s -. List.fold_left (fun c k -> c +. duration k) 0. (children s))
          0. own
      in
      let words = List.fold_left (fun acc s -> acc +. s.minor_words) 0. own in
      let leaf = List.for_all (fun s -> children s = []) own in
      (if leaf && List.mem_assoc (name ^ "_s") reported then [] else [ (name ^ ".self_s", self) ])
      @ [ (name ^ ".minor_words", words) ])
    names

let spans_json () =
  let t0 = List.fold_left (fun acc s -> min acc s.start) infinity !spans in
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id);
             ("name", Json.String s.name);
             ("parent", if s.parent < 0 then Json.Null else Json.Int s.parent);
             ("start_s", Json.Float (s.start -. t0));
             ("end_s", Json.Float (s.stop -. t0));
             ("minor_words", Json.Float s.minor_words);
           ])
       !spans)

(* ---------------- workload plumbing ---------------- *)

type result = {
  ops : int;  (** operations attempted: pairs, roots plus the search, or jobs *)
  problems : string list;  (** failed output checks; empty when correct *)
  counts : (string * int) list;  (** deterministic, pinned below *)
  digest : string;  (** of the rendered output, where there is one *)
  layer : (string * float) list;  (** per-layer metrics, traced runs only *)
}

let check cond msg problems = if cond then problems else msg :: problems

let expect name want got problems =
  check (want = got) (Printf.sprintf "%s: expected %d, got %d" name want got) problems

(* Heap growth per state: the peak major heap reached during a search
   against the heap before it, over the states the search interned. *)
let heap_words () = (Gc.quick_stat ()).Gc.heap_words
let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

let bytes_per_state ~heap0 states =
  float_of_int ((top_heap_words () - heap0) * (Sys.word_size / 8)) /. float_of_int (max 1 states)

let build name config =
  match Registry.build_protocol ~name config with
  | Ok p -> p
  | Error e -> failwith (name ^ ": " ^ e)

let frontier_counts (s : Attack.Stats.t) =
  let snap = Attack.Stats.snapshot s in
  [
    ("frontier.peak_bytes", snap.Attack.Stats.peak_frontier_bytes);
    ("frontier.peak_len", snap.Attack.Stats.peak_frontier_len);
  ]

(* ---------------- pair-sweep ---------------- *)

(* E14 full: norep over reorder+del at m = 4, every eligible pair of
   the 65 repetition-free inputs, through the swap-symmetry quotient. *)
let sweep_m = 4
let sweep_caps = 4
let sweep_depth = 200

let pair_sweep ~seed ~traced ~jobs =
  let p =
    build "norep" { Registry.default with channel = Channel.Chan.Reorder_del; domain = sweep_m }
  in
  let xs = Array.of_list (Seqspace.Norep.enumerate ~m:sweep_m) in
  Stdx.Rng.shuffle (Stdx.Rng.create seed) xs;
  let xs = Array.to_list xs in
  let search_pair ?runstates ?stats (x1, x2) =
    Attack.search_pair p ~x1 ~x2 ~depth:sweep_depth ~max_sends_per_sender:sweep_caps
      ~max_sends_per_receiver:sweep_caps ?runstates ?stats ()
  in
  let closed = function Attack.No_violation { closed = true; _ } -> true | _ -> false in
  let states = function
    | Attack.No_violation { states_explored; _ } -> states_explored
    | Attack.Witness w -> w.Attack.states_explored
  in
  if not traced then fun () ->
    let outcomes, witness =
      Attack.search p ~xs ~depth:sweep_depth ~max_sends_per_sender:sweep_caps
        ~max_sends_per_receiver:sweep_caps ~symm:true ~jobs ()
    in
    let n = List.length outcomes in
    let problems =
      []
      |> check (witness = None) "a witness was found"
      |> check (List.for_all (fun (_, _, o) -> closed o) outcomes) "a pair did not close"
    in
    { ops = n; problems; counts = [ ("symm.pairs", n) ]; digest = ""; layer = [] }
  else fun () ->
    (* What [Attack.search ~symm:true] does, one representative at a
       time on this domain, so each pair search is its own span and
       the transition stores can be read afterwards. *)
    let pairs = Attack.eligible_pairs ~xs in
    let reps =
      span "symm.canon" (fun () ->
          let seen = Hashtbl.create 128 in
          List.filter_map
            (fun (x1, x2) ->
              let key, _, _ = Attack.canon_pair_swap ~m:sweep_m x1 x2 in
              if Hashtbl.mem seen key then None
              else begin
                Hashtbl.add seen key ();
                Some key
              end)
            pairs)
    in
    let stores = Hashtbl.create 64 in
    let store x =
      match Hashtbl.find_opt stores x with
      | Some rs -> rs
      | None ->
          let rs = Attack.Runstate.create p ~x in
          Hashtbl.add stores x rs;
          rs
    in
    let stats = Attack.Stats.create () in
    let outcomes =
      List.map
        (fun (x1, x2) ->
          let runstates = (store x1, store x2) in
          span "attack.pair_search" (fun () -> search_pair ~runstates ~stats (x1, x2)))
        reps
    in
    let sum f = Hashtbl.fold (fun _ rs acc -> acc + f rs) stores 0 in
    let rs_states = sum Attack.Runstate.states and rs_hits = sum Attack.Runstate.hits in
    let n_pairs = List.length pairs and n_reps = List.length reps in
    let total_states = List.fold_left (fun acc o -> acc + states o) 0 outcomes in
    let snap = Attack.Stats.snapshot stats in
    let counts =
      [
        ("symm.pairs", n_pairs);
        ("symm.representatives", n_reps);
        ("attack.states", total_states);
        ("attack.peak_joint_states", snap.Attack.Stats.peak_joint_states);
        ("runstate.states", rs_states);
        ("runstate.hits", rs_hits);
      ]
      @ frontier_counts stats
    in
    let times =
      List.filter_map
        (fun s -> if s.name = "attack.pair_search" then Some (duration s) else None)
        !spans
      |> Array.of_list
    in
    Array.sort compare times;
    let n = Array.length times in
    (* The highest percentile with at least ten samples above it. *)
    let tail_rank = max 0 (n - 11) in
    let ms i = 1000. *. times.(i) in
    let problems = check (List.for_all closed outcomes) "a representative did not close" [] in
    let layer =
      [
        ("symm.canon_s", span_total "symm.canon");
        ("symm.quotient_ratio", float_of_int n_pairs /. float_of_int (max 1 n_reps));
        ("attack.pair_search_s", span_total "attack.pair_search");
        ("attack.pair_search_samples", float_of_int n);
        ("attack.pair_search_p50_ms", ms (n / 2));
        ("attack.pair_search_tail_pct", 100. *. float_of_int (tail_rank + 1) /. float_of_int n);
        ("attack.pair_search_tail_ms", ms tail_rank);
        (* A store counts its hits and states, not its misses, so the
           memo's yield is reported per interned state. *)
        ("runstate.hits_per_state", float_of_int rs_hits /. float_of_int (max 1 rs_states));
      ]
    in
    { ops = n_pairs; problems; counts; digest = ""; layer }

(* ---------------- single-bfs ---------------- *)

(* The second-largest E10 cell: stenning-mod, header space 4, over a
   lag-1 reordering channel, no drops; it closes clean. *)
let single_bfs () =
  let h = 4 in
  let p =
    build "stenning-mod"
      { Registry.default with channel = Channel.Chan.Bounded_reorder { lag = 1 }; header_space = h }
  in
  let cap = (2 * (h + 1)) + 2 in
  fun () ->
    let stats = Attack.Stats.create () in
    let heap0 = heap_words () in
    let outcome =
      span "attack.single_search" (fun () ->
          Attack.search_single p ~x:[ 0; 0; 0; 0; 1 ] ~depth:150 ~max_sends_per_sender:cap
            ~max_sends_per_receiver:cap ~max_states:1_500_000 ~allow_drops:false ~stats ())
    in
    let per_state = bytes_per_state ~heap0 in
    let states, problems =
      match outcome with
      | Attack.No_violation { closed = true; states_explored } -> (states_explored, [])
      | Attack.No_violation { closed = false; states_explored } ->
          (states_explored, [ "search truncated" ])
      | Attack.Witness w -> (w.Attack.states_explored, [ "unexpected witness" ])
    in
    let t = span_total "attack.single_search" in
    let layer =
      if !tracing then
        [
          ("attack.single_search_s", t);
          ("attack.states_per_s", float_of_int states /. t);
          ("attack.bytes_per_state", per_state states);
        ]
      else []
    in
    {
      ops = 1;
      problems;
      counts = ("attack.single_states", states) :: frontier_counts stats;
      digest = "";
      layer;
    }

(* ---------------- stab-search ---------------- *)

(* gbn-stab's corrupted-start sweep, then the exact corrupted-root
   search: window 2, domain 2, max_len 4, input 0,1, caps 5, depth 64. *)
let stab_search () =
  let p =
    build "gbn-stab"
      { Registry.default with channel = Channel.Chan.Fifo_lossy; max_len = 4; window = 2 }
  in
  let input = [| 0; 1 |] in
  fun () ->
    let roots = span "stab.space" (fun () -> List.length (Stab.space p ~input)) in
    let sweep =
      span "stab.sweep" (fun () ->
          Stab.sweep ~jobs:1 ~max_steps:20_000 p ~input ~within:256 ~seed:1 ())
    in
    let stats = Attack.Stats.create () in
    let heap0 = heap_words () in
    let outcome =
      span "stab.search" (fun () ->
          Stab.search ~depth:64 ~max_states:200_000 ~max_sends_per_sender:5
            ~max_sends_per_receiver:5 ~stats p ~input ())
    in
    let per_state = bytes_per_state ~heap0 in
    let states, problems =
      match outcome with
      | Stab.No_violation { closed = true; states } -> (states, [])
      | Stab.No_violation { closed = false; states } -> (states, [ "stab search truncated" ])
      | Stab.Violation _ -> (0, [ "stab search found a violation" ])
    in
    let problems = check sweep.Stab.all_stabilised "a corrupted root did not stabilise" problems in
    let search_t = span_total "stab.search" in
    let layer =
      if !tracing then
        [
          ("stab.space_s", span_total "stab.space");
          ("stab.sweep_s", span_total "stab.sweep");
          ("stab.search_s", search_t);
          ("stab.states_per_s", float_of_int states /. search_t);
          ("stab.bytes_per_state", per_state states);
        ]
      else []
    in
    {
      ops = sweep.Stab.space_size + 1;
      problems;
      counts =
        [
          ("stab.roots", roots);
          ("stab.sweep_points", sweep.Stab.space_size);
          ("stab.states", states);
        ]
        @ frontier_counts stats;
      digest = "";
      layer;
    }

(* ---------------- serve-batch ---------------- *)

let serve_jobs = 20_000

(* A seeded mix of the five data-link families on their own channels,
   under round-robin, fair-random and drop strategies; about one job in
   eight carries a drop-burst or blackout fault plan. *)
let gen_batch ~seed ~n =
  let rng = Stdx.Rng.create seed in
  let int k = Stdx.Rng.int rng k in
  let ints l = Json.List (List.map (fun i -> Json.Int i) l) in
  let bits () = List.init (3 + int 4) (fun _ -> int 2) in
  let job i =
    let base protocol channel domain input =
      [
        ("label", Json.String (Printf.sprintf "j%d" i));
        ("protocol", Json.String protocol);
        ("channel", Json.String channel);
        ("domain", Json.Int domain);
        ("input", ints input);
      ]
    in
    let fields, lossy =
      match int 5 with
      | 0 -> (base "abp" "fifo-lossy" 2 (bits ()), true)
      | 1 ->
          let perm = [| 0; 1; 2 |] in
          Stdx.Rng.shuffle rng perm;
          let len = 1 + int 3 in
          (base "norep" "dup" 3 (List.filteri (fun k _ -> k < len) (Array.to_list perm)), false)
      | 2 -> (base "stenning" "fifo-lossy" 2 (bits ()) @ [ ("max_len", Json.Int 6) ], true)
      | 3 -> (base "go-back-n" "fifo-lossy" 2 (bits ()) @ [ ("window", Json.Int 2) ], true)
      | _ -> (base "selective-repeat" "fifo-lossy" 2 (bits ()) @ [ ("window", Json.Int 2) ], true)
    in
    let strategy =
      Stdx.Rng.pick rng
        (if lossy then [ "round-robin"; "fair-random"; "drop:0.1"; "drop:0.2" ]
         else [ "round-robin"; "fair-random" ])
    in
    let plan =
      if int 8 <> 0 then []
      else
        let event =
          if lossy && Stdx.Rng.bool rng then
            [
              ("kind", Json.String "drop-burst");
              ("at", Json.Int (int 20));
              ("target", Json.String "to-receiver");
              ("count", Json.Int (1 + int 2));
            ]
          else
            [
              ("kind", Json.String "blackout");
              ("at", Json.Int (int 20));
              ("len", Json.Int (1 + int 8));
            ]
        in
        let plan = [ ("name", Json.String "burst"); ("events", Json.List [ Json.Obj event ]) ] in
        [ ("plan", Json.Obj plan) ]
    in
    Json.Obj
      (fields
      @ [
          ("strategy", Json.String strategy);
          ("seed", Json.Int (int 1_000_000));
          ("max_steps", Json.Int 20_000);
        ]
      @ plan)
  in
  Json.Obj [ ("jobs", Json.List (List.init n job)) ]

let serve_batch ~seed ~dir ~n =
  let path = Filename.concat dir (Printf.sprintf "batch-%d-%d.json" seed (Unix.getpid ())) in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string (gen_batch ~seed ~n)));
  let file_bytes = (Unix.stat path).Unix.st_size in
  fun () ->
    let parsed =
      if not !tracing then Serve.load_batch path
      else
        span "serve.parse" (fun () ->
            let text =
              span "io.read" (fun () -> In_channel.with_open_bin path In_channel.input_all)
            in
            match span "json.parse" (fun () -> Json.parse text) with
            | Error e -> Error e
            | Ok j -> span "serve.batch_of_json" (fun () -> Serve.batch_of_json j))
    in
    Sys.remove path;
    match parsed with
    | Error e ->
        { ops = n; problems = [ "batch rejected: " ^ e ]; counts = []; digest = ""; layer = [] }
    | Ok batch ->
        let outcomes, stats = span "serve.run_batch" (fun () -> Serve.run_batch ~jobs:1 batch) in
        let bytes =
          span "serve.report" (fun () ->
              let results =
                span "report.results" (fun () -> Serve.results_report ~label:"bench" outcomes)
              in
              let telemetry =
                Serve.telemetry_report (Serve.observe Serve.telemetry_zero stats ~wall_seconds:0.)
              in
              let art =
                span "report.artifact" (fun () ->
                    Serve.artifact ~results_only:true ~results ~telemetry ())
              in
              span "json.render" (fun () -> Json.to_string art))
        in
        (* Every family runs on a channel it is correct for, so a job
           that ends unsafe or incomplete is a wrong result.  Recovery
           verdicts are data: a run can finish before its fault fires. *)
        let good (o : Serve.outcome) = Core.Verdict.all_good o.Serve.verdict in
        let retired = List.length outcomes in
        let bad =
          List.filter_map
            (fun (o : Serve.outcome) ->
              if good o then None
              else
                let v = o.Serve.verdict and j = o.Serve.job in
                Some
                  (Printf.sprintf "%s (%s, %s): safe=%b complete=%b" j.Serve.label
                     j.Serve.protocol_name j.Serve.strategy_name v.Core.Verdict.safe
                     v.Core.Verdict.complete))
            outcomes
        in
        let problems =
          List.filteri (fun i _ -> i < 5) bad
          |> expect "jobs retired" n retired
          |> expect "sessions" n stats.Kernel.Sched.sessions
        in
        let counts =
          [
            ("sched.sessions", stats.Kernel.Sched.sessions);
            ("sched.steps", stats.Kernel.Sched.steps);
            ("sched.ticks", stats.Kernel.Sched.ticks);
            ("sched.peak_live", stats.Kernel.Sched.peak_live);
            ("serve.report_bytes", String.length bytes);
          ]
        in
        let layer =
          if not !tracing then []
          else
            let parse_s = span_total "serve.parse" and run_s = span_total "serve.run_batch" in
            [
              ("serve.parse_s", parse_s);
              ("serve.parse_mb_per_s", float_of_int file_bytes /. 1e6 /. parse_s);
              ("serve.run_batch_s", run_s);
              ("serve.report_s", span_total "serve.report");
              ("sched.ns_per_step", 1e9 *. run_s /. float_of_int (max 1 stats.Kernel.Sched.steps));
            ]
        in
        { ops = retired; problems; counts; digest = Digest.to_hex (Digest.string bytes); layer }

(* ---------------- pins ---------------- *)

(* Counts that repeat exactly at every seed; a run that disagrees has
   a wrong output, whatever its timing.  The traced pair sweep reports
   more counts than the untraced one; a count a run does not report is
   not checked.  The serve counts depend on the seed, so run.py
   compares them across the runs of one seed instead. *)
let pins =
  [
    ( "pair-sweep",
      [
        ("symm.pairs", 1884);
        ("symm.representatives", 91);
        ("attack.states", 141_898);
        ("attack.peak_joint_states", 22_896);
        ("runstate.states", 17_811);
        ("runstate.hits", 1_131_726);
        ("frontier.peak_bytes", 14_210);
        ("frontier.peak_len", 7182);
      ] );
    ( "single-bfs",
      [
        ("attack.single_states", 133_208);
        ("frontier.peak_bytes", 31_014);
        ("frontier.peak_len", 10_338);
      ] );
    ( "stab-search",
      [
        ("stab.roots", 6);
        ("stab.sweep_points", 6);
        ("stab.states", 147_370);
        ("frontier.peak_bytes", 51_708);
        ("frontier.peak_len", 17_236);
      ] );
  ]

let check_pins workload r =
  let pinned = Option.value ~default:[] (List.assoc_opt workload pins) in
  let problems =
    List.fold_left
      (fun acc (k, want) ->
        match List.assoc_opt k r.counts with Some got -> expect k want got acc | None -> acc)
      r.problems pinned
  in
  { r with problems }

(* ---------------- entry points ---------------- *)

let workloads = [ "pair-sweep"; "single-bfs"; "stab-search"; "serve-batch" ]

let prepare workload ~seed ~dir ~jobs =
  let traced = !tracing in
  match workload with
  | "pair-sweep" -> pair_sweep ~seed ~traced ~jobs
  | "single-bfs" -> single_bfs ()
  | "stab-search" -> stab_search ()
  | "serve-batch" -> serve_batch ~seed ~dir ~n:serve_jobs
  | w -> failwith ("unknown workload " ^ w)

let run_once workload ~seed ~dir ~jobs =
  let work = prepare workload ~seed ~dir ~jobs in
  let t_first = now () in
  let cpu0 = cpu_now () in
  let r = span "workload" work in
  let wall = now () -. t_first and cpu = cpu_now () -. cpu0 in
  (check_pins workload r, t_first, wall, cpu)

let int_obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) l)
let float_obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l)

let run workload ~seed ~dir ~jobs ~trace =
  tracing := trace;
  let r, t_first, wall, cpu = run_once workload ~seed ~dir ~jobs in
  let layer = if trace then r.layer @ span_summary ~reported:r.layer else [] in
  if trace then
    Out_channel.with_open_bin
      (Filename.concat dir (workload ^ ".spans.json"))
      (fun oc -> output_string oc (Json.to_string (spans_json ())));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.String workload);
            ("seed", Json.Int seed);
            ("t_first", Json.Float t_first);
            ("wall_s", Json.Float wall);
            ("cpu_s", Json.Float cpu);
            ("ops", Json.Int r.ops);
            ("problems", Json.List (List.map (fun p -> Json.String p) r.problems));
            ("counts", int_obj r.counts);
            ("digest", Json.String r.digest);
            ("layer", float_obj layer);
          ]))

(* The seed-invariant counts of the traced pair sweep agree across two
   seeds (and with the pins); a small serve batch retires every job at
   two seeds, and one seed renders one digest and one step count. *)
let selftest () =
  let fail fmt = Printf.ksprintf failwith fmt in
  let dir = Filename.current_dir_name in
  tracing := true;
  let counts seed =
    spans := [];
    let r, _, _, _ = run_once "pair-sweep" ~seed ~dir ~jobs:1 in
    if r.problems <> [] then fail "pair-sweep seed %d: %s" seed (String.concat "; " r.problems);
    r.counts
  in
  if counts 1 <> counts 2 then fail "pair-sweep counts differ across seeds";
  tracing := false;
  let serve seed =
    let r = serve_batch ~seed ~dir ~n:500 () in
    if r.problems <> [] then fail "serve-batch seed %d: %s" seed (String.concat "; " r.problems);
    r
  in
  let s1 = serve 1 and s2 = serve 2 and s1' = serve 1 in
  if s1.ops <> s2.ops then fail "serve-batch job counts differ across seeds";
  if s1.digest <> s1'.digest || s1.counts <> s1'.counts then
    fail "serve-batch output differs between two runs of one seed";
  match List.assoc_opt "sched.steps" s1.counts with
  | Some 17_890 -> ()
  | steps -> fail "serve-batch seed 1: sched.steps %s, pinned 17890"
      (Option.fold ~none:"missing" ~some:string_of_int steps)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "selftest" ] -> selftest ()
  | "run" :: workload :: seed :: dir :: rest when List.mem workload workloads ->
      let rec opts ~jobs ~trace = function
        | [] -> (jobs, trace)
        | "--trace" :: rest -> opts ~jobs ~trace:true rest
        | "--jobs" :: n :: rest -> opts ~jobs:(int_of_string n) ~trace rest
        | o :: _ -> failwith ("unknown option " ^ o)
      in
      let jobs, trace = opts ~jobs:2 ~trace:false rest in
      run workload ~seed:(int_of_string seed) ~dir ~jobs ~trace
  | _ ->
      prerr_endline "usage: stpbench.exe run WORKLOAD SEED DIR [--trace] [--jobs N] | selftest";
      exit 2
