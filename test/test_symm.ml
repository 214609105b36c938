(* The symmetry quotient: first-occurrence canonicalisation laws, the
   equivariance of the engines under alphabet relabelling, and the
   baseline-parity pins for [~symm:false]. *)

module Symm = Kernel.Symm
module Attack = Core.Attack
module Chan = Channel.Chan

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let m = 4

(* A uniform permutation of [0, m) from a seed. *)
let perm_of_seed seed =
  let a = Array.init m Fun.id in
  Stdx.Rng.shuffle (Stdx.Rng.create seed) a;
  a

let seq_gen = QCheck.(list_of_size Gen.(0 -- 6) (int_range 0 (m - 1)))

(* ------------------------- canonicalisation laws ------------------------- *)

let prop_canon_is_perm_image =
  QCheck.Test.make ~name:"canon_seqs returns its own permutation's image"
    QCheck.(pair seq_gen seq_gen)
    (fun (x1, x2) ->
      let cs, pi = Symm.canon_seqs ~m [ x1; x2 ] in
      Symm.is_perm pi && cs = List.map (Symm.apply_seq pi) [ x1; x2 ])

let prop_canon_idempotent =
  QCheck.Test.make ~name:"canonicalisation is idempotent"
    QCheck.(pair seq_gen seq_gen)
    (fun (x1, x2) ->
      let cs, _ = Symm.canon_seqs ~m [ x1; x2 ] in
      let cs', pi' = Symm.canon_seqs ~m cs in
      cs' = cs && pi' = Symm.identity m)

let prop_canon_orbit_invariant =
  QCheck.Test.make ~name:"canonical image is constant on orbits"
    QCheck.(pair (pair seq_gen seq_gen) small_int)
    (fun ((x1, x2), seed) ->
      let pi = perm_of_seed seed in
      let key, _ = Symm.canon_pair ~m x1 x2 in
      let key', _ =
        Symm.canon_pair ~m (Symm.apply_seq pi x1) (Symm.apply_seq pi x2)
      in
      key = key')

let prop_canon_distinguishes_non_orbit =
  (* Soundness in the other direction: equal canonical images really do
     mean some permutation maps one pair onto the other. *)
  QCheck.Test.make ~name:"equal canonical images witness a relabelling"
    QCheck.(pair (pair seq_gen seq_gen) (pair seq_gen seq_gen))
    (fun ((x1, x2), (y1, y2)) ->
      let kx, px = Symm.canon_pair ~m x1 x2 in
      let ky, py = Symm.canon_pair ~m y1 y2 in
      kx <> ky
      ||
      let map_through pi = Symm.apply_seq (Symm.invert py) (Symm.apply_seq pi x1) in
      ignore (map_through px);
      (* π = py⁻¹ ∘ px maps (x1, x2) onto (y1, y2) componentwise. *)
      let f x = Symm.apply_seq (Symm.invert py) (Symm.apply_seq px x) in
      f x1 = y1 && f x2 = y2)

let test_invert_roundtrip () =
  List.iter
    (fun seed ->
      let pi = perm_of_seed seed in
      let inv = Symm.invert pi in
      for i = 0 to m - 1 do
        check Alcotest.int "inv(pi(i)) = i" i (Symm.apply inv (Symm.apply pi i))
      done)
    [ 1; 2; 3; 4; 5 ]

let test_canon_rejects_out_of_domain () =
  Alcotest.check_raises "symbol out of domain"
    (Invalid_argument "Symm.canon_seqs: symbol outside [0, m)") (fun () ->
      ignore (Symm.canon_seqs ~m:2 [ [ 0; 2 ] ]))

(* ------------------------- engine equivariance ------------------------- *)

(* Relabelling the input of an equivariant protocol relabels the whole
   reachable state graph: same state count, same completion structure,
   same dead states and depth frontier. *)
let prop_reachable_equivariant =
  QCheck.Test.make ~count:20 ~name:"reachable stats invariant under relabelling"
    QCheck.(pair (list_of_size Gen.(1 -- 3) (int_range 0 2)) small_int)
    (fun (x, seed) ->
      let p = Protocols.Norep.dup ~m:3 in
      let a = Array.init 3 Fun.id in
      Stdx.Rng.shuffle (Stdx.Rng.create seed) a;
      let stats input = Core.Spec.recoverability p ~input ~depth:6 () in
      stats x = stats (Symm.apply_seq a x))

let strip = function
  | Attack.Witness w -> `W (w.Attack.kind, w.Attack.depth, w.Attack.states_explored)
  | Attack.No_violation { closed; states_explored } -> `N (closed, states_explored)

let sweep_strip ?depth ?max_states ~symm p xs =
  let outcomes, _ = Attack.search p ~xs ?depth ?max_states ~symm () in
  List.map (fun (a, b, o) -> (a, b, strip o)) outcomes

let prop_sweep_orbit_invariant =
  (* A symmetry-quotiented sweep must answer identically (same
     verdict, same BFS-minimal depth, same state count) on every member
     of an orbit — the searched representative is shared. *)
  QCheck.Test.make ~count:15 ~name:"sweep ~symm invariant across an orbit"
    QCheck.(pair (pair seq_gen seq_gen) small_int)
    (fun ((x1, x2), seed) ->
      QCheck.assume (x1 <> [] && x2 <> []);
      let p = Protocols.Norep.dup ~m in
      let pi = perm_of_seed seed in
      let run a b =
        List.map (fun (_, _, o) -> o)
          (sweep_strip ~depth:24 ~max_states:20_000 ~symm:true p [ a; b ])
      in
      run x1 x2 = run (Symm.apply_seq pi x1) (Symm.apply_seq pi x2))

let test_symm_sweep_matches_nosymm () =
  (* The quotiented sweep must reproduce the plain sweep's outcome list
     exactly — same pairs, same order, same verdicts. *)
  let p = Protocols.Norep.del ~m:2 in
  let xs = Seqspace.Norep.enumerate ~m:2 in
  let run ~symm =
    let outcomes, _ =
      Attack.search p ~xs ~depth:200 ~max_sends_per_sender:3 ~max_sends_per_receiver:3
        ~symm ()
    in
    List.map (fun (a, b, o) -> (a, b, strip o)) outcomes
  in
  check Alcotest.bool "symm sweep = plain sweep" true (run ~symm:true = run ~symm:false)

let test_symm_witness_relabels_back () =
  (* A witness found on the canonical representative must come back
     expressed over the *original* alphabet: searching the relabelled
     pair (1,0)/(0,1) of the counting protocol yields the E2 witness
     with its moves mapped through π⁻¹, and the original inputs. *)
  let p = Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2 in
  let w =
    match Attack.search p ~xs:[ [ 1; 0 ]; [ 0; 1 ] ] ~symm:true () with
    | [ (_, _, Attack.Witness w) ], _ -> w
    | _ -> Alcotest.fail "expected one witness"
  in
  check Alcotest.bool "x1 preserved" true (w.Attack.x1 = [ 1; 0 ]);
  check Alcotest.bool "x2 preserved" true (w.Attack.x2 = [ 0; 1 ]);
  check Alcotest.int "depth matches E2" 4 w.Attack.depth;
  check Alcotest.int "states match E2" 9 w.Attack.states_explored;
  (* The replayed witness must actually violate safety on the original
     input — the relabelled path is a real schedule, not bookkeeping. *)
  let violated_run, input =
    match w.Attack.kind with
    | Attack.Safety { violated_run } ->
        (violated_run, if violated_run = 1 then w.Attack.x1 else w.Attack.x2)
    | Attack.Starvation _ -> Alcotest.fail "expected safety"
  in
  let moves = Attack.run_moves w ~which:violated_run in
  let r =
    Kernel.Runner.run p ~input:(Array.of_list input)
      ~strategy:(Kernel.Strategy.scripted moves) ~rng:(Stdx.Rng.create 1)
      ~max_steps:(List.length moves + 1)
      ()
  in
  check Alcotest.bool "relabelled witness replays" true
    (Kernel.Trace.first_safety_violation r.Kernel.Runner.trace <> None)

let test_symm_noop_without_equivariance () =
  (* A protocol declaring no equivariance must be untouched by ~symm. *)
  let p = Protocols.Stenning.protocol_on Chan.Reorder_dup ~domain:2 ~max_len:2 in
  let run ~symm = sweep_strip ~depth:200 ~symm p [ [ 1; 0 ]; [ 0; 1 ] ] in
  check Alcotest.bool "stenning unaffected" true (run ~symm:true = run ~symm:false)

(* ------------------------- baseline parity (~symm:false) ------------------------- *)

(* Without the quotient every pair is its own representative: the sweep
   must walk exactly the engine-baseline spaces of the E2 and E3
   pairs. *)

let test_e2_parity_nosymm () =
  let p = Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2 in
  match Attack.search p ~xs:[ [ 0; 1 ]; [ 1; 0 ] ] ~symm:false () with
  | [ (_, _, Attack.Witness w) ], _ -> check Alcotest.int "e2 states" 9 w.Attack.states_explored
  | _ -> Alcotest.fail "expected the E2 witness"

let test_e3_parity_nosymm () =
  match
    Attack.search (Protocols.Norep.del ~m:2) ~xs:[ [ 0; 1 ]; [ 0; 0 ] ] ~depth:200
      ~max_sends_per_sender:4 ~max_sends_per_receiver:4 ~symm:false ()
  with
  | [ (_, _, Attack.Witness w) ], _ ->
      check Alcotest.int "e3 states" 4084 w.Attack.states_explored
  | _ -> Alcotest.fail "expected the E3 witness"

let test_orbit_reduction_counts () =
  (* The m! win the quotient is for: the 20 eligible m=3 pairs fall
     into far fewer orbits, and every orbit has a canonical member. *)
  let xs = Seqspace.Norep.enumerate ~m:3 in
  let pairs = Attack.eligible_pairs ~xs in
  let orbits = Hashtbl.create 16 in
  List.iter
    (fun (x1, x2) ->
      let key, _ = Symm.canon_pair ~m:3 x1 x2 in
      Hashtbl.replace orbits key ())
    pairs;
  let n_orbits = Hashtbl.length orbits in
  check Alcotest.bool "orbits strictly fewer than pairs" true
    (n_orbits < List.length pairs);
  Hashtbl.iter
    (fun (c1, c2) () ->
      let (c1', c2'), _ = Symm.canon_pair ~m:3 c1 c2 in
      check Alcotest.bool "orbit keys are canonical" true (c1' = c1 && c2' = c2))
    orbits

(* ------------------------- the swap quotient ------------------------- *)

(* ~symm now composes the alphabet quotient with the joint-space run
   swap: for a swap-asymmetric pair only one ordering is searched and
   the other's outcome is mirrored back.  The composition must stay
   invisible — same outcome lists as the plain sweep — while strictly
   shrinking the representative set. *)

let test_swap_sweep_matches_plain () =
  let p = Protocols.Norep.del ~m:3 in
  let xs = Seqspace.Norep.enumerate ~m:3 in
  let run ~symm =
    let outcomes, _ =
      Attack.search p ~xs ~depth:200 ~max_sends_per_sender:3 ~max_sends_per_receiver:3 ~symm ()
    in
    List.map (fun (a, b, o) -> (a, b, strip o)) outcomes
  in
  check Alcotest.bool "composed quotient = plain sweep" true
    (run ~symm:true = run ~symm:false)

let test_swap_sweep_witness_parity () =
  (* Witness outcomes survive the mirror: a sweep whose pairs include
     safety witnesses (the counting protocol beyond its bound) reports
     the same verdict, violated run, depth, and state count whether the
     ordering searched was the literal one or its swap image. *)
  let p = Protocols.Counting.protocol_on Chan.Reorder_dup ~domain:2 in
  let xs = [ [ 0; 1 ]; [ 1; 0 ]; [ 0 ]; [ 1 ] ] in
  let run ~symm =
    let outcomes, _ = Attack.search p ~xs ~depth:24 ~symm () in
    List.map (fun (a, b, o) -> (a, b, strip o)) outcomes
  in
  check Alcotest.bool "witness sweep: quotient = plain" true
    (run ~symm:true = run ~symm:false)

let test_swap_artifact_bytes () =
  (* The acceptance contract, engine-level: quotiented and plain sweeps
     of the closed fixture write byte-identical artifacts. *)
  let p = Protocols.Norep.del ~m:2 in
  let xs = [ [ 0; 1 ]; [ 1; 0 ]; [ 0 ]; [ 1 ] ] in
  let bytes ~symm =
    let outcomes, witness = Attack.search p ~xs ~depth:64 ~symm () in
    Stdx.Json.to_string (Stdx.Report.to_json (Attack.search_report outcomes witness))
  in
  check Alcotest.string "artifact bytes" (bytes ~symm:false) (bytes ~symm:true)

let test_swap_reduction_m4 () =
  (* The strict win on the E14 space: composing the run swap shrinks
     the m=4 representative set from 106 perm-orbits to 91, over the
     1884 eligible pairs.  Composed keys are fixpoints: the canonical
     pair canonicalises to itself, unswapped. *)
  let m = 4 in
  let xs = Seqspace.Norep.enumerate ~m in
  let pairs = Attack.eligible_pairs ~xs in
  let perm_orbits = Hashtbl.create 256 in
  let swap_orbits = Hashtbl.create 256 in
  List.iter
    (fun (x1, x2) ->
      let key, _ = Symm.canon_pair ~m x1 x2 in
      Hashtbl.replace perm_orbits key ();
      let skey, _, _ = Attack.canon_pair_swap ~m x1 x2 in
      Hashtbl.replace swap_orbits skey ())
    pairs;
  check Alcotest.int "eligible pairs" 1884 (List.length pairs);
  check Alcotest.int "perm-only representatives" 106 (Hashtbl.length perm_orbits);
  check Alcotest.int "composed representatives" 91 (Hashtbl.length swap_orbits);
  check Alcotest.bool "strict reduction" true
    (Hashtbl.length swap_orbits < Hashtbl.length perm_orbits);
  Hashtbl.iter
    (fun (c1, c2) () ->
      let (c1', c2'), _, swapped = Attack.canon_pair_swap ~m c1 c2 in
      check Alcotest.bool "composed keys are fixpoints" true
        (c1' = c1 && c2' = c2 && not swapped))
    swap_orbits

let () =
  Alcotest.run "symm"
    [
      ( "canonicalisation laws",
        [
          qtest prop_canon_is_perm_image;
          qtest prop_canon_idempotent;
          qtest prop_canon_orbit_invariant;
          qtest prop_canon_distinguishes_non_orbit;
          Alcotest.test_case "invert roundtrip" `Quick test_invert_roundtrip;
          Alcotest.test_case "domain validation" `Quick test_canon_rejects_out_of_domain;
        ] );
      ( "engine equivariance",
        [
          qtest prop_reachable_equivariant;
          qtest prop_sweep_orbit_invariant;
          Alcotest.test_case "symm sweep = plain sweep" `Quick test_symm_sweep_matches_nosymm;
          Alcotest.test_case "witness relabels back" `Quick test_symm_witness_relabels_back;
          Alcotest.test_case "no-op without equivariance" `Quick test_symm_noop_without_equivariance;
          Alcotest.test_case "orbit reduction counts" `Quick test_orbit_reduction_counts;
        ] );
      ( "baseline parity",
        [
          Alcotest.test_case "e2 states with symm off" `Quick test_e2_parity_nosymm;
          Alcotest.test_case "e3 states with symm off" `Quick test_e3_parity_nosymm;
        ] );
      ( "swap quotient",
        [
          Alcotest.test_case "composed sweep = plain" `Quick test_swap_sweep_matches_plain;
          Alcotest.test_case "witness sweep parity" `Quick test_swap_sweep_witness_parity;
          Alcotest.test_case "artifact bytes identical" `Quick test_swap_artifact_bytes;
          Alcotest.test_case "strict m=4 reduction" `Quick test_swap_reduction_m4;
        ] );
    ]
