type 'm result = {
  found : (int * 'm list) option;
  closed : bool;
  states : int;
  frontier : Stdx.Frontier.stats;
}

(* Per-id columns.  Visited states take ids 0 .. states-1: a refusal
   only happens once the budget is spent, so the ids interned for
   refused successors come after every visited one and get no slot. *)
type 's columns = {
  mutable parent : int array;  (* parent id; -1 at a root *)
  mutable code : int array;  (* move code from the parent; root index at a root *)
  mutable live : 's option array;  (* the state, while its id is queued *)
}

let ensure c i =
  let n = Array.length c.parent in
  if i >= n then begin
    let n' = max (i + 1) (2 * n) in
    let grow a fill =
      let b = Array.make n' fill in
      Array.blit a 0 b 0 n;
      b
    in
    c.parent <- grow c.parent 0;
    c.code <- grow c.code 0;
    c.live <- grow c.live None
  end

let search ~depth ~max_states ?mem_budget_bytes ?edge ~key ~moves ~step ~code ~decode ~goal
    ~push_goal roots =
  let intern = Stdx.Intern.create ~size:64 () in
  let scratch = Stdx.Codec.create ~size:256 () in
  let id s =
    Stdx.Codec.reset scratch;
    key scratch s;
    fst
      (Stdx.Intern.intern_bytes intern (Stdx.Codec.buffer scratch) ~pos:0
         ~len:(Stdx.Codec.length scratch))
  in
  let cols = { parent = Array.make 64 0; code = Array.make 64 0; live = Array.make 64 None } in
  let visited = Stdx.Bitset.create () in
  let frontier = Stdx.Frontier.create ?mem_budget_bytes () in
  Fun.protect ~finally:(fun () -> Stdx.Frontier.close frontier) @@ fun () ->
  let states = ref 0 in
  let found = ref None in
  let truncated = ref false in
  let next_level = ref 0 in
  let visit i s ~parent ~via =
    ensure cols i;
    cols.parent.(i) <- parent;
    cols.code.(i) <- via;
    incr states;
    let hit = goal i s in
    if hit then found := Some i;
    if push_goal || not hit then begin
      cols.live.(i) <- Some s;
      Stdx.Frontier.push frontier i;
      incr next_level
    end
  in
  List.iteri
    (fun r s ->
      if !found = None then
        let i = id s in
        if Stdx.Bitset.add visited i then visit i s ~parent:(-1) ~via:r)
    roots;
  let this_level = ref !next_level in
  next_level := 0;
  let level = ref 0 in
  while (not (Stdx.Frontier.is_empty frontier)) && !found = None do
    if !this_level = 0 then begin
      this_level := !next_level;
      next_level := 0;
      incr level
    end;
    let i = Stdx.Frontier.pop frontier in
    decr this_level;
    let s = Option.get cols.live.(i) in
    cols.live.(i) <- None;
    if !level >= depth then truncated := true
    else
      List.iter
        (fun m ->
          if !found = None then
            match step s m with
            | None -> ()
            | Some s' ->
                let i' = id s' in
                let fresh = Stdx.Bitset.add visited i' in
                (* A refused id leaves the visited set, so the next
                   edge to it is refused (and reported) again. *)
                let refused = fresh && !states >= max_states in
                if refused then begin
                  truncated := true;
                  Stdx.Bitset.remove visited i'
                end
                else if fresh then visit i' s' ~parent:i ~via:(code m);
                match edge with
                | Some f -> f i (if refused then -1 else i')
                | None -> ())
        (moves i s)
  done;
  let rec unwind i acc =
    let c = cols.code.(i) in
    if cols.parent.(i) < 0 then (c, acc) else unwind cols.parent.(i) (decode c :: acc)
  in
  {
    found = Option.map (fun i -> unwind i []) !found;
    closed = not !truncated;
    states = !states;
    frontier = Stdx.Frontier.stats frontier;
  }
