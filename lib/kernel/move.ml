type t =
  | Wake_sender
  | Wake_receiver
  | Deliver_to_receiver of int
  | Deliver_to_sender of int
  | Drop_to_receiver of int
  | Drop_to_sender of int
  | Restart_sender
  | Restart_receiver
  | Corrupt_sender of int
  | Corrupt_receiver of int

(* Message values are bounded by the declared alphabets, so the
   searchable moves number densely in [0, code_space). *)
let code_space ~sa ~ra = 4 + (2 * (sa + ra))

let code ~sa ~ra = function
  | Wake_sender -> 0
  | Wake_receiver -> 1
  | Restart_sender -> 2
  | Restart_receiver -> 3
  | Deliver_to_receiver m -> 4 + m
  | Drop_to_receiver m -> 4 + sa + m
  | Deliver_to_sender m -> 4 + (2 * sa) + m
  | Drop_to_sender m -> 4 + (2 * sa) + ra + m
  | Corrupt_sender _ | Corrupt_receiver _ ->
      invalid_arg "Move.code: corrupt-state moves are roots, not transitions"

let of_code ~sa ~ra c =
  if c < 0 || c >= code_space ~sa ~ra then invalid_arg "Move.of_code: out of range"
  else if c < 4 then [| Wake_sender; Wake_receiver; Restart_sender; Restart_receiver |].(c)
  else if c < 4 + sa then Deliver_to_receiver (c - 4)
  else if c < 4 + (2 * sa) then Drop_to_receiver (c - 4 - sa)
  else if c < 4 + (2 * sa) + ra then Deliver_to_sender (c - 4 - (2 * sa))
  else Drop_to_sender (c - 4 - (2 * sa) - ra)

let pp ppf = function
  | Wake_sender -> Format.pp_print_string ppf "wake S"
  | Wake_receiver -> Format.pp_print_string ppf "wake R"
  | Deliver_to_receiver m -> Format.fprintf ppf "deliver %d to R" m
  | Deliver_to_sender m -> Format.fprintf ppf "deliver %d to S" m
  | Drop_to_receiver m -> Format.fprintf ppf "drop %d (to R)" m
  | Drop_to_sender m -> Format.fprintf ppf "drop %d (to S)" m
  | Restart_sender -> Format.pp_print_string ppf "restart S"
  | Restart_receiver -> Format.pp_print_string ppf "restart R"
  | Corrupt_sender i -> Format.fprintf ppf "corrupt S #%d" i
  | Corrupt_receiver i -> Format.fprintf ppf "corrupt R #%d" i

let equal a b =
  match (a, b) with
  | Wake_sender, Wake_sender
  | Wake_receiver, Wake_receiver
  | Restart_sender, Restart_sender
  | Restart_receiver, Restart_receiver ->
      true
  | Deliver_to_receiver m, Deliver_to_receiver n
  | Deliver_to_sender m, Deliver_to_sender n
  | Drop_to_receiver m, Drop_to_receiver n
  | Drop_to_sender m, Drop_to_sender n
  | Corrupt_sender m, Corrupt_sender n
  | Corrupt_receiver m, Corrupt_receiver n ->
      m = n
  | ( ( Wake_sender | Wake_receiver | Deliver_to_receiver _ | Deliver_to_sender _
      | Drop_to_receiver _ | Drop_to_sender _ | Restart_sender | Restart_receiver
      | Corrupt_sender _ | Corrupt_receiver _ ),
      _ ) ->
      false

let to_string t = Format.asprintf "%a" pp t
