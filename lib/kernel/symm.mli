(** Alphabet-symmetry quotients for the state-space engines.

    Relabelling the data alphabet by a permutation [π] commutes with
    every channel semantics (channels move message values without
    inspecting them) and — for protocols that treat data generically,
    comparing symbols only for equality — with both process step
    functions.  For such {e equivariant} protocols the entire
    transition system on input [X] is the [π]-image of the system on
    [π⁻¹(X)]: same shape, same state counts, same witnesses up to
    relabelling.  The engines therefore never need to explore two
    inputs (or input pairs) in the same orbit; it suffices to search
    the orbit's canonical representative and translate any witness
    back through [π⁻¹].

    The canonical representative is computed by {e first-occurrence
    relabelling}: scanning the input (for pair sweeps: both inputs,
    first one then the other), the first distinct symbol becomes [0],
    the second [1], and so on.  The map is idempotent and constant on
    orbits, which makes it a sound orbit key — the properties the
    qcheck laws pin.

    Per-state canonical fingerprint emission is {e deliberately not}
    offered: a global state embeds marshalled process states, and a
    generic engine cannot relabel data buried inside an opaque blob.
    Canonicalising the input before the run starts achieves exactly
    the same quotient for equivariant protocols — every reachable
    state of the original run is the [π]-image of a reachable state of
    the canonical run — and is sound by construction.  See DESIGN.md
    ("The symmetry quotient"). *)

type perm = int array
(** A permutation of the data alphabet [\[0, m)]: [p.(i)] is the image
    of symbol [i]. *)

(** How a data-symbol permutation lifts to this protocol's wire
    messages.  Declaring a value of this type (in
    {!Protocol.t.symmetry}) asserts that the protocol's step functions
    commute with every alphabet permutation when messages are mapped
    through these lifts — the contract the symmetry quotient relies
    on.  Protocols whose behaviour depends on symbol identities (coded
    protocols, anything comparing symbols for order) must declare
    [None] instead. *)
type equivariance = {
  on_sender_msg : (int -> int) -> int -> int;
      (** Lift a symbol permutation to sender-alphabet messages. *)
  on_receiver_msg : (int -> int) -> int -> int;
      (** Lift to receiver-alphabet messages. *)
}

val data_messages : equivariance
(** The common case: messages {e are} data symbols on both channels
    (the norep and counting families). *)

val identity : int -> perm

val apply : perm -> int -> int
(** [apply p i] = [p.(i)]; ints outside the permutation's domain pass
    through unchanged (lifts may be handed header values legitimately
    outside the data alphabet). *)

val invert : perm -> perm

val apply_seq : perm -> int list -> int list

val is_perm : perm -> bool
(** Whether the array is a permutation of [\[0, length)]. *)

(** Streaming first-occurrence relabeller — the canonicalisation
    kernel, exposed for the micro-benchmarks and tests. *)
module Relabel : sig
  type t

  val create : unit -> t

  val map : t -> int -> int
  (** Canonical label of [v]: a fresh next label on first sight, the
      remembered one afterwards. *)
end

val canon_seqs : m:int -> int list list -> int list list * perm
(** Jointly canonicalise a list of sequences over the alphabet
    [\[0, m)] by first-occurrence order (scanning the sequences in
    list order), returning the relabelled sequences and the full
    permutation [π] (original symbol → canonical label; unseen symbols
    take the remaining labels in ascending order).  Idempotent, and
    invariant under pre-permutation of the alphabet — the orbit-key
    property.
    @raise Invalid_argument if a symbol falls outside [\[0, m)]. *)

val canon_pair : m:int -> int list -> int list -> (int list * int list) * perm
(** The pair-sweep orbit key: [canon_pair ~m x1 x2] scans [x1] then
    [x2].  Two pairs have equal canonical images exactly when some
    alphabet permutation maps one pair (componentwise) onto the
    other. *)

val relabel_move : equivariance -> (int -> int) -> Move.t -> Move.t
(** Map the message value carried by a move through the protocol's
    lift of [pi] — how a canonical witness path is translated back to
    the original input pair. *)
