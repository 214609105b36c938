(** Self-stabilising indexed ABP — the stabilisation contrast to
    {!Abp} and {!Stenning}, registered under two names.

    Dolev–Dubois–Potop-Butucaru–Tixeuil show that stabilising sequence
    transmission needs strictly more sequence-number room than the
    alternating bit: a protocol whose control state is one bit cannot
    recover from an adversarial boot, because a flipped bit is
    indistinguishable from a legitimate phase.  This variant spends
    that room explicitly.  Data messages carry the full item index
    ([(index, data)], sender alphabet [max_len·domain], Stenning-style
    bounded sequence numbers); acknowledgements carry the receiver's
    absolute written count ([max_len+1] symbols).  The sender adopts
    every ack wholesale — an {e absolute resync} rather than ABP's
    relative bit flip or stock Stenning's forward-only ack rule — and
    past the end it keeps retransmitting the last item as a
    keep-alive, so any corrupted cursor position is overwritten by the
    first round trip and no corrupted flag can deadlock the pair.

    Safety holds from {e every} corrupted start (writes are gated on
    an exact index match against the receiver's true count; the sender
    only sends truthful [(i, x_i)] pairs), and convergence is bounded:
    E15 sweeps the whole declared {!Kernel.Protocol.perturb} space and
    pins the finite worst-case time-to-stabilise, against a concrete
    non-stabilising witness for stock ABP.

    [stenning-stab] is the same machine.  Only data differs: its
    default channel is [Reorder_del] (Stenning's home channel) rather
    than [Fifo_lossy], its corrupted-start labels name the sender's
    register [next] rather than [cursor], and it corrupts cursors
    [0..|input|] rather than every value [0..max_len] the register can
    hold.  The worst-case time-to-stabilise curves of E17 differ
    between the two names because of the default channel, not the
    protocol. *)

val protocol : domain:int -> max_len:int -> Kernel.Protocol.t
(** [abp-stab]: inputs of length at most [max_len] over a [Fifo_lossy]
    channel; the declared alphabets (and the corrupted-start
    enumeration) are sized accordingly. *)

val protocol_on : Channel.Chan.kind -> domain:int -> max_len:int -> Kernel.Protocol.t

val stenning_protocol : domain:int -> max_len:int -> Kernel.Protocol.t
(** [stenning-stab]: the same machine over a [Reorder_del] channel,
    with the corrupted-start space described above. *)

val encode_msg : domain:int -> index:int -> data:int -> int
(** The wire encoding of data messages: [index·domain + data]. *)

val decode_msg : domain:int -> int -> int * int
(** Inverse of {!encode_msg}: [(index, data)]. *)
