(** Self-stabilising Go-Back-N — windowed pipelining with the
    absolute-resync discipline, the stabilisation contrast to
    {!Go_back_n}.

    Stock Go-Back-N runs its headers and cumulative acks mod
    [window+1] — the smallest sequence space that works from a clean
    start, and one that aliases fatally under a scrambled one: E17
    exhibits a corrupted base writing the wrong item through a
    colliding residue.  This variant spends the sequence-number room
    the stabilisation lower bound demands: frames carry the full item
    index ([(index, data)], sender alphabet [max_len·domain]),
    acknowledgements carry the receiver's absolute written count, the
    sender adopts every ack wholesale and keeps retransmitting the
    last item past the end as a keep-alive.  Unlike the stop-and-wait
    stabiliser ({!Abp_stab}: abp-stab, stenning-stab) the sender still
    pipelines up to [window] outstanding frames, so worst-case
    time-to-stabilise grows measurably slower with the input length —
    the scaling contrast E17's curves are built to show. *)

val protocol : domain:int -> max_len:int -> window:int -> Kernel.Protocol.t
(** Inputs of length at most [max_len] over a [Fifo_lossy] channel.

    @raise Invalid_argument if [window < 1]. *)

val protocol_on :
  Channel.Chan.kind -> domain:int -> max_len:int -> window:int -> Kernel.Protocol.t

val encode_msg : domain:int -> index:int -> data:int -> int
(** The wire encoding of data frames: [index·domain + data]. *)

val decode_msg : domain:int -> int -> int * int
(** Inverse of {!encode_msg}: [(index, data)]. *)
