module Chan = Channel.Chan

type t = {
  input : int array;
  sender : Proc.t;
  receiver : Proc.t;
  s_hist : Hist.t;
  r_hist : Hist.t;
  chan_sr : Chan.t;
  chan_rs : Chan.t;
  output_rev : int list;
  output_len : int;
  output_ok : bool;
  time : int;
}

let initial ?sender ?receiver (p : Protocol.t) ~input =
  {
    input;
    sender = (match sender with Some s -> s | None -> p.Protocol.make_sender ~input);
    receiver = (match receiver with Some r -> r | None -> p.Protocol.make_receiver ());
    s_hist = Hist.empty;
    r_hist = Hist.empty;
    chan_sr = Chan.create p.Protocol.channel;
    chan_rs = Chan.create p.Protocol.channel;
    output_rev = [];
    output_len = 0;
    output_ok = true;
    time = 0;
  }

let output t = List.rev t.output_rev

let output_length t = t.output_len

(* [output_len] and [output_ok] are maintained incrementally by the
   simulator on every Write, so the per-step safety check is O(1)
   instead of rescanning the output tape. *)
let safety_ok t = t.output_ok

let write t d =
  {
    t with
    output_rev = d :: t.output_rev;
    output_len = t.output_len + 1;
    output_ok = t.output_ok && t.output_len < Array.length t.input && t.input.(t.output_len) = d;
  }

let complete t = output_length t = Array.length t.input

(* The hot fingerprint path: every component append is a memo blit
   (Proc/Chan serialise each distinct value once), so emitting an
   already-encoded state into the engine's reusable codec allocates
   nothing. *)
let emit c t =
  Proc.emit c t.sender;
  Proc.emit c t.receiver;
  Chan.emit c t.chan_sr;
  Chan.emit c t.chan_rs;
  Stdx.Codec.add_varint c (output_length t)

let encode t =
  let c = Stdx.Codec.create ~size:128 () in
  emit c t;
  Stdx.Codec.contents c

(* Everything a state-space engine's *decisions* can read: the
   fingerprint plus the channel counters (send caps, debt) and the
   safety bit.  Histories and the clock are excluded — they are
   write-only accumulators that never feed back into process or
   channel evolution — so equal keys certify that stepping either
   state produces successors that are again equal under this key and
   indistinguishable to every search. *)
let emit_run_key c t =
  Proc.emit c t.sender;
  Proc.emit c t.receiver;
  Chan.emit_run_key c t.chan_sr;
  Chan.emit_run_key c t.chan_rs;
  Stdx.Codec.add_varint c (output_length t);
  Stdx.Codec.add_byte c (if t.output_ok then 1 else 0)
