(** TCP segment headers (RFC 793) with the options a µs-scale stack
    needs: MSS, window scaling, timestamps (RFC 7323) and selective
    acknowledgments (RFC 2018). Sequence
    numbers are 32-bit values carried as non-negative ints; modular
    arithmetic lives in the TCP library's [Seqnum].

    A header is a mutable view, not a value: {!read} fills one from the
    wire and {!write} serializes one, and neither allocates. The options
    are flat fields — [-1] for an absent MSS or window scale, a flag for
    the timestamp pair, SACK edges in a fixed array — so a stack keeps
    one view for what it receives and one for what it sends, and the
    per-segment work on either side allocates nothing. A view read from
    one segment is overwritten by the next {!read} into it: a caller
    that must remember a field copies it out. *)

val max_sack_blocks : int
(** 4: the most SACK blocks the 40-byte options field can carry. *)

type t = {
  mutable src_port : int;
  mutable dst_port : int;
  mutable seq : int;
  mutable ack : int;
  mutable syn : bool;
  mutable ack_flag : bool;
  mutable fin : bool;
  mutable rst : bool;
  mutable psh : bool;
  mutable window : int;  (** raw 16-bit window field (unscaled). *)
  mutable mss : int;  (** SYN only; [-1] when absent. *)
  mutable window_scale : int;  (** SYN only; [-1] when absent. *)
  mutable has_ts : bool;  (** whether [ts_val]/[ts_ecr] are carried. *)
  mutable ts_val : int;
  mutable ts_ecr : int;
  mutable sack_permitted : bool;  (** SYN only (RFC 2018). *)
  mutable sack_count : int;  (** SACK blocks carried, at most {!max_sack_blocks}. *)
  sack_edges : int array;
      (** block [i] is [\[sack_edges.(2i), sack_edges.(2i+1))]; only the
          first [sack_count] blocks are meaningful. At most 3 fit with
          timestamps. *)
}

val create : unit -> t
(** A view with no flags and no options. *)

val set :
  t ->
  src_port:int ->
  dst_port:int ->
  seq:int ->
  ack:int ->
  syn:bool ->
  ack_flag:bool ->
  fin:bool ->
  rst:bool ->
  psh:bool ->
  window:int ->
  unit
(** Fill the fixed header and mark every option absent; options are
    then set field by field. *)

val header_size : t -> int
(** 20 bytes plus padded options. *)

val write : Bytes.t -> int -> t -> payload_len:int -> src_ip:Addr.Ip.t -> dst_ip:Addr.Ip.t -> int
(** Serialize at an offset; the payload must already sit after the
    header (at [off + header_size h]) for checksumming. Returns the
    payload offset. *)

val read :
  Bytes.t -> int -> lim:int -> t -> seg_len:int -> src_ip:Addr.Ip.t -> dst_ip:Addr.Ip.t -> int
(** Parse a segment occupying [seg_len] bytes at [off] (header +
    payload, from the IP total length) into the view; verifies the
    checksum and returns the payload offset. The segment must end at or
    before [lim]. Raises {!Wire.Malformed} on truncation, a bad
    checksum, data offset or option length. *)
