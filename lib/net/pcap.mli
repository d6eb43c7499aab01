(** Demiscope packet capture: standard libpcap files from the simulated
    fabric, openable in Wireshark/tcpdump/tshark, plus a pure-OCaml
    reader so the tests never depend on external tooling.

    The format is classic pcap (not pcapng): a 24-byte global header
    (magic 0xa1b2c3d4, little-endian, version 2.4, LINKTYPE_ETHERNET)
    followed by 16-byte per-record headers. Virtual-ns timestamps are
    mapped to the format's sec/usec fields; the writer preserves
    capture order, so files written from simulation events are
    non-decreasing in time.

    Capture is a pure observer: taps only read frames the fabric was
    delivering (or dropping) anyway — no clock reads, no randomness, no
    scheduled events — so capture-on and capture-off runs of the same
    seed have identical trace {!Engine.Log.digest}s. *)

val magic : int
(** 0xa1b2c3d4 — classic pcap, microsecond timestamps. *)

val linktype_ethernet : int
(** 1 *)

(** {1 Writer} *)

type writer

val create_writer : unit -> writer
(** An in-memory capture; nothing touches the filesystem until
    {!save}. *)

val add : writer -> ts_ns:int -> string -> unit
(** Append one frame with a virtual-time timestamp (ns since the start
    of the simulation). *)

val frames_written : writer -> int

val contents : writer -> string
(** The complete pcap byte stream (global header + records). *)

val save : writer -> string -> unit
(** Write {!contents} to a file (binary mode). *)

(** {1 Reader} *)

type packet = {
  ts_ns : int;  (** sec/usec fields scaled back to ns (µs resolution). *)
  orig_len : int;  (** original frame length from the record header. *)
  frame : string;  (** captured bytes ([incl_len] of them). *)
}

type capture = { link_type : int; packets : packet list }

val parse : string -> (capture, string) result
(** Decode a pcap byte stream; handles both byte orders (a swapped
    magic means the file came from an opposite-endian writer). *)

val load : string -> (capture, string) result
(** [parse] a file; [Error] on IO failure as well as bad format. *)

(** {1 Fabric tap} *)

type session = {
  wire : writer;  (** every frame delivered to a port, at arrival time. *)
  lost : writer;
      (** frames that never arrived intact: injected loss, unroutable
          destinations, NIC-side drops — and corrupted frames (captured
          in their damaged form at the instant of corruption, so bit rot
          is visible even though the damaged frame is also delivered and
          appears in [wire]). *)
}

val tap : Fabric.t -> session
(** Install a capture tap on a fabric (replacing any previous tap). *)

val untap : Fabric.t -> unit
