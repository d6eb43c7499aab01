(** Demiscope packet decoder: a tcpdump-style one-line summary of any
    frame the simulated fabric can carry (Ethernet, ARP, IPv4, UDP, TCP,
    and the RoCE-style RDMA frames of {!Rdma_sim}).

    Decoding is {e tolerant}: it never raises and never checks
    checksums, so corrupted or truncated frames still decode as far as
    their bytes allow — exactly what the drop/corruption capture tap
    needs. It is also pure (no clock, no allocation side effects beyond
    the returned values), so it is safe to call for wire-event and
    span labels without perturbing a run. *)

type tcp_info = {
  t_src : Addr.endpoint;
  t_dst : Addr.endpoint;
  t_seq : int;
  t_ack : int;
  t_syn : bool;
  t_ack_flag : bool;
  t_fin : bool;
  t_rst : bool;
  t_psh : bool;
  t_window : int;
  t_len : int;  (** payload bytes in this segment. *)
}

type info =
  | Arp_info of Arp.packet
  | Udp_info of { u_src : Addr.endpoint; u_dst : Addr.endpoint; u_len : int }
  | Tcp_info of tcp_info
  | Frag_info of {
      f_src : Addr.Ip.t;
      f_dst : Addr.Ip.t;
      f_protocol : int;
      f_offset : int;  (** payload offset in bytes. *)
      f_more : bool;
      f_len : int;
    }  (** a non-first IPv4 fragment: no transport header to decode. *)
  | Ip_other of { i_src : Addr.Ip.t; i_dst : Addr.Ip.t; i_protocol : int; i_len : int }
  | Roce_info of { r_src : Addr.Mac.t; r_dst : Addr.Mac.t; r_msgtype : int; r_len : int }
  | Eth_other of { e_ethertype : int; e_len : int }
  | Short of int  (** too short even for an Ethernet header. *)

val parse : string -> info

val parse_frame : Memory.Heap.buffer -> info
(** {!parse} of a heap frame: its bytes from [offset] to
    [offset + length], and none of its neighbours'. *)

val line : string -> string
(** One-line summary, e.g.
    ["IP 10.0.0.3.49152 > 10.0.0.2.7: Flags [S.], seq 2000, ack 1001, win 65535, length 0"]. *)

val frame_line : Memory.Heap.buffer -> string
(** {!line} of a heap frame. *)

val tcp_flags : tcp_info -> string
(** tcpdump-style flag string: ["S"], ["S."], ["."], ["P."], ["F."],
    ["R"], ... *)

val roce_msgtype_name : int -> string
