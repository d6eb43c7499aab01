(* Tolerant wire decoding: field extraction only, no checksum
   verification, no exceptions — corrupted frames from the damage tap
   must decode as far as their bytes allow. *)

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
  t_len : int;
}

type info =
  | Arp_info of Arp.packet
  | Udp_info of { u_src : Addr.endpoint; u_dst : Addr.endpoint; u_len : int }
  | Tcp_info of tcp_info
  | Frag_info of {
      f_src : Addr.Ip.t;
      f_dst : Addr.Ip.t;
      f_protocol : int;
      f_offset : int;
      f_more : bool;
      f_len : int;
    }
  | Ip_other of { i_src : Addr.Ip.t; i_dst : Addr.Ip.t; i_protocol : int; i_len : int }
  | Roce_info of { r_src : Addr.Mac.t; r_dst : Addr.Mac.t; r_msgtype : int; r_len : int }
  | Eth_other of { e_ethertype : int; e_len : int }
  | Short of int

(* The IPv4 packet of an [n]-byte frame at [base]. *)
let parse_ipv4 b base n =
  (* Manual header walk (Ipv4.read verifies the checksum and rejects
     options; the decoder must accept damaged bytes). *)
  let off = base + Eth.size and limit = base + n in
  if off + Ipv4.size > limit then Eth_other { e_ethertype = Eth.ethertype_ipv4; e_len = n }
  else
    let ihl = (Wire.get_u8 b off land 0x0f) * 4 in
    let total_length = Wire.get_u16 b (off + 2) in
    let frag = Wire.get_u16 b (off + 6) in
    let more = frag land 0x2000 <> 0 in
    let frag_offset = (frag land 0x1fff) * 8 in
    let protocol = Wire.get_u8 b (off + 9) in
    let src = Wire.get_u32 b (off + 12) in
    let dst = Wire.get_u32 b (off + 16) in
    let hdr_end = off + max Ipv4.size ihl in
    (* Trust the frame over the length field when they disagree. *)
    let seg_end = min limit (off + total_length) in
    let seg_len = max 0 (seg_end - hdr_end) in
    if frag_offset > 0 then
      Frag_info
        { f_src = src; f_dst = dst; f_protocol = protocol; f_offset = frag_offset;
          f_more = more; f_len = seg_len }
    else if protocol = Ipv4.protocol_udp && hdr_end + Udp_wire.size <= seg_end then
      let sport = Wire.get_u16 b hdr_end and dport = Wire.get_u16 b (hdr_end + 2) in
      Udp_info
        {
          u_src = Addr.endpoint src sport;
          u_dst = Addr.endpoint dst dport;
          u_len = seg_len - Udp_wire.size;
        }
    else if protocol = Ipv4.protocol_tcp && hdr_end + 20 <= seg_end then
      let sport = Wire.get_u16 b hdr_end and dport = Wire.get_u16 b (hdr_end + 2) in
      let data_off = (Wire.get_u8 b (hdr_end + 12) lsr 4) * 4 in
      let flags = Wire.get_u8 b (hdr_end + 13) in
      Tcp_info
        {
          t_src = Addr.endpoint src sport;
          t_dst = Addr.endpoint dst dport;
          t_seq = Wire.get_u32 b (hdr_end + 4);
          t_ack = Wire.get_u32 b (hdr_end + 8);
          t_fin = flags land 0x01 <> 0;
          t_syn = flags land 0x02 <> 0;
          t_rst = flags land 0x04 <> 0;
          t_psh = flags land 0x08 <> 0;
          t_ack_flag = flags land 0x10 <> 0;
          t_window = Wire.get_u16 b (hdr_end + 14);
          t_len = max 0 (seg_len - data_off);
        }
    else Ip_other { i_src = src; i_dst = dst; i_protocol = protocol; i_len = seg_len }

let roce_ethertype = 0x8915

let parse_sub b base n =
  if n < Eth.size then Short n
  else
    let dst = Wire.get_u48 b base in
    let src = Wire.get_u48 b (base + 6) in
    let ethertype = Wire.get_u16 b (base + 12) in
    if ethertype = Eth.ethertype_arp then
      match Arp.read b (base + Eth.size) ~lim:(base + n) with
      | packet, _ -> Arp_info packet
      | exception Wire.Malformed _ -> Eth_other { e_ethertype = ethertype; e_len = n }
    else if ethertype = Eth.ethertype_ipv4 then parse_ipv4 b base n
    else if ethertype = roce_ethertype && n > Eth.size then
      Roce_info
        {
          r_src = src;
          r_dst = dst;
          r_msgtype = Wire.get_u8 b (base + Eth.size);
          r_len = n - Eth.size - 1;
        }
    else Eth_other { e_ethertype = ethertype; e_len = n }

let parse frame = parse_sub (Bytes.unsafe_of_string frame) 0 (String.length frame)

let parse_frame frame =
  parse_sub (Memory.Heap.data frame) (Memory.Heap.offset frame) (Memory.Heap.length frame)

let tcp_flags t =
  let b = Buffer.create 4 in
  if t.t_syn then Buffer.add_char b 'S';
  if t.t_fin then Buffer.add_char b 'F';
  if t.t_rst then Buffer.add_char b 'R';
  if t.t_psh then Buffer.add_char b 'P';
  if t.t_ack_flag then Buffer.add_char b '.';
  if Buffer.length b = 0 then Buffer.add_string b "none";
  Buffer.contents b

let roce_msgtype_name = function
  | 0 -> "send"
  | 1 -> "write"
  | 2 -> "write-ack"
  | t -> Printf.sprintf "msgtype-%d" t

let line_of_info = function
  | Arp_info { Arp.operation = Arp.Request; sender_ip; target_ip; _ } ->
      Format.asprintf "ARP who-has %a tell %a" Addr.Ip.pp target_ip Addr.Ip.pp sender_ip
  | Arp_info { Arp.operation = Arp.Reply; sender_ip; sender_mac; _ } ->
      Format.asprintf "ARP reply %a is-at %a" Addr.Ip.pp sender_ip Addr.Mac.pp sender_mac
  | Udp_info { u_src; u_dst; u_len } ->
      Format.asprintf "IP %a.%d > %a.%d: UDP, length %d" Addr.Ip.pp u_src.Addr.ip
        u_src.Addr.port Addr.Ip.pp u_dst.Addr.ip u_dst.Addr.port u_len
  | Tcp_info t ->
      Format.asprintf "IP %a.%d > %a.%d: Flags [%s], seq %d, ack %d, win %d, length %d"
        Addr.Ip.pp t.t_src.Addr.ip t.t_src.Addr.port Addr.Ip.pp t.t_dst.Addr.ip
        t.t_dst.Addr.port (tcp_flags t) t.t_seq t.t_ack t.t_window t.t_len
  | Frag_info { f_src; f_dst; f_protocol; f_offset; f_more; f_len } ->
      Format.asprintf "IP %a > %a: frag proto %d offset %d%s, length %d" Addr.Ip.pp f_src
        Addr.Ip.pp f_dst f_protocol f_offset
        (if f_more then "+" else "")
        f_len
  | Ip_other { i_src; i_dst; i_protocol; i_len } ->
      Format.asprintf "IP %a > %a: proto %d, length %d" Addr.Ip.pp i_src Addr.Ip.pp i_dst
        i_protocol i_len
  | Roce_info { r_src; r_dst; r_msgtype; r_len } ->
      Format.asprintf "RoCE %a > %a: %s, length %d" Addr.Mac.pp r_src Addr.Mac.pp r_dst
        (roce_msgtype_name r_msgtype) r_len
  | Eth_other { e_ethertype; e_len } ->
      Printf.sprintf "ETH ethertype 0x%04x, length %d" e_ethertype e_len
  | Short n -> Printf.sprintf "malformed frame (%d bytes)" n

let line frame = line_of_info (parse frame)
let frame_line frame = line_of_info (parse_frame frame)
