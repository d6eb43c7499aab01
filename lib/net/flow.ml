(* FNV-1a, 64-bit, truncated to OCaml's positive int range. The hash
   input is the canonically-ordered address tuple, so both directions of
   a conversation produce one id. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let feed h v = Int64.mul (Int64.logxor h (Int64.of_int (v land 0xff))) fnv_prime

let feed_u64 h v =
  let h = ref h in
  for shift = 7 downto 0 do
    h := feed !h (v lsr (shift * 8))
  done;
  !h

let finish h = Int64.to_int (Int64.shift_right_logical h 2)

let of_endpoints ~proto a b =
  let lo, hi =
    if (a.Addr.ip, a.Addr.port) <= (b.Addr.ip, b.Addr.port) then (a, b) else (b, a)
  in
  let h = feed_u64 fnv_offset proto in
  let h = feed_u64 h lo.Addr.ip in
  let h = feed_u64 h lo.Addr.port in
  let h = feed_u64 h hi.Addr.ip in
  let h = feed_u64 h hi.Addr.port in
  finish h

let of_macs a b =
  let lo = min a b and hi = max a b in
  let h = feed_u64 fnv_offset 0x8915 in
  let h = feed_u64 h lo in
  let h = feed_u64 h hi in
  finish h

let of_frame frame =
  match Decode.parse_frame frame with
  | Decode.Tcp_info t ->
      Some (of_endpoints ~proto:Ipv4.protocol_tcp t.Decode.t_src t.Decode.t_dst)
  | Decode.Udp_info { u_src; u_dst; _ } ->
      Some (of_endpoints ~proto:Ipv4.protocol_udp u_src u_dst)
  | Decode.Roce_info { r_src; r_dst; _ } -> Some (of_macs r_src r_dst)
  | Decode.Arp_info _ | Decode.Frag_info _ | Decode.Ip_other _ | Decode.Eth_other _
  | Decode.Short _ ->
      None

(* Flow ↔ request correlation (Demifleet): the wire events that can be
   evidence for one causal edge — frames from the edge's sender host to
   its receiver host whose journey overlaps the edge's [Sent, Received]
   window. Retransmits and drops inside the window are included; that
   is the point. *)
let evidence ~src ~dst ~t0 ~t1 events =
  List.filter
    (fun (e : Engine.Span.wire_event) ->
      String.equal e.Engine.Span.wire_src src
      && String.equal e.Engine.Span.wire_dst dst
      && e.Engine.Span.wire_t1 >= t0
      && e.Engine.Span.wire_t0 <= t1)
    events
