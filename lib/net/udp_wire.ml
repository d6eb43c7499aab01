type t = { mutable src_port : int; mutable dst_port : int; mutable length : int }

let create () = { src_port = 0; dst_port = 0; length = 0 }
let size = 8

let write b off h ~src_ip ~dst_ip =
  Wire.need ~lim:(Bytes.length b) off h.length;
  Wire.set_u16 b off h.src_port;
  Wire.set_u16 b (off + 2) h.dst_port;
  Wire.set_u16 b (off + 4) h.length;
  Wire.set_u16 b (off + 6) 0;
  let init =
    Wire.pseudo_sum ~src:src_ip ~dst:dst_ip ~proto:Ipv4.protocol_udp ~len:h.length
  in
  let csum = Wire.checksum ~init b off h.length in
  (* RFC 768: an all-zero checksum means "none"; transmit 0xffff. *)
  Wire.set_u16 b (off + 6) (if csum = 0 then 0xffff else csum);
  off + size

let read b off ~lim h ~src_ip ~dst_ip =
  Wire.need ~lim off size;
  let length = Wire.get_u16 b (off + 4) in
  if length < size then Wire.fail "udp: bad length";
  Wire.need ~lim off length;
  let init = Wire.pseudo_sum ~src:src_ip ~dst:dst_ip ~proto:Ipv4.protocol_udp ~len:length in
  if Wire.get_u16 b (off + 6) <> 0 && Wire.checksum ~init b off length <> 0 then
    Wire.fail "udp: bad checksum";
  h.src_port <- Wire.get_u16 b off;
  h.dst_port <- Wire.get_u16 b (off + 2);
  h.length <- length;
  off + size
