type operation = Request | Reply

type packet = {
  operation : operation;
  sender_mac : Addr.Mac.t;
  sender_ip : Addr.Ip.t;
  target_mac : Addr.Mac.t;
  target_ip : Addr.Ip.t;
}

let size = 28

let write b off p =
  Wire.need ~lim:(Bytes.length b) off size;
  Wire.set_u16 b off 1 (* htype: ethernet *);
  Wire.set_u16 b (off + 2) Eth.ethertype_ipv4;
  Wire.set_u8 b (off + 4) 6 (* hlen *);
  Wire.set_u8 b (off + 5) 4 (* plen *);
  Wire.set_u16 b (off + 6) (match p.operation with Request -> 1 | Reply -> 2);
  Wire.set_u48 b (off + 8) p.sender_mac;
  Wire.set_u32 b (off + 14) p.sender_ip;
  Wire.set_u48 b (off + 18) p.target_mac;
  Wire.set_u32 b (off + 24) p.target_ip;
  off + size

let read b off ~lim =
  Wire.need ~lim off size;
  if Wire.get_u16 b off <> 1 then Wire.fail "arp: bad htype";
  if Wire.get_u16 b (off + 2) <> Eth.ethertype_ipv4 then Wire.fail "arp: bad ptype";
  let operation =
    match Wire.get_u16 b (off + 6) with
    | 1 -> Request
    | 2 -> Reply
    | _ -> Wire.fail "arp: bad operation"
  in
  let sender_mac = Wire.get_u48 b (off + 8) in
  let sender_ip = Wire.get_u32 b (off + 14) in
  let target_mac = Wire.get_u48 b (off + 18) in
  let target_ip = Wire.get_u32 b (off + 24) in
  ({ operation; sender_mac; sender_ip; target_mac; target_ip }, off + size)
