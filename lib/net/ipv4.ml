type t = {
  mutable total_length : int;
  mutable identification : int;
  mutable ttl : int;
  mutable protocol : int;
  mutable src : Addr.Ip.t;
  mutable dst : Addr.Ip.t;
  mutable more_fragments : bool;
  mutable fragment_offset : int;
}

let create () =
  {
    total_length = 0;
    identification = 0;
    ttl = 0;
    protocol = 0;
    src = 0;
    dst = 0;
    more_fragments = false;
    fragment_offset = 0;
  }

let set h ~total_length ~protocol ~src ~dst ~identification ~more_fragments ~fragment_offset =
  h.total_length <- total_length;
  h.identification <- identification;
  h.ttl <- 64;
  h.protocol <- protocol;
  h.src <- src;
  h.dst <- dst;
  h.more_fragments <- more_fragments;
  h.fragment_offset <- fragment_offset

let size = 20
let protocol_udp = 17
let protocol_tcp = 6

let write b off h =
  Wire.need ~lim:(Bytes.length b) off size;
  Wire.set_u8 b off 0x45 (* v4, ihl 5 *);
  Wire.set_u8 b (off + 1) 0 (* dscp/ecn *);
  Wire.set_u16 b (off + 2) h.total_length;
  Wire.set_u16 b (off + 4) h.identification;
  assert (h.fragment_offset mod 8 = 0);
  Wire.set_u16 b (off + 6)
    ((if h.more_fragments then 0x2000 else 0) lor (h.fragment_offset / 8));
  Wire.set_u8 b (off + 8) h.ttl;
  Wire.set_u8 b (off + 9) h.protocol;
  Wire.set_u16 b (off + 10) 0;
  Wire.set_u32 b (off + 12) h.src;
  Wire.set_u32 b (off + 16) h.dst;
  let csum = Wire.checksum ~init:0 b off size in
  Wire.set_u16 b (off + 10) csum;
  off + size

let read b off ~lim h =
  Wire.need ~lim off size;
  let vi = Wire.get_u8 b off in
  if vi <> 0x45 then Wire.fail "ipv4: bad version/ihl";
  if Wire.checksum ~init:0 b off size <> 0 then Wire.fail "ipv4: bad checksum";
  let total_length = Wire.get_u16 b (off + 2) in
  if total_length < size then Wire.fail "ipv4: bad total length";
  Wire.need ~lim off total_length;
  let ttl = Wire.get_u8 b (off + 8) in
  if ttl = 0 then Wire.fail "ipv4: ttl expired";
  let frag = Wire.get_u16 b (off + 6) in
  h.total_length <- total_length;
  h.identification <- Wire.get_u16 b (off + 4);
  h.ttl <- ttl;
  h.protocol <- Wire.get_u8 b (off + 9);
  h.src <- Wire.get_u32 b (off + 12);
  h.dst <- Wire.get_u32 b (off + 16);
  h.more_fragments <- frag land 0x2000 <> 0;
  h.fragment_offset <- (frag land 0x1fff) * 8;
  off + size
