type t = { mutable dst : Addr.Mac.t; mutable src : Addr.Mac.t; mutable ethertype : int }

let create () = { dst = 0; src = 0; ethertype = 0 }
let size = 14
let ethertype_ipv4 = 0x0800
let ethertype_arp = 0x0806

let write b off h =
  Wire.need ~lim:(Bytes.length b) off size;
  Wire.set_u48 b off h.dst;
  Wire.set_u48 b (off + 6) h.src;
  Wire.set_u16 b (off + 12) h.ethertype;
  off + size

let read b off ~lim h =
  Wire.need ~lim off size;
  h.dst <- Wire.get_u48 b off;
  h.src <- Wire.get_u48 b (off + 6);
  h.ethertype <- Wire.get_u16 b (off + 12);
  off + size
