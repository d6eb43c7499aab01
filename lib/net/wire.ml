exception Malformed of string

let fail msg = raise (Malformed msg)

let need ~lim off n = if off < 0 || off + n > lim then fail "truncated"

(* Accessors ride the stdlib's single-load primitives
   (Bytes.get_uint16_be and friends compile to fixed-width loads plus a
   byte swap) instead of assembling words one Char.code at a time. They
   copy nothing, so they take [Stdlib.Bytes] itself rather than the
   library-wide [Engine.Copies.Bytes]: a dev build compiles that module
   opaque, and a call through it is not inlined and boxes every
   [int32]. *)

module Bytes = Stdlib.Bytes

let get_u8 b off = Bytes.get_uint8 b off
let set_u8 b off v = Bytes.set_uint8 b off (v land 0xff)
let get_u16 b off = Bytes.get_uint16_be b off
let set_u16 b off v = Bytes.set_uint16_be b off (v land 0xffff)
let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffff_ffff
let set_u32 b off v = Bytes.set_int32_be b off (Int32.of_int v)
let get_u48 b off = (get_u16 b off lsl 32) lor get_u32 b (off + 2)

let set_u48 b off v =
  set_u16 b off ((v lsr 32) land 0xffff);
  set_u32 b (off + 2) (v land 0xffff_ffff)

let fold_ones_complement sum =
  let rec fold s = if s > 0xffff then fold ((s land 0xffff) + (s lsr 16)) else s in
  fold sum

(* Word-wise ones'-complement sum: accumulate four big-endian 16-bit
   words per iteration (the accumulator has 63 bits of headroom, so
   carries cannot overflow before the final fold), then mop up the
   trailing words and the odd byte. Byte-for-byte compatible with the
   RFC 1071 byte-pair definition. *)
let checksum ~init b off len =
  let sum = ref init in
  let last = off + len in
  let i = ref off in
  while !i + 8 <= last do
    sum :=
      !sum
      + Bytes.get_uint16_be b !i
      + Bytes.get_uint16_be b (!i + 2)
      + Bytes.get_uint16_be b (!i + 4)
      + Bytes.get_uint16_be b (!i + 6);
    i := !i + 8
  done;
  while !i + 2 <= last do
    sum := !sum + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < last then sum := !sum + (Bytes.get_uint8 b !i lsl 8);
  lnot (fold_ones_complement !sum) land 0xffff

let pseudo_sum ~src ~dst ~proto ~len =
  ((src lsr 16) land 0xffff)
  + (src land 0xffff)
  + ((dst lsr 16) land 0xffff)
  + (dst land 0xffff)
  + proto + len
