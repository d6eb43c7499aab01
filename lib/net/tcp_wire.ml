let max_sack_blocks = 4

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
  mutable window : int;
  mutable mss : int;
  mutable window_scale : int;
  mutable has_ts : bool;
  mutable ts_val : int;
  mutable ts_ecr : int;
  mutable sack_permitted : bool;
  mutable sack_count : int;
  sack_edges : int array;
}

let clear_options h =
  h.mss <- -1;
  h.window_scale <- -1;
  h.has_ts <- false;
  h.ts_val <- 0;
  h.ts_ecr <- 0;
  h.sack_permitted <- false;
  h.sack_count <- 0

let set h ~src_port ~dst_port ~seq ~ack ~syn ~ack_flag ~fin ~rst ~psh ~window =
  h.src_port <- src_port;
  h.dst_port <- dst_port;
  h.seq <- seq;
  h.ack <- ack;
  h.syn <- syn;
  h.ack_flag <- ack_flag;
  h.fin <- fin;
  h.rst <- rst;
  h.psh <- psh;
  h.window <- window;
  clear_options h

let create () =
  {
    src_port = 0;
    dst_port = 0;
    seq = 0;
    ack = 0;
    syn = false;
    ack_flag = false;
    fin = false;
    rst = false;
    psh = false;
    window = 0;
    mss = -1;
    window_scale = -1;
    has_ts = false;
    ts_val = 0;
    ts_ecr = 0;
    sack_permitted = false;
    sack_count = 0;
    sack_edges = Array.make (2 * max_sack_blocks) 0;
  }

let options_size h =
  let raw =
    (if h.mss >= 0 then 4 else 0)
    + (if h.window_scale >= 0 then 3 else 0)
    + (if h.has_ts then 10 else 0)
    + (if h.sack_permitted then 2 else 0)
    + if h.sack_count > 0 then 2 + (8 * h.sack_count) else 0
  in
  (* Pad to a 32-bit boundary with NOPs. *)
  (raw + 3) land lnot 3

let header_size h = 20 + options_size h

let flags_byte h =
  (if h.fin then 0x01 else 0)
  lor (if h.syn then 0x02 else 0)
  lor (if h.rst then 0x04 else 0)
  lor (if h.psh then 0x08 else 0)
  lor if h.ack_flag then 0x10 else 0

(* The SACK loop is bounded by [max_sack_blocks]: a constant-size walk. *)
let write_options b off h =
  let pos = ref off in
  if h.mss >= 0 then begin
    Wire.set_u8 b !pos 2;
    Wire.set_u8 b (!pos + 1) 4;
    Wire.set_u16 b (!pos + 2) h.mss;
    pos := !pos + 4
  end;
  if h.window_scale >= 0 then begin
    Wire.set_u8 b !pos 3;
    Wire.set_u8 b (!pos + 1) 3;
    Wire.set_u8 b (!pos + 2) h.window_scale;
    pos := !pos + 3
  end;
  if h.has_ts then begin
    Wire.set_u8 b !pos 8;
    Wire.set_u8 b (!pos + 1) 10;
    Wire.set_u32 b (!pos + 2) h.ts_val;
    Wire.set_u32 b (!pos + 6) h.ts_ecr;
    pos := !pos + 10
  end;
  if h.sack_permitted then begin
    Wire.set_u8 b !pos 4;
    Wire.set_u8 b (!pos + 1) 2;
    pos := !pos + 2
  end;
  if h.sack_count > 0 then begin
    Wire.set_u8 b !pos 5;
    Wire.set_u8 b (!pos + 1) (2 + (8 * h.sack_count));
    pos := !pos + 2;
    for i = 0 to h.sack_count - 1 do
      Wire.set_u32 b !pos h.sack_edges.(2 * i);
      Wire.set_u32 b (!pos + 4) h.sack_edges.((2 * i) + 1);
      pos := !pos + 8
    done
  end;
  let target = off + options_size h in
  while !pos < target do
    Wire.set_u8 b !pos 1 (* NOP *);
    incr pos
  done;
  !pos

let write b off h ~payload_len ~src_ip ~dst_ip =
  let hsize = header_size h in
  (* The 4-bit data-offset field caps TCP headers at 60 bytes; callers
     must not combine options beyond that (RFC 2018 limits SACK to 3
     blocks alongside timestamps for exactly this reason). *)
  if hsize > 60 then invalid_arg "Tcp_wire.write: options exceed the 60-byte header limit";
  let seg_len = hsize + payload_len in
  Wire.need ~lim:(Bytes.length b) off seg_len;
  Wire.set_u16 b off h.src_port;
  Wire.set_u16 b (off + 2) h.dst_port;
  Wire.set_u32 b (off + 4) h.seq;
  Wire.set_u32 b (off + 8) h.ack;
  Wire.set_u8 b (off + 12) ((hsize / 4) lsl 4);
  Wire.set_u8 b (off + 13) (flags_byte h);
  Wire.set_u16 b (off + 14) h.window;
  Wire.set_u16 b (off + 16) 0 (* checksum *);
  Wire.set_u16 b (off + 18) 0 (* urgent *);
  let opt_end = write_options b (off + 20) h in
  assert (opt_end = off + hsize);
  let init = Wire.pseudo_sum ~src:src_ip ~dst:dst_ip ~proto:Ipv4.protocol_tcp ~len:seg_len in
  let csum = Wire.checksum ~init b off seg_len in
  Wire.set_u16 b (off + 16) csum;
  off + hsize

(* One option at [pos] (kind and length already checked against
   [limit]); a later option of a kind overrides an earlier one, and
   unknown options are skipped. *)
let read_option b pos kind len h =
  match kind with
  | 2 when len = 4 -> h.mss <- Wire.get_u16 b (pos + 2)
  | 3 when len = 3 -> h.window_scale <- Wire.get_u8 b (pos + 2)
  | 4 when len = 2 -> h.sack_permitted <- true
  | 5 when len >= 10 && (len - 2) mod 8 = 0 ->
      let nblocks = min max_sack_blocks ((len - 2) / 8) in
      for i = 0 to nblocks - 1 do
        h.sack_edges.(2 * i) <- Wire.get_u32 b (pos + 2 + (8 * i));
        h.sack_edges.((2 * i) + 1) <- Wire.get_u32 b (pos + 6 + (8 * i))
      done;
      h.sack_count <- nblocks
  | 8 when len = 10 ->
      h.has_ts <- true;
      h.ts_val <- Wire.get_u32 b (pos + 2);
      h.ts_ecr <- Wire.get_u32 b (pos + 6)
  | _ -> ()

let rec read_options b pos limit h =
  if pos < limit then
    match Wire.get_u8 b pos with
    | 0 (* end of options *) -> ()
    | 1 (* NOP *) -> read_options b (pos + 1) limit h
    | kind ->
        if pos + 1 >= limit then Wire.fail "tcp: truncated option";
        let len = Wire.get_u8 b (pos + 1) in
        if len < 2 || pos + len > limit then Wire.fail "tcp: bad option length";
        read_option b pos kind len h;
        read_options b (pos + len) limit h

let read b off ~lim h ~seg_len ~src_ip ~dst_ip =
  if seg_len < 20 then Wire.fail "tcp: segment too short";
  Wire.need ~lim off seg_len;
  let init = Wire.pseudo_sum ~src:src_ip ~dst:dst_ip ~proto:Ipv4.protocol_tcp ~len:seg_len in
  if Wire.checksum ~init b off seg_len <> 0 then Wire.fail "tcp: bad checksum";
  let data_off = (Wire.get_u8 b (off + 12) lsr 4) * 4 in
  if data_off < 20 || data_off > seg_len then Wire.fail "tcp: bad data offset";
  let flags = Wire.get_u8 b (off + 13) in
  h.src_port <- Wire.get_u16 b off;
  h.dst_port <- Wire.get_u16 b (off + 2);
  h.seq <- Wire.get_u32 b (off + 4);
  h.ack <- Wire.get_u32 b (off + 8);
  h.fin <- flags land 0x01 <> 0;
  h.syn <- flags land 0x02 <> 0;
  h.rst <- flags land 0x04 <> 0;
  h.psh <- flags land 0x08 <> 0;
  h.ack_flag <- flags land 0x10 <> 0;
  h.window <- Wire.get_u16 b (off + 14);
  clear_options h;
  read_options b (off + 20) (off + data_off) h;
  off + data_off
