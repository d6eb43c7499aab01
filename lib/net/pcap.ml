let magic = 0xa1b2c3d4
let linktype_ethernet = 1

(* ---------- writer ---------- *)

(* Little-endian serialization into a Buffer: byte-at-a-time appends,
   no intermediate Bytes copies on the capture path. *)
let add_u16le b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff))

let add_u32le b v =
  add_u16le b (v land 0xffff);
  add_u16le b ((v lsr 16) land 0xffff)

type writer = { buf : Buffer.t; mutable count : int }

let create_writer () =
  let buf = Buffer.create 4096 in
  add_u32le buf magic;
  add_u16le buf 2 (* version major *);
  add_u16le buf 4 (* version minor *);
  add_u32le buf 0 (* thiszone *);
  add_u32le buf 0 (* sigfigs *);
  add_u32le buf 65535 (* snaplen *);
  add_u32le buf linktype_ethernet;
  { buf; count = 0 }

let add_sub w ~ts_ns b off len =
  let sec = ts_ns / 1_000_000_000 in
  let usec = ts_ns mod 1_000_000_000 / 1000 in
  add_u32le w.buf sec;
  add_u32le w.buf usec;
  add_u32le w.buf len (* incl_len: we never truncate *);
  add_u32le w.buf len (* orig_len *);
  Buffer.add_subbytes w.buf b off len;
  w.count <- w.count + 1

let add w ~ts_ns frame =
  add_sub w ~ts_ns (Bytes.unsafe_of_string frame) 0 (String.length frame)

let add_frame w ~ts_ns frame =
  add_sub w ~ts_ns (Memory.Heap.data frame) (Memory.Heap.offset frame) (Memory.Heap.length frame)

let frames_written w = w.count
let contents w = Buffer.contents w.buf

let save w path =
  let oc = open_out_bin path in
  output_string oc (contents w);
  close_out oc

(* ---------- reader ---------- *)

type packet = { ts_ns : int; orig_len : int; frame : string }
type capture = { link_type : int; packets : packet list }

let u32le s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let u32be s off =
  Char.code s.[off + 3]
  lor (Char.code s.[off + 2] lsl 8)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off] lsl 24)

let parse s =
  let n = String.length s in
  if n < 24 then Error "pcap: truncated global header"
  else
    let m = u32le s 0 in
    let u32 =
      if m = magic then Some u32le else if u32be s 0 = magic then Some u32be else None
    in
    match u32 with
    | None -> Error (Printf.sprintf "pcap: bad magic 0x%08x" m)
    | Some u32 ->
        let link_type = u32 s 20 in
        let rec records off acc =
          if off = n then Ok { link_type; packets = List.rev acc }
          else if off + 16 > n then Error "pcap: truncated record header"
          else
            let sec = u32 s off in
            let usec = u32 s (off + 4) in
            let incl_len = u32 s (off + 8) in
            let orig_len = u32 s (off + 12) in
            if off + 16 + incl_len > n then Error "pcap: truncated record body"
            else
              let frame = String.sub s (off + 16) incl_len in
              let ts_ns = (sec * 1_000_000_000) + (usec * 1000) in
              records (off + 16 + incl_len) ({ ts_ns; orig_len; frame } :: acc)
        in
        records 24 []

(* ---------- fabric tap ---------- *)

type session = { wire : writer; lost : writer }

let tap fabric =
  let s = { wire = create_writer (); lost = create_writer () } in
  Fabric.set_tap fabric
    (Some
       {
         Fabric.tap_deliver = (fun ~ts frame -> add_frame s.wire ~ts_ns:ts frame);
         tap_drop = (fun ~ts ~reason:_ frame -> add_frame s.lost ~ts_ns:ts frame);
       });
  s

let untap fabric = Fabric.set_tap fabric None
