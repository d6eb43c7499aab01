type t = {
  mac : Net.Addr.Mac.t;
  ip : Net.Addr.Ip.t;
  clock : unit -> int;
  frames : Memory.Heap.t; (* the heap every transmitted frame is allocated from *)
  tx_frame : Memory.Heap.buffer -> unit;
  mtu : int;
  arp_table : (Net.Addr.Ip.t, Net.Addr.Mac.t) Hashtbl.t;
  parked : (Net.Addr.Ip.t, parked_entry) Hashtbl.t;
  arp_retry_ns : int;
  mutable ip_id : int;
  (* Reassembly of fragmented datagrams, keyed by (src, id, proto). *)
  fragments : (Net.Addr.Ip.t * int * int, frag_entry) Hashtbl.t;
  (* Header views. [input] alone writes the RX pair, and each output
     fills and serializes the TX pair before [tx_frame] runs. *)
  eth_rx : Net.Eth.t;
  ip_rx : Net.Ipv4.t;
  eth_tx : Net.Eth.t;
  ip_tx : Net.Ipv4.t;
}

and parked_entry = {
  waiting : (Net.Addr.Mac.t -> unit) Queue.t;
  mutable last_request : int;
}

and frag_entry = {
  mutable pieces : (int * string) list; (* payload offset, bytes *)
  mutable total : int option; (* payload length, known from the last fragment *)
  born : int;
}

let max_frag_entries = 64

let create ?(arp_retry_ns = 1_000_000) ?(mtu = 1500) ~mac ~ip ~clock ~frames ~tx_frame () =
  {
    mac;
    ip;
    clock;
    frames;
    tx_frame;
    mtu;
    arp_table = Hashtbl.create 16;
    parked = Hashtbl.create 4;
    arp_retry_ns;
    ip_id = 1;
    fragments = Hashtbl.create 8;
    eth_rx = Net.Eth.create ();
    ip_rx = Net.Ipv4.create ();
    eth_tx = Net.Eth.create ();
    ip_tx = Net.Ipv4.create ();
  }

let mac t = t.mac
let ip t = t.ip
let clock t = t.clock ()

(* Allocate a [len]-byte frame and write its Ethernet header; the rest
   starts at [l3_off frame]. *)
let new_frame t len ~dst ~ethertype =
  let frame = Memory.Heap.alloc t.frames len in
  t.eth_tx.Net.Eth.dst <- dst;
  t.eth_tx.Net.Eth.src <- t.mac;
  t.eth_tx.Net.Eth.ethertype <- ethertype;
  ignore (Net.Eth.write (Memory.Heap.data frame) (Memory.Heap.offset frame) t.eth_tx : int);
  frame

let l3_off frame = Memory.Heap.offset frame + Net.Eth.size

let send_arp t operation ~target_mac ~target_ip ~dst =
  let frame = new_frame t (Net.Eth.size + Net.Arp.size) ~dst ~ethertype:Net.Eth.ethertype_arp in
  let _ =
    Net.Arp.write (Memory.Heap.data frame) (l3_off frame)
      { Net.Arp.operation; sender_mac = t.mac; sender_ip = t.ip; target_mac; target_ip }
  in
  t.tx_frame frame

let emit_fragment t ~dst_mac payload payload_off payload_len =
  let frame =
    new_frame t (Net.Eth.size + Net.Ipv4.size + payload_len) ~dst:dst_mac
      ~ethertype:Net.Eth.ethertype_ipv4
  in
  let b = Memory.Heap.data frame in
  let off = Net.Ipv4.write b (l3_off frame) t.ip_tx in
  (* Device DMA: the NIC gathers the payload into the wire frame; charged per frame
     through Net.Cost, not a host copy. *)
  Bytes.blit payload payload_off b off payload_len;
  t.tx_frame frame

let emit_ipv4 t ~dst_mac ~dst_ip ~protocol ~len ~write =
  let identification = t.ip_id land 0xffff in
  t.ip_id <- t.ip_id + 1;
  let payload_budget = t.mtu - Net.Ipv4.size in
  if len <= payload_budget then begin
    (* Common case: one frame, transport written in place. *)
    let frame =
      new_frame t (Net.Eth.size + Net.Ipv4.size + len) ~dst:dst_mac
        ~ethertype:Net.Eth.ethertype_ipv4
    in
    let b = Memory.Heap.data frame in
    Net.Ipv4.set t.ip_tx ~total_length:(Net.Ipv4.size + len) ~protocol ~src:t.ip ~dst:dst_ip
      ~identification ~more_fragments:false ~fragment_offset:0;
    let off = Net.Ipv4.write b (l3_off frame) t.ip_tx in
    write b off;
    t.tx_frame frame
  end
  else begin
    (* Fragment: build the whole transport payload once, slice it into
       8-byte-aligned MTU-sized pieces (RFC 791). *)
    let payload = Bytes.create len in
    write payload 0;
    let chunk = payload_budget land lnot 7 in
    let rec slice off =
      if off < len then begin
        let this = min chunk (len - off) in
        let more = off + this < len in
        (* Refilled per fragment: [tx_frame] may suspend between two. *)
        Net.Ipv4.set t.ip_tx ~total_length:(Net.Ipv4.size + this) ~protocol ~src:t.ip
          ~dst:dst_ip ~identification ~more_fragments:more ~fragment_offset:off;
        emit_fragment t ~dst_mac payload off this;
        slice (off + this)
      end
    in
    slice 0
  end

let output t ~dst_ip ~protocol ~len ~write =
  match Hashtbl.find t.arp_table dst_ip with
  | dst_mac -> emit_ipv4 t ~dst_mac ~dst_ip ~protocol ~len ~write
  | exception Not_found ->
      let entry =
        match Hashtbl.find_opt t.parked dst_ip with
        | Some entry ->
            (* Retry the request if the last one may have been lost. *)
            if t.clock () - entry.last_request >= t.arp_retry_ns then begin
              entry.last_request <- t.clock ();
              send_arp t Net.Arp.Request ~target_mac:0 ~target_ip:dst_ip
                ~dst:Net.Addr.Mac.broadcast
            end;
            entry
        | None ->
            let entry = { waiting = Queue.create (); last_request = t.clock () } in
            Hashtbl.replace t.parked dst_ip entry;
            send_arp t Net.Arp.Request ~target_mac:0 ~target_ip:dst_ip
              ~dst:Net.Addr.Mac.broadcast;
            entry
      in
      (* ARP miss: the frame can only be emitted when the reply lands,
         but [write] may read an app buffer whose push qtoken has
         already completed — ownership is back with the app the moment
         the caller returns, and the slab may be reused. Materialize
         the transport payload now so the parked thunk never touches
         app memory later. Cold path: only the first packet(s) to an
         unresolved destination ever park. *)
      let payload = Bytes.create len in
      write payload 0;
      Queue.add
        (fun dst_mac ->
          emit_ipv4 t ~dst_mac ~dst_ip ~protocol ~len ~write:(fun b off ->
              (* Device DMA, deferred: the frame parked for ARP gathers its staged payload
                 when the address resolves (cold path: only the first packets to an
                 unresolved destination park). *)
              Bytes.blit payload 0 b off len))
        entry.waiting

let learn t ~sender_ip ~sender_mac =
  Hashtbl.replace t.arp_table sender_ip sender_mac;
  match Hashtbl.find_opt t.parked sender_ip with
  | None -> ()
  | Some entry ->
      Hashtbl.remove t.parked sender_ip;
      Queue.iter (fun send -> send sender_mac) entry.waiting

(* Stash a fragment; return the reassembled transport payload once the
   datagram is complete. Partial datagrams are evicted LRU-ish when the
   table is full (the sender retries at a higher layer). *)
let offer_fragment t (header : Net.Ipv4.t) b off =
  let key = (header.Net.Ipv4.src, header.Net.Ipv4.identification, header.Net.Ipv4.protocol) in
  let entry =
    match Hashtbl.find_opt t.fragments key with
    | Some e -> e
    | None ->
        if Hashtbl.length t.fragments >= max_frag_entries then begin
          (* Evict the oldest partial datagram. *)
          (* Sorted fold so the eviction victim is deterministic even
             when several entries share a birth tick. *)
          let oldest =
            Engine.Det.hashtbl_fold_sorted ~compare:Stdlib.compare t.fragments
              (fun k e acc ->
                match acc with
                | Some (_, age) when age <= e.born -> acc
                | _ -> Some (k, e.born))
              None
          in
          match oldest with Some (k, _) -> Hashtbl.remove t.fragments k | None -> ()
        end;
        let e = { pieces = []; total = None; born = t.clock () } in
        Hashtbl.replace t.fragments key e;
        e
  in
  let this_len = header.Net.Ipv4.total_length - Net.Ipv4.size in
  (* Uncharged host copy of the simulator's representation: an IP fragment is held as a
     string until its datagram completes (fragment path only; whole-MTU traffic never
     fragments). *)
  let piece = Bytes.sub_string b off this_len in
  entry.pieces <- (header.Net.Ipv4.fragment_offset, piece) :: entry.pieces;
  if not header.Net.Ipv4.more_fragments then
    entry.total <- Some (header.Net.Ipv4.fragment_offset + this_len);
  match entry.total with
  | None -> None
  | Some total ->
      let have =
        List.fold_left (fun n (_, p) -> n + String.length p) 0 entry.pieces
      in
      if have < total then None
      else begin
        let out = Bytes.create total in
        List.iter
          (* Uncharged host copy of the simulator's representation: the held fragments are
             joined into one datagram (fragment path only). *)
          (fun (o, p) -> Bytes.blit_string p 0 out o (String.length p))
          entry.pieces;
        Hashtbl.remove t.fragments key;
        Some out
      end

let handle_arp t b off ~lim =
  match Net.Arp.read b off ~lim with
  | exception Net.Wire.Malformed _ -> ()
  | p, _ -> (
      match p.Net.Arp.operation with
      | Net.Arp.Request ->
          (* Learn the asker opportunistically, answer if it wants us. *)
          learn t ~sender_ip:p.Net.Arp.sender_ip ~sender_mac:p.Net.Arp.sender_mac;
          if p.Net.Arp.target_ip = t.ip then
            send_arp t Net.Arp.Reply ~target_mac:p.Net.Arp.sender_mac
              ~target_ip:p.Net.Arp.sender_ip ~dst:p.Net.Arp.sender_mac
      | Net.Arp.Reply -> learn t ~sender_ip:p.Net.Arp.sender_ip ~sender_mac:p.Net.Arp.sender_mac)

let input t frame ~deliver =
  let b = Memory.Heap.data frame in
  let lim = Memory.Heap.offset frame + Memory.Heap.length frame in
  let eth = t.eth_rx in
  match Net.Eth.read b (Memory.Heap.offset frame) ~lim eth with
  | exception Net.Wire.Malformed _ -> ()
  | off ->
      if eth.Net.Eth.dst <> t.mac && not (Net.Addr.Mac.is_broadcast eth.Net.Eth.dst) then ()
      else if eth.Net.Eth.ethertype = Net.Eth.ethertype_arp then handle_arp t b off ~lim
      else if eth.Net.Eth.ethertype = Net.Eth.ethertype_ipv4 then begin
        let header = t.ip_rx in
        match Net.Ipv4.read b off ~lim header with
        | exception Net.Wire.Malformed _ -> ()
        | transport_off ->
            if header.Net.Ipv4.dst = t.ip then begin
              (* Remember the sender's L2 address; saves a reverse ARP. *)
              Hashtbl.replace t.arp_table header.Net.Ipv4.src eth.Net.Eth.src;
              if header.Net.Ipv4.more_fragments || header.Net.Ipv4.fragment_offset > 0 then begin
                match offer_fragment t header b transport_off with
                | None -> ()
                | Some payload ->
                    (* Present the reassembled datagram as one packet. *)
                    Net.Ipv4.set header
                      ~total_length:(Net.Ipv4.size + Bytes.length payload)
                      ~protocol:header.Net.Ipv4.protocol ~src:header.Net.Ipv4.src
                      ~dst:header.Net.Ipv4.dst ~identification:header.Net.Ipv4.identification
                      ~more_fragments:false ~fragment_offset:0;
                    deliver header payload 0
              end
              else deliver header b transport_off
            end
      end
