(* The benchmark's simulated worlds and the clients that load them.

   Every world is a real Boot assembly: hosts built by [Boot.make] on one
   [Fabric] with the bare-metal cost profile, running the library's own
   servers ([Apps.Echo.server], [Apps.Txnstore.server], [Apps.Dkv.server])
   unmodified. The clients are the benchmark's: they speak PDPIX and do
   O(1) work per completion however many connections are open — one
   receiver coroutine per connection waits on its own pop token, and one
   sender coroutine per client host walks a min-heap of per-connection
   Poisson schedules. [Apps.Loadgen.run] cannot be used: it rebuilds its
   whole token array on every wait, so the client, not the server, would
   dominate the connection-count workload.

   A rep runs in stages on one simulator: setup (build the world,
   establish every connection, preload) up to the fixed virtual instant
   [load_start]; the load phase, which ends when every request is settled;
   and, for the quorum workload, a verification stage that reads every
   key back from every replica. Only the load phase is timed for CPU and
   allocation. *)

open Demikernel

type proto = Echo | Kv | Txn

type open_loop = {
  proto : proto;
  client_hosts : int;
  conns : int;  (** over all client hosts *)
  requests : int;
      (** expected total: every connection sends on its own Poisson
          schedule over a virtual window of [requests / rate] seconds *)
  rate : float;  (** aggregate offered load, requests per virtual second *)
  size : int;  (** echo message bytes, or value bytes *)
  keys : int;
  get_frac : float;
  theta : float;  (** zipf skew; 0 = uniform keys *)
  churn_frac : float;  (** share of connections that reconnect once... *)
  churn_after : int;  (** ...after this many answered requests *)
}

type quorum = {
  clients : int;
  txns : int;  (** per client *)
  think_ns : float;  (** mean exponential pause between a client's transactions *)
  qkeys : int;
  qvalue : int;
  qtheta : float;
}

type shape = Open of open_loop | Quorum of quorum

type workload = { name : string; why : string; full : shape; smoke : shape }

let echo64 =
  {
    proto = Echo; client_hosts = 1; conns = 4; requests = 90_000; rate = 400_000.; size = 64;
    keys = 1; get_frac = 0.; theta = 0.; churn_frac = 0.; churn_after = 0;
  }

let txn_2kconn =
  {
    proto = Txn; client_hosts = 2; conns = 2048; requests = 12_288; rate = 400_000.; size = 32;
    keys = 1024; get_frac = 0.5; theta = 0.99; churn_frac = 0.1; churn_after = 3;
  }

let kv16k get_frac =
  {
    proto = Kv; client_hosts = 1; conns = 8; requests = 12_000; rate = 40_000.; size = 16_384;
    keys = 256; get_frac; theta = 0.; churn_frac = 0.; churn_after = 0;
  }

(* Without think time every transaction of this deterministic cost model
   takes the same path, and the latencies would not depend on the seed;
   the seeded pauses vary how the four clients collide at the replicas. *)
let quorum =
  { clients = 4; txns = 8_000; think_ns = 5_000.; qkeys = 200; qvalue = 700; qtheta = 0.99 }

(* Each [why] is one line of BENCHMARK.json; the smoke shapes are ~1%
   of the full ones, for the runtest rule. *)
let workloads =
  [
    {
      name = "echo64";
      why =
        "Catnip TCP echo, 64 B, 400 kreq/s open loop over 4 conns: per-packet work dominates, \
         app work is nil (the fig5/fig9 datapath)";
      full = Open echo64;
      smoke = Open { echo64 with requests = 900 };
    };
    {
      name = "txn_2kconn";
      why =
        "Txnstore on Catnip, 2048 conns (10% churn), 400 kreq/s: the server scans every token \
         per completion, so connection count is the input that matters";
      full = Open txn_2kconn;
      smoke = Open { txn_2kconn with conns = 64; requests = 384 };
    };
    {
      name = "kv16k_get";
      why =
        "Dkv on Catnip, 16 KiB values, 90% GET at 40 kreq/s: bytes-proportional transmit work \
         (zero-copy pushes, segmentation, client reassembly)";
      full = Open (kv16k 0.9);
      smoke = Open { (kv16k 0.9) with requests = 120 };
    };
    {
      name = "kv16k_set";
      why =
        "the same Dkv world at 90% SET: the receive direction (server reassembly, framing \
         accumulation, stored popped buffers)";
      full = Open (kv16k 0.1);
      smoke = Open { (kv16k 0.1) with requests = 120 };
    };
    {
      name = "txn_quorum_catmint";
      why =
        "YCSB-F over 3 Catmint Txnstore replicas, 4 closed-loop clients: RDMA transport that \
         bypasses tcp, the no-change control for TCP work";
      full = Quorum quorum;
      smoke = Quorum { quorum with txns = 80 };
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* ---------- shared rep state ---------- *)

let load_start = Engine.Clock.ms 500
let horizon = Engine.Clock.s 60

(* The load phase is timed in about this many slices of equal request
   counts (see [run]). *)
let slices = 128

type tally = {
  sim : Engine.Sim.t;
  mutable total : int;  (** requests attempted so far *)
  mutable issuing : int;  (** senders whose schedule is not exhausted *)
  mutable settled : int;  (** answered or failed *)
  mutable completed : int;
  mutable failed : int;
  mutable violations : int;
  mutable first_violation : string;
  mutable end_ns : int;
  lat : Metrics.Hdr.t;
  late : Metrics.Hdr.t;
  mutable ready : int;  (** connections and preloads finished during setup *)
  mutable verified : bool;
  slice : int;  (** settled requests per load-phase slice *)
  mutable sliced : bool;  (** the simulator stopped at a slice boundary *)
}

let violation t msg =
  t.violations <- t.violations + 1;
  if t.first_violation = "" then t.first_violation <- msg

(* The load phase ends at the instant the last request settles. *)
let maybe_end t =
  if t.issuing = 0 && t.settled = t.total then begin
    t.end_ns <- Engine.Sim.now t.sim;
    Engine.Sim.stop t.sim
  end

(* Every [slice] settled requests the simulator stops, so that [run] can
   read the CPU clock; it resumes at once. Stopping only ends the event
   loop between two events, so the virtual outputs are unchanged. *)
let settle t =
  t.settled <- t.settled + 1;
  if t.settled mod t.slice = 0 then begin
    t.sliced <- true;
    Engine.Sim.stop t.sim
  end;
  maybe_end t

let answered t ~latency =
  t.completed <- t.completed + 1;
  Metrics.Hdr.add t.lat latency;
  settle t

let fail t =
  t.failed <- t.failed + 1;
  settle t

(* ---------- value tags ----------

   Every stored value starts with a (key, writer, seq) tag. A read is
   correct iff its tag names the requested key and writer [w]'s write
   number [seq] was a write of that key — O(1) per check through the
   [ledger]. Preloaded values carry [preload_writer] and seq = key. *)

let preload_writer = 0xffff

type ledger = { keys_of : int array array; counts : int array }

let ledger writers = { keys_of = Array.make writers [||]; counts = Array.make writers 0 }

let note_write l ~writer ~key =
  let n = l.counts.(writer) in
  let row = l.keys_of.(writer) in
  if n >= Array.length row then begin
    let grown = Array.make (max 64 (2 * n)) 0 in
    Array.blit row 0 grown 0 n;
    l.keys_of.(writer) <- grown
  end;
  l.keys_of.(writer).(n) <- key;
  l.counts.(writer) <- n + 1;
  n

let write_tag b off ~key ~writer ~seq =
  Net.Wire.set_u32 b off key;
  Net.Wire.set_u16 b (off + 4) writer;
  Net.Wire.set_u32 b (off + 6) seq

let tag_ok l ~key ~size value =
  String.length value = size
  &&
  let b = Bytes.unsafe_of_string value in
  let k = Net.Wire.get_u32 b 0 and w = Net.Wire.get_u16 b 4 and s = Net.Wire.get_u32 b 6 in
  k = key
  && ((w = preload_writer && s = key)
     || (w < Array.length l.counts && s < l.counts.(w) && l.keys_of.(w).(s) = key))

let tagged_value ~size ~key ~writer ~seq =
  let b = Bytes.make size 'v' in
  write_tag b 0 ~key ~writer ~seq;
  Bytes.unsafe_to_string b

let key_str = Apps.Workload.key_name

(* ---------- PDPIX helpers ---------- *)

(* Sleep the calling coroutine until a virtual instant: PDPIX has no
   sleep, so wait with a timeout on a token that never completes. *)
let sleeper (api : Pdpix.api) =
  let never = api.Pdpix.pop (api.Pdpix.queue ()) in
  fun until ->
    let now = api.Pdpix.clock () in
    if until > now then ignore (api.Pdpix.wait_any_t [| never |] ~timeout_ns:(until - now))

(* A counting semaphore over an in-memory queue: a waiter pops, a
   releaser pushes an empty sga to hand its slot over. It paces
   handshakes so that the servers' listen backlog (64) never overflows. *)
type gate = { q : Pdpix.qd; mutable avail : int; mutable waiting : int }

let acquire (api : Pdpix.api) g =
  if g.avail > 0 then g.avail <- g.avail - 1
  else begin
    g.waiting <- g.waiting + 1;
    ignore (api.Pdpix.wait (api.Pdpix.pop g.q))
  end

let release (api : Pdpix.api) g =
  if g.waiting > 0 then begin
    g.waiting <- g.waiting - 1;
    ignore (api.Pdpix.wait (api.Pdpix.push g.q []))
  end
  else g.avail <- g.avail + 1

(* A refused or reset handshake is [None]: the caller counts its
   requests as failed instead of crashing the run. *)
let connect (api : Pdpix.api) g dst =
  acquire api g;
  let qd = api.Pdpix.socket Pdpix.Tcp in
  let r = match api.Pdpix.wait (api.Pdpix.connect qd dst) with Pdpix.Connected -> Some qd | _ -> None in
  release api g;
  r

(* A framed message written straight into the DMA heap — [u32 len][zero
   context][body], the body filled in place — so a 16 KiB value is never
   built as an OCaml string on the client. *)
let framed (api : Pdpix.api) body_len fill =
  let buf = api.Pdpix.alloc (Apps.Framing.hdr_size + body_len) in
  let b = Memory.Heap.data buf and off = Memory.Heap.offset buf in
  Net.Wire.set_u32 b off (Apps.Framing.ctx_size + body_len);
  Apps.Framing.write_ctx b (off + 4) ~req:0 ~msg:0 ~parent:0 ~hop:0;
  fill b (off + Apps.Framing.hdr_size);
  buf

(* ---------- the open-loop client ---------- *)

type op = Get | Set

type req = {
  sched : int;  (** scheduled send instant: latency is timed from here *)
  op : op;
  key : int;  (** the key, or the connection for echo *)
  seq : int;  (** the writer's write number (SET), or the message number (echo) *)
  mutable qt : Pdpix.qtoken;
  mutable buf : Memory.Heap.buffer option;
}

type conn = {
  id : int;
  mutable qd : Pdpix.qd;
  mutable live : bool;  (** false while reconnecting *)
  mutable dead : bool;  (** refused or reset: every later request fails *)
  mutable acc : Apps.Framing.accum;
  echo_acc : Buffer.t;
  pending : req Queue.t;  (** pushed, awaiting the reply, in send order *)
  deferred : req Queue.t;  (** fell due while reconnecting *)
  mutable sent : int;
  mutable settled : int;
  mutable answered : int;
  mutable exhausted : bool;  (** its schedule has left the window *)
  churn : bool;
  mutable churned : bool;
  gap : unit -> int;
}

let echo_payload ~conn ~seq size =
  String.init size (fun i ->
      if i < 4 then Char.chr ((conn lsr (8 * (3 - i))) land 0xff)
      else if i < 8 then Char.chr ((seq lsr (8 * (7 - i))) land 0xff)
      else Char.chr (97 + ((conn + (seq * 7) + i) mod 26)))

let request (api : Pdpix.api) spec ~writer ~version r =
  match (spec.proto, r.op) with
  | Echo, _ -> api.Pdpix.alloc_str (echo_payload ~conn:r.key ~seq:r.seq spec.size)
  | Kv, Get ->
      api.Pdpix.alloc_str
        (Apps.Framing.encode (Apps.Dkv.encode_command Apps.Dkv.Get ~key:(key_str r.key) ~value:""))
  | Txn, Get -> api.Pdpix.alloc_str (Apps.Framing.encode (Apps.Txnstore.encode_get (key_str r.key)))
  | (Kv | Txn), Set ->
      (* Dkv SET: [u8 2][u16 klen][key][value];
         Txnstore PUT: [u8 2][u16 klen][key][u32 version][value]. *)
      let key = key_str r.key in
      let klen = String.length key in
      let vhdr = if spec.proto = Txn then 4 else 0 in
      framed api (3 + klen + vhdr + spec.size) (fun b off ->
          Net.Wire.set_u8 b off 2;
          Net.Wire.set_u16 b (off + 1) klen;
          Bytes.blit_string key 0 b (off + 3) klen;
          if vhdr > 0 then Net.Wire.set_u32 b (off + 3 + klen) version;
          let v = off + 3 + klen + vhdr in
          Bytes.fill b v spec.size 'v';
          write_tag b v ~key:r.key ~writer ~seq:r.seq)

let reply_ok ledger spec r msg =
  match (spec.proto, r.op) with
  | Echo, _ -> String.equal msg (echo_payload ~conn:r.key ~seq:r.seq spec.size)
  | Kv, Get -> (
      match Apps.Dkv.parse_response msg with
      | Some (Apps.Dkv.Ok, v) -> tag_ok ledger ~key:r.key ~size:spec.size v
      | Some _ | None -> false)
  | Kv, Set -> Apps.Dkv.parse_response msg = Some (Apps.Dkv.Ok, "")
  | Txn, Get -> (
      match Apps.Txnstore.parse_get_response msg with
      | Some (_, v) -> tag_ok ledger ~key:r.key ~size:spec.size v
      | None -> false)
  | Txn, Set -> msg = "\x01"

(* Binary min-heap of host-local connection indices keyed by their next
   send instant; ties break by index so the order is seed-determined. *)
type sched_heap = { mutable n : int; at : int array; who : int array }

let heap_less h i j = h.at.(i) < h.at.(j) || (h.at.(i) = h.at.(j) && h.who.(i) < h.who.(j))

let heap_swap h i j =
  let ta = h.at.(i) and tw = h.who.(i) in
  h.at.(i) <- h.at.(j);
  h.who.(i) <- h.who.(j);
  h.at.(j) <- ta;
  h.who.(j) <- tw

let heap_push h at who =
  let rec up i =
    let p = (i - 1) / 2 in
    if i > 0 && heap_less h i p then begin
      heap_swap h i p;
      up p
    end
  in
  h.at.(h.n) <- at;
  h.who.(h.n) <- who;
  h.n <- h.n + 1;
  up (h.n - 1)

let heap_pop h =
  let who = h.who.(0) in
  h.n <- h.n - 1;
  heap_swap h 0 h.n;
  let rec down i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let m = if l < h.n && heap_less h l i then l else i in
    let m = if r < h.n && heap_less h r m then r else m in
    if m <> i then begin
      heap_swap h i m;
      down m
    end
  in
  down 0;
  who

type wraps = { client : Pdpix.api -> Pdpix.api; server : Pdpix.api -> Pdpix.api }

let open_loop_world ~sim ~fabric ~wraps ~seed ~tally ~nodes spec =
  let server = Boot.make sim fabric ~index:1 Boot.Catnip_os in
  nodes := [ server ];
  let port, serve =
    match spec.proto with
    | Echo -> (7, fun api -> Apps.Echo.server ~port:7 api)
    | Kv -> (6379, fun api -> Apps.Dkv.server ~port:6379 api)
    | Txn -> (7447, fun api -> Apps.Txnstore.server ~port:7447 api)
  in
  Boot.run_app server ~wrap:wraps.server serve;
  let dst = Boot.endpoint server port in
  let root = Engine.Prng.create (Int64.of_int (0x5eed + seed)) in
  let ledger = ledger spec.client_hosts in
  let next_version = ref 2 (* the preload writes version 1 *) in
  let preloaded = ref (spec.proto = Echo) in
  tally.issuing <- spec.client_hosts;
  let window_end =
    load_start + int_of_float (float_of_int spec.requests /. spec.rate *. 1e9)
  in
  (* Exactly [churn_frac] of the connections churn, chosen by the seed. *)
  let churning = Array.make spec.conns false in
  let perm = Array.init spec.conns Fun.id in
  for i = spec.conns - 1 downto 1 do
    let j = Engine.Prng.int root (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  for i = 0 to int_of_float (spec.churn_frac *. float_of_int spec.conns) - 1 do
    churning.(perm.(i)) <- true
  done;
  let per_conn_rate = spec.rate /. float_of_int spec.conns in
  let conns_per_host = spec.conns / spec.client_hosts in
  for h = 0 to spec.client_hosts - 1 do
    let node = Boot.make sim fabric ~index:(2 + h) Boot.Catnip_os in
    nodes := node :: !nodes;
    let host_prng = Engine.Prng.split root in
    let pick_key =
      if spec.theta > 0. then Apps.Workload.zipfian host_prng ~n:spec.keys ~theta:spec.theta
      else Apps.Workload.uniform host_prng ~n:spec.keys
    in
    let conns =
      Array.init conns_per_host (fun i ->
          let id = (h * conns_per_host) + i in
          {
            id; qd = -1; live = false; dead = false; acc = Apps.Framing.create ();
            echo_acc = Buffer.create 128; pending = Queue.create (); deferred = Queue.create ();
            sent = 0; settled = 0; answered = 0; exhausted = false; churn = churning.(id);
            churned = false;
            gap =
              Apps.Workload.poisson_interarrival (Engine.Prng.split root)
                ~rate_per_sec:per_conn_rate;
          })
    in
    (* One gate per client host, created by whichever coroutine first
       needs it; the hosts' windows sum to the backlog. *)
    let gate = ref None in
    let gate_of (api : Pdpix.api) =
      match !gate with
      | Some g -> g
      | None ->
          let g = { q = api.Pdpix.queue (); avail = 64 / spec.client_hosts; waiting = 0 } in
          gate := Some g;
          g
    in
    let fail_req c =
      c.settled <- c.settled + 1;
      fail tally
    in
    (* The run goes on, but every request of the connection fails and the
       loss is an output violation: no workload should lose one. *)
    let conn_lost c why =
      violation tally (Printf.sprintf "conn %d: %s" c.id why);
      c.dead <- true;
      c.live <- false;
      Queue.iter (fun _ -> fail_req c) c.pending;
      Queue.clear c.pending;
      Queue.iter (fun _ -> fail_req c) c.deferred;
      Queue.clear c.deferred
    in
    let issue (api : Pdpix.api) c r =
      let version =
        if spec.proto = Txn && r.op = Set then begin
          let v = !next_version in
          incr next_version;
          v
        end
        else 0
      in
      let buf = request api spec ~writer:h ~version r in
      r.qt <- api.Pdpix.push c.qd [ buf ];
      r.buf <- Some buf;
      Queue.add r c.pending
    in
    let complete (api : Pdpix.api) c r msg =
      let ok = reply_ok ledger spec r msg in
      (match api.Pdpix.wait r.qt with
      | Pdpix.Pushed -> ()
      | _ -> violation tally "a push failed after its reply arrived");
      Option.iter api.Pdpix.free r.buf;
      c.settled <- c.settled + 1;
      if ok then begin
        c.answered <- c.answered + 1;
        answered tally ~latency:(api.Pdpix.clock () - r.sched)
      end
      else begin
        violation tally (Printf.sprintf "conn %d: wrong reply to its request %d" c.id r.seq);
        fail tally
      end
    in
    let next_message c =
      match spec.proto with
      | Kv | Txn -> Apps.Framing.next c.acc
      | Echo ->
          if Buffer.length c.echo_acc < spec.size then None
          else begin
            let all = Buffer.contents c.echo_acc in
            Buffer.clear c.echo_acc;
            Buffer.add_substring c.echo_acc all spec.size (String.length all - spec.size);
            Some (String.sub all 0 spec.size)
          end
    in
    let rec drain api c =
      match next_message c with
      | None -> ()
      | Some msg ->
          (match Queue.take_opt c.pending with
          | Some r -> complete api c r msg
          | None -> violation tally (Printf.sprintf "conn %d: reply with no request" c.id));
          drain api c
    in
    (* Churn: once its quota of answers is in and nothing is in flight,
       the connection closes and reconnects through the same gate;
       requests falling due meanwhile wait in [deferred], still timed
       from their scheduled instant. *)
    let churn (api : Pdpix.api) c =
      c.churned <- true;
      c.live <- false;
      api.Pdpix.close c.qd;
      match connect api (gate_of api) dst with
      | Some qd ->
          c.qd <- qd;
          c.acc <- Apps.Framing.create ();
          c.live <- true;
          Queue.iter (issue api c) c.deferred;
          Queue.clear c.deferred
      | None -> conn_lost c "reconnect refused"
    in
    let receiver c (api : Pdpix.api) =
      (match connect api (gate_of api) dst with
      | Some qd ->
          c.qd <- qd;
          c.live <- true
      | None -> conn_lost c "connect refused");
      tally.ready <- tally.ready + 1;
      let rec loop () =
        if not (c.dead || (c.exhausted && c.settled = c.sent)) then
          match api.Pdpix.wait (api.Pdpix.pop c.qd) with
          | Pdpix.Popped (_ :: _ as sga) ->
              List.iter
                (fun b ->
                  let s = Memory.Heap.to_string b in
                  (match spec.proto with
                  | Echo -> Buffer.add_string c.echo_acc s
                  | Kv | Txn -> Apps.Framing.feed c.acc s);
                  api.Pdpix.free b)
                sga;
              drain api c;
              if c.churn && (not c.churned) && c.answered >= spec.churn_after
                 && Queue.is_empty c.pending && not c.exhausted
              then churn api c;
              loop ()
          | _ -> conn_lost c "reset"
      in
      loop ()
    in
    let sender (api : Pdpix.api) =
      let sleep_until = sleeper api in
      let heap = { n = 0; at = Array.make conns_per_host 0; who = Array.make conns_per_host 0 } in
      let schedule i c at = if at < window_end then heap_push heap at i else c.exhausted <- true in
      Array.iteri (fun i c -> schedule i c (load_start + c.gap ())) conns;
      sleep_until load_start;
      let rec loop () =
        if heap.n = 0 then begin
          tally.issuing <- tally.issuing - 1;
          maybe_end tally
        end
        else begin
          let at = heap.at.(0) and now = api.Pdpix.clock () in
          if at > now then sleep_until at
          else begin
            let i = heap_pop heap in
            let c = conns.(i) in
            Metrics.Hdr.add tally.late (now - at);
            let op, key, seq =
              match spec.proto with
              | Echo -> (Set, c.id, c.sent)
              | Kv | Txn ->
                  let op = if Engine.Prng.float host_prng < spec.get_frac then Get else Set in
                  let key = pick_key () in
                  (op, key, if op = Set then note_write ledger ~writer:h ~key else 0)
            in
            let r = { sched = at; op; key; seq; qt = 0; buf = None } in
            c.sent <- c.sent + 1;
            tally.total <- tally.total + 1;
            schedule i c (at + c.gap ());
            if c.dead then fail_req c
            else if not c.live then Queue.add r c.deferred
            else issue api c r
          end;
          loop ()
        end
      in
      loop ()
    in
    Array.iter (fun c -> Boot.run_app node ~wrap:wraps.client (receiver c)) conns;
    Boot.run_app node ~wrap:wraps.client sender;
    (* Preload every key once, over a connection of its own. *)
    if h = 0 && not !preloaded then
      Boot.run_app node ~wrap:wraps.client (fun api ->
          match connect api (gate_of api) dst with
          | None -> violation tally "the preload connection was refused"
          | Some qd ->
              let ch = Apps.Framing.chan_of_qd api qd in
              for key = 0 to spec.keys - 1 do
                let value = tagged_value ~size:spec.size ~key ~writer:preload_writer ~seq:key in
                let body, ack =
                  if spec.proto = Kv then
                    (Apps.Dkv.encode_command Apps.Dkv.Set ~key:(key_str key) ~value, "\x00")
                  else (Apps.Txnstore.encode_put (key_str key) ~version:1 value, "\x01")
                in
                Apps.Framing.send ch body;
                if Apps.Framing.recv ch <> Some ack then
                  violation tally "a preload write was not acknowledged"
              done;
              Apps.Framing.close ch;
              preloaded := true);
    Boot.start node
  done;
  Boot.start server;
  fun () -> !preloaded && tally.ready = spec.conns

(* ---------- the closed-loop quorum world ---------- *)

let quorum_world ~sim ~fabric ~wraps ~seed ~tally ~nodes q =
  let replicas =
    List.map
      (fun i ->
        let node = Boot.make sim fabric ~index:i Boot.Catmint_os in
        nodes := node :: !nodes;
        Boot.run_app node ~wrap:wraps.server (fun api -> Apps.Txnstore.server ~port:7447 api);
        Boot.start node;
        Boot.endpoint node 7447)
      [ 1; 2; 3 ]
  in
  let ledger = ledger q.clients in
  let root = Engine.Prng.create (Int64.of_int (0x9e37 + seed)) in
  tally.total <- q.clients * q.txns;
  let finished = ref 0 in
  let preloaded = ref false in
  (* After the load phase, every replica must hold the same version of
     every key: read each key from each replica over a connection of
     its own. *)
  let verify api =
    let versions =
      List.map
        (fun ep ->
          let c = Apps.Txnstore.connect api ~replicas:[ ep ] ~seed:0 in
          let vs =
            Array.init q.qkeys (fun key ->
                match Apps.Txnstore.get c (key_str key) with
                | Some (v, value) ->
                    if not (tag_ok ledger ~key ~size:q.qvalue value) then
                      violation tally (Printf.sprintf "replica value of key %d has a bad tag" key);
                    v
                | None ->
                    violation tally (Printf.sprintf "key %d missing from a replica" key);
                    -1)
          in
          Apps.Txnstore.close c;
          vs)
        replicas
    in
    (match versions with
    | first :: rest ->
        List.iter
          (fun vs -> if vs <> first then violation tally "replicas disagree on a key's version")
          rest
    | [] -> ());
    tally.verified <- true;
    Engine.Sim.stop sim
  in
  for i = 0 to q.clients - 1 do
    let node = Boot.make sim fabric ~index:(4 + i) Boot.Catmint_os in
    nodes := node :: !nodes;
    let prng = Engine.Prng.split root in
    let next_key = Apps.Workload.zipfian prng ~n:q.qkeys ~theta:q.qtheta in
    if i = 0 then
      Boot.run_app node ~wrap:wraps.client (fun api ->
          let c = Apps.Txnstore.connect api ~replicas ~seed:0 in
          for key = 0 to q.qkeys - 1 do
            Apps.Txnstore.put c (key_str key) ~version:1
              (tagged_value ~size:q.qvalue ~key ~writer:preload_writer ~seq:key)
          done;
          Apps.Txnstore.close c;
          preloaded := true);
    Boot.run_app node ~wrap:wraps.client (fun api ->
        let sleep_until = sleeper api in
        let c = Apps.Txnstore.connect api ~replicas ~seed:(seed + i) in
        tally.ready <- tally.ready + 1;
        sleep_until load_start;
        let settled = ref 0 in
        (try
           while !settled < q.txns do
             incr settled;
             let think = int_of_float (Engine.Prng.exponential prng q.think_ns) in
             sleep_until (api.Pdpix.clock () + think);
             let key = next_key () in
             let start = api.Pdpix.clock () in
             let ok = ref true in
             Apps.Txnstore.rmw c (key_str key) (fun old ->
                 ok := tag_ok ledger ~key ~size:q.qvalue old;
                 let seq = note_write ledger ~writer:i ~key in
                 tagged_value ~size:q.qvalue ~key ~writer:i ~seq);
             if !ok then answered tally ~latency:(api.Pdpix.clock () - start)
             else begin
               violation tally (Printf.sprintf "client %d read a bad tag for key %d" i key);
               fail tally
             end
           done
         with Failure why ->
           violation tally ("txnstore client: " ^ why);
           for _ = !settled to q.txns do
             fail tally
           done);
        incr finished;
        if !finished = q.clients then verify api);
    Boot.start node
  done;
  fun () -> !preloaded && tally.ready = q.clients

(* ---------- one rep ---------- *)

(* Load-phase counters: each is read at the start and at the end of the
   load phase, and a rep reports the difference. The PDPIX call counts
   and the span totals stay zero outside traced reps. *)
type counters = {
  mutable events : int;
  mutable frames : int;
  mutable wire_bytes : int;
  mutable heap_allocs : int;
  mutable copied_bytes : int;
  mutable retransmits : int;
  mutable switches : int;
  mutable pushes : int;
  mutable pops : int;
  mutable waits : int;
  mutable wait_sets : int;  (** wait_any* calls on server hosts *)
  mutable wait_tokens : int;  (** tokens passed to those calls *)
  mutable tap_frames : int;
  span_ns : int array;  (** per {!Engine.Span.components} *)
}

let zero () =
  {
    events = 0; frames = 0; wire_bytes = 0; heap_allocs = 0; copied_bytes = 0; retransmits = 0;
    switches = 0; pushes = 0; pops = 0; waits = 0; wait_sets = 0; wait_tokens = 0; tap_frames = 0;
    span_ns = Array.make (List.length Engine.Span.components) 0;
  }

(* The traced rep's [~wrap]: counts PDPIX calls on every host and the
   wait-set size of every server-side wait_any*. It never charges, so
   virtual time is untouched. *)
let counting k ~server (api : Pdpix.api) =
  let set n =
    k.waits <- k.waits + 1;
    if server then begin
      k.wait_sets <- k.wait_sets + 1;
      k.wait_tokens <- k.wait_tokens + n
    end
  in
  {
    api with
    Pdpix.push =
      (fun qd sga ->
        k.pushes <- k.pushes + 1;
        api.Pdpix.push qd sga);
    pop =
      (fun qd ->
        k.pops <- k.pops + 1;
        api.Pdpix.pop qd);
    wait =
      (fun qt ->
        k.waits <- k.waits + 1;
        api.Pdpix.wait qt);
    wait_any =
      (fun qts ->
        set (Array.length qts);
        api.Pdpix.wait_any qts);
    wait_any_t =
      (fun qts ~timeout_ns ->
        set (Array.length qts);
        api.Pdpix.wait_any_t qts ~timeout_ns);
    wait_all =
      (fun qts ->
        k.waits <- k.waits + 1;
        api.Pdpix.wait_all qts);
  }

type world = {
  sim : Engine.Sim.t;
  fabric : Net.Fabric.t;
  tally : tally;
  nodes : Boot.node list ref;
  live : counters;  (** the wrap's and the tap's running counts *)
  setup_done : unit -> bool;
  quorum_verify : bool;
}

let build ~traced ~seed shape =
  let sim = Engine.Sim.create ~seed:(Int64.of_int seed) () in
  let fabric = Net.Fabric.create sim ~cost:Net.Cost.bare_metal () in
  let live = zero () in
  let wraps =
    if traced then begin
      ignore (Engine.Sim.enable_spans sim);
      ignore (Engine.Sim.enable_flight sim);
      ignore (Engine.Sim.enable_causal sim);
      Net.Fabric.set_tap fabric
        (Some
           {
             Net.Fabric.tap_deliver = (fun ~ts:_ _ -> live.tap_frames <- live.tap_frames + 1);
             tap_drop = (fun ~ts:_ ~reason:_ _ -> ());
           });
      { client = counting live ~server:false; server = counting live ~server:true }
    end
    else { client = Fun.id; server = Fun.id }
  in
  let expected = match shape with Open s -> s.requests | Quorum q -> q.clients * q.txns in
  let tally =
    {
      sim; total = 0; issuing = 0; settled = 0; completed = 0; failed = 0; violations = 0;
      first_violation = ""; end_ns = 0; lat = Metrics.Hdr.create (); late = Metrics.Hdr.create ();
      ready = 0; verified = false; slice = max 1 (expected / slices); sliced = false;
    }
  in
  let nodes = ref [] in
  let setup_done, quorum_verify =
    match shape with
    | Open spec -> (open_loop_world ~sim ~fabric ~wraps ~seed ~tally ~nodes spec, false)
    | Quorum q -> (quorum_world ~sim ~fabric ~wraps ~seed ~tally ~nodes q, true)
  in
  { sim; fabric; tally; nodes; live; setup_done; quorum_verify }

let snapshot w =
  let c = zero () in
  let live = w.live in
  c.pushes <- live.pushes;
  c.pops <- live.pops;
  c.waits <- live.waits;
  c.wait_sets <- live.wait_sets;
  c.wait_tokens <- live.wait_tokens;
  c.tap_frames <- live.tap_frames;
  c.events <- Engine.Sim.events_processed w.sim;
  let f = Net.Fabric.stats w.fabric in
  c.frames <- f.Net.Fabric.frames_delivered;
  c.wire_bytes <- f.Net.Fabric.bytes_carried;
  List.iter
    (fun (n : Boot.node) ->
      let h = Memory.Heap.stats n.Boot.host.Host.heap in
      c.heap_allocs <- c.heap_allocs + h.Memory.Heap.allocations;
      c.copied_bytes <- c.copied_bytes + h.Memory.Heap.bytes_copied;
      c.switches <- c.switches + Dsched.context_switches (Runtime.sched n.Boot.rt);
      match n.Boot.catnip with
      | Some cn -> c.retransmits <- c.retransmits + Tcp.Stack.total_retransmits (Catnip.stack cn)
      | None -> ())
    !(w.nodes);
  (match Engine.Sim.spans w.sim with
  | Some s ->
      List.iteri (fun i comp -> c.span_ns.(i) <- Engine.Span.total s comp) Engine.Span.components
  | None -> ());
  c

let diff a b =
  {
    events = b.events - a.events;
    frames = b.frames - a.frames;
    wire_bytes = b.wire_bytes - a.wire_bytes;
    heap_allocs = b.heap_allocs - a.heap_allocs;
    copied_bytes = b.copied_bytes - a.copied_bytes;
    retransmits = b.retransmits - a.retransmits;
    switches = b.switches - a.switches;
    pushes = b.pushes - a.pushes;
    pops = b.pops - a.pops;
    waits = b.waits - a.waits;
    wait_sets = b.wait_sets - a.wait_sets;
    wait_tokens = b.wait_tokens - a.wait_tokens;
    tap_frames = b.tap_frames - a.tap_frames;
    span_ns = Array.mapi (fun i x -> x - a.span_ns.(i)) b.span_ns;
  }

type result = {
  traced : bool;
  setup_s : float;  (** process CPU (user + sys) of the setup stage *)
  load_s : float;  (** ... and of the load phase *)
  slice_s : float array;  (** the load phase's CPU, slice by slice *)
  attempted : int;
  completed : int;
  failed : int;
  violations : int;
  first_violation : string;
  minor_words : float;  (** during the load phase *)
  promoted_words : float;
  top_heap_words : int;  (** at the end of the rep process *)
  virt_ns : int;  (** virtual duration of the load phase *)
  lat : Metrics.Hdr.t;  (** latency samples, virtual ns *)
  late_p99_ns : int;  (** how late the senders issued, virtual *)
  digest : string;  (** latency buckets, quantiles, event and frame counts *)
  load : counters;
  conns_peak : int;
}

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let setup_stage w =
  Engine.Sim.run ~until:(load_start - 1) w.sim;
  if not (w.setup_done ()) then violation w.tally "setup did not finish before the load phase"

(* The CPU one setup stage costs, for the [setup_s] probe. *)
let setup_only ~seed shape =
  let t0 = cpu_s () in
  setup_stage (build ~traced:false ~seed shape);
  cpu_s () -. t0

(* The load phase runs slice by slice, reading the CPU clock at every
   boundary. Repeats of one world do the same work slice for slice, so a
   burst of load from another process on the machine shows as one slow
   slice of one rep, and the caller can set it aside. *)
let run ~traced ~seed shape =
  let t0 = cpu_s () in
  let w = build ~traced ~seed shape in
  setup_stage w;
  let t1 = cpu_s () in
  let tally = w.tally in
  let c0 = snapshot w in
  let minor0, promoted0, _ = Gc.counters () in
  let t2 = cpu_s () in
  let rec load acc t =
    tally.sliced <- false;
    Engine.Sim.run ~until:(load_start + horizon) w.sim;
    let t' = cpu_s () in
    let acc = (t' -. t) :: acc in
    if tally.sliced && tally.end_ns = 0 then load acc t' else (t', Array.of_list (List.rev acc))
  in
  let t3, slice_s = load [] t2 in
  let minor1, promoted1, _ = Gc.counters () in
  let load = diff c0 (snapshot w) in
  if tally.settled < tally.total then begin
    violation tally "requests left unanswered at the horizon";
    tally.failed <- tally.failed + (tally.total - tally.settled)
  end;
  if w.quorum_verify then begin
    Engine.Sim.run ~until:(tally.end_ns + horizon) w.sim;
    if not tally.verified then violation tally "replica verification did not finish"
  end;
  if traced && load.tap_frames <> load.frames then
    violation tally "the fabric tap saw a different frame count than the fabric";
  let late = Metrics.Hdr.p99 tally.late in
  let digest =
    let b = Buffer.create 4096 in
    List.iter (fun (ub, n) -> Printf.bprintf b "%d:%d," ub n) (Metrics.Hdr.to_buckets tally.lat);
    Printf.bprintf b "|%d|%d|%d|%d|%d|%d|%d|%d|%d" (Metrics.Hdr.sum tally.lat) late tally.end_ns
      load.events load.frames load.wire_bytes load.retransmits tally.completed tally.failed;
    String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16
  in
  {
    traced;
    setup_s = t1 -. t0;
    load_s = t3 -. t2;
    slice_s;
    attempted = tally.total;
    completed = tally.completed;
    failed = tally.failed;
    violations = tally.violations;
    first_violation = tally.first_violation;
    minor_words = minor1 -. minor0;
    promoted_words = promoted1 -. promoted0;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    virt_ns = tally.end_ns - load_start;
    lat = tally.lat;
    late_p99_ns = late;
    digest;
    load;
    conns_peak =
      List.fold_left
        (fun acc (n : Boot.node) ->
          match n.Boot.catnip with
          | Some cn -> max acc (Tcp.Stack.conn_stats (Catnip.stack cn)).Tcp.Stack.peak
          | None -> acc)
        0 !(w.nodes);
  }
