(* `bench -- scale`: how far does one simulated server stack scale in
   connection count? (PR 8; Demiflight instruments added in PR 9.)

   An open-loop Poisson/Zipf workload (Apps.Loadgen's schedule, §7.3's
   methodology) drives a TxnStore request handler behind one server
   stack from N concurrent TCP connections, N sweeping 10k → 100k → 1M.
   Like bench/wallclock.ml this measures the *host*: wall seconds and
   GC work (minor/major words) for the whole point, plus virtual-time
   latency quantiles measured from each request's scheduled arrival —
   queueing a coordinated client would hide lands in the tail.

   The world is the raw-stack mini-harness of wallclock.ml scaled out:
   one server stack plus ceil(N / 8192) client stacks (an ephemeral
   port range holds 16384 ports; half keeps churn reconnects clear of
   wraparound), joined by a constant-latency FIFO frame queue. Client
   connection state is indexed by [Stack.conn_slot] — the flat-TCB
   arena slot — so the driver's own demux is an array read, the same
   discipline Catnip uses.

   Honesty: each point is timed, and the sweep stops early when the
   projected next point would blow the wall budget (or allocation
   fails); the JSON record then shows the largest sustained point and
   the limiting factor instead of silently reporting a smaller sweep as
   complete. The gc-budget oracle stays armed throughout: steady polls
   (no frames, no arrivals, no timer work) must allocate zero minor
   words even with a million live TCBs.

   Demiflight (PR 9): latencies go into a Metrics.Hdr histogram —
   BENCH_pr8.json's 100k point reported p50 = p99 = 2015ns because
   the old 1/32-wide histogram swallowed the whole distribution body;
   Hdr's 1/128 buckets with rank interpolation resolve it. Each
   completion also carries an exact three-way attribution
   (queue = app-side delay from scheduled arrival to socket write,
   wire = the constant fabric latency both ways, rest = everything the
   stacks and server added), retained by a deterministic reservoir plus
   an exact slowest-64 list and aggregated into cumulative quantile
   bands — per-band queue+wire+rest = total, exactly. A flight ring
   (an Engine.Log) stays armed across the whole point (recording only on busy polls;
   record itself is allocation-free so the gc oracle's zero-budget
   steady polls are unaffected), and an SLO threshold counts breaches
   and pins the worst op in the ring.

   Demifleet (PR 10): every request frame carries the 16-byte causal
   context, so the server can stamp its reply-build instant against the
   request's id with no side channel and no extra wire bytes. Each
   band then reports a second exact decomposition — queue / to_srv /
   from_srv — locating tail time on the request leg vs the reply leg. *)

module Stack = Tcp.Stack
module Heap = Memory.Heap
module Loadgen = Apps.Loadgen

let conns_per_stack = 8192
let frame_latency = 1_000
let burst = 64

(* One cumulative latency-quantile band: exact virtual-ns sums over
   the ops retained at or above the band's cut. Two decompositions of
   the same total, both exact: {queue, wire, rest} (PR 9) and the
   per-hop {queue, to_srv, from_srv} (PR 10) cut at the server's reply
   build — the causal context every request frame carries since
   Demifleet lets the server stamp each op without a side channel. *)
type band = {
  band : string;
  cut_ns : int;
  band_ops : int;
  queue_ns : int;
  wire_ns : int;
  rest_ns : int;
  to_srv_ns : int; (* socket write -> server builds the reply *)
  from_srv_ns : int; (* server reply build -> client completion *)
  total_ns : int; (* = queue + wire + rest = queue + to_srv + from_srv *)
}

type point = {
  conns : int;
  client_stacks : int;
  ops : int;
  wall_s : float;
  gc_minor_words : float;
  gc_major_words : float;
  gc_alloc_mb : float;
  p50_ns : int;
  p90_ns : int;
  p99_ns : int;
  p999_ns : int;
  lat_min_ns : int;
  lat_max_ns : int;
  completed : int;
  reconnects : int;
  frames : int;
  polls : int;
  steady_polls : int;
  gc_poll_violations : int;
  conns_peak : int;
  tcb_capacity : int;
  pool_errors : int; (* canary + double-free + UAF across both ends *)
  bands : band list;
  retained : int; (* distinct ops behind the bands *)
  slo_threshold_ns : int;
  slo_breaches : int;
  slo_worst_ns : int;
  flight_total : int;
  flight_kept : int;
  flight_dropped : int;
  flight_digest : string;
}

(* One logical client connection: survives churn (the underlying
   Stack.conn is replaced), owns the open-loop bookkeeping. *)
type lconn = {
  stack_idx : int; (* which client stack, 0-based *)
  churn : bool;
  mutable conn : Stack.conn option;
  mutable can_send : bool; (* Established fired on the current conn *)
  mutable acc : Apps.Framing.accum;
  pending : (int * int * int) Queue.t;
      (* (at_ns, sent_ns, seq) of requests awaiting responses; seq is
         the causal req id stamped into the frame's context. *)
  backlog : (int * int * string) Queue.t; (* (at_ns, seq, framed) awaiting a conn *)
  mutable since_birth : int;
  mutable reconnect_pending : bool; (* queued on reconnect_q *)
}

(* A growable conn_slot-indexed table — the driver-side analogue of
   Catnip's by_conn array. *)
type 'a slots = { mutable cells : 'a option array }

let slots () = { cells = Array.make 64 None }

let slot_find s conn =
  let slot = Stack.conn_slot conn in
  if slot < 0 || slot >= Array.length s.cells then None else s.cells.(slot)

let slot_set s conn v =
  let slot = Stack.conn_slot conn in
  let len = Array.length s.cells in
  if slot >= len then begin
    let bigger = Array.make (max (slot + 1) (len * 2)) None in
    Array.blit s.cells 0 bigger 0 len;
    s.cells <- bigger
  end;
  s.cells.(slot) <- v

let pool_errors stack =
  match Memory.Pool.sanitizer_report (Stack.tcb_pool stack) with
  | Some r ->
      r.Memory.Pool.canary_violations + r.Memory.Pool.double_frees
      + r.Memory.Pool.uaf_accesses
  | None -> 0

let run_point ~conns:n ~ops_per_conn ~churn_fraction ~churn_after ~rate_per_conn ~keys
    ~value_size ?(slo_ns = 4_000) () =
  let m = (n + conns_per_stack - 1) / conns_per_stack in
  let clock = ref 0 in
  let frames = ref 0 in
  let polls = ref 0 in
  (* Constant latency: arrival order == send order, one FIFO for the
     whole world. Destination is decoded from the Ethernet dst MAC —
     [Mac.of_index i] puts i+1 in the low 16 bits, and stack position p
     carries index p+1, so position = low16 - 2. This routes ARP
     replies and IPv4 alike; ARP requests are broadcast (low16 =
     0xffff) and fan out to every stack, which is cheap because each
     pair resolves exactly once. *)
  let q : (int * string) Queue.t = Queue.create () in
  let mac_lo frame = (Char.code frame.[4] lsl 8) lor Char.code frame.[5] in
  let heaps = Array.init (m + 1) (fun _ -> Heap.create ~mode:Heap.Pool_backed ()) in
  (* Deferred app work: stack events fire synchronously inside [input],
     so handlers only record; the poll loop below does the API calls.
     Client queues carry the owning stack's position so completion state
     can be found by (stack, conn_slot). *)
  let established_q : (int * Stack.conn) Queue.t = Queue.create () in
  let readable_client_q : (int * Stack.conn) Queue.t = Queue.create () in
  let readable_server_q : Stack.conn Queue.t = Queue.create () in
  let accept_ready_q : Stack.listener Queue.t = Queue.create () in
  let reconnect_q : lconn Queue.t = Queue.create () in
  let client_slots : lconn slots array = Array.init m (fun _ -> slots ()) in
  let srv_accum : Apps.Framing.accum slots = slots () in
  let client_events j = function
    | Stack.Established c -> Queue.add (j, c) established_q
    | Stack.Readable c -> Queue.add (j, c) readable_client_q
    | Stack.Closed c | Stack.Reset c -> (
        (* Synchronous: the slot is still valid during the event; only
           bookkeeping here, no stack calls. A churned lconn has already
           moved to a fresh conn — only react if this close is for the
           lconn's *current* incarnation (a server-side close or RST). *)
        match slot_find client_slots.(j) c with
        | Some lc ->
            slot_set client_slots.(j) c None;
            let current = match lc.conn with Some c' -> c' == c | None -> false in
            if current then begin
              lc.conn <- None;
              lc.can_send <- false;
              if (not (Queue.is_empty lc.backlog)) && not lc.reconnect_pending then begin
                lc.reconnect_pending <- true;
                Queue.add lc reconnect_q
              end
            end
        | None -> ())
    | Stack.Accept_ready _ | Stack.Push_completed _ | Stack.Udp_readable _ -> ()
  in
  let server_events = function
    | Stack.Accept_ready l -> Queue.add l accept_ready_q
    | Stack.Readable c -> Queue.add c readable_server_q
    | Stack.Closed c | Stack.Reset c -> slot_set srv_accum c None
    | Stack.Established _ | Stack.Push_completed _ | Stack.Udp_readable _ -> ()
  in
  let mk_iface idx =
    Tcp.Iface.create
      ~mac:(Net.Addr.Mac.of_index idx)
      ~ip:(Net.Addr.Ip.of_index idx)
      ~clock:(fun () -> !clock)
      ~tx_frame:(fun f -> Queue.add (!clock + frame_latency, f) q)
      ()
  in
  let server =
    Stack.create ~iface:(mk_iface 1) ~heap:heaps.(0) ~prng:(Engine.Prng.create 11L)
      ~events:server_events ()
  in
  let client_stacks =
    Array.init m (fun j ->
        Stack.create ~iface:(mk_iface (j + 2)) ~heap:heaps.(j + 1)
          ~prng:(Engine.Prng.create (Int64.of_int (100 + j)))
          ~events:(client_events j) ())
  in
  let stacks = Array.append [| server |] client_stacks in
  let nstacks = Array.length stacks in
  let port = 7447 in
  let _listener = Stack.tcp_listen server ~port ~backlog:(n + 16) in
  let server_ep = Net.Addr.endpoint (Net.Addr.Ip.of_index 1) port in
  let store : (string, int * string) Hashtbl.t = Hashtbl.create 1024 in
  (* seq -> virtual time the server built the reply; written in
     drain_server from the frame's causal context, consumed (and
     removed) at client completion. *)
  let srv_time : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let prng = Engine.Prng.create 4242L in
  let rate_per_sec = float_of_int n *. rate_per_conn in
  let pl = Loadgen.plan ~prng ~rate_per_sec ~keys ~theta:0.99 ~get_ratio:0.5 ~start_ns:0 in
  let value = String.make value_size 'v' in
  let latencies = Metrics.Hdr.create () in
  (* Demiflight retention: a deterministic reservoir over every
     completion plus the exact slowest-64, keyed by completion sequence
     number so the two sets dedup cleanly. Samples are
     (latency, seq, queue_delay, to_srv). *)
  let resv =
    Metrics.Reservoir.create ~capacity:4096 ~prng:(Engine.Prng.create 0x5ca1e_f11eL)
  in
  let slow_k = 64 in
  let slowest = ref [] in
  let slow_n = ref 0 in
  let offer_slow ((lat, seq, _, _) as sample) =
    let rec insert = function
      | [] -> [ sample ]
      | ((l, s, _, _) as hd) :: tl ->
          if (lat, seq) < (l, s) then sample :: hd :: tl else hd :: insert tl
    in
    if !slow_n < slow_k then begin
      slowest := insert !slowest;
      incr slow_n
    end
    else
      match !slowest with
      | (l, _, _, _) :: tl when lat > l -> slowest := insert tl
      | _ -> ()
  in
  let flight = Engine.Log.create ~render:Engine.Log.operands ~capacity:8192 () in
  let slo_breaches = ref 0 in
  let slo_worst = ref 0 in
  let ops_total = n * ops_per_conn in
  let issued = ref 0 and completed = ref 0 and reconnects = ref 0 in
  let churn_stride =
    if churn_fraction <= 0. then 0 else max 1 (int_of_float (1. /. churn_fraction))
  in
  let lconns =
    Array.init n (fun i ->
        {
          stack_idx = i / conns_per_stack;
          churn = churn_stride > 0 && i mod churn_stride = 0;
          conn = None;
          can_send = false;
          acc = Apps.Framing.create ();
          pending = Queue.create ();
          backlog = Queue.create ();
          since_birth = 0;
          reconnect_pending = false;
        })
  in
  let open_conn lc =
    let c = Stack.tcp_connect client_stacks.(lc.stack_idx) ~dst:server_ep in
    lc.conn <- Some c;
    lc.can_send <- false;
    lc.reconnect_pending <- false;
    lc.acc <- Apps.Framing.create ();
    slot_set client_slots.(lc.stack_idx) c (Some lc)
  in
  let send_framed lc framed at seq =
    match lc.conn with
    | Some c when lc.can_send ->
        let heap = heaps.(lc.stack_idx + 1) in
        let buf = Heap.alloc_of_string heap framed in
        Stack.tcp_send c [ buf ];
        (* Zero-copy discipline: the stack holds per-segment refs; the
           app drops its own reference right after the push. *)
        Heap.free buf;
        (* sent_ns = the socket write; everything before it is app-side
           queueing (poll granularity, backlog, reconnect waits). *)
        Queue.add (at, !clock, seq) lc.pending
    | Some _ -> Queue.add (at, seq, framed) lc.backlog
    | None ->
        Queue.add (at, seq, framed) lc.backlog;
        if not lc.reconnect_pending then begin
          lc.reconnect_pending <- true;
          Queue.add lc reconnect_q
        end
  in
  let flush_backlog lc =
    while lc.can_send && not (Queue.is_empty lc.backlog) do
      let at, seq, framed = Queue.pop lc.backlog in
      send_framed lc framed at seq
    done
  in
  let rr = ref 0 in
  let issue_one () =
    let o = Loadgen.next pl in
    let lc = lconns.(!rr) in
    rr := (!rr + 1) mod n;
    let body =
      Loadgen.encode_request Loadgen.Txn ~kind:o.Loadgen.kind
        ~key:(Apps.Workload.key_name o.Loadgen.key)
        ~value
    in
    (* Stamp the causal context (req = msg = the global issue sequence,
       hop 1): the server reads it back from the decoded frame and
       timestamps its reply build against the same id — per-hop
       attribution with zero extra wire bytes, since every frame
       carries the 16-byte context anyway. *)
    let seq = !issued + 1 in
    send_framed lc
      (Apps.Framing.encode_ctx ~req:seq ~msg:seq ~parent:0 ~hop:1 body)
      o.Loadgen.at_ns seq;
    incr issued
  in
  let drain_client lc =
    match lc.conn with
    | None -> ()
    | Some c ->
        let rec recv () =
          match Stack.tcp_recv c with
          | `Data buf ->
              Apps.Framing.feed lc.acc (Heap.to_string buf);
              Heap.free buf;
              recv ()
          | `Eof | `Nothing -> ()
        in
        recv ();
        let rec extract () =
          match Apps.Framing.next lc.acc with
          | Some _response ->
              (match Queue.take_opt lc.pending with
              | Some (at, sent, seq) ->
                  let lat = !clock - at in
                  Metrics.Hdr.add latencies lat;
                  (* Exact per-op attribution: lat >= queue + wire by
                     construction (the request and response each spend
                     frame_latency in the FIFO after the write), so
                     rest = lat - queue - wire is the stacks' and
                     server's share and the three parts sum to lat.
                     The per-hop split uses the server's reply-build
                     stamp: queue + to_srv + from_srv = lat, also
                     exactly, for any stamp inside [sent, now]. *)
                  let srv =
                    match Hashtbl.find_opt srv_time seq with
                    | Some t -> t
                    | None -> sent + frame_latency (* unstamped: split at arrival *)
                  in
                  Hashtbl.remove srv_time seq;
                  let sample = (lat, !completed, sent - at, srv - sent) in
                  Metrics.Reservoir.offer resv sample;
                  offer_slow sample;
                  if lat > slo_ns then begin
                    incr slo_breaches;
                    if lat > !slo_worst then slo_worst := lat;
                    Engine.Log.event flight ~now:!clock ~category:Engine.Log.App
                      ~label:"slo.breach" ~owner:"" ~aux:"" lat (sent - at)
                  end;
                  incr completed;
                  lc.since_birth <- lc.since_birth + 1
              | None -> ());
              extract ()
          | None -> ()
        in
        extract ();
        if
          lc.churn
          && lc.since_birth >= churn_after
          && Queue.is_empty lc.pending
          && Stack.conn_state c = Stack.Established_st
        then begin
          (* Retire this incarnation and reconnect immediately — the
             old conn winds down through FIN/TIME_WAIT in the
             background while the replacement (a fresh arena slot)
             carries new requests, as a real churn client would. *)
          lc.since_birth <- 0;
          incr reconnects;
          Engine.Log.event flight ~now:!clock ~category:Engine.Log.Libos ~label:"reconnect"
            ~owner:"" ~aux:"" (Stack.conn_slot c) !reconnects;
          Stack.tcp_close c;
          open_conn lc
        end
  in
  let drain_server c =
    match slot_find srv_accum c with
    | None -> ()
    | Some acc ->
        let rec recv () =
          match Stack.tcp_recv c with
          | `Data buf ->
              Apps.Framing.feed acc (Heap.to_string buf);
              Heap.free buf;
              recv ()
          | `Eof -> if Stack.conn_state c = Stack.Close_wait then Stack.tcp_close c
          | `Nothing -> ()
        in
        recv ();
        let rec respond () =
          match Apps.Framing.next acc with
          | Some msg ->
              (* The request's causal context survives the decode; stamp
                 the reply-build instant against its req id. *)
              let ctx = Apps.Framing.last acc in
              if ctx.Apps.Framing.c_req <> 0 then
                Hashtbl.replace srv_time ctx.Apps.Framing.c_req !clock;
              let reply = Apps.Txnstore.handle_request ~store msg in
              (match Stack.conn_state c with
              | Stack.Established_st | Stack.Close_wait ->
                  let buf = Heap.alloc_of_string heaps.(0) (Apps.Framing.encode reply) in
                  Stack.tcp_send c [ buf ];
                  Heap.free buf
              | _ -> ());
              respond ()
          | None -> ()
        in
        respond ()
  in
  let app_work () =
    let worked = ref false in
    while not (Queue.is_empty accept_ready_q) do
      worked := true;
      let l = Queue.pop accept_ready_q in
      let rec accept_all () =
        match Stack.tcp_accept l with
        | Some c ->
            slot_set srv_accum c (Some (Apps.Framing.create ()));
            drain_server c;
            accept_all ()
        | None -> ()
      in
      accept_all ()
    done;
    while not (Queue.is_empty established_q) do
      worked := true;
      let j, c = Queue.pop established_q in
      match slot_find client_slots.(j) c with
      | Some lc ->
          lc.can_send <- true;
          flush_backlog lc
      | None -> ()
    done;
    while not (Queue.is_empty readable_client_q) do
      worked := true;
      let j, c = Queue.pop readable_client_q in
      match slot_find client_slots.(j) c with Some lc -> drain_client lc | None -> ()
    done;
    while not (Queue.is_empty readable_server_q) do
      worked := true;
      drain_server (Queue.pop readable_server_q)
    done;
    while not (Queue.is_empty reconnect_q) do
      worked := true;
      open_conn (Queue.pop reconnect_q)
    done;
    !worked
  in
  let gc_site = Memory.Gcbudget.site "scale.poll" in
  let run () =
    (* Open every long-lived connection up front: N SYNs hit the
       listener in bursts, the arena grows to its high-water mark. *)
    Array.iter open_conn lconns;
    let guard = ref (200 * n + 50_000_000) in
    let continue = ref true in
    while !continue do
      decr guard;
      if !guard = 0 then failwith "scale: no quiescence";
      incr polls;
      let activity0 = ref 0 in
      for i = 0 to nstacks - 1 do
        activity0 := !activity0 + Stack.timer_activity (Array.unsafe_get stacks i)
      done;
      Memory.Gcbudget.enter gc_site;
      (* Deliver one burst of due frames (the rx_burst analogue). *)
      let delivered = ref 0 in
      while
        !delivered < burst
        && (not (Queue.is_empty q))
        &&
        let at, _ = Queue.peek q in
        at <= !clock
      do
        let _, frame = Queue.pop q in
        let lo = mac_lo frame in
        if lo = 0xffff then
          for i = 0 to nstacks - 1 do
            Stack.input (Array.unsafe_get stacks i) frame
          done
        else Stack.input stacks.(lo - 2) frame;
        incr delivered;
        incr frames
      done;
      (* The burst marker rides the ring only when frames moved — a
         steady poll records nothing, so the ring's contents describe
         activity, and recording stays off the zero-alloc audit path
         anyway (Log.event allocates nothing). *)
      if !delivered > 0 then
        Engine.Log.event flight ~now:!clock ~category:Engine.Log.Device ~label:"rx.burst"
          ~owner:"" ~aux:"" !delivered (Queue.length q);
      (* Open-loop arrivals due at this instant. *)
      let issued_now = ref 0 in
      while !issued < ops_total && Loadgen.peek_at pl <= !clock do
        issue_one ();
        incr issued_now
      done;
      if !issued_now > 0 then
        Engine.Log.event flight ~now:!clock ~category:Engine.Log.App ~label:"arrivals"
          ~owner:"" ~aux:"" !issued_now !issued;
      (* Per-poll timer/ack work, as the Catnip fast path does it. *)
      for i = 0 to nstacks - 1 do
        let s = Array.unsafe_get stacks i in
        Stack.flush_acks s;
        Stack.on_timer s
      done;
      let activity1 = ref 0 in
      for i = 0 to nstacks - 1 do
        activity1 := !activity1 + Stack.timer_activity (Array.unsafe_get stacks i)
      done;
      if !delivered = 0 && !issued_now = 0 && !activity1 = !activity0 then
        Memory.Gcbudget.leave_steady gc_site
      else Memory.Gcbudget.leave_busy gc_site;
      let worked = app_work () in
      if (not worked) && !delivered = 0 && !issued_now = 0 then begin
        if !completed >= ops_total then continue := false
        else begin
          (* Nothing due now: park to the next frame arrival, timer
             deadline or scheduled send, whichever is first. *)
          let next_frame = if Queue.is_empty q then max_int else fst (Queue.peek q) in
          let next_arrival = if !issued < ops_total then Loadgen.peek_at pl else max_int in
          let t = ref (min next_frame next_arrival) in
          for i = 0 to nstacks - 1 do
            t := min !t (Stack.next_timer_ns (Array.unsafe_get stacks i))
          done;
          if !t = max_int then begin
            Printf.eprintf "scale: WARNING idle world with %d/%d ops completed\n%!"
              !completed ops_total;
            continue := false
          end
          else clock := max !clock !t
        end
      end
    done
  in
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  run ();
  let t1 = Unix.gettimeofday () in
  let gc1 = Gc.quick_stat () in
  let minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words in
  let major_words = gc1.Gc.major_words -. gc0.Gc.major_words in
  let site_stats =
    List.find_opt
      (fun s -> s.Memory.Gcbudget.site_name = "scale.poll")
      (Memory.Gcbudget.sites ())
  in
  let steady, violations =
    match site_stats with
    | Some s -> (s.Memory.Gcbudget.measured, s.Memory.Gcbudget.site_violations)
    | None -> (0, 0)
  in
  let errors = Array.fold_left (fun acc s -> acc + pool_errors s) 0 stacks in
  let stats = Stack.conn_stats server in
  (* Cumulative quantile bands over the retained ops. Within a band the
     three attribution parts sum to the total exactly: wire is the
     constant FIFO latency both ways and rest is defined as the
     remainder per op, before summation. *)
  let retained_ops = List.sort_uniq compare (Metrics.Reservoir.to_list resv @ !slowest) in
  let wire_per_op = 2 * frame_latency in
  let mk_band name cut =
    let in_band = List.filter (fun (lat, _, _, _) -> lat >= cut) retained_ops in
    let nops = List.length in_band in
    let queue = List.fold_left (fun acc (_, _, q, _) -> acc + q) 0 in_band in
    let to_srv = List.fold_left (fun acc (_, _, _, t) -> acc + t) 0 in_band in
    let total = List.fold_left (fun acc (lat, _, _, _) -> acc + lat) 0 in_band in
    let wire = nops * wire_per_op in
    {
      band = name;
      cut_ns = cut;
      band_ops = nops;
      queue_ns = queue;
      wire_ns = wire;
      rest_ns = total - queue - wire;
      to_srv_ns = to_srv;
      (* per-op from_srv = lat - queue - to_srv, so the band remainder
         is exactly the per-op sums. *)
      from_srv_ns = total - queue - to_srv;
      total_ns = total;
    }
  in
  let bands =
    [
      mk_band "all" (Metrics.Hdr.min latencies);
      mk_band "p90+" (Metrics.Hdr.quantile latencies 0.90);
      mk_band "p99+" (Metrics.Hdr.quantile latencies 0.99);
      mk_band "p99.9+" (Metrics.Hdr.quantile latencies 0.999);
    ]
  in
  {
    conns = n;
    client_stacks = m;
    ops = ops_total;
    wall_s = t1 -. t0;
    gc_minor_words = minor_words;
    gc_major_words = major_words;
    gc_alloc_mb = minor_words *. 8. /. 1_048_576.;
    p50_ns = Metrics.Hdr.p50 latencies;
    p90_ns = Metrics.Hdr.quantile latencies 0.90;
    p99_ns = Metrics.Hdr.p99 latencies;
    p999_ns = Metrics.Hdr.p999 latencies;
    lat_min_ns = Metrics.Hdr.min latencies;
    lat_max_ns = Metrics.Hdr.max latencies;
    completed = !completed;
    reconnects = !reconnects;
    frames = !frames;
    polls = !polls;
    steady_polls = steady;
    gc_poll_violations = violations;
    conns_peak = stats.Stack.peak;
    tcb_capacity = Memory.Pool.capacity (Stack.tcb_pool server);
    pool_errors = errors;
    bands;
    retained = List.length retained_ops;
    slo_threshold_ns = slo_ns;
    slo_breaches = !slo_breaches;
    slo_worst_ns = !slo_worst;
    flight_total = Engine.Log.total flight;
    flight_kept = Engine.Log.kept flight;
    flight_dropped = Engine.Log.dropped flight;
    flight_digest = Engine.Log.digest flight;
  }

(* ---------- churn comparison against the PR 6 record ----------

   BENCH_pr6.json's committed churn numbers (10k connections, this
   machine, pre-flat-TCB stack). Re-running wallclock.ml's own churn
   harness on the pooled stack quantifies the GC win the arena buys at
   the 10k point. *)

let pr6_churn_wall_s = 0.1883
let pr6_churn_gc_mb = 184.3

(* ---------- JSON emission + self-validation ---------- *)

let band_json b =
  Printf.sprintf
    {|{ "band": "%s", "cut_ns": %d, "ops": %d, "queue_ns": %d, "wire_ns": %d, "rest_ns": %d, "to_srv_ns": %d, "from_srv_ns": %d, "total_ns": %d }|}
    b.band b.cut_ns b.band_ops b.queue_ns b.wire_ns b.rest_ns b.to_srv_ns b.from_srv_ns
    b.total_ns

let point_json p =
  Printf.sprintf
    {|    { "conns": %d, "client_stacks": %d, "ops": %d, "completed": %d, "wall_s": %.4f, "gc_minor_words": %.0f, "gc_major_words": %.0f, "gc_alloc_mb": %.1f, "p50_ns": %d, "p90_ns": %d, "p99_ns": %d, "p999_ns": %d, "lat_min_ns": %d, "lat_max_ns": %d, "reconnects": %d, "frames": %d, "polls": %d, "steady_polls": %d, "gc_poll_violations": %d, "conns_peak": %d, "tcb_capacity": %d, "pool_errors": %d,
      "attribution": { "retained_ops": %d, "bands": [ %s ] },
      "slo": { "threshold_ns": %d, "breaches": %d, "worst_ns": %d },
      "flight": { "capacity": 8192, "total": %d, "kept": %d, "dropped": %d, "digest": "%s" } }|}
    p.conns p.client_stacks p.ops p.completed p.wall_s p.gc_minor_words p.gc_major_words
    p.gc_alloc_mb p.p50_ns p.p90_ns p.p99_ns p.p999_ns p.lat_min_ns p.lat_max_ns p.reconnects
    p.frames p.polls p.steady_polls p.gc_poll_violations p.conns_peak p.tcb_capacity
    p.pool_errors p.retained
    (String.concat ", " (List.map band_json p.bands))
    p.slo_threshold_ns p.slo_breaches p.slo_worst_ns p.flight_total p.flight_kept
    p.flight_dropped p.flight_digest

(* Minimal structural JSON check: balanced containers outside strings,
   sane escapes — enough to catch a malformed printf before the file is
   committed as a benchmark record. *)
let json_well_formed s =
  let depth = ref 0 and in_str = ref false and esc = ref false and ok = ref true in
  String.iter
    (fun ch ->
      if !esc then esc := false
      else if !in_str then begin
        if ch = '\\' then esc := true else if ch = '"' then in_str := false
      end
      else
        match ch with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

let required_keys =
  [
    "\"pr\"";
    "\"sweep\"";
    "\"attempted\"";
    "\"largest_sustained\"";
    "\"limiting_factor\"";
    "\"gc_poll_violations\"";
    "\"p999_ns\"";
    "\"p90_ns\"";
    "\"attribution\"";
    "\"bands\"";
    "\"to_srv_ns\"";
    "\"from_srv_ns\"";
    "\"slo\"";
    "\"flight\"";
    "\"churn_10k\"";
  ]

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

let validate_json path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let missing = List.filter (fun k -> not (contains_sub s k)) required_keys in
  if not (json_well_formed s) then begin
    Printf.eprintf "scale: %s is not well-formed JSON\n%!" path;
    exit 1
  end;
  if missing <> [] then begin
    Printf.eprintf "scale: %s is missing keys: %s\n%!" path (String.concat ", " missing);
    exit 1
  end;
  Printf.printf "scale: JSON schema OK (%s)\n%!" path

(* ---------- the sweep driver ---------- *)

let default_sweep = [ 10_000; 100_000; 1_000_000 ]
let quick_sweep = [ 1_000 ]

(* Wall budget for the whole sweep; a projected overrun stops the sweep
   and is recorded as the limiting factor rather than hidden. *)
let wall_budget_s = 150.

let run ~quick ?(pr = 10) ?out () =
  let out = match out with Some o -> o | None -> Printf.sprintf "BENCH_pr%d.json" pr in
  Memory.Gcbudget.set_armed true;
  let sweep = if quick then quick_sweep else default_sweep in
  let ops_per_conn = 6 in
  let churn_fraction = 0.1 in
  let churn_after = 3 in
  let rate_per_conn = 20_000. in
  let keys = 1024 in
  let value_size = 32 in
  let attempted = List.fold_left max 0 sweep in
  (* Churn comparison at the PR 6 point first, on a clean heap — the
     sweep's 100k/1M points leave the major heap big enough to skew a
     later measurement. Uses PR 6's own harness for comparability. *)
  let churn = Wallclock.churn ~conns:10_000 ~rounds:1 ~msg_size:64 () in
  Printf.printf "churn10k wall=%.3fs gc=%.1fMB (pr6: %.3fs %.1fMB)\n%!" churn.Wallclock.wall_s
    churn.Wallclock.gc_alloc_mb pr6_churn_wall_s pr6_churn_gc_mb;
  let points = ref [] in
  let limiting = ref "none" in
  let elapsed = ref 0. in
  let rec go = function
    | [] -> ()
    | n :: rest -> (
        let projected =
          match !points with
          | p :: _ when p.conns > 0 ->
              p.wall_s *. (float_of_int n /. float_of_int p.conns) *. 1.3
          | _ -> 0.
        in
        if !elapsed +. projected > wall_budget_s then
          limiting := "wall"
        else
          match
            Memory.Gcbudget.reset ();
            run_point ~conns:n ~ops_per_conn ~churn_fraction ~churn_after ~rate_per_conn
              ~keys ~value_size ()
          with
          | p ->
              elapsed := !elapsed +. p.wall_s;
              points := p :: !points;
              Printf.printf
                "scale conns=%d stacks=%d ops=%d wall=%.3fs gc=%.1fMB p50=%dns p90=%dns p99=%dns p999=%dns reconnects=%d peak=%d\n%!"
                p.conns p.client_stacks p.ops p.wall_s p.gc_alloc_mb p.p50_ns p.p90_ns
                p.p99_ns p.p999_ns p.reconnects p.conns_peak;
              Printf.printf "gc-budget scale steady_polls=%d violations=%d\n%!"
                p.steady_polls p.gc_poll_violations;
              Printf.printf "slo threshold=%dns breaches=%d worst=%dns; flight %d/%d kept\n%!"
                p.slo_threshold_ns p.slo_breaches p.slo_worst_ns p.flight_kept p.flight_total;
              List.iter
                (fun b ->
                  if b.queue_ns + b.wire_ns + b.rest_ns <> b.total_ns then begin
                    Printf.eprintf "scale: band %s attribution does not sum (conns=%d)\n%!"
                      b.band p.conns;
                    exit 1
                  end;
                  if b.queue_ns + b.to_srv_ns + b.from_srv_ns <> b.total_ns then begin
                    Printf.eprintf
                      "scale: band %s per-hop attribution does not sum (conns=%d)\n%!"
                      b.band p.conns;
                    exit 1
                  end;
                  Printf.printf
                    "  band %-7s cut=%dns ops=%d queue=%dns wire=%dns rest=%dns \
                     to_srv=%dns from_srv=%dns total=%dns\n\
                     %!"
                    b.band b.cut_ns b.band_ops b.queue_ns b.wire_ns b.rest_ns b.to_srv_ns
                    b.from_srv_ns b.total_ns)
                p.bands;
              go rest
          | exception Out_of_memory -> limiting := "memory")
  in
  go sweep;
  let points = List.rev !points in
  let largest = List.fold_left (fun acc p -> max acc p.conns) 0 points in
  let oc = open_out out in
  Printf.fprintf oc
    {|{
  "pr": %d,
  "mode": "%s",
  "workload": { "target": "txnstore", "ops_per_conn": %d, "rate_per_conn_per_sec": %.0f, "get_ratio": 0.5, "theta": 0.99, "keys": %d, "value_size": %d, "churn_fraction": %.2f, "churn_after_ops": %d, "frame_latency_ns": %d },
  "sweep": [
%s
  ],
  "attempted": %d,
  "largest_sustained": %d,
  "limiting_factor": "%s",
  "wall_budget_s": %.0f,
  "churn_10k": { "wall_s": %.4f, "gc_alloc_mb": %.1f, "pr6_wall_s": %.4f, "pr6_gc_mb": %.1f, "gc_reduction": %.2f, "speedup": %.2f }
}
|}
    pr
    (if quick then "quick" else "default")
    ops_per_conn rate_per_conn keys value_size churn_fraction churn_after frame_latency
    (String.concat ",\n" (List.map point_json points))
    attempted largest !limiting wall_budget_s churn.Wallclock.wall_s
    churn.Wallclock.gc_alloc_mb pr6_churn_wall_s pr6_churn_gc_mb
    (if churn.Wallclock.gc_alloc_mb > 0. then pr6_churn_gc_mb /. churn.Wallclock.gc_alloc_mb
     else 0.)
    (if churn.Wallclock.wall_s > 0. then pr6_churn_wall_s /. churn.Wallclock.wall_s else 0.);
  close_out oc;
  Printf.printf "wrote %s (largest_sustained=%d, limiting_factor=%s)\n%!" out largest
    !limiting;
  validate_json out;
  Memory.Gcbudget.set_armed false
