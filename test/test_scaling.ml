(* The scaling gate: the cost of one datapath operation must not grow
   with the size of an input the operation does not touch (§7's
   1M-connection framing of per-I/O cost). Each case boots two real
   [Boot] worlds that differ only in the size of one input, runs both
   past their setup, then alternates measured windows of the same
   operations between them:

   - events and words per window must be identical on both sides, rep
     by rep (both runs are deterministic, so any difference is work
     that depends on the input);
   - CPU per operation, the minimum over [reps] windows per side, may
     grow by at most [bound] times.

   The inputs:
   (A) idle connections: a second listener on the server accepts N
       connections that then sit with nothing outstanding, while one
       client connection echoes;
   (B) pending pops: the echo server holds N idle connections, each
       with a pop waiting in its [wait_any] set;
   (C) pushes queued behind a closed window: the peer accepts and never
       pops, and every connection holds a standing queue of segments
       behind its zero window while pushes join the tail. *)

open Demikernel

(* The tree reads at most about 2.2x (pending pops on Catmint, from
   the O(n) int-array passes behind [wait_any]'s lowest-ready-index
   rule); each allocation-free O(n) per-operation walk the gate was
   checked against read 8x or more, and the walks that allocate fail
   the words check first. *)
let bound = 3.0

let reps = 5

type side = { sim : Engine.Sim.t; windows : int ref }
type sample = { cpu : float; events : int; words : float }

(* Minor words only: they do not depend on when collections run, while
   [Gc.counters]' major-heap figures moved by 10^5 words between windows
   of identical work. *)
let words () = Gc.minor_words ()

(* Run [side] until its driver closes the next window. *)
let window side =
  let closed = !(side.windows) in
  let events = Engine.Sim.events_processed side.sim in
  let w = words () in
  let t = Sys.time () in
  Engine.Sim.run ~until:(Engine.Sim.now side.sim + Engine.Clock.s 10) side.sim;
  let cpu = Sys.time () -. t in
  let w = words () -. w in
  if !(side.windows) <> closed + 1 then Alcotest.fail "a measured window did not close";
  { cpu; events = Engine.Sim.events_processed side.sim - events; words = w }

(* The driver coroutine's side of [window]: close the current one. *)
let close_window side =
  incr side.windows;
  Engine.Sim.stop side.sim

let gate ~name ~per ~units ~small ~large =
  (* The first window is the setup: boot, handshakes, warm-up. *)
  ignore (window small : sample);
  ignore (window large : sample);
  let pairs =
    List.init reps (fun _ ->
        let s = window small in
        let l = window large in
        (s, l))
  in
  List.iteri
    (fun i (s, l) ->
      if s.events <> l.events then
        Alcotest.failf "%s, rep %d: %d events in a window of %d at the small size, %d at the large"
          name (i + 1) s.events units l.events;
      if s.words <> l.words then
        Alcotest.failf
          "%s, rep %d: %.0f minor words in a window of %d at the small size, %.0f at the large"
          name (i + 1) s.words units l.words)
    pairs;
  let best pick = List.fold_left (fun acc p -> Float.min acc (pick p)) infinity pairs in
  let us t = t *. 1e6 /. float_of_int units in
  let small_cpu = us (best (fun (s, _) -> s.cpu)) in
  let large_cpu = us (best (fun (_, l) -> l.cpu)) in
  let ratio = large_cpu /. small_cpu in
  Printf.printf "%s: %.2f us/%s small, %.2f us/%s large, ratio %.2f (bound %.1f)\n%!" name
    small_cpu per large_cpu per ratio bound;
  if ratio > bound then
    Alcotest.failf "%s: CPU per %s grew %.2fx (%.2f us -> %.2f us), bound %.1fx" name per ratio
      small_cpu large_cpu bound

(* ---------- world assembly ---------- *)

let boot ?tcp_config flavor =
  let sim = Engine.Sim.create () in
  let fabric = Net.Fabric.create sim ~cost:Net.Cost.bare_metal () in
  let server = Boot.make sim fabric ~index:1 ?tcp_config flavor in
  let client = Boot.make sim fabric ~index:2 flavor in
  (sim, server, client)

let listen (api : Pdpix.api) port =
  let lqd = api.socket Pdpix.Tcp in
  api.bind lqd (Net.Addr.endpoint 0 port);
  api.listen lqd ~backlog:64;
  lqd

(* Open [n] connections to [dst], 32 handshakes at a time (below every
   listener's backlog). *)
let connect_many (api : Pdpix.api) dst n =
  let rec batch left acc =
    if left = 0 then acc
    else
      let k = min left 32 in
      let qds = List.init k (fun _ -> api.socket Pdpix.Tcp) in
      let qts = List.map (fun qd -> api.connect qd dst) qds in
      List.iter
        (fun qt ->
          match api.wait qt with Pdpix.Connected -> () | _ -> Alcotest.fail "connect failed")
        qts;
      batch (left - k) (List.rev_append qds acc)
  in
  batch n []

(* [timer] is a token that never completes. *)
let sleep (api : Pdpix.api) timer ns =
  match api.wait_any_t [| timer |] ~timeout_ns:ns with
  | None -> ()
  | Some _ -> Alcotest.fail "the sleep token completed"

(* Sleep in 10 us steps until [cond] holds. *)
let rec sleep_until api timer cond =
  if not (cond ()) then begin
    sleep api timer 10_000;
    sleep_until api timer cond
  end

(* Accept connections on [port] forever, counting them; never pop. *)
let hold (api : Pdpix.api) ~port ~accepted =
  let lqd = listen api port in
  let rec loop () =
    match api.wait (api.accept lqd) with
    | Pdpix.Accepted _ ->
        incr accepted;
        loop ()
    | _ -> Alcotest.fail "accept failed"
  in
  loop ()

(* The echo server of [Apps.Echo], counting its accepts. *)
let echo_server (api : Pdpix.api) ~port ~accepted =
  Apps.Serve.run api ~name:"echo" (listen api port)
    ~conn:(fun qd ->
      incr accepted;
      qd)
    ~on_data:(fun qd ~op:_ sga ->
      match api.wait (api.push qd sga) with
      | Pdpix.Pushed | Pdpix.Failed _ -> List.iter api.free sga
      | _ -> Alcotest.fail "echo: unexpected push completion")

let warmup = 64
let echos = 256

(* One closed-loop echo client whose windows are [echos] echos each,
   after [warmup] echos that end the setup window. *)
let echo_windows side (api : Pdpix.api) dst =
  let n = ref 0 in
  Apps.Echo.client ~dst ~msg_size:64 ~count:max_int
    ~record:(fun _ ->
      incr n;
      if !n >= warmup && (!n - warmup) mod echos = 0 then close_window side)
    api

(* (A) and (B): [idle] connections to port 8 (held by a second
   listener) or to the echo port 7 itself (each then holds a pending
   pop in the server's wait set). *)
let echo_world flavor ~idle ~to_echo_port =
  let sim, server, client = boot flavor in
  let side = { sim; windows = ref 0 } in
  let accepted = ref 0 and held = ref 0 in
  Boot.run_app server ~name:"echo-server" (echo_server ~port:7 ~accepted);
  Boot.run_app server ~name:"holder" (hold ~port:8 ~accepted:held);
  Boot.run_app client ~name:"driver" (fun api ->
      let timer = api.Pdpix.pop (api.Pdpix.queue ()) in
      let port = if to_echo_port then 7 else 8 in
      ignore (connect_many api (Boot.endpoint server port) idle : Pdpix.qd list);
      sleep_until api timer (fun () -> (if to_echo_port then !accepted else !held) = idle);
      (* Past every handshake timer. *)
      sleep api timer 10_000_000;
      echo_windows side api (Boot.endpoint server 7));
  Boot.start server;
  Boot.start client;
  side

(* (C): every window pushes [per_conn] one-segment messages onto each of
   [conns] fresh connections, each of which already holds [depth]
   segments behind the peer's closed window. The standing queue is one
   push of [depth] views of a single buffer, so both sides grow the
   push-completion and token tables alike; only the unsent queue's
   depth differs. *)
let conns = 8
let per_conn = 64

let backlog_world ~depth =
  let rwnd = 4096 in
  let tcp_config = { Tcp.Stack.default_config with rwnd_capacity = rwnd; window_scale = 0 } in
  let sim, server, client = boot ~tcp_config Boot.Catnip_os in
  let side = { sim; windows = ref 0 } in
  let accepted = ref 0 in
  Boot.run_app server ~name:"holder" (hold ~port:9 ~accepted);
  Boot.run_app client ~name:"driver" (fun api ->
      let open Pdpix in
      let timer = api.pop (api.queue ()) in
      let groups =
        List.init (reps + 1) (fun _ -> connect_many api (Boot.endpoint server 9) conns)
      in
      let all = List.concat groups in
      (* Fill each peer's window; the acks close it. *)
      List.iter
        (fun qd ->
          match api.wait (api.push qd [ api.alloc_str (String.make rwnd 'f') ]) with
          | Pushed -> ()
          | _ -> Alcotest.fail "fill push failed")
        all;
      let seg = api.alloc_str "q" in
      List.iter (fun qd -> ignore (api.push qd (List.init depth (fun _ -> seg)) : qtoken)) all;
      (* Long enough for the acks that close each window, and short of
         the first zero-window probe (one minimum RTO, 1 ms): the
         receiver takes a probe's segment even into a closed window, so
         probing would drain the standing queue. *)
      sleep api timer 200_000;
      let payloads = Array.init (conns * per_conn) (fun _ -> api.alloc_str (String.make 64 'p')) in
      List.iter
        (fun group ->
          close_window side;
          let group = Array.of_list group in
          Array.iteri
            (fun i b -> ignore (api.push group.(i mod conns) [ b ] : qtoken))
            payloads)
        groups;
      close_window side);
  Boot.start server;
  Boot.start client;
  side

(* ---------- the cases ---------- *)

let idle_case flavor () =
  let name = Printf.sprintf "(A) %s idle connections 16 vs 4096" (Boot.flavor_name flavor) in
  gate ~name ~per:"echo" ~units:echos
    ~small:(echo_world flavor ~idle:16 ~to_echo_port:false)
    ~large:(echo_world flavor ~idle:4096 ~to_echo_port:false)

let pending_case flavor () =
  let name = Printf.sprintf "(B) %s pending pops 8 vs 2048" (Boot.flavor_name flavor) in
  gate ~name ~per:"echo" ~units:echos
    ~small:(echo_world flavor ~idle:8 ~to_echo_port:true)
    ~large:(echo_world flavor ~idle:2048 ~to_echo_port:true)

let backlog_case () =
  gate ~name:"(C) catnip queued segments 8 vs 2048" ~per:"push" ~units:(conns * per_conn)
    ~small:(backlog_world ~depth:8) ~large:(backlog_world ~depth:2048)

let suite =
  [
    Alcotest.test_case "idle connections (catnip)" `Quick (idle_case Boot.Catnip_os);
    Alcotest.test_case "idle connections (catnap)" `Quick (idle_case Boot.Catnap_os);
    Alcotest.test_case "idle connections (catmint)" `Quick (idle_case Boot.Catmint_os);
    Alcotest.test_case "pending pops (catnip)" `Quick (pending_case Boot.Catnip_os);
    Alcotest.test_case "pending pops (catmint)" `Quick (pending_case Boot.Catmint_os);
    Alcotest.test_case "queued pushes behind a closed window (catnip)" `Quick backlog_case;
  ]
