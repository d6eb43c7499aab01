type token_state = {
  mutable result : Pdpix.completion option;
  mutable waiter : Dsched.handle option; (* a [wait] blocked on this token alone *)
  mutable since : int; (* [waiter]'s registration stamp *)
}

(* A [wait_any] blocked on its token set. Registering costs one record
   per blocking call, whatever the size of [qts]. *)
type watcher = { who : Dsched.handle; qts : Pdpix.qtoken array; mutable stamp : int }

type memq = { items : Memory.Heap.buffer list Queue.t; pop_waiters : Pdpix.qtoken Queue.t }

type fp_slot = { mutable idle : bool }

type t = {
  host : Host.t;
  sched : Dsched.t;
  tokens : (Pdpix.qtoken, token_state) Hashtbl.t;
  mutable ready : Pdpix.qtoken array;
      (* The ready list: completed, unredeemed tokens in [0, nready),
         unordered. [complete] pushes, every redemption removes. *)
  mutable nready : int;
  mutable watchers : watcher list;
  mutable stamps : int; (* last registration stamp handed out *)
  memqs : (Pdpix.qd, memq) Hashtbl.t;
  mutable next_token : int;
  mutable next_qd : int;
  mutable fp_slots : fp_slot list;
  mutable io_signals : Engine.Condvar.t list;
  mutable timer_sources : (unit -> int) list; (* ns; max_int = none *)
  kick : Engine.Condvar.t;
      (* Wakes a parked host fiber for non-device events (coroutine
         timeouts). Always part of [io_signals]. *)
}

let create host =
  let kick = Engine.Condvar.create host.Host.sim in
  {
    host;
    sched = Dsched.create host;
    tokens = Hashtbl.create 64;
    ready = Array.make 16 0;
    nready = 0;
    watchers = [];
    stamps = 0;
    memqs = Hashtbl.create 8;
    next_token = 1;
    next_qd = 1;
    fp_slots = [];
    io_signals = [ kick ];
    timer_sources = [];
    kick;
  }

let host t = t.host
let sched t = t.sched

let fresh_token t =
  let qt = t.next_token in
  t.next_token <- t.next_token + 1;
  Hashtbl.replace t.tokens qt { result = None; waiter = None; since = 0 };
  (* Demitrace op span: opens at submission (every op mints its token at
     submission time), closes in [complete]. The kind is a placeholder
     until the PDPIX wrapper labels it — instantly-completed ops close
     before the wrapper even returns. *)
  (match Engine.Sim.spans t.host.Host.sim with
  | Some s ->
      Engine.Span.open_op s ~key:qt ~kind:"op" ~owner:t.host.Host.name
        ~now:(Host.now t.host)
  | None -> ());
  (* Demiflight: one allocation-free ring record per op submission. *)
  Engine.Sim.flight_note t.host.Host.sim ~cat:Engine.Log.Libos ~label:"qtoken.open" qt 0;
  qt

(* dlint-allow: transitive-alloc-in-hotpath -- qtoken redemption: runs once per completed operation (busy path); the Some from the table hit is per-op, not per-poll *)
let find_token t qt =
  match Hashtbl.find_opt t.tokens qt with
  | Some ts -> ts
  | None -> invalid_arg (Printf.sprintf "unknown or already-redeemed qtoken %d" qt)

let next_stamp t =
  t.stamps <- t.stamps + 1;
  t.stamps

(* --- the ready list --- *)

(* dlint-allow: transitive-alloc-in-hotpath -- the ready list doubles only past its high-water mark (a few dozen tokens), never per completion in steady state *)
let push_ready t qt =
  if t.nready = Array.length t.ready then begin
    let grown = Array.make (2 * t.nready) 0 in
    Array.blit t.ready 0 grown 0 t.nready;
    t.ready <- grown
  end;
  t.ready.(t.nready) <- qt;
  t.nready <- t.nready + 1

let rec drop_ready t qt j =
  if j < t.nready then
    if t.ready.(j) = qt then begin
      t.nready <- t.nready - 1;
      t.ready.(j) <- t.ready.(t.nready)
    end
    else drop_ready t qt (j + 1)

(* Lowest index of [qt] in [qts.(i) .. qts.(lim - 1)]; [lim] if absent. *)
let rec index_below (qts : Pdpix.qtoken array) (qt : Pdpix.qtoken) i lim =
  if i >= lim then lim else if qts.(i) = qt then i else index_below qts qt (i + 1) lim

(* Lowest index of [qts] holding a ready token; [best] if none lies
   below it. One pass over the int array per ready token, each bounded
   by the best index found so far. *)
let rec first_ready t qts j best =
  if j >= t.nready then best else first_ready t qts (j + 1) (index_below qts t.ready.(j) 0 best)

let retire t qt =
  Hashtbl.remove t.tokens qt;
  drop_ready t qt 0

let redeem t qt =
  let ts = find_token t qt in
  retire t qt;
  match ts.result with Some r -> r | None -> assert false

(* The one coroutine a completion wakes. Each token behaves as if it had
   a single waiter slot: the latest registrant holding it, whether a
   [wait] on it alone or a blocked [wait_any] whose set contains it. *)
let rec holder_stamp qt acc ws =
  match ws with
  | [] -> acc
  | w :: rest ->
      let acc =
        if w.stamp > acc && index_below w.qts qt 0 (Array.length w.qts) < Array.length w.qts
        then w.stamp
        else acc
      in
      holder_stamp qt acc rest

let rec wake_stamp t s ws =
  match ws with
  | [] -> ()
  | w :: rest -> if w.stamp = s then Dsched.wake t.sched w.who else wake_stamp t s rest

(* dlint-allow: transitive-alloc-in-hotpath -- completion delivery: the result option is allocated once per finished operation, a busy-path event, never on an empty poll *)
let complete t qt result =
  let ts = find_token t qt in
  assert (match ts.result with None -> true | Some _ -> false);
  ts.result <- Some result;
  push_ready t qt;
  (match Engine.Sim.spans t.host.Host.sim with
  | Some s ->
      let ok = match result with Pdpix.Failed _ -> false | _ -> true in
      Engine.Span.close_op s ~key:qt ~owner:t.host.Host.name ~now:(Host.now t.host) ~ok
  | None -> ());
  Engine.Sim.flight_note t.host.Host.sim ~cat:Engine.Log.Libos ~label:"qtoken.close" qt
    (match result with Pdpix.Failed _ -> 1 | _ -> 0);
  let s = holder_stamp qt 0 t.watchers in
  match ts.waiter with
  | Some h when ts.since > s -> Dsched.wake t.sched h
  | Some _ | None -> if s > 0 then wake_stamp t s t.watchers

let completed_token t result =
  let qt = fresh_token t in
  complete t qt result;
  qt

let fresh_qd t =
  let qd = t.next_qd in
  t.next_qd <- t.next_qd + 1;
  qd

(* --- wait family: the epoll replacement (§4.2). Each application
   worker blocks on its own coroutine readiness bit, so one completion
   wakes exactly one worker — no thundering herd. Readiness is pushed:
   [complete] appends to the ready list, so a [wait_any] never looks a
   token up, or writes to it, unless it redeems it. --- *)

(* The block/wake loop allocates only at the edges (registration on
   entry, result delivery on exit), never per wake: the waiter option
   is hoisted out of the loop and re-used across re-blocks. *)
(* dlint: hotpath *)
let wait t qt =
  let ts = find_token t qt in
  (* dlint-allow: alloc-in-hotpath -- one waiter registration per wait call, not per wake *)
  let me = Some (Dsched.self t.sched) in
  let rec loop () =
    match ts.result with
    | Some r ->
        retire t qt;
        r
    | None ->
        ts.waiter <- me;
        ts.since <- next_stamp t;
        Dsched.block t.sched;
        ts.waiter <- None;
        loop ()
  in
  loop ()

(* Conses only while two [wait_any]s are blocked at once; the usual
   one-watcher list unlinks without allocating. *)
let rec drop_watcher w ws =
  match ws with [] -> [] | x :: rest -> if x == w then rest else x :: drop_watcher w rest

(* Re-registering after every wake keeps this call the latest holder of
   its tokens, as rewriting every waiter slot did. *)
(* dlint: hotpath *)
let rec block_until_ready t w ~deadline =
  w.stamp <- next_stamp t;
  Dsched.block t.sched;
  let n = Array.length w.qts in
  let i = first_ready t w.qts 0 n in
  if i < n then i else if Host.now t.host >= deadline then -1 else block_until_ready t w ~deadline

(* The core both [wait_any]s share: the lowest index of [qts] whose
   token is ready, blocking until there is one; -1 once [deadline]
   passes first. Nothing is redeemed here. *)
(* dlint: hotpath *)
let wait_core t qts ~deadline =
  let n = Array.length qts in
  let i = first_ready t qts 0 n in
  if i < n then i
  else if Host.now t.host >= deadline then -1
  else begin
    (* dlint-allow: alloc-in-hotpath -- one watcher per blocking call, not per wake or per token *)
    let w = { who = Dsched.self t.sched; qts; stamp = 0 } in
    (* dlint-allow: alloc-in-hotpath -- one watcher per blocking call, not per wake or per token *)
    t.watchers <- w :: t.watchers;
    let i = block_until_ready t w ~deadline in
    t.watchers <- drop_watcher w t.watchers;
    i
  end

(* dlint: hotpath *)
let wait_any t qts =
  if Array.length qts = 0 then
    (* dlint-allow: alloc-in-hotpath -- error path, never taken per wake *)
    invalid_arg "wait_any: empty token set";
  let i = wait_core t qts ~deadline:max_int in
  (* dlint-allow: alloc-in-hotpath -- completion delivery, once per call *)
  (i, redeem t qts.(i))

(* dlint: hotpath *)
let wait_any_timeout t qts ~timeout_ns =
  if Array.length qts = 0 then
    (* dlint-allow: alloc-in-hotpath -- error path, never taken per wake *)
    invalid_arg "wait_any_timeout: empty token set";
  let deadline = Host.now t.host + timeout_ns in
  let me = Dsched.self t.sched in
  (* A timer event wakes us if nothing completes first; spurious wakes
     are harmless because we re-scan. *)
  (* dlint-allow: alloc-in-hotpath -- per-call setup: one cancel flag per call *)
  let cancelled = ref false in
  Engine.Sim.schedule t.host.Host.sim ~delay:timeout_ns
    (* dlint-allow: alloc-in-hotpath -- per-call setup: one timeout closure per call *)
    (fun () ->
      if not !cancelled then begin
        Dsched.wake t.sched me;
        (* The host fiber may be parked on device signals; kick it so the
           scheduler loop observes the readiness bit. *)
        Engine.Condvar.broadcast t.kick
      end);
  let i = wait_core t qts ~deadline in
  cancelled := true;
  (* dlint-allow: alloc-in-hotpath -- completion delivery, once per call *)
  if i < 0 then None else Some (i, redeem t qts.(i))

let wait_all t qts = Array.map (wait t) qts

(* --- in-memory queues --- *)

let memq_pop t q =
  match Queue.take_opt q.items with
  | Some sga -> completed_token t (Pdpix.Popped sga)
  | None ->
      let qt = fresh_token t in
      Queue.add qt q.pop_waiters;
      qt

let memq_push t q sga =
  (match Queue.take_opt q.pop_waiters with
  | Some waiting -> complete t waiting (Pdpix.Popped sga)
  | None -> Queue.add sga q.items);
  completed_token t Pdpix.Pushed

(* --- assembly --- *)

type ops = {
  op_name : string;
  op_owns : Pdpix.qd -> bool;
  op_socket : Pdpix.proto -> Pdpix.qd;
  op_bind : Pdpix.qd -> Net.Addr.endpoint -> unit;
  op_listen : Pdpix.qd -> int -> unit;
  op_accept : Pdpix.qd -> Pdpix.qtoken;
  op_connect : Pdpix.qd -> Net.Addr.endpoint -> Pdpix.qtoken;
  op_close : Pdpix.qd -> unit;
  op_push : Pdpix.qd -> Pdpix.sga -> Pdpix.qtoken;
  op_pushto : Pdpix.qd -> Net.Addr.endpoint -> Pdpix.sga -> Pdpix.qtoken;
  op_pop : Pdpix.qd -> Pdpix.qtoken;
  op_open_log : string -> Pdpix.qd;
  op_seek : Pdpix.qd -> int -> unit;
  op_truncate : Pdpix.qd -> int -> unit;
}

let unsupported what = raise (Pdpix.Unsupported what)

let combine ~net ~storage =
  let pick qd = if storage.op_owns qd then storage else net in
  {
    op_name = net.op_name ^ "x" ^ storage.op_name;
    op_owns = (fun qd -> net.op_owns qd || storage.op_owns qd);
    op_socket = net.op_socket;
    op_bind = net.op_bind;
    op_listen = net.op_listen;
    op_accept = net.op_accept;
    op_connect = net.op_connect;
    op_close = (fun qd -> (pick qd).op_close qd);
    op_push = (fun qd sga -> (pick qd).op_push qd sga);
    op_pushto = net.op_pushto;
    op_pop = (fun qd -> (pick qd).op_pop qd);
    op_open_log = storage.op_open_log;
    op_seek = (fun qd off -> (pick qd).op_seek qd off);
    op_truncate = (fun qd off -> (pick qd).op_truncate qd off);
  }

let make_api t ops =
  let libcall () = Host.charge t.host t.host.Host.cost.Net.Cost.libos_sched_ns in
  (* Label the op span minted for this call with the PDPIX op kind.
     [label_op] works on closed spans too, covering ops that complete
     inline. *)
  let labelled kind qt =
    (match Engine.Sim.spans t.host.Host.sim with
    | Some s -> Engine.Span.label_op s ~key:qt ~owner:t.host.Host.name kind
    | None -> ());
    qt
  in
  let with_memq qd ~memq ~other =
    match Hashtbl.find_opt t.memqs qd with Some q -> memq q | None -> other qd
  in
  {
    Pdpix.socket =
      (fun proto ->
        libcall ();
        ops.op_socket proto);
    bind = (fun qd ep -> libcall (); ops.op_bind qd ep);
    listen = (fun qd ~backlog -> libcall (); ops.op_listen qd backlog);
    accept = (fun qd -> libcall (); labelled "accept" (ops.op_accept qd));
    connect = (fun qd ep -> libcall (); labelled "connect" (ops.op_connect qd ep));
    close =
      (fun qd ->
        libcall ();
        with_memq qd ~memq:(fun _ -> Hashtbl.remove t.memqs qd) ~other:ops.op_close);
    queue =
      (fun () ->
        libcall ();
        let qd = fresh_qd t in
        Hashtbl.replace t.memqs qd { items = Queue.create (); pop_waiters = Queue.create () };
        qd);
    open_log = (fun path -> libcall (); ops.op_open_log path);
    seek = (fun qd off -> libcall (); ops.op_seek qd off);
    truncate = (fun qd off -> libcall (); ops.op_truncate qd off);
    push =
      (fun qd sga ->
        libcall ();
        labelled "push"
          (with_memq qd ~memq:(fun q -> memq_push t q sga) ~other:(fun qd -> ops.op_push qd sga)));
    pushto = (fun qd ep sga -> libcall (); labelled "pushto" (ops.op_pushto qd ep sga));
    pop =
      (fun qd ->
        libcall ();
        labelled "pop" (with_memq qd ~memq:(fun q -> memq_pop t q) ~other:ops.op_pop));
    wait = (fun qt -> libcall (); wait t qt);
    wait_any = (fun qts -> libcall (); wait_any t qts);
    wait_any_t = (fun qts ~timeout_ns -> libcall (); wait_any_timeout t qts ~timeout_ns);
    wait_all = (fun qts -> libcall (); wait_all t qts);
    yield = (fun () -> Dsched.yield t.sched);
    spin = (fun ns -> Host.charge_as t.host Engine.Span.App ns);
    alloc =
      (fun size ->
        Host.charge t.host t.host.Host.cost.Net.Cost.alloc_ns;
        Memory.Heap.alloc t.host.Host.heap size);
    alloc_str =
      (fun s ->
        Host.charge t.host t.host.Host.cost.Net.Cost.alloc_ns;
        Memory.Heap.alloc_of_string t.host.Host.heap s);
    free = Memory.Heap.free;
    clock = (fun () -> Host.now t.host);
    libos_name = ops.op_name;
    host_name = t.host.Host.name;
    causal = (fun () -> Engine.Sim.causal t.host.Host.sim);
  }

let new_fp_slot t =
  let slot = { idle = false } in
  t.fp_slots <- slot :: t.fp_slots;
  slot

let fp_busy slot = slot.idle <- false

let register_io_signal t cv = t.io_signals <- cv :: t.io_signals

let register_timer_source t fn = t.timer_sources <- fn :: t.timer_sources

(* Earliest deadline over every registered source; [max_int] = none.
   Int-based so per-poll deadline peeks allocate nothing. *)
let next_deadline_ns t =
  List.fold_left
    (fun acc fn ->
      let d = fn () in
      if d < acc then d else acc)
    max_int t.timer_sources

(* dlint-allow: transitive-alloc-in-hotpath scan-in-hotpath -- the park decision is the idle transition out of the poll loop, and fp_slots is the fixed set of fast-path pollers (a handful), not a connection-scaled table *)
let maybe_park t slot =
  slot.idle <- true;
  if Dsched.runnable_apps t.sched || Dsched.has_pending_wakes t.sched then false
  else if List.exists (fun s -> not s.idle) t.fp_slots then false
  else begin
    let timeout =
      match next_deadline_ns t with
      | d when d = max_int -> None
      | deadline -> Some (max 0 (deadline - Host.now t.host))
    in
    let _ = Engine.Condvar.wait_many t.host.Host.sim t.io_signals ~timeout in
    Host.charge t.host t.host.Host.cost.Net.Cost.libos_poll_ns;
    (* We don't know which device signalled: force one poll round of
       every fast path before anyone may park again, otherwise this
       coroutine could re-park ahead of the one whose completion just
       arrived. *)
    List.iter (fun s -> s.idle <- false) t.fp_slots;
    true
  end

let spawn_app t ?(name = "app") main api =
  ignore (Dsched.spawn t.sched Dsched.App ~name (fun () -> main api))

let start t =
  Engine.Fiber.spawn t.host.Host.sim ~name:t.host.Host.name (fun () -> Dsched.run t.sched)
