(* The result of a token not yet completed; no completion is physically
   this one. *)
let unfinished = Pdpix.Failed "unfinished"

(* The token table: every minted, unredeemed qtoken, in one
   open-addressed table keyed by the qtoken int (linear probing,
   backward-shift deletion, so no tombstones), its slots held in
   parallel arrays. Minting, completing and redeeming a token allocate
   nothing once the arrays have grown to the peak of live tokens. A slot
   moves when a redemption shifts its cluster back or the table grows,
   so callers hold a qtoken across a block, never a slot index. *)
type tokens = {
  mutable keys : Pdpix.qtoken array; (* 0 = empty; qtokens start at 1 *)
  mutable results : Pdpix.completion array; (* [unfinished] until [complete] *)
  mutable waiters : Dsched.handle array;
      (* a [wait] blocked on this token alone; [Dsched.nobody] if none *)
  mutable since : int array; (* the waiter's registration stamp *)
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  mutable live : int;
}

let tokens_create cap =
  {
    keys = Array.make cap 0;
    results = Array.make cap unfinished;
    waiters = Array.make cap Dsched.nobody;
    since = Array.make cap 0;
    mask = cap - 1;
    live = 0;
  }

(* Qtokens are minted in sequence, so the home slot mixes the bits:
   tokens minted together and held together (a burst of pops) scatter
   instead of forming one long probe cluster. *)
let home tb qt =
  let h = qt * 0x2545_F491_4F6C_DD1D in
  (h lxor (h lsr 29)) land tb.mask

let rec free_slot tb i = if tb.keys.(i) = 0 then i else free_slot tb ((i + 1) land tb.mask)

let place tb i qt result waiter since =
  tb.keys.(i) <- qt;
  tb.results.(i) <- result;
  tb.waiters.(i) <- waiter;
  tb.since.(i) <- since

let grow_tokens tb =
  let keys = tb.keys and results = tb.results and waiters = tb.waiters and since = tb.since in
  let cap = 2 * Array.length keys in
  tb.keys <- Array.make cap 0;
  tb.results <- Array.make cap unfinished;
  tb.waiters <- Array.make cap Dsched.nobody;
  tb.since <- Array.make cap 0;
  tb.mask <- cap - 1;
  Array.iteri
    (fun i qt ->
      if qt <> 0 then place tb (free_slot tb (home tb qt)) qt results.(i) waiters.(i) since.(i))
    keys

let add_token tb qt =
  if 2 * (tb.live + 1) > Array.length tb.keys then grow_tokens tb;
  place tb (free_slot tb (home tb qt)) qt unfinished Dsched.nobody 0;
  tb.live <- tb.live + 1

(* The slot of [qt], or -1. *)
let rec probe tb qt i =
  let k = tb.keys.(i) in
  if k = 0 then -1 else if k = qt then i else probe tb qt ((i + 1) land tb.mask)

(* Empty slot [hole], then pull back every later entry of its cluster
   that may sit there: one whose home is not cyclically in
   [(hole, j\]]. *)
let rec shift_back tb hole j =
  let j = (j + 1) land tb.mask in
  let qt = tb.keys.(j) in
  if qt = 0 then place tb hole 0 unfinished Dsched.nobody 0
  else if (j - home tb qt) land tb.mask >= (j - hole) land tb.mask then begin
    place tb hole qt tb.results.(j) tb.waiters.(j) tb.since.(j);
    shift_back tb j j
  end
  else shift_back tb hole j

let remove_slot tb i =
  shift_back tb i i;
  tb.live <- tb.live - 1

(* A [wait_any] blocked on its token set. Registering costs one record
   per blocking call, whatever the size of [qts]. *)
type watcher = { who : Dsched.handle; qts : Pdpix.qtoken array; mutable stamp : int }

type fp_slot = { mutable idle : bool }

type log = {
  append : Pdpix.sga -> Pdpix.qtoken;
  read : unit -> Pdpix.qtoken;
  seek : int -> unit;
  truncate : (int -> unit) option;
}

type t = {
  host : Host.t;
  sched : Dsched.t;
  tokens : tokens;
  mutable ready : Pdpix.qtoken array;
      (* The ready list: completed, unredeemed tokens in [0, nready),
         unordered. [complete] pushes, every redemption removes. *)
  mutable nready : int;
  mutable watchers : watcher list;
  mutable stamps : int; (* last registration stamp handed out *)
  queues : (Pdpix.qd, queue) Hashtbl.t; (* the descriptor table: every open qd *)
  mutable next_token : int;
  mutable next_qd : int;
  mutable fp_slots : fp_slot list;
  mutable io_signals : Engine.Condvar.t list;
  mutable timer_sources : (unit -> int) list; (* ns; max_int = none *)
  kick : Engine.Condvar.t;
      (* Wakes a parked host fiber for non-device events (coroutine
         timeouts). Always part of [io_signals]. *)
}

(* One open descriptor: what it is, the tokens of its pops (or accepts)
   that wait for device data, oldest first, and the device closures its
   libOS supplied when it opened the queue. *)
and queue = {
  rt : t;
  qd : Pdpix.qd;
  mutable kind : kind;
  waiting : Pdpix.qtoken Engine.Ring.t;
  mutable failure : string option; (* sticky: fails every later token *)
  mutable connect : Pdpix.qtoken; (* the in-flight connect; 0 = none *)
  mutable next : unit -> Pdpix.completion option; (* the ready pop or accept, if any *)
  mutable on_close : unit -> unit; (* the device's close hook *)
}

and kind =
  | Socket of Pdpix.proto (* unbound *)
  | Bound of Net.Addr.endpoint (* a bound TCP socket, not yet listening *)
  | Listener
  | Stream of (Pdpix.sga -> Pdpix.qtoken) (* its device push *)
  | Datagram of (Net.Addr.endpoint -> Pdpix.sga -> Pdpix.qtoken) (* its device pushto *)
  | Log of log
  | Memq of Memory.Heap.buffer list Queue.t

let create host =
  let kick = Engine.Condvar.create host.Host.sim in
  {
    host;
    sched = Dsched.create host;
    tokens = tokens_create 16;
    ready = Array.make 16 0;
    nready = 0;
    watchers = [];
    stamps = 0;
    queues = Hashtbl.create 32;
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
  add_token t.tokens qt;
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

(* The slot of a minted, unredeemed token. *)
let find_token t qt =
  let i = probe t.tokens qt (home t.tokens qt) in
  if i < 0 then invalid_arg (Printf.sprintf "unknown or already-redeemed qtoken %d" qt) else i

let next_stamp t =
  t.stamps <- t.stamps + 1;
  t.stamps

(* --- the ready list --- *)

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

(* Redeem the completed token in slot [i]. *)
let retire t qt i =
  let result = t.tokens.results.(i) in
  remove_slot t.tokens i;
  drop_ready t qt 0;
  result

let redeem t qt =
  let i = find_token t qt in
  assert (t.tokens.results.(i) != unfinished);
  retire t qt i

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

let complete t qt result =
  let tb = t.tokens in
  let i = find_token t qt in
  assert (tb.results.(i) == unfinished);
  tb.results.(i) <- result;
  let waiter = tb.waiters.(i) and since = tb.since.(i) in
  push_ready t qt;
  (match Engine.Sim.spans t.host.Host.sim with
  | Some s ->
      let ok = match result with Pdpix.Failed _ -> false | _ -> true in
      Engine.Span.close_op s ~key:qt ~owner:t.host.Host.name ~now:(Host.now t.host) ~ok
  | None -> ());
  Engine.Sim.flight_note t.host.Host.sim ~cat:Engine.Log.Libos ~label:"qtoken.close" qt
    (match result with Pdpix.Failed _ -> 1 | _ -> 0);
  let s = holder_stamp qt 0 t.watchers in
  if waiter != Dsched.nobody && since > s then Dsched.wake t.sched waiter
  else if s > 0 then wake_stamp t s t.watchers

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

(* Top-level recursion over plain slots: a [wait] allocates nothing of
   its own, however often it re-blocks. The token's slot is looked up
   again after each block: others' mints and redemptions move slots. *)
let rec wait t qt =
  let tb = t.tokens in
  let i = find_token t qt in
  if tb.results.(i) != unfinished then retire t qt i
  else begin
    tb.waiters.(i) <- Dsched.self t.sched;
    tb.since.(i) <- next_stamp t;
    Dsched.block t.sched;
    tb.waiters.(find_token t qt) <- Dsched.nobody;
    wait t qt
  end

(* Conses only while two [wait_any]s are blocked at once; the usual
   one-watcher list unlinks without allocating. *)
let rec drop_watcher w ws =
  match ws with [] -> [] | x :: rest -> if x == w then rest else x :: drop_watcher w rest

(* Re-registering after every wake keeps this call the latest holder of
   its tokens, as rewriting every waiter slot did. *)
let rec block_until_ready t w ~deadline =
  w.stamp <- next_stamp t;
  Dsched.block t.sched;
  let n = Array.length w.qts in
  let i = first_ready t w.qts 0 n in
  if i < n then i else if Host.now t.host >= deadline then -1 else block_until_ready t w ~deadline

(* The core both [wait_any]s share: the lowest index of [qts] whose
   token is ready, blocking until there is one; -1 once [deadline]
   passes first. Nothing is redeemed here. *)
let wait_core t qts ~deadline =
  let n = Array.length qts in
  let i = first_ready t qts 0 n in
  if i < n then i
  else if Host.now t.host >= deadline then -1
  else begin
    let w = { who = Dsched.self t.sched; qts; stamp = 0 } in
    t.watchers <- w :: t.watchers;
    let i = block_until_ready t w ~deadline in
    t.watchers <- drop_watcher w t.watchers;
    i
  end

let wait_ready t qts =
  if Array.length qts = 0 then
    invalid_arg "wait_any: empty token set";
  wait_core t qts ~deadline:max_int

let wait_any t qts =
  let i = wait_ready t qts in
  (i, redeem t qts.(i))

let wait_any_timeout t qts ~timeout_ns =
  if Array.length qts = 0 then
    invalid_arg "wait_any_timeout: empty token set";
  let deadline = Host.now t.host + timeout_ns in
  let me = Dsched.self t.sched in
  (* A timer event wakes us if nothing completes first; spurious wakes
     are harmless because we re-scan. *)
  let cancelled = ref false in
  Engine.Sim.schedule t.host.Host.sim ~delay:timeout_ns
    (fun _ ->
      if not !cancelled then begin
        Dsched.wake t.sched me;
        (* The host fiber may be parked on device signals; kick it so the
           scheduler loop observes the readiness bit. *)
        Engine.Condvar.broadcast t.kick
      end)
    0;
  let i = wait_core t qts ~deadline in
  cancelled := true;
  if i < 0 then None else Some (i, redeem t qts.(i))

let wait_all t qts = Array.map (wait t) qts

(* --- the descriptor table --- *)

let no_next () = None
let no_close () = ()

let add_queue t kind =
  let qd = fresh_qd t in
  let q =
    {
      rt = t; qd; kind; waiting = Engine.Ring.create (); failure = None; connect = 0;
      next = no_next; on_close = no_close;
    }
  in
  Hashtbl.replace t.queues qd q;
  q

let qd q = q.qd

(* [Hashtbl.find] + handler, not [find_opt]: every push and pop
   resolves its qd here, and a hit allocates nothing. *)
let find t qd =
  match Hashtbl.find t.queues qd with
  | q -> q
  | exception Not_found -> invalid_arg (Printf.sprintf "unknown or closed qd %d" qd)

let accepted t = add_queue t (Socket Pdpix.Tcp)
let new_log t log = add_queue t (Log log)

let open_stream q ~next ~push ~close =
  q.kind <- Stream push;
  q.next <- next;
  q.on_close <- close

let open_listener q ~next ~close =
  q.kind <- Listener;
  q.next <- next;
  q.on_close <- close

let open_datagram q ~next ~pushto ~close =
  q.kind <- Datagram pushto;
  q.next <- next;
  q.on_close <- close

(* --- waiting tokens, connects and the close rule --- *)

let enqueue q =
  let qt = fresh_token q.rt in
  Engine.Ring.push q.waiting qt;
  qt

let rec serve q =
  if not (Engine.Ring.is_empty q.waiting) then
    let ready = match q.failure with Some r -> Some (Pdpix.Failed r) | None -> q.next () in
    match ready with
    | Some completion ->
        complete q.rt (Engine.Ring.pop q.waiting) completion;
        serve q
    | None -> ()

let waiting q = not (Engine.Ring.is_empty q.waiting)

let connect_token q =
  let qt = fresh_token q.rt in
  q.connect <- qt;
  qt

let connect_pending q = q.connect <> 0

let connected q result =
  if q.connect <> 0 then begin
    let qt = q.connect in
    q.connect <- 0;
    complete q.rt qt result
  end

let fail q reason =
  if q.connect <> 0 then connected q (Pdpix.Failed reason);
  q.failure <- Some reason;
  serve q

let failed q = q.failure

let close q =
  q.on_close ();
  fail q "queue closed";
  Hashtbl.remove q.rt.queues q.qd

(* --- assembly --- *)

type net = {
  listen : queue -> Net.Addr.endpoint -> backlog:int -> unit;
  connect : queue -> Net.Addr.endpoint -> Pdpix.qtoken;
  bind_udp : (queue -> Net.Addr.endpoint -> unit) option;
  waited : queue -> unit;
}

let unsupported what = raise (Pdpix.Unsupported what)

let kind_name = function
  | Socket _ -> "an unbound socket"
  | Bound _ -> "a bound socket"
  | Listener -> "a listener"
  | Stream _ -> "a connection"
  | Datagram _ -> "a datagram socket"
  | Log _ -> "a log"
  | Memq _ -> "a queue()"

let misuse op q = invalid_arg (Printf.sprintf "%s on %s (qd %d)" op (kind_name q.kind) q.qd)

let memq_next items () =
  if Queue.is_empty items then None else Some (Pdpix.Popped (Queue.pop items))

let make_api t ~name ~net ~logs =
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
  (* Missing capabilities raise before any qd is looked up. *)
  let lacks_storage what = unsupported (Printf.sprintf "%s: %s (no storage device)" name what) in
  let wait_on q =
    let qt = enqueue q in
    net.waited q;
    qt
  in
  {
    Pdpix.socket =
      (fun proto ->
        libcall ();
        if proto = Pdpix.Udp && Option.is_none net.bind_udp then
          unsupported (name ^ ": datagram sockets");
        (add_queue t (Socket proto)).qd);
    bind =
      (fun qd ep ->
        libcall ();
        let q = find t qd in
        match (q.kind, net.bind_udp) with
        | Socket Pdpix.Tcp, _ -> q.kind <- Bound ep
        | Socket Pdpix.Udp, Some bind_udp -> bind_udp q ep
        | _ -> misuse "bind" q);
    listen =
      (fun qd ~backlog ->
        libcall ();
        let q = find t qd in
        match q.kind with Bound ep -> net.listen q ep ~backlog | _ -> misuse "listen" q);
    accept =
      (fun qd ->
        libcall ();
        let q = find t qd in
        labelled "accept" (match q.kind with Listener -> wait_on q | _ -> misuse "accept" q));
    connect =
      (fun qd ep ->
        libcall ();
        let q = find t qd in
        match q.kind with
        | Socket Pdpix.Tcp -> labelled "connect" (net.connect q ep)
        | _ -> misuse "connect" q);
    close =
      (fun qd ->
        libcall ();
        close (find t qd));
    queue =
      (fun () ->
        libcall ();
        let items = Queue.create () in
        let q = add_queue t (Memq items) in
        q.next <- memq_next items;
        q.qd);
    open_log =
      (fun path ->
        libcall ();
        match logs with Some open_log -> open_log path | None -> lacks_storage "open_log");
    seek =
      (fun qd off ->
        libcall ();
        if Option.is_none logs then lacks_storage "seek";
        let q = find t qd in
        match q.kind with Log log -> log.seek off | _ -> misuse "seek" q);
    truncate =
      (fun qd off ->
        libcall ();
        if Option.is_none logs then lacks_storage "truncate";
        let q = find t qd in
        match q.kind with
        | Log { truncate = Some truncate; _ } -> truncate off
        | Log { truncate = None; _ } -> unsupported (name ^ ": truncate")
        | _ -> misuse "truncate" q);
    push =
      (fun qd sga ->
        libcall ();
        let q = find t qd in
        labelled "push"
          (match q.kind with
          | Stream push -> (
              match q.failure with
              | Some reason -> completed_token t (Pdpix.Failed reason)
              | None -> push sga)
          | Log log -> log.append sga
          | Memq items ->
              Queue.add sga items;
              serve q;
              completed_token t Pdpix.Pushed
          | Socket _ | Bound _ | Listener | Datagram _ -> misuse "push" q));
    pushto =
      (fun qd ep sga ->
        libcall ();
        let q = find t qd in
        labelled "pushto"
          (match q.kind with Datagram pushto -> pushto ep sga | _ -> misuse "pushto" q));
    pop =
      (fun qd ->
        libcall ();
        let q = find t qd in
        labelled "pop"
          (match q.kind with
          | Stream _ | Datagram _ -> wait_on q
          | Memq _ ->
              let qt = enqueue q in
              serve q;
              qt
          | Log log -> log.read ()
          | Socket _ | Bound _ | Listener -> misuse "pop" q));
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
    libos_name = name;
    host_name = t.host.Host.name;
    causal = (fun () -> Engine.Sim.causal t.host.Host.sim);
  }

(* --- the fast-path loop: polling without spinning --- *)

(* Earliest deadline over every registered source; [max_int] = none.
   Int-based so per-poll deadline peeks allocate nothing. *)
let next_deadline_ns t =
  List.fold_left
    (fun acc fn ->
      let d = fn () in
      if d < acc then d else acc)
    max_int t.timer_sources

let maybe_park t slot =
  slot.idle <- true;
  if Dsched.runnable_apps t.sched || Dsched.has_pending_wakes t.sched then ()
  else if List.exists (fun s -> not s.idle) t.fp_slots then ()
  else begin
    let timeout =
      match next_deadline_ns t with
      | d when d = max_int -> max_int
      | deadline -> max 0 (deadline - Host.now t.host)
    in
    let _ = Engine.Condvar.wait_many t.host.Host.sim t.io_signals ~timeout in
    Host.charge t.host t.host.Host.cost.Net.Cost.libos_poll_ns;
    (* We don't know which device signalled: force one poll round of
       every fast path before anyone may park again, otherwise this
       coroutine could re-park ahead of the one whose completion just
       arrived. *)
    List.iter (fun s -> s.idle <- false) t.fp_slots
  end

let rec poll_loop t slot poll =
  if poll () then slot.idle <- false else maybe_park t slot;
  Dsched.yield t.sched;
  poll_loop t slot poll

let fast_path t ~name ~signal ?timer poll =
  t.io_signals <- signal :: t.io_signals;
  (match timer with Some fn -> t.timer_sources <- fn :: t.timer_sources | None -> ());
  let slot = { idle = false } in
  t.fp_slots <- slot :: t.fp_slots;
  ignore (Dsched.spawn t.sched Dsched.Fast_path ~name (fun () -> poll_loop t slot poll))

let spawn_app t ?(name = "app") main api =
  ignore (Dsched.spawn t.sched Dsched.App ~name (fun () -> main api))

let start t =
  Engine.Fiber.spawn t.host.Host.sim ~name:t.host.Host.name (fun () -> Dsched.run t.sched)
