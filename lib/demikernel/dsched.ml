type kind = App | Background | Fast_path
type state = Ready | Running | Blocked | Dead

type handle = coro

and coro = {
  slot : int;
  kind : kind;
  name : string;
  mutable state : state;
  mutable cont : (unit, unit) Effect.Deep.continuation; (* [Sim.no_cont] unless parked *)
  mutable body : (unit -> unit) option; (* Some until the first dispatch *)
  mutable pending_wake : bool;
  mutable handler : (unit, unit) Effect.Deep.handler; (* built once, at spawn *)
}

type t = {
  host : Host.t;
  waker : Waker.t;
  app_q : coro Engine.Ring.t; (* FIFO run queues, one per class *)
  bg_q : coro Engine.Ring.t;
  fp_q : coro Engine.Ring.t;
  mutable by_slot : coro array;
  mutable current : coro; (* [nobody] outside a slice *)
  mutable live : int;
  mutable stopped : bool;
  mutable switches : int;
  mutable on_wake : int -> unit;
      (* The waker-drain callback, built once at create: [drain_wakers]
         runs every scheduler-loop iteration and must not allocate a
         fresh closure each time. *)
}

type _ Effect.t += Yield : unit Effect.t | Block : unit Effect.t

(* The sentinel coroutine: an empty slot, [current] between slices, and
   an empty waiter slot elsewhere. It is [Dead], so it is never
   dispatched or woken. *)
let nobody =
  {
    slot = -1;
    kind = Background;
    name = "";
    state = Dead;
    cont = Engine.Sim.no_cont;
    body = None;
    pending_wake = false;
    handler = { Effect.Deep.retc = ignore; exnc = raise; effc = (fun _ -> None) };
  }

let enqueue t coro =
  match coro.kind with
  | App -> Engine.Ring.push t.app_q coro
  | Background -> Engine.Ring.push t.bg_q coro
  | Fast_path -> Engine.Ring.push t.fp_q coro

let create host =
  let t =
    {
      host;
      waker = Waker.create ();
      app_q = Engine.Ring.create ();
      bg_q = Engine.Ring.create ();
      fp_q = Engine.Ring.create ();
      by_slot = Array.make 8 nobody;
      current = nobody;
      live = 0;
      stopped = false;
      switches = 0;
      on_wake = ignore;
    }
  in
  t.on_wake <-
    (fun slot ->
      let coro = t.by_slot.(slot) in
      if coro.state = Blocked then begin
        coro.state <- Ready;
        enqueue t coro
      end);
  t

let host t = t.host

(* The handler and the [Some] closures its [effc] returns are built once
   per coroutine: a yield or block allocates only the continuation the
   effect runtime captures, parked in a plain field. *)
let handler t coro =
  let on_yield =
    Some
      (fun k ->
        coro.cont <- k;
        coro.state <- Ready;
        enqueue t coro)
  in
  let on_block =
    Some
      (fun k ->
        coro.cont <- k;
        coro.state <- Blocked)
  in
  {
    Effect.Deep.retc =
      (fun () ->
        coro.state <- Dead;
        t.live <- t.live - 1);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with Yield -> on_yield | Block -> on_block | _ -> None);
  }

let spawn t kind ?(name = "coroutine") body =
  let slot = Waker.alloc t.waker in
  let coro =
    {
      slot;
      kind;
      name;
      state = Ready;
      cont = Engine.Sim.no_cont;
      body = Some body;
      pending_wake = false;
      handler = nobody.handler;
    }
  in
  coro.handler <- handler t coro;
  if slot >= Array.length t.by_slot then begin
    let grown = Array.make (2 * (slot + 1)) nobody in
    Array.blit t.by_slot 0 grown 0 (Array.length t.by_slot);
    t.by_slot <- grown
  end;
  t.by_slot.(slot) <- coro;
  t.live <- t.live + 1;
  enqueue t coro;
  coro

let self t =
  if t.current == nobody then failwith "Dsched.self: not inside a coroutine" else t.current

let yield t =
  ignore (self t);
  Effect.perform Yield

let block t =
  let coro = self t in
  if coro.pending_wake then coro.pending_wake <- false else Effect.perform Block

let wake t coro =
  match coro.state with
  | Blocked -> Waker.set t.waker coro.slot
  | Ready | Running -> coro.pending_wake <- true
  | Dead -> ()

let runnable_apps t = not (Engine.Ring.is_empty t.app_q && Engine.Ring.is_empty t.bg_q)
let has_pending_wakes t = Waker.any_set t.waker
let stop t = t.stopped <- true
let context_switches t = t.switches

let drain_wakers t = Waker.drain t.waker t.on_wake

(* The [current] field holds the coro directly during a slice; the
   dispatch trace event stores the host and coroutine names it already
   has, so dispatches allocate nothing before entering the
   continuation, traced or not. *)
let run_slice t coro =
  coro.state <- Running;
  t.current <- coro;
  t.switches <- t.switches + 1;
  Engine.Sim.trace_names t.host.Host.sim ~category:Engine.Log.Sched "%s: dispatch %s"
    t.host.Host.name coro.name;
  (match coro.body with
  | Some body ->
      coro.body <- None;
      Effect.Deep.match_with body () coro.handler
  | None ->
      let k = coro.cont in
      assert (k != Engine.Sim.no_cont);
      coro.cont <- Engine.Sim.no_cont;
      Effect.Deep.continue k ());
  t.current <- nobody

(* Dispatch priority (§5.4): runnable application coroutines, then
   background, then the always-runnable fast-path coroutines, FIFO
   within a class. Queues can hold stale entries for coroutines that
   were re-enqueued and died; skip those. Dispatches-in-place and
   returns whether it found work (rather than returning the coroutine
   in an option) so the per-iteration scheduler step allocates
   nothing. *)
let rec dispatch_from t q switch_cost =
  if Engine.Ring.is_empty q then false
  else begin
    let coro = Engine.Ring.pop q in
    if coro.state = Ready then begin
      Host.charge_as t.host Engine.Span.Sched switch_cost;
      run_slice t coro;
      true
    end
    else dispatch_from t q switch_cost (* stale entry for a dead/requeued coroutine *)
  end

let dispatch_one t switch_cost =
  dispatch_from t t.app_q switch_cost
  || dispatch_from t t.bg_q switch_cost
  || dispatch_from t t.fp_q switch_cost

let run t =
  t.stopped <- false;
  let switch_cost = t.host.Host.cost.Net.Cost.coroutine_switch_ns in
  let rec loop () =
    if not t.stopped then begin
      drain_wakers t;
      if dispatch_one t switch_cost then loop ()
      else if t.live = 0 then ()
      else if Waker.any_set t.waker then loop ()
      else begin
        let msg =
          Printf.sprintf "Dsched.run: deadlock on host %s (%d blocked coroutines)"
            t.host.Host.name t.live
        in
        failwith msg
      end
    end
  in
  loop ()
