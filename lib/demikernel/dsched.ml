type kind = App | Background | Fast_path
type state = Ready | Running | Blocked | Dead

type handle = coro

and coro = {
  slot : int;
  kind : kind;
  name : string;
  mutable state : state;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
  mutable body : (unit -> unit) option; (* Some until the first dispatch *)
  mutable pending_wake : bool;
}

type t = {
  host : Host.t;
  waker : Waker.t;
  app_q : coro Queue.t;
  bg_q : coro Queue.t;
  fp_q : coro Queue.t;
  mutable by_slot : coro option array;
  mutable current : coro option;
  mutable live : int;
  mutable stopped : bool;
  mutable switches : int;
  mutable on_wake : int -> unit;
      (* The waker-drain callback, built once at create: [drain_wakers]
         runs every scheduler-loop iteration and must not allocate a
         fresh closure each time. *)
}

type _ Effect.t += Yield : unit Effect.t | Block : unit Effect.t

let enqueue t coro =
  match coro.kind with
  | App -> Queue.add coro t.app_q
  | Background -> Queue.add coro t.bg_q
  | Fast_path -> Queue.add coro t.fp_q

let create host =
  let t =
    {
      host;
      waker = Waker.create ();
      app_q = Queue.create ();
      bg_q = Queue.create ();
      fp_q = Queue.create ();
      by_slot = Array.make 8 None;
      current = None;
      live = 0;
      stopped = false;
      switches = 0;
      on_wake = ignore;
    }
  in
  t.on_wake <-
    (fun slot ->
      match t.by_slot.(slot) with
      | Some coro when coro.state = Blocked ->
          coro.state <- Ready;
          enqueue t coro
      | Some _ | None -> ());
  t

let host t = t.host

let spawn t kind ?(name = "coroutine") body =
  let slot = Waker.alloc t.waker in
  let coro =
    { slot; kind; name; state = Ready; cont = None; body = Some body; pending_wake = false }
  in
  if slot >= Array.length t.by_slot then begin
    let grown = Array.make (2 * (slot + 1)) None in
    Array.blit t.by_slot 0 grown 0 (Array.length t.by_slot);
    t.by_slot <- grown
  end;
  t.by_slot.(slot) <- Some coro;
  t.live <- t.live + 1;
  enqueue t coro;
  coro

let self t =
  match t.current with
  | Some coro -> coro
  | None -> failwith "Dsched.self: not inside a coroutine"

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

let runnable_apps t = not (Queue.is_empty t.app_q && Queue.is_empty t.bg_q)
let has_pending_wakes t = Waker.any_set t.waker
let stop t = t.stopped <- true
let context_switches t = t.switches

(* dlint: hotpath *)
let drain_wakers t = Waker.drain t.waker t.on_wake

(* dlint-allow: transitive-alloc-in-hotpath -- one effect-handler record per coroutine dispatch: a context switch (counted in t.switches), not a steady poll; empty-queue polls never reach dispatch *)
let handler t coro =
  {
    Effect.Deep.retc =
      (fun () ->
        coro.state <- Dead;
        t.live <- t.live - 1);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                coro.cont <- Some k;
                coro.state <- Ready;
                enqueue t coro)
        | Block ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                coro.cont <- Some k;
                coro.state <- Blocked)
        | _ -> None);
  }

(* The [current] field holds the coro directly during a slice; the
   dispatch trace event stores the host and coroutine names it already
   has, so dispatches allocate nothing before entering the
   continuation, traced or not. *)
(* dlint: hotpath *)
let run_slice t coro =
  coro.state <- Running;
  (* dlint-allow: alloc-in-hotpath -- current-coro registration, one Some per dispatch slice *)
  t.current <- Some coro;
  t.switches <- t.switches + 1;
  Engine.Sim.trace_names t.host.Host.sim ~category:Engine.Log.Sched "%s: dispatch %s"
    t.host.Host.name coro.name;
  (match coro.body with
  | Some body ->
      coro.body <- None;
      Effect.Deep.match_with body () (handler t coro)
  | None -> (
      match coro.cont with
      | Some k ->
          coro.cont <- None;
          Effect.Deep.continue k ()
      | None -> assert false));
  t.current <- None

(* Dispatch priority (§5.4): runnable application coroutines, then
   background, then the always-runnable fast-path coroutines, FIFO
   within a class. Queues can hold stale entries for coroutines that
   were re-enqueued and died; skip those. Dispatches-in-place and
   returns whether it found work (rather than returning the coroutine
   in an option) so the per-iteration scheduler step allocates
   nothing. *)
(* dlint: hotpath *)
let rec dispatch_from t q switch_cost =
  if Queue.is_empty q then false
  else begin
    let coro = Queue.pop q in
    if coro.state = Ready then begin
      Host.charge_as t.host Engine.Span.Sched switch_cost;
      run_slice t coro;
      true
    end
    else dispatch_from t q switch_cost (* stale entry for a dead/requeued coroutine *)
  end

(* dlint: hotpath *)
let dispatch_one t switch_cost =
  dispatch_from t t.app_q switch_cost
  || dispatch_from t t.bg_q switch_cost
  || dispatch_from t t.fp_q switch_cost

(* dlint: hotpath *)
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
          (* dlint-allow: alloc-in-hotpath -- deadlock error path, raises *)
          Printf.sprintf "Dsched.run: deadlock on host %s (%d blocked coroutines)"
            t.host.Host.name t.live
        in
        (* dlint-allow: alloc-in-hotpath -- deadlock error path, raises *)
        failwith msg
      end
    end
  in
  loop ()
