type fiber = {
  mutable cont : (unit, unit) Effect.Deep.continuation;
  mutable gen : int;
  mutable signaled : bool;
  resume : int -> unit;
  wake : int -> unit;
  timeout : int -> unit;
}

type t = {
  mutable now : Clock.t;
  q : (int -> unit) Eventq.t;
  prng : Prng.t;
  mutable stopped : bool;
  mutable processed : int;
  (* One ring per armed stream, never shared: arming one stream cannot
     evict another's events. *)
  mutable tracer : Log.t option;
  mutable spans : Span.t option;
  mutable flight : Log.t option;
  mutable causal : Causal.t option;
  mutable teardown_hooks : (unit -> unit) list; (* newest first *)
  mutable sampler : (Clock.t -> unit) option;
  mutable sampler_interval : Clock.t;
  mutable sampler_next : Clock.t;
  (* The fiber slots: the span of the sleep being performed, and the
     fiber whose code runs now (set on every resume). *)
  mutable sleep_span : Clock.t;
  mutable running : fiber;
}

type _ Effect.t += Never_resumed : unit Effect.t

(* The empty continuation slot: the continuation of an effect whose
   handler keeps it and never resumes it, captured once per process. *)
let no_cont : (unit, unit) Effect.Deep.continuation =
  let slot = ref None in
  Effect.Deep.match_with Effect.perform Never_resumed
    {
      Effect.Deep.retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Never_resumed -> Some (fun (k : (unit, unit) Effect.Deep.continuation) -> slot := Some k)
          | _ -> None);
    };
  match !slot with Some k -> k | None -> assert false

let no_fiber =
  { cont = no_cont; gen = 0; signaled = false; resume = ignore; wake = ignore; timeout = ignore }

(* The one teardown report over every armed stream: a truncated
   timeline is never mistaken for the whole story. *)
let report_drops t =
  let report name = Option.iter (Log.report ~name) in
  report "trace" t.tracer;
  report "flight" t.flight;
  report "span" (Option.map Span.log t.spans);
  report "causal" (Option.map Causal.log t.causal)

let create ?(seed = 1L) () =
  let t =
    {
      now = 0;
      q = Eventq.create ();
      prng = Prng.create seed;
      stopped = false;
      processed = 0;
      tracer = None;
      spans = None;
      flight = None;
      causal = None;
      teardown_hooks = [];
      sampler = None;
      sampler_interval = 0;
      sampler_next = 0;
      sleep_span = 0;
      running = no_fiber;
    }
  in
  t.teardown_hooks <- [ (fun () -> report_drops t) ];
  t

let now t = t.now
let prng t = t.prng

let at t ~time fn arg =
  assert (time >= t.now);
  ignore (Eventq.add t.q ~time fn arg : int)

let schedule t ~delay fn arg =
  assert (delay >= 0);
  ignore (Eventq.add t.q ~time:(t.now + delay) fn arg : int)

let stop t = t.stopped <- true

let sleep_span t = t.sleep_span
let set_sleep_span t span = t.sleep_span <- span
let running t = t.running
let set_running t f = t.running <- f

(* Top-level recursion, not a closure per call: a run allocates
   nothing of its own. *)
let rec run_loop t horizon =
  if not t.stopped then begin
    let time = Eventq.top_time t.q in
    if time = max_int then ()
    else if time > horizon then t.now <- horizon
    else begin
      let arg = Eventq.top_arg t.q in
      let fn = Eventq.pop t.q in
      t.now <- time;
      (* Fixed-interval sampling rides the run loop instead of
         scheduling its own events: the pending-event set — and so the
         interleaving every other component observes — is
         byte-identical with sampling on or off. Each boundary crossed
         since the last event fires once, before the event executes,
         so a sample reads the state as of its nominal boundary time. *)
      (match t.sampler with
      | Some f ->
          while t.sampler_next <= t.now do
            f t.sampler_next;
            t.sampler_next <- t.sampler_next + t.sampler_interval
          done
      | None -> ());
      t.processed <- t.processed + 1;
      fn arg;
      run_loop t horizon
    end
  end

let run ?until t =
  t.stopped <- false;
  run_loop t (match until with Some u -> u | None -> max_int)

let set_sampler t ~interval f =
  assert (interval > 0);
  t.sampler <- Some f;
  t.sampler_interval <- interval;
  t.sampler_next <- t.now + interval

let clear_sampler t = t.sampler <- None

let events_processed t = t.processed

let at_teardown t hook = t.teardown_hooks <- hook :: t.teardown_hooks

let teardown t =
  (* Registration order (oldest first), and idempotent: a second call is
     a no-op unless new hooks were registered in between. *)
  let hooks = List.rev t.teardown_hooks in
  t.teardown_hooks <- [];
  List.iter (fun hook -> hook ()) hooks

let enable_trace ?(capacity = 65_536) t =
  match t.tracer with
  | Some tr -> tr
  | None ->
      let tr = Log.create ~capacity () in
      t.tracer <- Some tr;
      tr

let trace t = t.tracer

(* One branch when no recorder is attached; when one is, the record is
   O(1) into the ring's arrays. The operands are ints and strings that
   already exist, so the call site costs nothing to build: the message
   is formatted only when the stream is read. *)
let trace_event t ~category label a b =
  match t.tracer with
  | Some tr -> Log.event tr ~now:t.now ~category ~label ~owner:"" ~aux:"" a b
  | None -> ()

let trace_names t ~category label owner aux =
  match t.tracer with
  | Some tr -> Log.event tr ~now:t.now ~category ~label ~owner ~aux 0 0
  | None -> ()

let enable_spans ?capacity t =
  match t.spans with
  | Some s -> s
  | None ->
      let s = Span.create ?capacity () in
      t.spans <- Some s;
      at_teardown t (fun () -> Span.log_teardown s);
      s

let spans t = t.spans

let enable_flight ?(capacity = 4096) t =
  match t.flight with
  | Some f -> f
  | None ->
      let f = Log.create ~render:Log.operands ~capacity () in
      t.flight <- Some f;
      f

let flight t = t.flight

let enable_causal ?capacity t =
  match t.causal with
  | Some c -> c
  | None ->
      let c = Causal.create ?capacity () in
      t.causal <- Some c;
      c

let causal t = t.causal

let flight_note t ~cat ~label a b =
  match t.flight with
  | None -> ()
  | Some f -> Log.event f ~now:t.now ~category:cat ~label ~owner:"" ~aux:"" a b

let span_interval t ~comp ~owner ~label ~t0 ~t1 =
  match t.spans with
  | None -> ()
  | Some s -> Span.note s ~comp ~owner ~label ~t0 ~t1

let span_note t ~comp ~owner ~dur =
  match t.spans with
  | None -> ()
  | Some s -> Span.note s ~comp ~owner ~label:"" ~t0:t.now ~t1:(t.now + dur)
