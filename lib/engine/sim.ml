type t = {
  mutable now : Clock.t;
  q : Eventq.t;
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
}

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
    }
  in
  t.teardown_hooks <- [ (fun () -> report_drops t) ];
  t

let now t = t.now
let prng t = t.prng

let at t ~time fn =
  assert (time >= t.now);
  Eventq.add t.q ~time fn

let schedule t ~delay fn =
  assert (delay >= 0);
  Eventq.add t.q ~time:(t.now + delay) fn

let stop t = t.stopped <- true

let run ?until t =
  t.stopped <- false;
  let horizon_reached time =
    match until with Some u -> time > u | None -> false
  in
  let rec loop () =
    if not t.stopped then
      match Eventq.peek_time t.q with
      | None -> ()
      | Some time when horizon_reached time -> (
          match until with Some u -> t.now <- u | None -> ())
      | Some _ -> (
          match Eventq.pop t.q with
          | None -> ()
          | Some (time, fn) ->
              t.now <- time;
              (* Fixed-interval sampling rides the run loop instead of
                 scheduling its own events: the pending-event set — and
                 so the interleaving every other component observes — is
                 byte-identical with sampling on or off. Each boundary
                 crossed since the last event fires once, before the
                 event executes, so a sample reads the state as of its
                 nominal boundary time. *)
              (match t.sampler with
              | Some f ->
                  while t.sampler_next <= t.now do
                    f t.sampler_next;
                    t.sampler_next <- t.sampler_next + t.sampler_interval
                  done
              | None -> ());
              t.processed <- t.processed + 1;
              fn ();
              loop ())
  in
  loop ()

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
(* dlint: hotpath *)
let trace_event t ~category label a b =
  match t.tracer with
  | Some tr -> Log.event tr ~now:t.now ~category ~label ~owner:"" ~aux:"" a b
  | None -> ()

(* dlint: hotpath *)
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

(* dlint: hotpath *)
let flight_note t ~cat ~label a b =
  match t.flight with
  | None -> ()
  | Some f -> Log.event f ~now:t.now ~category:cat ~label ~owner:"" ~aux:"" a b

(* dlint: hotpath *)
let span_interval t ~comp ~owner ~label ~t0 ~t1 =
  match t.spans with
  | None -> ()
  | Some s -> Span.note s ~comp ~owner ~label ~t0 ~t1

(* dlint: hotpath *)
let span_note t ~comp ~owner ~dur =
  match t.spans with
  | None -> ()
  | Some s -> Span.note s ~comp ~owner ~label:"" ~t0:t.now ~t1:(t.now + dur)
