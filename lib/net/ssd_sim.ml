type completion = { id : int; ok : bool; data : string }

type t = {
  sim : Engine.Sim.t;
  cost : Cost.t;
  store : Bytes.t;
  cq : completion Queue.t;
  cq_signal : Engine.Condvar.t;
  mutable device_free : Engine.Clock.t; (* when the device is next idle *)
  mutable bytes_written : int;
}

let create sim ~cost ~capacity =
  {
    sim;
    cost;
    store = Bytes.make capacity '\000';
    cq = Queue.create ();
    cq_signal = Engine.Condvar.create sim;
    device_free = 0;
    bytes_written = 0;
  }

let capacity t = Bytes.length t.store

let complete t c =
  Engine.Sim.trace_event t.sim ~category:Engine.Log.Storage "completion id=%d ok=%b" c.id
    (Bool.to_int c.ok);
  Queue.add c t.cq;
  Engine.Condvar.broadcast t.cq_signal

(* Commands occupy the device serially; a command submitted while the
   device is busy starts when it frees up. *)
let run_after t ~busy_ns fn =
  let now = Engine.Sim.now t.sim in
  let start = max now t.device_free in
  let finish = start + busy_ns in
  t.device_free <- finish;
  (* The attributed stretch starts when the device picks the command
     up, not at submission: queueing behind an earlier command is the
     device's time, and the sum over commands never double-counts. *)
  Engine.Sim.span_interval t.sim ~comp:Engine.Span.Storage ~owner:"ssd" ~label:"" ~t0:start
    ~t1:finish;
  Engine.Sim.schedule t.sim ~delay:(finish - now) fn

let submit_write t ~id ~off data =
  let len = String.length data in
  let ok = off >= 0 && len >= 0 && off + len <= Bytes.length t.store in
  let busy = Cost.ssd_op_ns t.cost ~write:true len in
  run_after t ~busy_ns:busy (fun () ->
      if ok then begin
        Bytes.blit_string data 0 t.store off len;
        t.bytes_written <- t.bytes_written + len
      end;
      complete t { id; ok; data = "" })

let submit_read t ~id ~off ~len =
  let ok = off >= 0 && len >= 0 && off + len <= Bytes.length t.store in
  let busy = Cost.ssd_op_ns t.cost ~write:false len in
  run_after t ~busy_ns:busy (fun () ->
      let data = if ok then Bytes.sub_string t.store off len else "" in
      complete t { id; ok; data })

let submit_flush t ~id =
  run_after t ~busy_ns:t.cost.Cost.ssd_submit_ns (fun () -> complete t { id; ok = true; data = "" })

let poll_cq t ~max =
  let rec take n acc =
    if n = 0 || Queue.is_empty t.cq then List.rev acc else take (n - 1) (Queue.pop t.cq :: acc)
  in
  take max []

let cq_pending t = Queue.length t.cq
let cq_signal t = t.cq_signal
let bytes_written t = t.bytes_written
let contents t ~off ~len = Bytes.sub_string t.store off len
