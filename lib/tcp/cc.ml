type algorithm = Cubic | Newreno | None_cc

(* Cubic per RFC 8312, W(t) = C*(t-K)^3 + Wmax, with the TCP-friendly
   region and fast convergence; NewReno per RFC 5681. Windows are
   tracked in bytes; the cubic polynomial works in units of MSS like the
   RFC.

   The state lives in a pooled flat TCB: three integer fields (cwnd,
   ssthresh, epoch_start) and four float fields (the cubic state) in a
   [Memory.Pool] slot. The float fields sit in the pool's monomorphic
   [float array] section, so per-ack cubic updates box nothing. The
   order of every float operation below is part of the behavioural
   contract: the golden trace digest in test_tcp.ml pins it, so a
   reordered or fused operation shows up there. *)

let initial_window mss = 10 * mss (* RFC 6928 IW10 *)
let cubic_c = 0.4
let cubic_beta = 0.7

let int_words = 3
let float_words = 4

(* Integer field offsets relative to [ibase]. *)
let f_cwnd = 0
let f_ssthresh = 1
let f_epoch_start = 2 (* ns; -1 = no epoch *)

(* Float field offsets relative to [fbase]. *)
let ff_w_max = 0
let ff_k = 1
let ff_w_est = 2
let ff_acked_in_epoch = 3

let init p slot ~ibase ~mss =
  (* The pool zeroes slots on alloc, so the floats start at 0. *)
  Memory.Pool.set p slot (ibase + f_cwnd) (initial_window mss);
  Memory.Pool.set p slot (ibase + f_ssthresh) max_int;
  Memory.Pool.set p slot (ibase + f_epoch_start) (-1)

let cwnd p slot ~ibase algorithm =
  match algorithm with
  | None_cc -> max_int / 2
  | Cubic | Newreno -> Memory.Pool.get p slot (ibase + f_cwnd)

let in_slow_start p slot ~ibase =
  Memory.Pool.get p slot (ibase + f_cwnd) < Memory.Pool.get p slot (ibase + f_ssthresh)

let cubic_on_ack p slot ~ibase ~fbase ~mss ~acked ~now =
  if in_slow_start p slot ~ibase then
    Memory.Pool.set p slot (ibase + f_cwnd) (Memory.Pool.get p slot (ibase + f_cwnd) + acked)
  else begin
    let mss_f = float_of_int mss in
    (if Memory.Pool.get p slot (ibase + f_epoch_start) >= 0 then ()
     else begin
       Memory.Pool.set p slot (ibase + f_epoch_start) now;
       let w0 = float_of_int (Memory.Pool.get p slot (ibase + f_cwnd)) /. mss_f in
       let w_max = Memory.Pool.fget p slot (fbase + ff_w_max) in
       if w0 < w_max then
         Memory.Pool.fset p slot (fbase + ff_k) (Float.cbrt ((w_max -. w0) /. cubic_c))
       else begin
         Memory.Pool.fset p slot (fbase + ff_k) 0.;
         Memory.Pool.fset p slot (fbase + ff_w_max) w0
       end;
       Memory.Pool.fset p slot (fbase + ff_w_est) w0;
       Memory.Pool.fset p slot (fbase + ff_acked_in_epoch) 0.
     end);
    let epoch_start =
      let e = Memory.Pool.get p slot (ibase + f_epoch_start) in
      if e >= 0 then e else now
    in
    let t_sec = float_of_int (now - epoch_start) /. 1e9 in
    let w_cubic =
      (cubic_c *. ((t_sec -. Memory.Pool.fget p slot (fbase + ff_k)) ** 3.))
      +. Memory.Pool.fget p slot (fbase + ff_w_max)
    in
    Memory.Pool.fset p slot
      (fbase + ff_acked_in_epoch)
      (Memory.Pool.fget p slot (fbase + ff_acked_in_epoch) +. (float_of_int acked /. mss_f));
    let w_now = float_of_int (Memory.Pool.get p slot (ibase + f_cwnd)) /. mss_f in
    Memory.Pool.fset p slot (fbase + ff_w_est)
      (Memory.Pool.fget p slot (fbase + ff_w_est) +. (float_of_int acked /. mss_f /. w_now));
    let target = Float.max w_cubic (Memory.Pool.fget p slot (fbase + ff_w_est)) in
    if target > w_now then begin
      let increment = (target -. w_now) /. w_now *. float_of_int acked in
      Memory.Pool.set p slot (ibase + f_cwnd)
        (Memory.Pool.get p slot (ibase + f_cwnd) + max 0 (int_of_float increment))
    end
  end

let newreno_on_ack p slot ~ibase ~mss ~acked =
  if in_slow_start p slot ~ibase then
    Memory.Pool.set p slot (ibase + f_cwnd) (Memory.Pool.get p slot (ibase + f_cwnd) + acked)
  else begin
    let cwnd = Memory.Pool.get p slot (ibase + f_cwnd) in
    Memory.Pool.set p slot (ibase + f_cwnd) (cwnd + max 1 (mss * acked / cwnd))
  end

let on_ack p slot ~ibase ~fbase algorithm ~mss ~acked ~now =
  match algorithm with
  | None_cc -> ()
  | Cubic -> cubic_on_ack p slot ~ibase ~fbase ~mss ~acked ~now
  | Newreno -> newreno_on_ack p slot ~ibase ~mss ~acked

let floor_window ~mss v = max (2 * mss) v

let on_fast_retransmit p slot ~ibase ~fbase algorithm ~mss ~now:_ =
  match algorithm with
  | None_cc -> ()
  | Newreno ->
      let cwnd = Memory.Pool.get p slot (ibase + f_cwnd) in
      let ssthresh = floor_window ~mss (cwnd / 2) in
      Memory.Pool.set p slot (ibase + f_ssthresh) ssthresh;
      Memory.Pool.set p slot (ibase + f_cwnd) ssthresh
  | Cubic ->
      let mss_f = float_of_int mss in
      let cwnd = Memory.Pool.get p slot (ibase + f_cwnd) in
      let w = float_of_int cwnd /. mss_f in
      let w_max = Memory.Pool.fget p slot (fbase + ff_w_max) in
      if w < w_max then
        Memory.Pool.fset p slot (fbase + ff_w_max) (w *. (1. +. cubic_beta) /. 2.)
      else Memory.Pool.fset p slot (fbase + ff_w_max) w;
      Memory.Pool.set p slot (ibase + f_epoch_start) (-1);
      let ssthresh = floor_window ~mss (int_of_float (float_of_int cwnd *. cubic_beta)) in
      Memory.Pool.set p slot (ibase + f_ssthresh) ssthresh;
      Memory.Pool.set p slot (ibase + f_cwnd) ssthresh

let on_timeout p slot ~ibase ~fbase algorithm ~mss ~now =
  match algorithm with
  | None_cc -> ()
  | Newreno | Cubic ->
      on_fast_retransmit p slot ~ibase ~fbase algorithm ~mss ~now;
      Memory.Pool.set p slot (ibase + f_cwnd) mss;
      Memory.Pool.set p slot (ibase + f_epoch_start) (-1)
