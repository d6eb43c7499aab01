type algorithm = Cubic | Newreno | None_cc

(* Cubic per RFC 8312, W(t) = C*(t-K)^3 + Wmax, with the TCP-friendly
   region and fast convergence; NewReno per RFC 5681. Windows are
   tracked in bytes; the cubic polynomial works in units of MSS like the
   RFC.

   The cubic state is an all-float record, which OCaml stores flat, so
   its fields are read and written unboxed: an ack allocates nothing
   (the `words: cubic ack in congestion avoidance` test pins it). The
   order of every float operation below is part of the behavioural
   contract: the golden trace digest in test_tcp.ml pins it, so a
   reordered or fused operation shows up there. *)

let initial_window mss = 10 * mss (* RFC 6928 IW10 *)
let cubic_c = 0.4
let cubic_beta = 0.7

type cubic = { mutable w_max : float; mutable k : float; mutable w_est : float }

type t = {
  algorithm : algorithm;
  mss : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable epoch_start : int; (* ns; -1 = no epoch *)
  cubic : cubic;
}

let create algorithm ~mss =
  {
    algorithm;
    mss;
    cwnd = initial_window mss;
    ssthresh = max_int;
    epoch_start = -1;
    cubic = { w_max = 0.; k = 0.; w_est = 0. };
  }

let cwnd t = match t.algorithm with None_cc -> max_int / 2 | Cubic | Newreno -> t.cwnd
let in_slow_start t = t.cwnd < t.ssthresh

let cubic_on_ack t ~acked ~now =
  if in_slow_start t then t.cwnd <- t.cwnd + acked
  else begin
    let c = t.cubic in
    let mss_f = float_of_int t.mss in
    if t.epoch_start < 0 then begin
      t.epoch_start <- now;
      let w0 = float_of_int t.cwnd /. mss_f in
      if w0 < c.w_max then c.k <- Float.cbrt ((c.w_max -. w0) /. cubic_c)
      else begin
        c.k <- 0.;
        c.w_max <- w0
      end;
      c.w_est <- w0
    end;
    let t_sec = float_of_int (now - t.epoch_start) /. 1e9 in
    let w_cubic = (cubic_c *. ((t_sec -. c.k) ** 3.)) +. c.w_max in
    let w_now = float_of_int t.cwnd /. mss_f in
    c.w_est <- c.w_est +. (float_of_int acked /. mss_f /. w_now);
    let target = Float.max w_cubic c.w_est in
    if target > w_now then begin
      let increment = (target -. w_now) /. w_now *. float_of_int acked in
      t.cwnd <- t.cwnd + max 0 (int_of_float increment)
    end
  end

let newreno_on_ack t ~acked =
  if in_slow_start t then t.cwnd <- t.cwnd + acked
  else t.cwnd <- t.cwnd + max 1 (t.mss * acked / t.cwnd)

let on_ack t ~acked ~now =
  match t.algorithm with
  | None_cc -> ()
  | Cubic -> cubic_on_ack t ~acked ~now
  | Newreno -> newreno_on_ack t ~acked

let floor_window ~mss v = max (2 * mss) v

let on_fast_retransmit t =
  match t.algorithm with
  | None_cc -> ()
  | Newreno ->
      let ssthresh = floor_window ~mss:t.mss (t.cwnd / 2) in
      t.ssthresh <- ssthresh;
      t.cwnd <- ssthresh
  | Cubic ->
      let c = t.cubic in
      let w = float_of_int t.cwnd /. float_of_int t.mss in
      if w < c.w_max then c.w_max <- w *. (1. +. cubic_beta) /. 2. else c.w_max <- w;
      t.epoch_start <- -1;
      let ssthresh = floor_window ~mss:t.mss (int_of_float (float_of_int t.cwnd *. cubic_beta)) in
      t.ssthresh <- ssthresh;
      t.cwnd <- ssthresh

let on_timeout t =
  match t.algorithm with
  | None_cc -> ()
  | Newreno | Cubic ->
      on_fast_retransmit t;
      t.cwnd <- t.mss;
      t.epoch_start <- -1
