(* RFC 6298 over a pooled flat TCB: five integer fields at [base] in a
   [Memory.Pool] slot. The floor/ceiling live in the stack config, not
   the slot: they are per-stack constants, not per-connection state.
   The integer arithmetic is part of the behavioural contract that the
   golden trace digest in test_tcp.ml pins. *)

let words = 5

(* Field offsets relative to [base]. *)
let f_srtt = 0
let f_rttvar = 1
let f_have_sample = 2
let f_base_rto = 3
let f_shift = 4

let init p slot ~base ~min_rto =
  (* The pool zeroes slots on alloc; only the non-zero field needs a
     write. *)
  Memory.Pool.set p slot (base + f_base_rto) (max min_rto 4_000_000)

let clamp ~min_rto ~max_rto v = min max_rto (max min_rto v)

let observe p slot ~base ~min_rto ~max_rto sample =
  if sample > 0 then begin
    if Memory.Pool.get p slot (base + f_have_sample) = 0 then begin
      (* RFC 6298 (2.2): SRTT = R, RTTVAR = R/2. *)
      Memory.Pool.set p slot (base + f_srtt) sample;
      Memory.Pool.set p slot (base + f_rttvar) (sample / 2);
      Memory.Pool.set p slot (base + f_have_sample) 1
    end
    else begin
      (* RFC 6298 (2.3): beta = 1/4, alpha = 1/8. *)
      let srtt = Memory.Pool.get p slot (base + f_srtt) in
      let rttvar = Memory.Pool.get p slot (base + f_rttvar) in
      Memory.Pool.set p slot (base + f_rttvar) ((3 * rttvar / 4) + (abs (srtt - sample) / 4));
      Memory.Pool.set p slot (base + f_srtt) ((7 * srtt / 8) + (sample / 8))
    end;
    let srtt = Memory.Pool.get p slot (base + f_srtt) in
    let rttvar = Memory.Pool.get p slot (base + f_rttvar) in
    Memory.Pool.set p slot (base + f_base_rto)
      (clamp ~min_rto ~max_rto (srtt + max 1 (4 * rttvar)))
  end

let rto p slot ~base ~max_rto =
  min max_rto
    (Memory.Pool.get p slot (base + f_base_rto) lsl Memory.Pool.get p slot (base + f_shift))

let backoff p slot ~base ~max_rto =
  if rto p slot ~base ~max_rto < max_rto then
    Memory.Pool.set p slot (base + f_shift) (Memory.Pool.get p slot (base + f_shift) + 1)

let reset_backoff p slot ~base = Memory.Pool.set p slot (base + f_shift) 0

let srtt_ns p slot ~base =
  if Memory.Pool.get p slot (base + f_have_sample) = 1 then
    Memory.Pool.get p slot (base + f_srtt)
  else -1
