(* RFC 6298 per connection. The floor/ceiling are the stack config's,
   copied in at creation. The integer arithmetic is part of the
   behavioural contract that the golden trace digest in test_tcp.ml
   pins. *)

type t = {
  min_rto : int;
  max_rto : int;
  mutable srtt : int;
  mutable rttvar : int;
  mutable have_sample : bool;
  mutable base_rto : int;
  mutable shift : int;
}

let create ~min_rto ~max_rto =
  { min_rto; max_rto; srtt = 0; rttvar = 0; have_sample = false;
    base_rto = max min_rto 4_000_000; shift = 0 }

let observe t sample =
  if sample > 0 then begin
    if not t.have_sample then begin
      (* RFC 6298 (2.2): SRTT = R, RTTVAR = R/2. *)
      t.srtt <- sample;
      t.rttvar <- sample / 2;
      t.have_sample <- true
    end
    else begin
      (* RFC 6298 (2.3): beta = 1/4, alpha = 1/8. *)
      t.rttvar <- (3 * t.rttvar / 4) + (abs (t.srtt - sample) / 4);
      t.srtt <- (7 * t.srtt / 8) + (sample / 8)
    end;
    t.base_rto <- min t.max_rto (max t.min_rto (t.srtt + max 1 (4 * t.rttvar)))
  end

let rto t = min t.max_rto (t.base_rto lsl t.shift)
let backoff t = if rto t < t.max_rto then t.shift <- t.shift + 1
let reset_backoff t = t.shift <- 0
let srtt t = if t.have_sample then Some t.srtt else None
