(* Demialloc runtime half: the per-poll GC allocation-budget oracle.

   The static pass (Lint.Alloccheck) flags allocation *sites*; this
   module proves the property dynamically: with the oracle armed
   (selfcheck / @selfcheck), every steady-state poll in a marked hot
   region must allocate ZERO words on the OCaml minor heap.

   Measurement uses [Gc.minor_words], a cumulative monotonic counter:
   it is unaffected by when collections happen, so identical allocation
   sequences give identical deltas and the oracle is deterministic
   across runs of the same seed. The counter is read through
   [int_of_float] immediately — [Gc.minor_words] is an
   unboxed-returning external, so converting the unboxed float to an
   int and storing/subtracting ints keeps the oracle's own protocol
   allocation-free in native code (storing the float itself into a
   mixed record field would box it, charging every window 2 words).
   The conversion is exact: word counts stay far below 2^53. Bytecode
   lacks the unboxed path, so the residual self-allocation of one read
   is still calibrated at arm time (min of back-to-back deltas) and
   subtracted.

   Protocol per poll iteration, chosen so the window excludes the
   oracle's own bookkeeping and the effect-based scheduler machinery
   (yield / park perform effects, which allocate continuations by
   design — that cost is the scheduler's, not the datapath's):

     enter site;
     ... poll body ...
     if nothing_happened then leave_steady site  (* asserted *)
     else leave_busy site                        (* work polls may alloc *)

   The first [warmup] steady polls per site are exempt: lazy
   initialisation (first-use table growth, trace setup) is allowed to
   allocate once; the claim is about the steady state. *)

type site = {
  name : string;
  warmup : int;
  mutable seen : int; (* steady polls observed *)
  mutable measured : int; (* steady polls measured (post-warmup) *)
  mutable violations : int;
  mutable worst : int; (* max extra words in one violating poll *)
  mutable w0 : int; (* minor-words counter at window open *)
  mutable in_window : bool;
}

type stats = {
  site_name : string;
  polls : int;
  measured : int;
  site_violations : int;
  worst_words : int;
}

let armed_flag = ref false
let overhead = ref 0
let registry : (string, site) Hashtbl.t = Hashtbl.create 8

(* Min-of-8 back-to-back deltas: the self-allocation of one counter
   read on this runtime (0 in native code via the unboxed external,
   2 words per boxed read in bytecode). Min, not mean: a GC-triggered
   allocation or ramp-up noise can only inflate a sample, never
   deflate it. *)
let calibrate () =
  let best = ref max_int in
  for _ = 1 to 8 do
    let a = int_of_float (Gc.minor_words ()) in
    let b = int_of_float (Gc.minor_words ()) in
    if b - a < !best then best := b - a
  done;
  overhead := !best

let set_armed b =
  armed_flag := b;
  if b then calibrate ()

let armed () = !armed_flag

(* dlint-allow: transitive-alloc-in-hotpath -- site registration: callers bind their site once at setup and keep the handle; the registry lookup never sits inside a measured poll *)
let site ?(warmup = 16) name =
  match Hashtbl.find_opt registry name with
  | Some s -> s
  | None ->
      let s =
        {
          name;
          warmup;
          seen = 0;
          measured = 0;
          violations = 0;
          worst = 0;
          w0 = 0;
          in_window = false;
        }
      in
      Hashtbl.add registry name s;
      s

(* dlint: hotpath *)
let enter s =
  if !armed_flag then begin
    s.in_window <- true;
    s.w0 <- int_of_float (Gc.minor_words ())
  end

(* The [w1] read happens before any of the arithmetic below, so even a
   boxed (bytecode) read lands its box outside the measured window. *)
(* dlint: hotpath *)
let leave_steady s =
  if !armed_flag && s.in_window then begin
    let w1 = int_of_float (Gc.minor_words ()) in
    s.in_window <- false;
    s.seen <- s.seen + 1;
    if s.seen > s.warmup then begin
      s.measured <- s.measured + 1;
      let extra = w1 - s.w0 - !overhead in
      if extra > 0 then begin
        s.violations <- s.violations + 1;
        if extra > s.worst then s.worst <- extra
      end
    end
  end

(* dlint: hotpath *)
let leave_busy s = if !armed_flag then s.in_window <- false

let stats_of s =
  {
    site_name = s.name;
    polls = s.seen;
    measured = s.measured;
    site_violations = s.violations;
    worst_words = s.worst;
  }

let sites () =
  Hashtbl.fold (fun _ s acc -> s :: acc) registry []
  |> List.sort (fun a b -> String.compare a.name b.name)
  |> List.map stats_of

let total_measured () = Hashtbl.fold (fun _ (s : site) acc -> acc + s.measured) registry 0

let total_violations () =
  Hashtbl.fold (fun _ (s : site) acc -> acc + s.violations) registry 0

let reset () =
  Hashtbl.iter
    (fun _ s ->
      s.seen <- 0;
      s.measured <- 0;
      s.violations <- 0;
      s.worst <- 0;
      s.w0 <- 0;
      s.in_window <- false)
    registry

(* Silent when clean, offender sites otherwise — mirrors
   [Heap.log_teardown] / [Pdpix.log_oracle_teardown] for use in
   [Engine.Sim.at_teardown]. *)
let log_teardown ?(fmt = Format.err_formatter) () =
  match List.filter (fun st -> st.site_violations > 0) (sites ()) with
  | [] -> ()
  | offenders ->
      Format.fprintf fmt "gc-budget oracle: %d steady poll(s) allocated@."
        (List.fold_left (fun acc st -> acc + st.site_violations) 0 offenders);
      List.iter
        (fun st ->
          Format.fprintf fmt "  %s: %d of %d measured polls allocated (worst %d words)@."
            st.site_name st.site_violations st.measured st.worst_words)
        offenders

let report_lines () =
  List.map
    (fun st ->
      Printf.sprintf "gc-budget %-24s polls=%d measured=%d violations=%d worst=%dw"
        st.site_name st.polls st.measured st.site_violations st.worst_words)
    (sites ())
