(* The GC allocation-budget oracle: the one allocation check.

   Two kinds of measured window, both armed by the selfcheck (and so by
   [dune runtest] / [dune build @selfcheck]):

   - steady polls: every steady-state poll of an instrumented poll loop must
     allocate ZERO words on the OCaml minor heap;
   - budgeted busy windows: a site registered with [~budget] (words per
     unit) must allocate at most [budget * units] words between [enter]
     and [leave_busy ~units]. The selfcheck wraps each flavor's whole
     echo run in one such window, so the budget is an exact per-echo
     word count for the full datapath.

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

   The counter is process-wide, so a window must not span a fiber
   switch into other work it does not own: the poll-loop windows close
   before the loop yields, and a budgeted window either covers the
   whole simulation (the selfcheck) or code that never suspends.

   Protocol per poll iteration, chosen so the window excludes the
   oracle's own bookkeeping and the effect-based scheduler machinery
   (yield / park perform effects, which allocate continuations by
   design — that cost is the scheduler's, not the datapath's):

     enter site;
     ... poll body ...
     if nothing_happened then leave_steady site  (* asserted zero *)
     else leave_busy site                        (* budgeted sites only *)

   The first [warmup] steady polls per site are exempt: lazy
   initialisation (first-use table growth, trace setup) is allowed to
   allocate once; the claim is about the steady state. *)

type site = {
  name : string;
  warmup : int;
  budget : int option; (* words per unit on busy windows; None = unchecked *)
  mutable seen : int; (* steady polls observed *)
  mutable measured : int; (* steady polls measured (post-warmup) *)
  mutable violations : int; (* steady polls that allocated + busy windows over budget *)
  mutable worst : int; (* max words over budget in one violating window *)
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

let site ?(warmup = 16) ?budget name =
  match Hashtbl.find_opt registry name with
  | Some s -> s
  | None ->
      let s =
        {
          name;
          warmup;
          budget;
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

let enter s =
  if !armed_flag then begin
    s.in_window <- true;
    s.w0 <- int_of_float (Gc.minor_words ())
  end

let over s words =
  if words > 0 then begin
    s.violations <- s.violations + 1;
    if words > s.worst then s.worst <- words
  end

(* The [w1] reads happen before any of the arithmetic below, so even a
   boxed (bytecode) read lands its box outside the measured window. *)
let leave_steady s =
  if !armed_flag && s.in_window then begin
    let w1 = int_of_float (Gc.minor_words ()) in
    s.in_window <- false;
    s.seen <- s.seen + 1;
    if s.seen > s.warmup then begin
      s.measured <- s.measured + 1;
      over s (w1 - s.w0 - !overhead)
    end
  end

let leave_busy ?(units = 1) s =
  if !armed_flag && s.in_window then begin
    let w1 = int_of_float (Gc.minor_words ()) in
    s.in_window <- false;
    match s.budget with
    | Some per_unit -> over s (w1 - s.w0 - !overhead - (per_unit * units))
    | None -> ()
  end

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
      Format.fprintf fmt "gc-budget oracle: %d window(s) over budget@."
        (List.fold_left (fun acc st -> acc + st.site_violations) 0 offenders);
      List.iter
        (fun st ->
          Format.fprintf fmt "  %s: %d window(s) over budget (worst %d words over)@."
            st.site_name st.site_violations st.worst_words)
        offenders
