type fingerprint = {
  digest : string;
  events : int;
  metrics : string;
  ownership_violations : int;
  gc_violations : int;
}
type result = { seed : int64; first : fingerprint; second : fingerprint; ok : bool }

let heap_line name (s : Memory.Heap.stats) =
  Printf.sprintf "  heap %-12s alloc=%d free=%d live=%d uaf_protected=%d bytes_copied=%d"
    name s.allocations s.frees s.live s.uaf_protected s.bytes_copied

(* Minor words per echo of one flavor's whole run below (boot,
   handshake, echos, teardown, with the oracles and the flight ring
   armed), rounded up from the count at seed 42 and 64 x 256 B echos.
   The run is deterministic, so the count is exact: one extra word per
   echo fails the selfcheck. *)
let words_per_echo = function
  | Demikernel.Boot.Catnip_os -> 4908 (* 314,064 words / 64 = 4,907.25 *)
  | Demikernel.Boot.Catnap_os -> 4607 (* 294,823 words / 64 = 4,606.61 *)
  | Demikernel.Boot.Catmint_os -> 4917 (* 314,640 words / 64 = 4,916.25 *)

(* One echo with the ownership oracle armed on both ends; returns
   (trace digest, events, metrics lines, ownership violations,
   gc-budget violations). *)
let scenario ~seed ~count flavor =
  let name = Demikernel.Boot.flavor_name flavor in
  let window =
    Memory.Gcbudget.site ~budget:(words_per_echo flavor) ("selfcheck." ^ name)
  in
  (* Per-scenario window for the gc-budget oracle: counters are global,
     so zero them here and read them after teardown. *)
  Memory.Gcbudget.reset ();
  (* The flight ring stays armed at [demi slo]'s capacity: every steady
     poll must stay allocation-free while it records. The budget window
     spans the whole simulation, so no other work shares the
     process-wide counter. Boot and the handshake are per run, not per
     echo, so a run shorter than the pinned 64 echos keeps the 64-echo
     total. *)
  Memory.Gcbudget.enter window;
  let r =
    Observe.run { Observe.off with oracle = true; flight = Some 4096 }
      { (Observe.echo flavor) with seed; count; msg_size = 256 }
  in
  Memory.Gcbudget.leave_busy window ~units:(max count 64);
  Memory.Gcbudget.log_teardown ();
  let hist = Metrics.Hdr.of_list r.latencies in
  let violations = Option.value r.violations ~default:0 in
  let gc_violations = Memory.Gcbudget.total_violations () in
  let metrics =
    String.concat "\n"
      ([
         Printf.sprintf "  %-8s echos=%d rtt: mean=%.0fns p50=%dns p99=%dns" name
           (Metrics.Hdr.count hist) (Metrics.Hdr.mean hist) (Metrics.Hdr.p50 hist)
           (Metrics.Hdr.p99 hist);
       ]
      @ List.map
          (fun (node : Demikernel.Boot.node) ->
            heap_line node.host.name (Memory.Heap.stats node.host.heap))
          r.nodes
      @ [
          Printf.sprintf "  ownership %-10s violations=%d" name violations;
          Printf.sprintf "  gc-budget %-10s steady_polls=%d violations=%d" name
            (Memory.Gcbudget.total_measured ())
            gc_violations;
        ])
  in
  (r.digest, r.events, metrics, violations, gc_violations)

let fingerprint ~seed ~count =
  let runs =
    List.map
      (scenario ~seed ~count)
      [ Demikernel.Boot.Catnip_os; Demikernel.Boot.Catnap_os; Demikernel.Boot.Catmint_os ]
  in
  {
    digest = String.concat "+" (List.map (fun (d, _, _, _, _) -> d) runs);
    events = List.fold_left (fun acc (_, e, _, _, _) -> acc + e) 0 runs;
    metrics = String.concat "\n" (List.map (fun (_, _, m, _, _) -> m) runs);
    ownership_violations = List.fold_left (fun acc (_, _, _, v, _) -> acc + v) 0 runs;
    gc_violations = List.fold_left (fun acc (_, _, _, _, g) -> acc + g) 0 runs;
  }

let run ?(seed = 42L) ?(count = 64) () =
  (* Arm the heap sanitizer and the gc-budget oracle for the duration:
     the self-check doubles as an end-to-end exercise of
     poison/canary/leak reporting, of the zero-allocation claim for
     every instrumented steady-state poll loop, and of each flavor's per-echo
     word budget. *)
  let prior = Memory.Heap.sanitize_default () in
  let prior_gc = Memory.Gcbudget.armed () in
  Memory.Heap.set_sanitize_default true;
  Memory.Gcbudget.set_armed true;
  Fun.protect
    ~finally:(fun () ->
      Memory.Heap.set_sanitize_default prior;
      Memory.Gcbudget.set_armed prior_gc)
    (fun () ->
      let first = fingerprint ~seed ~count in
      let second = fingerprint ~seed ~count in
      let ok =
        String.equal first.digest second.digest
        && first.events = second.events
        && String.equal first.metrics second.metrics
        && first.ownership_violations = 0
        && second.ownership_violations = 0
        && first.gc_violations = 0
        && second.gc_violations = 0
      in
      { seed; first; second; ok })

let print fmt r =
  Format.fprintf fmt "determinism selfcheck (seed %Ld): two full runs per flavor@." r.seed;
  Format.fprintf fmt "  trace digest  %s@." r.first.digest;
  Format.fprintf fmt "  events        %d@." r.first.events;
  Format.fprintf fmt "%s@." r.first.metrics;
  if r.ok then
    Format.fprintf fmt
      "selfcheck PASSED: identical trace digests, clean ownership protocol, \
       allocation-free steady polls@."
  else begin
    if r.first.ownership_violations + r.second.ownership_violations > 0 then
      Format.fprintf fmt "selfcheck FAILED: %d ownership violation(s)@."
        (r.first.ownership_violations + r.second.ownership_violations)
    else if r.first.gc_violations + r.second.gc_violations > 0 then
      Format.fprintf fmt "selfcheck FAILED: %d gc-budget violation(s)@."
        (r.first.gc_violations + r.second.gc_violations)
    else Format.fprintf fmt "selfcheck FAILED: runs diverged@.";
    Format.fprintf fmt "  second digest %s@." r.second.digest;
    Format.fprintf fmt "  second events %d@." r.second.events;
    Format.fprintf fmt "%s@." r.second.metrics
  end
