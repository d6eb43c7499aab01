type fingerprint = {
  digest : string;
  events : int;
  metrics : string;
  ownership_violations : int;
  words_over : int;
}
type result = { seed : int64; first : fingerprint; second : fingerprint; ok : bool }

let heap_line name (s : Memory.Heap.stats) =
  Printf.sprintf "  heap %-12s alloc=%d free=%d live=%d uaf_protected=%d bytes_copied=%d"
    name s.allocations s.frees s.live s.uaf_protected s.bytes_copied

(* Minor words per echo of one flavor's whole run below (boot,
   handshake, echos, teardown, with the ownership oracle and the flight
   ring armed; the trace digest is rendered after the count), rounded
   up from the count at seed 42 and 64 x 256 B echos. The run is deterministic, so the count is exact: one extra
   word per echo, or two per idle poll, fails the selfcheck. Under
   OCAMLRUNPARAM=R the first Catnip run counts 59 words more than the
   second: the stdlib seeds its Hashtbl randomizer once, lazily. *)
let words_per_echo = function
  | Demikernel.Boot.Catnip_os -> 754 (* 48,232 words / 64 = 753.63, first run under R *)
  | Demikernel.Boot.Catnap_os -> 819 (* 52,389 words / 64 = 818.58 *)
  | Demikernel.Boot.Catmint_os -> 643 (* 41,113 words / 64 = 642.39 *)

let minor_words () = int_of_float (Gc.minor_words ())

(* One echo run with the ownership oracle armed on both ends; returns
   (trace digest, events, metrics lines, ownership violations, words
   over budget). The word and byte counters are process-wide and the
   window spans the whole simulation, so no other work shares them.
   Boot and the handshake are per run, not per echo, so a run shorter
   than the pinned 64 echos keeps the 64-echo total. *)
let scenario ~seed ~count flavor =
  let name = Demikernel.Boot.flavor_name flavor in
  let moved0 = Engine.Copies.moved () in
  let words0 = minor_words () in
  let r =
    Observe.run { Observe.traced with oracle = true; flight = Some 4096 }
      { (Observe.echo flavor) with seed; count; msg_size = 256 }
  in
  let words = minor_words () - words0 in
  let moved = Engine.Copies.moved () - moved0 in
  let budget = words_per_echo flavor * max count 64 in
  let words_over = max 0 (words - budget) in
  if words_over > 0 then
    Printf.eprintf "selfcheck.%s: %d words over budget (%d words, budget %d)\n%!" name
      words_over words budget;
  let hist = Metrics.Hdr.of_list r.latencies in
  let violations = Option.value r.violations ~default:0 in
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
          Printf.sprintf "  copies    %-10s bytes_moved=%d" name moved;
        ])
  in
  (Observe.digest r, r.events, metrics, violations, words_over)

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
    words_over = List.fold_left (fun acc (_, _, _, _, w) -> acc + w) 0 runs;
  }

let run ?(seed = 42L) ?(count = 64) () =
  (* Arm the heap sanitizer for the duration: the self-check doubles as
     an end-to-end exercise of poison/canary/leak reporting. *)
  let prior = Memory.Heap.sanitize_default () in
  Memory.Heap.set_sanitize_default true;
  Fun.protect
    ~finally:(fun () -> Memory.Heap.set_sanitize_default prior)
    (fun () ->
      let first = fingerprint ~seed ~count in
      let second = fingerprint ~seed ~count in
      let ok =
        String.equal first.digest second.digest
        && first.events = second.events
        && String.equal first.metrics second.metrics
        && first.ownership_violations = 0
        && second.ownership_violations = 0
        && first.words_over = 0
        && second.words_over = 0
      in
      { seed; first; second; ok })

let print fmt r =
  Format.fprintf fmt "determinism selfcheck (seed %Ld): two full runs per flavor@." r.seed;
  Format.fprintf fmt "  trace digest  %s@." r.first.digest;
  Format.fprintf fmt "  events        %d@." r.first.events;
  Format.fprintf fmt "%s@." r.first.metrics;
  if r.ok then
    Format.fprintf fmt
      "selfcheck PASSED: identical trace digests and bytes moved, clean ownership \
       protocol, every flavor within its word budget@."
  else begin
    if r.first.ownership_violations + r.second.ownership_violations > 0 then
      Format.fprintf fmt "selfcheck FAILED: %d ownership violation(s)@."
        (r.first.ownership_violations + r.second.ownership_violations)
    else if r.first.words_over + r.second.words_over > 0 then
      Format.fprintf fmt "selfcheck FAILED: %d minor word(s) over the per-echo budgets@."
        (r.first.words_over + r.second.words_over)
    else Format.fprintf fmt "selfcheck FAILED: runs diverged@.";
    Format.fprintf fmt "  second digest %s@." r.second.digest;
    Format.fprintf fmt "  second events %d@." r.second.events;
    Format.fprintf fmt "%s@." r.second.metrics
  end
