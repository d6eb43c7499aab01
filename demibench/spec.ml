(* The benchmark's declared contract: its workloads, the end-to-end
   metrics with the bound by which each may worsen, and the per-layer
   metrics. BENCHMARK.json at the repo root is [render ()] verbatim; the
   runtest rule diffs the two, so the file and the code cannot drift. *)

type better = Lower | Higher

type metric = { name : string; unit : string; better : better; bound : float }

let e name unit better bound = { name; unit; better; bound }

(* Units: "vus", "vns" and "kreq/vs" are simulated (virtual) time,
   "CPU-s" and "ns" are real time on the machine running the benchmark.

   Bounds are shares of the parent's median, at least three times the
   spread (IQR / median) measured across ten seeds where the contract's
   0.25 ceiling allows. The CPU-time bounds also absorb other tenants of
   a shared machine: on a 2-vCPU VM they shifted CPU per request by up to
   a third for a minute at a time. *)
let end_to_end =
  [
    e "sim_kreq_per_s" "kreq/CPU-s" Higher 0.25;
    e "alloc_kb_per_req" "KB" Lower 0.01;
    e "promoted_kb_per_req" "KB" Lower 0.05;
    e "peak_heap_mb" "MB" Lower 0.10;
    e "setup_s" "s" Lower 0.25;
    e "virt_p50_us" "vus" Lower 0.02;
    e "virt_p99_us" "vus" Lower 0.10;
    e "virt_p999_us" "vus" Lower 0.25;
    e "virt_kreq_per_s" "kreq/vs" Higher 0.04;
  ]

(* The virtual outputs repeat exactly for one seed, so their bounds only
   cover the spread across seeds: [compare] on runs of the same seeds
   counts any worsening of these as worse. *)
let pinned = [ "virt_p50_us"; "virt_p99_us"; "virt_p999_us"; "virt_kreq_per_s" ]

let l name unit better = { name; unit; better; bound = 0. }

let per_layer =
  [
    l "engine.events_per_req" "count" Lower;
    l "memory.heap_allocs_per_req" "count" Lower;
    l "memory.copied_bytes_per_req" "B" Lower;
    l "net.frames_per_req" "count" Lower;
    l "net.wire_bytes_per_req" "B" Lower;
    l "tcp.retransmits_per_kreq" "count" Lower;
    l "tcp.conns_peak" "count" Lower;
    l "demikernel.push_per_req" "count" Lower;
    l "demikernel.pop_per_req" "count" Lower;
    l "demikernel.wait_per_req" "count" Lower;
    l "demikernel.switches_per_req" "count" Lower;
    l "demikernel.wait_set_mean" "count" Lower;
    l "apps.issue_late_p99_ns" "vns" Lower;
    l "virt.sched_ns_per_req" "vns" Lower;
    l "virt.libos_ns_per_req" "vns" Lower;
    l "virt.proto_ns_per_req" "vns" Lower;
    l "virt.device_ns_per_req" "vns" Lower;
    l "virt.wire_ns_per_req" "vns" Lower;
    l "virt.copy_ns_per_req" "vns" Lower;
    l "observe.overhead_frac" "ratio" Lower;
    l "observe.kb_per_req" "KB" Lower;
  ]

let command = [ "bash"; "demibench/run.sh" ]

let run_seconds = 20

let better_s = function Lower -> "lower" | Higher -> "higher"

let quote s = "\"" ^ s ^ "\""

let render () =
  let b = Buffer.create 4096 in
  let list items f =
    Buffer.add_string b "[\n";
    List.iteri
      (fun i x ->
        Buffer.add_string b "    ";
        f x;
        Buffer.add_string b (if i < List.length items - 1 then ",\n" else "\n"))
      items;
    Buffer.add_string b "  ]"
  in
  Printf.bprintf b "{\n  \"command\": [%s],\n"
    (String.concat ", " (List.map quote command));
  Printf.bprintf b "  \"paths\": [\"demibench\"],\n";
  Printf.bprintf b "  \"run_seconds\": %d,\n" run_seconds;
  Buffer.add_string b "  \"workloads\": ";
  list World.workloads (fun w ->
      Printf.bprintf b "{\"name\": %s, \"why\": %s}" (quote w.World.name) (quote w.World.why));
  Buffer.add_string b ",\n  \"end_to_end\": ";
  list end_to_end (fun m ->
      Printf.bprintf b "{\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}" (quote m.name)
        (quote m.unit) (quote (better_s m.better)) m.bound);
  Buffer.add_string b ",\n  \"per_layer\": ";
  list per_layer (fun m ->
      Printf.bprintf b "{\"name\": %s, \"unit\": %s, \"better\": %s}" (quote m.name)
        (quote m.unit) (quote (better_s m.better)));
  Buffer.add_string b "\n}\n";
  Buffer.contents b
