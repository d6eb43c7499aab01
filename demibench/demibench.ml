(* demibench: the full-datapath benchmark.

   Every number comes from real Boot worlds — libOS, Tcp.Stack or the
   RDMA device, the fabric, Net.Cost charging — loaded by PDPIX clients
   the benchmark owns (see world.ml). Two clocks are reported: the
   simulator's own cost (process CPU, allocation, heap), which
   performance work moves, and the virtual outputs (latency quantiles,
   throughput), which are the reproduction's results and move only when
   behaviour changes.

   Usage:
     demibench [--workload W] [--seed N] [--out DIR]
         every workload (or W): 3 untraced reps + 1 traced rep; prints
         every metric with its unit
     demibench --workload W --seed N --seconds S --trace 0|1
         one workload; the last stdout line is a JSON result with the
         end-to-end metrics (--trace 0: two untraced reps of each world
         for every run_seconds in S, at least two) or the per-layer ones
         (--trace 1: one untraced and one traced rep of world 0)
     demibench --smoke [--spec FILE]
         every workload at ~1% size, 3 untraced + 1 traced reps; checks
         outputs, metric names and units, and that FILE (BENCHMARK.json)
         is what [demibench spec] prints
     demibench compare DIR_A DIR_B
         medians, quartiles and a verdict per workload x end-to-end metric
     demibench spec    print BENCHMARK.json

   Each rep runs in its own re-executed process ([demibench rep ...]), so
   neither peak heap nor GC state leaks between reps. All load is
   generated inside that one single-threaded process; the simulated
   connections are workload inputs, not OS sockets. Results are
   appended to DIR/runs.tsv (default out/demibench) for [compare]. *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("demibench: " ^ s); exit 2) fmt

(* ---------- statistics ---------- *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's statistics.quantiles(xs, n=4), default (exclusive) method. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

(* ---------- reps in child processes ---------- *)

(* An untraced rep also sets its world up again, after the measured one
   so it cannot disturb it, until 0.2 s of setup CPU is in: [setup_s] is
   then a median over samples spread across the whole run, even where
   one setup takes 0.1 ms. *)
let rep_main ~workload ~seed ~traced ~smoke =
  let w = match World.find_workload workload with Some w -> w | None -> exit 2 in
  let shape = if smoke then w.World.smoke else w.World.full in
  let r = World.run ~traced ~seed shape in
  let rec probe acc spent n =
    if traced || spent >= 0.2 || n >= 2000 then acc
    else
      let s = World.setup_only ~seed shape in
      probe (s :: acc) (spent +. s) (n + 1)
  in
  let setups = probe [ r.World.setup_s ] r.World.setup_s 1 in
  set_binary_mode_out stdout true;
  Marshal.to_channel stdout ((r, setups) : World.result * float list) [];
  exit 0

type rep = { r : World.result; setups : float list }

let spawn_rep ~workload ~seed ~traced ~smoke =
  let args =
    [ Sys.executable_name; "rep"; "--workload"; workload; "--seed"; string_of_int seed ]
    @ (if traced then [ "--traced" ] else [])
    @ if smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  set_binary_mode_in ic true;
  let r =
    try Some (Marshal.from_channel ic : World.result * float list)
    with End_of_file | Failure _ -> None
  in
  match (r, Unix.close_process_in ic) with
  | Some (r, setups), Unix.WEXITED 0 -> Ok { r; setups }
  | _, _ -> Error (Printf.sprintf "%s rep (seed %d) crashed" workload seed)

(* ---------- one workload's measurements ---------- *)

(* A run with --seed S loads [subseeds] worlds, seeded S*16+0..2, and
   pools their latency samples, so a percentile as far out as p99.9 has
   dozens of samples beyond it on every workload. A world loaded twice
   must give the same virtual digest. *)
let subseeds = 3
let sub_seed seed k = (seed * 16) + k

type measured = {
  workload : World.workload;
  seed : int;
  reps : (int * World.result) list;  (** (world, result) in run order *)
  setup : float list;  (** setup-stage CPU seconds, from every untraced rep *)
  problems : string list;
}

(* World 0 untraced, then again with the recorders armed — next to each
   other, so the observer's price is measured under the same machine
   load — then worlds 1 and 2: 3 untraced + 1 traced reps, and a
   determinism check. *)
let full_plan = [ (0, false); (0, true); (1, false); (2, false) ]

(* [per_world] untraced reps of every world, interleaved. The plan is
   fixed before the first rep, so no statistic depends on how many reps
   happen to fit in a time box. *)
let untraced_plan ~per_world = List.init (per_world * subseeds) (fun i -> (i mod subseeds, false))

let untraced m = List.filter (fun (_, r) -> not r.World.traced) m.reps
let traced m = List.filter (fun (_, r) -> r.World.traced) m.reps

let attempted_failed reps =
  List.fold_left (fun (a, f) (_, r) -> (a + r.World.attempted, f + r.World.failed)) (0, 0) reps

(* Every rep of [plan], a (world, traced) list, in order; the first crash
   ends the run. *)
let measure ?(smoke = false) ~plan (w : World.workload) ~seed =
  let rec go acc = function
    | [] -> (List.rev acc, [])
    | (k, traced) :: rest -> (
        match spawn_rep ~workload:w.World.name ~seed:(sub_seed seed k) ~traced ~smoke with
        | Ok rep -> go ((k, rep) :: acc) rest
        | Error e -> (List.rev acc, [ e ]))
  in
  let runs, problems = go [] plan in
  let reps = List.map (fun (k, rep) -> (k, rep.r)) runs in
  let setup = List.concat_map (fun (_, rep) -> rep.setups) runs in
  let violations =
    List.filter_map
      (fun (_, r) ->
        if r.World.violations = 0 then None
        else
          Some
            (Printf.sprintf "%d output violation(s), first: %s" r.World.violations
               r.World.first_violation))
      reps
  in
  let failures =
    match attempted_failed reps with
    | a, f when f > 0 -> [ Printf.sprintf "%d of %d requests failed" f a ]
    | _ -> []
  in
  (* The recorders are pure observers and the simulator is
     deterministic: every rep of one world, traced or not, must agree bit
     for bit on the virtual outputs. *)
  let diverged =
    List.filter_map
      (fun k ->
        match List.filter_map (fun (k', r) -> if k' = k then Some r.World.digest else None) reps with
        | d :: rest when List.exists (( <> ) d) rest ->
            Some (Printf.sprintf "world %d: virtual digests differ: %s" k (String.concat " " (d :: rest)))
        | _ -> None)
      (List.init subseeds Fun.id)
  in
  { workload = w; seed; reps; setup; problems = violations @ failures @ diverged @ problems }

(* ---------- metrics ---------- *)

(* The load-phase CPU of a world's least-disturbed run. The simulated
   work is deterministic, so other processes on the machine can only add
   CPU time, and they come in bursts: slice by slice, the least CPU any
   rep of the world spent. Reps of one world cut their load phase at the
   same requests, so slice [i] is the same work in every rep; the slice
   counts differ only if the world diverged, which fails the run. *)
let least_cpu = function
  | [] -> nan
  | (r : World.result) :: rest ->
      let least = Array.copy r.World.slice_s in
      List.iter
        (fun (r' : World.result) ->
          Array.iteri
            (fun i s -> if i < Array.length least then least.(i) <- Float.min least.(i) s)
            r'.World.slice_s)
        rest;
      Array.fold_left ( +. ) 0. least

let per_req (r : World.result) x = float_of_int x /. float_of_int (max 1 r.World.completed)
let cpu_ns_per_req (r : World.result) = r.World.load_s *. 1e9 /. float_of_int (max 1 r.World.completed)
let kb_per_req (r : World.result) words = words *. 8. /. 1024. /. float_of_int (max 1 r.World.completed)

(* Each world is reduced to one value first — its least-disturbed CPU,
   its median allocation — and the worlds are then pooled, so the
   numbers weigh every world the same however many reps it had. *)
let end_to_end m =
  let worlds =
    List.filter_map
      (fun k ->
        match List.filter_map (fun (k', r) -> if k' = k then Some r else None) (untraced m) with
        | [] -> None
        | rs -> Some rs)
      (List.init subseeds Fun.id)
  in
  match worlds with
  | [] -> []
  | _ ->
      (* Reps of one world agree on every virtual output, so its first
         rep stands for it. *)
      let first = List.map List.hd worlds in
      let lat = Metrics.Hdr.create () in
      List.iter (fun (r : World.result) -> Metrics.Hdr.merge lat r.World.lat) first;
      let sum f = List.fold_left (fun acc rs -> acc +. f rs) 0. worlds in
      let completed rs = float_of_int (List.hd rs).World.completed in
      let med f rs = median (List.map f rs) in
      let kb words = sum (med words) *. 8. /. 1024. /. sum completed in
      let us q = float_of_int (Metrics.Hdr.quantile lat q) /. 1e3 in
      [
        ("sim_kreq_per_s", sum completed /. 1e3 /. sum least_cpu);
        ("alloc_kb_per_req", kb (fun r -> r.World.minor_words));
        ("promoted_kb_per_req", kb (fun r -> r.World.promoted_words));
        ( "peak_heap_mb",
          List.fold_left
            (fun acc rs -> Float.max acc (med (fun r -> float_of_int r.World.top_heap_words) rs))
            0. worlds
          *. 8. /. 1048576. );
        ("setup_s", median m.setup);
        ("virt_p50_us", us 0.5);
        ("virt_p99_us", us 0.99);
        ("virt_p999_us", us 0.999);
        ( "virt_kreq_per_s",
          sum completed *. 1e6 /. sum (fun rs -> float_of_int (List.hd rs).World.virt_ns) );
      ]

let per_layer m =
  match traced m with
  | [] -> []
  | (k, t) :: _ ->
      let c = t.World.load in
      let pr = per_req t in
      let span comp = pr c.World.span_ns.(Engine.Span.component_index comp) in
      (* Traced against untraced reps of the same world, best against
         best: the recorders' price. *)
      let same_world = List.filter_map (fun (k', r) -> if k' = k then Some r else None) (untraced m) in
      let best_cpu rs = List.fold_left (fun acc r -> Float.min acc (cpu_ns_per_req r)) infinity rs in
      let wait_set_mean = float_of_int c.World.wait_tokens /. float_of_int (max 1 c.World.wait_sets) in
      [
        ("engine.events_per_req", pr c.World.events);
        ("memory.heap_allocs_per_req", pr c.World.heap_allocs);
        ("memory.copied_bytes_per_req", pr c.World.copied_bytes);
        ("net.frames_per_req", pr c.World.frames);
        ("net.wire_bytes_per_req", pr c.World.wire_bytes);
        ("tcp.retransmits_per_kreq", 1e3 *. pr c.World.retransmits);
        ("tcp.conns_peak", float_of_int t.World.conns_peak);
        ("demikernel.push_per_req", pr c.World.pushes);
        ("demikernel.pop_per_req", pr c.World.pops);
        ("demikernel.wait_per_req", pr c.World.waits);
        ("demikernel.switches_per_req", pr c.World.switches);
        ("demikernel.wait_set_mean", wait_set_mean);
        ("apps.issue_late_p99_ns", float_of_int t.World.late_p99_ns);
        ("virt.sched_ns_per_req", span Engine.Span.Sched);
        ("virt.libos_ns_per_req", span Engine.Span.Libos);
        ("virt.proto_ns_per_req", span Engine.Span.Proto);
        ("virt.device_ns_per_req", span Engine.Span.Device);
        ("virt.wire_ns_per_req", span Engine.Span.Wire);
        ("virt.copy_ns_per_req", span Engine.Span.Copy);
        ("observe.overhead_frac", (best_cpu (List.map snd (traced m)) /. best_cpu same_world) -. 1.);
        ( "observe.kb_per_req",
          kb_per_req t t.World.minor_words
          -. median (List.map (fun r -> kb_per_req r r.World.minor_words) same_world) );
      ]

(* In the spec's order, each metric once; missing ones are NaN. *)
let values m specs =
  let got = end_to_end m @ per_layer m in
  List.map
    (fun (s : Spec.metric) ->
      (s, match List.assoc_opt s.Spec.name got with Some v -> v | None -> nan))
    specs

(* ---------- output ---------- *)

let num v = if Float.is_finite v then Printf.sprintf "%.15g" v else "null"

let print_table m specs =
  Printf.printf "\n%s (seed %d): %d untraced + %d traced reps\n" m.workload.World.name m.seed
    (List.length (untraced m)) (List.length (traced m));
  List.iter
    (fun ((s : Spec.metric), v) -> Printf.printf "  %-32s %14s  %s\n" s.Spec.name (num v) s.Spec.unit)
    (values m specs);
  let a, f = attempted_failed m.reps in
  Printf.printf "  %-32s %14d / %d\n" "failed / attempted" f a;
  Printf.printf "  %-32s %s\n" "CPU us/req by rep (world:value)"
    (String.concat " "
       (List.map
          (fun (k, r) ->
            Printf.sprintf "%d%s:%.2f" k (if r.World.traced then "t" else "") (cpu_ns_per_req r /. 1e3))
          m.reps));
  List.iter (fun p -> Printf.printf "  PROBLEM: %s\n" p) m.problems

let json_line m specs =
  let a, f = attempted_failed m.reps in
  let metrics =
    List.map
      (fun ((s : Spec.metric), v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.Spec.name (num v) s.Spec.unit)
      (values m specs)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (m.problems = []) a f (String.concat ", " metrics)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* One row per metric, plus the run's attempted and failed counts, which
   [compare] turns into the failed share. *)
let append_runs out m specs =
  mkdir_p out;
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat out "runs.tsv") in
  let row name v = Printf.fprintf oc "%s\t%d\t%s\t%s\n" m.workload.World.name m.seed name v in
  List.iter
    (fun ((s : Spec.metric), v) -> if Float.is_finite v then row s.Spec.name (num v))
    (values m specs);
  let a, f = attempted_failed m.reps in
  row "attempted" (string_of_int a);
  row "failed" (string_of_int f);
  close_out oc

(* ---------- compare ---------- *)

let read_runs dir =
  let path = if Sys.is_directory dir then Filename.concat dir "runs.tsv" else dir in
  let ic = try open_in path with Sys_error e -> die "%s" e in
  let rows = ref [] in
  (try
     while true do
       match String.split_on_char '\t' (input_line ic) with
       | [ w; seed; metric; v ] -> (
           match (int_of_string_opt seed, float_of_string_opt v) with
           | Some seed, Some v -> rows := (w, seed, metric, v) :: !rows
           | _ -> ())
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !rows

(* A pinned metric measured on the same seeds on both sides is compared
   seed by seed: the outputs are deterministic, so any worsening is a
   behaviour change, whatever the bound. *)
let pinned_verdict ~sign pa pb =
  let seeds p = List.sort_uniq compare (List.map fst p) in
  if pa = [] || seeds pa <> seeds pb then None
  else
    let at p seed = median (List.filter_map (fun (s, v) -> if s = seed then Some v else None) p) in
    let d = List.map (fun seed -> sign *. (at pb seed -. at pa seed)) (seeds pa) in
    Some
      (if List.exists (fun x -> x > 0.) d then "worse"
       else if List.exists (fun x -> x < 0.) d then "better"
       else "within bound")

let compare_dirs a b =
  let ra = read_runs a and rb = read_runs b in
  let by_seed rows w metric =
    List.filter_map (fun (w', seed, m', v) -> if w' = w && m' = metric then Some (seed, v) else None) rows
  in
  let vals rows w metric = List.map snd (by_seed rows w metric) in
  let names rows = List.sort_uniq compare (List.map (fun (w, _, _, _) -> w) rows) in
  let workloads = List.filter (fun w -> List.mem w (names rb)) (names ra) in
  let any_worse = ref false in
  let cell xs m = let q1, q3 = quartiles xs in Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3 in
  List.iter
    (fun w ->
      Printf.printf "\n%s\n  %-22s %-29s %-29s %s\n" w "metric" "A median [q1, q3]"
        "B median [q1, q3]" "verdict";
      List.iter
        (fun (s : Spec.metric) ->
          match (by_seed ra w s.Spec.name, by_seed rb w s.Spec.name) with
          | [], _ | _, [] -> ()
          | pa, pb ->
              let xa = List.map snd pa and xb = List.map snd pb in
              let ma = median xa and mb = median xb in
              let spread xs m = let q1, q3 = quartiles xs in (q3 -. q1) /. Float.abs m in
              let sign = match s.Spec.better with Spec.Lower -> 1. | Spec.Higher -> -1. in
              let worse = sign *. (mb -. ma) /. Float.abs ma in
              let all_better =
                List.for_all (fun y -> List.for_all (fun x -> sign *. (y -. x) < 0.) xa) xb
              in
              let pinned =
                if List.mem s.Spec.name Spec.pinned then pinned_verdict ~sign pa pb else None
              in
              let verdict =
                match pinned with
                | Some v -> v
                | None ->
                    if Float.max (spread xa ma) (spread xb mb) > s.Spec.bound then
                      if all_better then "better" else "unresolved"
                    else if worse > s.Spec.bound then "worse"
                    else if -.worse > s.Spec.bound then "better"
                    else "within bound"
              in
              if verdict = "worse" then any_worse := true;
              Printf.printf "  %-22s %-29s %-29s %s (%+.2f%%, %s)\n" s.Spec.name (cell xa ma)
                (cell xb mb) verdict (100. *. worse)
                (if pinned = None then Printf.sprintf "bound %g%%" (100. *. s.Spec.bound)
                 else "pinned: same seeds"))
        Spec.end_to_end;
      (* Failures must not rise at all. *)
      (match (vals ra w "attempted", vals rb w "attempted") with
      | [], _ | _, [] -> ()
      | _ ->
          let frac rows =
            let total m = List.fold_left ( +. ) 0. (vals rows w m) in
            total "failed" /. Float.max 1. (total "attempted")
          in
          let fa = frac ra and fb = frac rb in
          let verdict = if fb > fa then "worse" else if fb < fa then "better" else "within bound" in
          if verdict = "worse" then any_worse := true;
          Printf.printf "  %-22s %-29.6g %-29.6g %s (must not rise)\n" "failed_frac" fa fb verdict);
      let moved =
        List.filter_map
          (fun (s : Spec.metric) ->
            match (vals ra w s.Spec.name, vals rb w s.Spec.name) with
            | [], _ | _, [] -> None
            | xa, xb ->
                let ma = median xa and mb = median xb in
                if ma = mb then None
                else Some (Float.abs (mb -. ma) /. Float.max (Float.abs ma) 1e-12, s.Spec.name, ma, mb))
          Spec.per_layer
      in
      match List.sort (fun (x, _, _, _) (y, _, _, _) -> compare y x) moved with
      | (rel, name, ma, mb) :: _ ->
          Printf.printf "  per-layer metric that moved most: %s %.6g -> %.6g (%.1f%%)\n" name ma mb
            (100. *. rel)
      | [] -> Printf.printf "  no per-layer metric moved\n")
    workloads;
  exit (if !any_worse then 1 else 0)

(* ---------- smoke ---------- *)

let smoke ~spec_file =
  let problems = ref [] in
  let say fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (match spec_file with
  | Some f ->
      let ic = open_in_bin f in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      if text <> Spec.render () then say "%s differs from `demibench spec`" f
  | None -> ());
  List.iter
    (fun (w : World.workload) ->
      let m = measure ~smoke:true ~plan:full_plan w ~seed:1 in
      List.iter (fun p -> say "%s: %s" w.World.name p) m.problems;
      let attempted, failed = attempted_failed m.reps in
      Printf.printf "demibench smoke: %-18s %d reps, %d requests, %d failed\n" w.World.name
        (List.length m.reps) attempted failed;
      List.iter
        (fun ((s : Spec.metric), v) ->
          if not (Float.is_finite v) then say "%s: %s has no value" w.World.name s.Spec.name)
        (values m (Spec.end_to_end @ Spec.per_layer));
      List.iter
        (fun ((s : Spec.metric), v) ->
          if not (v > 0.) then say "%s: end-to-end metric %s is not positive" w.World.name s.Spec.name)
        (values m Spec.end_to_end))
    World.workloads;
  match List.rev !problems with
  | [] -> print_endline "demibench smoke: OK"
  | ps ->
      List.iter (fun p -> prerr_endline ("demibench smoke: " ^ p)) ps;
      exit 1

(* ---------- command line ---------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt k = function
    | a :: v :: _ when a = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let int_opt k d =
    match opt k args with
    | None -> d
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer" k)
  in
  let seed = int_opt "--seed" 1 in
  let out = Option.value ~default:"out/demibench" (opt "--out" args) in
  let workload () =
    match opt "--workload" args with
    | None -> None
    | Some n -> (
        match World.find_workload n with Some w -> Some w | None -> die "unknown workload %s" n)
  in
  match args with
  | "rep" :: _ ->
      rep_main
        ~workload:(Option.value ~default:"" (opt "--workload" args))
        ~seed ~traced:(List.mem "--traced" args) ~smoke:(List.mem "--smoke" args)
  | [ "spec" ] -> print_string (Spec.render ())
  | [ "compare"; a; b ] -> compare_dirs a b
  | _ when List.mem "--smoke" args -> smoke ~spec_file:(opt "--spec" args)
  | _ -> (
      match opt "--seconds" args with
      | Some _ ->
          (* One workload, as the benchmark contract runs it: two reps of
             each world take about [Spec.run_seconds] in all. *)
          let w = match workload () with Some w -> w | None -> die "--seconds needs --workload" in
          let traced = int_opt "--trace" 0 = 1 in
          let plan =
            if traced then [ (0, false); (0, true) ]
            else untraced_plan ~per_world:(max 2 (2 * int_opt "--seconds" 0 / Spec.run_seconds))
          in
          let m = measure ~plan w ~seed in
          let specs = if traced then Spec.per_layer else Spec.end_to_end in
          print_table m specs;
          append_runs out m specs;
          print_endline (json_line m specs);
          if m.problems <> [] then exit 1
      | None ->
          (* The full run: 3 untraced + 1 traced rep per workload. *)
          let ws = match workload () with Some w -> [ w ] | None -> World.workloads in
          let bad = ref false in
          List.iter
            (fun w ->
              let m = measure ~plan:full_plan w ~seed in
              let specs = Spec.end_to_end @ Spec.per_layer in
              print_table m specs;
              append_runs out m specs;
              if m.problems <> [] then bad := true)
            ws;
          if !bad then exit 1)
