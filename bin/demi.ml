(* demi: command-line driver for the Demikernel reproduction's
   observed runs and checks. The paper's tables and figures are
   regenerated by the bench executable ([bench/main.exe fig5], ...).

   Examples:
     demi echo --flavor catmint --msg-size 1024
     demi trace --flavor catnip --out out/trace-catnip.json
     demi selfcheck *)

open Cmdliner

let count_arg =
  Arg.(value & opt int 2_000 & info [ "count" ] ~docv:"N" ~doc:"Echo round trips to measure.")

let flavor_conv =
  let parse = function
    | "catnap" -> Ok Demikernel.Boot.Catnap_os
    | "catnip" -> Ok Demikernel.Boot.Catnip_os
    | "catmint" -> Ok Demikernel.Boot.Catmint_os
    | s -> Error (`Msg ("unknown libOS flavor: " ^ s))
  in
  let print fmt f = Format.pp_print_string fmt (Demikernel.Boot.flavor_name f) in
  Arg.conv (parse, print)

let profile_conv =
  let parse = function
    | "bare-metal" | "linux" -> Ok Net.Cost.bare_metal
    | "windows" -> Ok Net.Cost.windows
    | "azure" -> Ok Net.Cost.azure_vm
    | s -> Error (`Msg ("unknown cost profile: " ^ s))
  in
  let print fmt c = Format.pp_print_string fmt c.Net.Cost.profile_name in
  Arg.conv (parse, print)

(* Artifact outputs (pcaps, timelines, traces) default under out/, which
   is git-ignored; create parents on demand so a fresh checkout works. *)
let rec ensure_dir d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    ensure_dir (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let ensure_parent path = ensure_dir (Filename.dirname path)

(* Verdict lines shared by every checking command: "ok: ..." or
   "FAIL: ...", and exit 1 at the end if anything failed. *)
let failures = ref 0

let checkf what ok =
  if ok then Format.printf "ok: %s@." what
  else begin
    Format.printf "FAIL: %s@." what;
    incr failures
  end

let finish () = if !failures > 0 then Stdlib.exit 1

(* Observe [scenario] with [arm]; with [check], through the shared
   observer-effect gate (recorders off, then on, same seed). *)
let observe ~check arm scenario =
  if not check then Harness.Observe.run arm scenario
  else
    match Harness.Observe.check arm (Harness.Observe.of_scenario scenario) with
    | Ok r ->
        Format.printf "ok: %s observer-effect-free: digest, %d events, %d latencies identical@."
          (Harness.Observe.describe arm) r.events (List.length r.latencies);
        r
    | Error why ->
        Format.printf "FAIL: %s@." why;
        Stdlib.exit 1

(* One decoded wire event: flow, journey window, fate, frame label. *)
let print_wire ~indent (ev : Engine.Span.wire_event) =
  Format.printf "%sflow %08x [%d..%d] %s %s@." indent ev.wire_flow ev.wire_t0 ev.wire_t1
    (match ev.wire_status with
    | Engine.Span.Wire_delivered -> "ok  "
    | Engine.Span.Wire_dropped why -> "DROP(" ^ why ^ ")")
    ev.wire_label

let write_file path contents =
  ensure_parent path;
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Format.printf "wrote %s@." path

(* Ring capacities must be positive: a bad value is a usage error. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let trace_capacity_arg =
  Arg.(
    value
    & opt positive_int 65_536
    & info [ "trace-capacity" ] ~docv:"N"
        ~doc:"Event-trace ring capacity (raise when a run reports dropped events).")

let flavor_arg =
  Arg.(
    value
    & opt flavor_conv Demikernel.Boot.Catnip_os
    & info [ "flavor" ] ~docv:"LIBOS" ~doc:"catnap | catnip | catmint.")

let msg_size_arg =
  Arg.(value & opt int 64 & info [ "msg-size" ] ~docv:"BYTES" ~doc:"Echo payload size.")

let echos_arg default =
  Arg.(value & opt int default & info [ "count" ] ~docv:"N" ~doc:"Echos to run.")

let out_arg doc = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
let check_arg doc = Arg.(value & flag & info [ "check" ] ~doc)

let echo_cmd =
  let persist =
    Arg.(value & flag & info [ "persist" ] ~doc:"Log every message to disk before replying.")
  in
  let profile =
    Arg.(
      value
      & opt profile_conv Net.Cost.bare_metal
      & info [ "profile" ] ~docv:"PROFILE" ~doc:"bare-metal | windows | azure.")
  in
  let trace_flag =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the last 80 simulator trace events.")
  in
  Cmd.v
    (Cmd.info "echo" ~doc:"Run one echo measurement and print the distribution.")
    Term.(
      const (fun count flavor msg_size persist cost trace trace_capacity ->
          let hist =
            if not trace then
              Harness.Fig_latency.echo_rtt ~cost ~persist ~msg_size ~count
                (Demi (flavor, Echo_tcp))
            else begin
              (* Traced runs are kept short: the dump shows the tail. *)
              let r =
                Harness.Observe.run
                  { Harness.Observe.off with trace_capacity = Some trace_capacity }
                  { (Harness.Observe.echo flavor) with count = min count 3; msg_size; persist; cost }
              in
              Engine.Log.dump ~last:80 Format.std_formatter (Option.get r.trace);
              Metrics.Hdr.of_list r.latencies
            end
          in
          Format.printf "%d echos: avg %a  p50 %a  p99 %a@." (Metrics.Hdr.count hist)
            Engine.Clock.pp
            (int_of_float (Metrics.Hdr.mean hist))
            Engine.Clock.pp (Metrics.Hdr.p50 hist) Engine.Clock.pp (Metrics.Hdr.p99 hist))
      $ count_arg $ flavor_arg $ msg_size_arg $ persist $ profile $ trace_flag
      $ trace_capacity_arg)

(* `demi trace`: Demitrace end to end. Runs the echo scenario through
   the observer-effect gate (spans off, then on, same seed), checks that
   the last RTT's per-component breakdown sums to it exactly, and
   structurally validates the Chrome JSON export. Any violation exits 1,
   so `make observe-smoke` is one invocation per flavor. *)
let trace_cmd =
  let out = out_arg "Chrome trace-event JSON path (default out/trace-<flavor>.json)." in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Span tracing: per-component breakdown, Chrome export, observer-effect check.")
    Term.(
      const (fun flavor msg_size count out trace_capacity ->
          let on =
            observe ~check:true
              { Harness.Observe.off with spans = true; trace_capacity = Some trace_capacity }
              { (Harness.Observe.echo flavor) with msg_size; count }
          in
          let b = Harness.Fig_breakdown.last_rtt on in
          let sum = List.fold_left (fun acc (_, ns) -> acc + ns) b.other b.components in
          checkf "breakdown components + other = end-to-end RTT"
            (sum = b.total && b.total = List.nth on.latencies (List.length on.latencies - 1));
          let json =
            Harness.Chrome_trace.export
              ~extra:[ ("demitrace", Harness.Fig_breakdown.breakdown_json b) ]
              (Option.get on.spans)
          in
          (match Harness.Chrome_trace.validate json with
          | Ok n -> Format.printf "ok: chrome trace valid (%d events)@." n
          | Error why -> checkf (Printf.sprintf "chrome trace valid: %s" why) false);
          write_file
            (match out with
            | Some p -> p
            | None -> "out/trace-" ^ Demikernel.Boot.flavor_name flavor ^ ".json")
            json;
          Harness.Fig_breakdown.print_table [ on ];
          finish ())
      $ flavor_arg $ msg_size_arg $ echos_arg 16 $ out $ trace_capacity_arg)

let stats_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: table | json.")
  in
  let out = out_arg "Write the output to FILE instead of stdout." in
  Cmd.v
    (Cmd.info "stats" ~doc:"Run one echo and dump the deterministic metrics registry.")
    Term.(
      const (fun flavor msg_size count format out ->
          let reg =
            Harness.Stats.collect
              (Harness.Observe.run
                 { Harness.Observe.off with spans = true }
                 { (Harness.Observe.echo flavor) with msg_size; count })
          in
          match (format, out) with
          | `Json, None -> print_string (Metrics.Registry.to_json reg)
          | `Json, Some path -> write_file path (Metrics.Registry.to_json reg)
          | `Table, None -> Metrics.Registry.dump reg
          | `Table, Some _ ->
              Format.eprintf "stats: --out requires --format json@.";
              Stdlib.exit 2)
      $ flavor_arg $ msg_size_arg $ echos_arg 64 $ format $ out)

(* `demi pcap`: capture one echo to a libpcap file. `--check` runs it
   through the observer-effect gate (capture off, then on, same seed)
   and round-trips the capture through the bundled pure-OCaml reader.
   Any violation exits 1, so `make observe-smoke` is one invocation per
   flavor. *)
let pcap_cmd =
  let out = out_arg "Capture path (default out/<flavor>.pcap)." in
  let lost =
    Arg.(
      value
      & opt (some string) None
      & info [ "lost" ] ~docv:"FILE"
          ~doc:"Also write the damage capture (drops and corruptions).")
  in
  let dump =
    Arg.(value & flag & info [ "dump" ] ~doc:"Print one tcpdump-style line per frame.")
  in
  let check =
    check_arg "Verify capture is observer-effect-free and well-formed; exit 1 on failure."
  in
  let loss =
    Arg.(
      value & opt float 0.
      & info [ "loss" ] ~docv:"P" ~doc:"Injected frame-loss probability.")
  in
  Cmd.v
    (Cmd.info "pcap" ~doc:"Capture an echo run to a standard libpcap file (Demiscope).")
    Term.(
      const (fun flavor msg_size count loss out lost dump check ->
          let out =
            match out with
            | Some p -> p
            | None -> "out/" ^ Demikernel.Boot.flavor_name flavor ^ ".pcap"
          in
          let on =
            observe ~check
              { Harness.Observe.off with capture = true }
              { (Harness.Observe.echo flavor) with msg_size; count; loss }
          in
          let session = Option.get on.capture in
          ensure_parent out;
          Net.Pcap.save session.Net.Pcap.wire out;
          Format.printf "wrote %s (%d frames)@." out
            (Net.Pcap.frames_written session.Net.Pcap.wire);
          (match lost with
          | Some path ->
              ensure_parent path;
              Net.Pcap.save session.Net.Pcap.lost path;
              Format.printf "wrote %s (%d frames)@." path
                (Net.Pcap.frames_written session.Net.Pcap.lost)
          | None -> ());
          if dump then begin
            match Net.Pcap.parse (Net.Pcap.contents session.Net.Pcap.wire) with
            | Ok cap ->
                List.iter
                  (fun p ->
                    Format.printf "%9d.%03d %s@."
                      (p.Net.Pcap.ts_ns / 1000)
                      (p.Net.Pcap.ts_ns mod 1000)
                      (Net.Decode.line p.Net.Pcap.frame))
                  cap.Net.Pcap.packets
            | Error why -> Format.printf "cannot decode capture: %s@." why
          end;
          if check then begin
            match Net.Pcap.parse (Net.Pcap.contents session.Net.Pcap.wire) with
            | Ok cap ->
                let n = List.length cap.Net.Pcap.packets in
                checkf "capture parses with bundled reader" true;
                checkf "capture is non-empty"
                  (n > 0 && n = Net.Pcap.frames_written session.Net.Pcap.wire);
                let mono =
                  let rec go last = function
                    | [] -> true
                    | p :: rest ->
                        p.Net.Pcap.ts_ns >= last && go p.Net.Pcap.ts_ns rest
                  in
                  go 0 cap.Net.Pcap.packets
                in
                checkf "capture timestamps monotone" mono
            | Error why -> checkf (Printf.sprintf "capture parses: %s" why) false
          end;
          finish ())
      $ flavor_arg $ msg_size_arg $ echos_arg 16 $ loss $ out $ lost $ dump $ check)

(* `demi timeline`: fixed-interval telemetry of one echo run to CSV. *)
let timeline_cmd =
  let out = out_arg "CSV path (default out/timeline-<flavor>.csv)." in
  let interval =
    Arg.(
      value & opt int 10
      & info [ "interval-us" ] ~docv:"US" ~doc:"Sampling interval in microseconds.")
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Sample fabric/TCP/ring telemetry on a fixed virtual-time grid, to CSV.")
    Term.(
      const (fun flavor msg_size count out interval_us ->
          let name = Demikernel.Boot.flavor_name flavor in
          let out = match out with Some p -> p | None -> "out/timeline-" ^ name ^ ".csv" in
          let r =
            Harness.Observe.run
              { Harness.Observe.off with timeline = Some (interval_us * 1000) }
              { (Harness.Observe.echo flavor) with msg_size; count }
          in
          let ts = Option.get r.timeline in
          ensure_parent out;
          Metrics.Timeseries.save_csv ts out;
          Format.printf "wrote %s (%d samples, %d columns)@." out
            (Metrics.Timeseries.length ts)
            (List.length (Metrics.Timeseries.columns ts)))
      $ flavor_arg $ msg_size_arg $ echos_arg 64 $ out $ interval)

(* `demi flight`: the Demiflight recorder end to end. The default run
   arms the ring on one echo and dumps its tail; `--check` runs it
   through the observer-effect gate first (recorder off, then on, same
   seed). Any violation exits 1, so `make observe-smoke` is one
   invocation per flavor. *)
let flight_cmd =
  let capacity =
    Arg.(
      value & opt positive_int 4096
      & info [ "capacity" ] ~docv:"N" ~doc:"Flight-ring capacity in records.")
  in
  let dump =
    Arg.(
      value & opt int 24
      & info [ "dump" ] ~docv:"N" ~doc:"Ring records to print after the run (0 = none).")
  in
  let check = check_arg "Verify the recorder is observer-effect-free; exit 1 on failure." in
  Cmd.v
    (Cmd.info "flight"
       ~doc:"Always-on flight recorder: ring dump and observer-effect check (Demiflight).")
    Term.(
      const (fun flavor msg_size count capacity dump check ->
          let on =
            observe ~check
              { Harness.Observe.off with flight = Some capacity }
              { (Harness.Observe.echo flavor) with msg_size; count }
          in
          let ring = Option.get on.flight in
          Format.printf "flight ring: %d recorded, %d retained, %d overwritten, digest %s@."
            (Engine.Log.total ring) (Engine.Log.kept ring) (Engine.Log.dropped ring)
            (Engine.Log.digest ring);
          if dump > 0 then Engine.Log.dump ~last:dump Format.std_formatter ring;
          if check then checkf "ring captured the run" (Engine.Log.total ring > 0);
          finish ())
      $ flavor_arg $ msg_size_arg $ echos_arg 16 $ capacity $ dump $ check)

(* `demi slo`: the retroactive outlier capture. Loss injection makes a
   handful of echos hit a retransmission timeout; the armed watchdog
   retains them at close time, and the dump joins everything the
   recorders still hold about the slowest one — its span window as a
   validated Chrome-trace fragment, the wire events (decoded frames)
   overlapping the window, and the flight ring's tail. Exits 1 when no
   outlier was captured or the fragment fails validation. *)
let slo_cmd =
  let threshold =
    Arg.(
      value & opt int 100_000
      & info [ "threshold-ns" ] ~docv:"NS" ~doc:"SLO latency threshold in virtual ns.")
  in
  let loss =
    Arg.(
      value & opt float 0.05
      & info [ "loss" ] ~docv:"P" ~doc:"Injected frame-loss probability (the outlier source).")
  in
  let out = out_arg "Chrome-trace fragment path (default out/slo-<flavor>.json)." in
  let expect_breach =
    Arg.(
      value & flag
      & info [ "expect-breach" ]
          ~doc:
            "Exit non-zero when no SLO breach was captured (for smoke tests that inject \
             loss and must see the watchdog fire).")
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:"SLO watchdog: capture latency outliers retroactively and dump their context.")
    Term.(
      const (fun flavor msg_size count threshold loss out expect_breach ->
          let name = Demikernel.Boot.flavor_name flavor in
          let out = match out with Some p -> p | None -> "out/slo-" ^ name ^ ".json" in
          let r =
            Harness.Observe.run
              { Harness.Observe.off with slo_ns = Some threshold; flight = Some 4096 }
              { (Harness.Observe.echo flavor) with msg_size; count; loss }
          in
          let spans = Option.get r.spans in
          let ring = Option.get r.flight in
          Format.printf "slo: threshold %dns, %d of %d ops breached@." threshold
            (Engine.Span.outlier_count spans)
            (Engine.Span.op_count spans);
          if expect_breach then
            checkf "watchdog captured at least one outlier"
              (Engine.Span.outliers spans <> [])
          else if Engine.Span.outliers spans = [] then
            Format.printf "no SLO breach captured (pass --expect-breach to make this fatal)@.";
          (match Engine.Span.outliers spans with
          | [] -> ()
          | outliers ->
              let latency op =
                match op.Engine.Span.closed_at with
                | Some t -> t - op.Engine.Span.opened_at
                | None -> 0
              in
              let worst =
                List.fold_left
                  (fun best op -> if latency op > latency best then op else best)
                  (List.hd outliers) outliers
              in
              let w0 = worst.Engine.Span.opened_at in
              let w1 = match worst.Engine.Span.closed_at with Some t -> t | None -> w0 in
              Format.printf "slowest outlier: qtoken %d (%s on %s) %dns [%d..%d]@."
                worst.Engine.Span.op_key worst.Engine.Span.op_kind worst.Engine.Span.op_owner
                (w1 - w0) w0 w1;
              (* The op's own window, attributed — where the breach went. *)
              let b = Harness.Fig_breakdown.attribute spans ~w0 ~w1 in
              let sum =
                List.fold_left
                  (fun acc (_, ns) -> acc + ns)
                  b.Harness.Fig_breakdown.other b.Harness.Fig_breakdown.components
              in
              checkf "outlier breakdown sums exactly to its latency"
                (sum = b.Harness.Fig_breakdown.total && b.Harness.Fig_breakdown.total = w1 - w0);
              List.iter
                (fun (comp, ns) ->
                  Format.printf "  %-8s %dns@." (Engine.Span.component_name comp) ns)
                b.Harness.Fig_breakdown.components;
              Format.printf "  %-8s %dns@." "other" b.Harness.Fig_breakdown.other;
              (* Wire events still retained for the breach window, with
                 their decoded frames — the flow-level view of the
                 retransmission that caused the outlier. *)
              let wire =
                List.filter
                  (fun ev -> ev.Engine.Span.wire_t1 >= w0 && ev.Engine.Span.wire_t0 <= w1)
                  (Engine.Span.wire_events spans)
              in
              Format.printf "wire events overlapping the window (%d):@." (List.length wire);
              List.iter (print_wire ~indent:"  ") wire;
              (* The Chrome-trace fragment: full span context with the
                 breach pinned in a top-level field, validated by the
                 same structural validator `demi trace` uses. *)
              let fragment =
                Harness.Chrome_trace.export
                  ~extra:
                    [
                      ( "demislo",
                        Printf.sprintf
                          "{\"qtoken\":%d,\"owner\":\"%s\",\"kind\":\"%s\",\"opened_ns\":%d,\"closed_ns\":%d,\"latency_ns\":%d,\"threshold_ns\":%d,\"breaches\":%d,\"breakdown\":%s}"
                          worst.Engine.Span.op_key worst.Engine.Span.op_owner
                          worst.Engine.Span.op_kind w0 w1 (w1 - w0) threshold
                          (Engine.Span.outlier_count spans)
                          (Harness.Fig_breakdown.breakdown_json b) );
                    ]
                  spans
              in
              (match Harness.Chrome_trace.validate fragment with
              | Ok n -> Format.printf "ok: chrome fragment valid (%d events)@." n
              | Error why -> checkf (Printf.sprintf "chrome fragment valid: %s" why) false);
              write_file out fragment;
              Format.printf "flight ring tail:@.";
              Engine.Log.dump ~last:16 Format.std_formatter ring);
          finish ())
      $ flavor_arg $ msg_size_arg $ echos_arg 64 $ threshold $ loss $ out $ expect_breach)

(* `demi fleet`: Demifleet end to end. The default run arms the causal
   and span recorders on a multi-host scenario (quorum-replicated
   txnstore puts or the UDP relay), stitches the per-request causal
   DAGs, drills into the slowest request — its events, its edges with
   decoded wire evidence, its critical path with the exact-sum check —
   and writes a validated Chrome export where each request is one lane
   spanning hosts. `--profile` prints the fleet-wide critical-path
   profile (Table-5 style, per (hop, component), sums exact by
   construction). `--check` runs the scenario through the
   observer-effect gate (recorders off, then on, same seed). *)
let fleet_cmd =
  let app_arg =
    Arg.(
      value
      & opt (enum [ ("txnstore", `Txnstore); ("relay", `Relay) ]) `Txnstore
      & info [ "app" ] ~docv:"APP" ~doc:"Scenario: txnstore | relay.")
  in
  let fleet_count =
    Arg.(value & opt int 8 & info [ "count" ] ~docv:"N" ~doc:"Requests to run.")
  in
  let replicas =
    Arg.(value & opt int 3 & info [ "replicas" ] ~docv:"N" ~doc:"Txnstore replicas.")
  in
  let quorum =
    Arg.(
      value
      & opt (some int) None
      & info [ "quorum" ] ~docv:"Q"
          ~doc:"Txnstore write quorum (default: all replicas). Q < replicas leaves a \
                straggler ack per put that the DAG still stitches.")
  in
  let loss =
    Arg.(
      value & opt float 0.
      & info [ "loss" ] ~docv:"P" ~doc:"Injected frame-loss probability.")
  in
  let profile_flag =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Print the fleet-wide critical-path profile per (hop, component).")
  in
  let check = check_arg "Verify causal tracing is observer-effect-free; exit 1 on failure." in
  let out = out_arg "Chrome trace path, one lane per request (default out/fleet-<flavor>.json)." in
  let top =
    Arg.(
      value & opt int 1
      & info [ "top" ] ~docv:"K" ~doc:"Slowest requests to drill into.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Cross-host causal request tracing: DAGs, critical paths, fleet profile \
             (Demifleet).")
    Term.(
      const (fun flavor app count replicas quorum loss profile_flag check out top ->
          let name = Demikernel.Boot.flavor_name flavor in
          let app_name = match app with `Txnstore -> "txnstore" | `Relay -> "relay" in
          let out = match out with Some p -> p | None -> "out/fleet-" ^ name ^ ".json" in
          let scenario =
            match app with
            | `Txnstore ->
                {
                  (Harness.Observe.txnstore flavor) with
                  app = Harness.Observe.Txnstore { replicas; quorum };
                  count;
                  loss;
                }
            | `Relay -> { (Harness.Observe.relay flavor) with count; loss }
          in
          let on =
            observe ~check { Harness.Observe.off with causal = true; spans = true } scenario
          in
          let causal = Option.get on.causal in
          let reqs = Harness.Fleet.dag ?spans:on.spans causal in
          Format.printf "fleet: app=%s flavor=%s requests=%d causal-events=%d@." app_name
            name (List.length reqs) (Engine.Log.kept (Engine.Causal.log causal));
          let hdr = Metrics.Hdr.of_list on.latencies in
          Format.printf "end-to-end: p50 %s  p99 %s  max %s@."
            (Metrics.Table.cell_ns (Metrics.Hdr.p50 hdr))
            (Metrics.Table.cell_ns (Metrics.Hdr.p99 hdr))
            (Metrics.Table.cell_ns (Metrics.Hdr.max hdr));
          checkf "every request ran to completion" (List.length reqs = count);
          checkf "every critical path sums exactly to its end-to-end latency"
            (List.for_all Harness.Fleet.critical_exact reqs);
          if profile_flag then begin
            let p = Harness.Fleet.profile ~app:app_name reqs in
            let t =
              Metrics.Table.create
                ~title:
                  (Printf.sprintf "Fleet critical-path profile: %s on %s (%d requests)"
                     app_name name p.Harness.Fleet.p_requests)
                ~columns:[ "hop"; "component"; "reqs"; "p50"; "p99"; "total"; "share" ]
            in
            List.iter
              (fun (row : Harness.Fleet.prow) ->
                Metrics.Table.add_row t
                  [
                    Metrics.Table.cell_i row.pr_hop;
                    row.pr_comp;
                    Metrics.Table.cell_i row.pr_count;
                    Metrics.Table.cell_ns (Metrics.Hdr.p50 row.pr_hdr);
                    Metrics.Table.cell_ns (Metrics.Hdr.p99 row.pr_hdr);
                    Metrics.Table.cell_ns row.pr_total;
                    Printf.sprintf "%.1f%%"
                      (100. *. float_of_int row.pr_total
                      /. float_of_int (Stdlib.max 1 p.Harness.Fleet.p_e2e_total));
                  ])
              p.Harness.Fleet.p_rows;
            Metrics.Table.add_row t
              [
                ""; "end-to-end"; Metrics.Table.cell_i p.Harness.Fleet.p_requests; "-"; "-";
                Metrics.Table.cell_ns p.Harness.Fleet.p_e2e_total; "100.0%";
              ];
            Metrics.Table.print t;
            checkf "profile rows sum exactly to the end-to-end total"
              (Harness.Fleet.profile_exact p)
          end;
          (* Slowest-request drill-down: the same evidence join `demi slo`
             prints, but per causal edge across hosts. *)
          let by_latency =
            List.stable_sort
              (fun (a : Harness.Fleet.request) (b : Harness.Fleet.request) ->
                compare (b.r_end - b.r_begin) (a.r_end - a.r_begin))
              reqs
          in
          let rec take n = function
            | [] -> []
            | _ when n = 0 -> []
            | x :: rest -> x :: take (n - 1) rest
          in
          List.iter
            (fun (q : Harness.Fleet.request) ->
              Format.printf "@.slowest request %d: %s on %s [%d..%d]@." q.r_id
                (Metrics.Table.cell_ns (q.r_end - q.r_begin))
                q.r_host q.r_begin q.r_end;
              Format.printf "  events (%d):@." (List.length q.r_events);
              List.iter
                (fun (e : Engine.Causal.event) ->
                  Format.printf "    %9d %-8s msg=%d parent=%d hop=%d %s (qtoken %d)@."
                    e.ev_time
                    (Engine.Causal.kind_name e.ev_kind)
                    e.ev_msg e.ev_parent e.ev_hop e.ev_host e.ev_op)
                q.r_events;
              Format.printf "  edges (%d):@." (List.length q.r_edges);
              List.iter
                (fun (e : Harness.Fleet.edge) ->
                  Format.printf "    msg %d hop %d %s %s %s [%d..%d] push=%d pop=%d@."
                    e.e_msg e.e_hop e.e_src "\xe2\x86\x92" e.e_dst e.e_t0 e.e_t1 e.e_send_op
                    e.e_recv_op;
                  List.iter (print_wire ~indent:"      ") e.e_evidence)
                q.r_edges;
              let t =
                Metrics.Table.create
                  ~title:(Printf.sprintf "critical path of request %d" q.r_id)
                  ~columns:[ "segment"; "hop"; "where"; "start"; "end"; "duration" ]
              in
              List.iter
                (fun (s : Harness.Fleet.seg) ->
                  Metrics.Table.add_row t
                    [
                      s.s_comp; Metrics.Table.cell_i s.s_hop; s.s_host;
                      Metrics.Table.cell_i s.s_t0; Metrics.Table.cell_i s.s_t1;
                      Metrics.Table.cell_ns (Harness.Fleet.seg_dur s);
                    ])
                q.r_critical;
              Metrics.Table.print t;
              checkf
                (Printf.sprintf "request %d critical path sums to %s exactly" q.r_id
                   (Metrics.Table.cell_ns (q.r_end - q.r_begin)))
                (Harness.Fleet.critical_exact q))
            (take (Stdlib.max 0 top) by_latency);
          (* The fleet Chrome export: one lane per request, flow arrows
             between hops, validated before it is written. *)
          let json = Harness.Fleet.chrome_export ~app:app_name reqs in
          (match Harness.Chrome_trace.validate json with
          | Ok n -> Format.printf "ok: fleet chrome trace valid (%d events)@." n
          | Error why -> checkf (Printf.sprintf "fleet chrome trace valid: %s" why) false);
          write_file out json;
          finish ())
      $ flavor_arg $ app_arg $ fleet_count $ replicas $ quorum $ loss $ profile_flag $ check
      $ out $ top)

let table5_cmd =
  let table5_count =
    Arg.(value & opt int 16 & info [ "count" ] ~docv:"N" ~doc:"Echos per flavor.")
  in
  let tail =
    Arg.(
      value & flag
      & info [ "tail" ]
          ~doc:"Tail attribution: breakdown conditioned on latency quantile (Demiflight).")
  in
  let tail_count =
    Arg.(
      value & opt int 384
      & info [ "tail-count" ] ~docv:"N" ~doc:"Echos per flavor in --tail mode.")
  in
  let quantile =
    Arg.(
      value
      & opt (some float) None
      & info [ "quantile" ] ~docv:"Q"
          ~doc:"With --tail, add a single band from quantile Q (e.g. 0.999) upward.")
  in
  Cmd.v
    (Cmd.info "table5" ~doc:"Per-component latency breakdown of one echo RTT, per libOS.")
    Term.(
      const (fun msg_size count tail tail_count quantile ->
          let flavors =
            [ Demikernel.Boot.Catnap_os; Demikernel.Boot.Catnip_os; Demikernel.Boot.Catmint_os ]
          in
          (* Only the tail report prints a trace digest. *)
          let observed arm count flavor =
            Harness.Observe.run { arm with Harness.Observe.spans = true }
              { (Harness.Observe.echo flavor) with msg_size; count }
          in
          if not tail then
            Harness.Fig_breakdown.print_table
              (List.map (observed Harness.Observe.off count) flavors)
          else begin
            let quantiles =
              match quantile with
              | None -> Harness.Fig_breakdown.default_quantiles
              | Some q ->
                  if q < 0.0 || q >= 1.0 then begin
                    Format.eprintf "table5: --quantile must be in [0, 1)@.";
                    Stdlib.exit 2
                  end;
                  [ ("all", 0.0); (Printf.sprintf "p%g+" (q *. 100.), q) ]
            in
            List.iter
              (fun flavor ->
                let t =
                  Harness.Fig_breakdown.tail ~quantiles
                    (observed Harness.Observe.traced tail_count flavor)
                in
                Harness.Fig_breakdown.print_tail t;
                (* Exactness is the product here: every band column must
                   sum to its end-to-end row with no remainder. *)
                let before = !failures in
                List.iter
                  (fun band ->
                    let b = band.Harness.Fig_breakdown.band_breakdown in
                    let sum =
                      List.fold_left
                        (fun acc (_, ns) -> acc + ns)
                        b.Harness.Fig_breakdown.other b.Harness.Fig_breakdown.components
                    in
                    if sum <> b.Harness.Fig_breakdown.total then begin
                      Format.printf "FAIL: band %s sums %d <> total %d@."
                        band.Harness.Fig_breakdown.band_label sum
                        b.Harness.Fig_breakdown.total;
                      incr failures
                    end)
                  t.Harness.Fig_breakdown.tail_bands;
                if !failures = before then
                  Format.printf "ok: %s band sums exact@." (Demikernel.Boot.flavor_name flavor))
              flavors;
            finish ()
          end)
      $ msg_size_arg $ table5_count $ tail $ tail_count $ quantile)

let run_selfcheck ~seed ~count =
  let r = Harness.Selfcheck.run ~seed ~count () in
  Harness.Selfcheck.print Format.std_formatter r;
  if not r.Harness.Selfcheck.ok then exit 1

let selfcheck_seed =
  Arg.(value & opt int64 42L & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let selfcheck_count =
  Arg.(value & opt int 64 & info [ "echos" ] ~docv:"N" ~doc:"Echos per flavor per run.")

let selfcheck_cmd =
  Cmd.v
    (Cmd.info "selfcheck"
       ~doc:
         "Determinism self-check: run the echo scenario twice from the same seed and \
          verify trace digests and metric tables are identical.")
    Term.(
      const (fun seed count -> run_selfcheck ~seed ~count) $ selfcheck_seed $ selfcheck_count)

(* `demi --selfcheck` (no subcommand) also works, for scripts and CI. *)
let default_term =
  let selfcheck_flag =
    Arg.(value & flag & info [ "selfcheck" ] ~doc:"Run the determinism self-check.")
  in
  Term.(
    ret
      (const (fun selfcheck seed count ->
           if selfcheck then begin
             run_selfcheck ~seed ~count;
             `Ok ()
           end
           else `Help (`Pager, None))
      $ selfcheck_flag $ selfcheck_seed $ selfcheck_count))

let cmds =
  [
    echo_cmd;
    trace_cmd;
    stats_cmd;
    pcap_cmd;
    timeline_cmd;
    flight_cmd;
    slo_cmd;
    fleet_cmd;
    table5_cmd;
    selfcheck_cmd;
  ]

let () =
  let info = Cmd.info "demi" ~doc:"Demikernel reproduction experiment driver." in
  exit (Cmd.eval (Cmd.group ~default:default_term info cmds))
