(* Per-component latency attribution for one echo RTT — the repo's
   version of the paper's Table 5 ("where does each nanosecond of a
   64-byte echo go?").

   Attribution is a critical-path sweep: the RTT window is cut at every
   interval boundary, and each elementary segment is charged to exactly
   one component, so the per-component sums plus the unattributed
   remainder equal the end-to-end RTT exactly — no double counting of
   overlapping spans (wire time under a device span, a second host
   computing while the first waits). When several intervals cover a
   segment, CPU components win over asynchronous ones (a host charging
   cycles while a frame is on the wire is the critical path's current
   occupant), and among CPU intervals the most recently started wins
   (innermost = most specific). *)

type breakdown = {
  components : (Engine.Span.component * int) list;
      (* nonzero components, presentation order *)
  other : int; (* window time no span covers: queueing, idle waits *)
  total : int; (* window length; = sum of components + other *)
}

let is_cpu = function
  | Engine.Span.Device | Engine.Span.Wire | Engine.Span.Storage -> false
  | _ -> true

let attribute spans ~w0 ~w1 =
  let clipped =
    List.filter_map
      (fun iv ->
        let t0 = max iv.Engine.Span.t0 w0 and t1 = min iv.Engine.Span.t1 w1 in
        if t1 > t0 then Some (iv.Engine.Span.comp, iv.Engine.Span.t0, t0, t1) else None)
      (Engine.Span.intervals spans)
  in
  let cuts =
    List.sort_uniq compare
      (w0 :: w1 :: List.concat_map (fun (_, _, t0, t1) -> [ t0; t1 ]) clipped)
  in
  let sums = Array.make (List.length Engine.Span.components) 0 in
  let other = ref 0 in
  let rec sweep = function
    | a :: (b :: _ as rest) ->
        let seg = b - a in
        let active = List.filter (fun (_, _, t0, t1) -> t0 <= a && t1 >= b) clipped in
        let winner =
          List.fold_left
            (fun best ((comp, orig_t0, _, _) as cand) ->
              match best with
              | None -> Some cand
              | Some (bcomp, borig_t0, _, _) ->
                  let c = compare (is_cpu comp, orig_t0) (is_cpu bcomp, borig_t0) in
                  if c > 0 then Some cand
                  else if c < 0 then best
                  else if
                    (* full tie: fixed presentation order keeps the sweep
                       deterministic whatever the recording order was *)
                    Engine.Span.component_index comp < Engine.Span.component_index bcomp
                  then Some cand
                  else best)
            None active
        in
        (match winner with
        | Some (comp, _, _, _) ->
            let i = Engine.Span.component_index comp in
            sums.(i) <- sums.(i) + seg
        | None -> other := !other + seg);
        sweep rest
    | _ -> ()
  in
  sweep cuts;
  {
    components =
      List.filter (fun (_, ns) -> ns > 0)
        (List.mapi (fun i comp -> (comp, sums.(i))) Engine.Span.components);
    other = !other;
    total = w1 - w0;
  }

let breakdown_json b =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"components\":{";
  List.iteri
    (fun i (comp, ns) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%s\":%d" (Engine.Span.component_name comp) ns))
    b.components;
  Buffer.add_string buf (Printf.sprintf "},\"other\":%d,\"total\":%d}" b.other b.total);
  Buffer.contents buf

(* ---------- one observed run ---------- *)

(* The measuring client is the run's last node. *)
let client_flavor (r : Observe.run) = (List.nth r.nodes (List.length r.nodes - 1)).flavor

(* The client's record callback fires right after its final clock read,
   so request i's window is [completed_at - latency, completed_at]. *)
let windows (r : Observe.run) =
  List.map2 (fun rtt t1 -> (rtt, t1 - rtt, t1)) r.latencies r.completed_at

let spans_of (r : Observe.run) =
  match r.spans with
  | Some s -> s
  | None -> invalid_arg "Fig_breakdown: the run was observed without spans"

let last_rtt r =
  match List.rev (windows r) with
  | (_, w0, w1) :: _ -> attribute (spans_of r) ~w0 ~w1
  | [] -> failwith "Fig_breakdown.last_rtt: no request completed"

(* ---------- tail attribution (Demiflight) ---------- *)

(* Summing breakdowns keeps the invariant exact: each window's sweep
   satisfies components + other = total, so the band aggregate does
   too — no averaging, no rounding. *)
let sum_breakdowns bs =
  let sums = Array.make (List.length Engine.Span.components) 0 in
  let other = ref 0 and total = ref 0 in
  List.iter
    (fun b ->
      List.iter
        (fun (comp, ns) ->
          let i = Engine.Span.component_index comp in
          sums.(i) <- sums.(i) + ns)
        b.components;
      other := !other + b.other;
      total := !total + b.total)
    bs;
  {
    components =
      List.filter (fun (_, ns) -> ns > 0)
        (List.mapi (fun i comp -> (comp, sums.(i))) Engine.Span.components);
    other = !other;
    total = !total;
  }

type tail_band = {
  band_label : string;
  band_quantile : float;
  band_cut_ns : int;
  band_ops : int;
  band_breakdown : breakdown;
}

type tail = {
  tail_flavor : Demikernel.Boot.flavor;
  tail_ops : int;
  tail_hdr : Metrics.Hdr.t;
  tail_sampled : int;
  tail_bands : tail_band list;
  tail_digest : string;
}

let default_quantiles =
  [ ("all", 0.0); ("p90+", 0.90); ("p99+", 0.99); ("p99.9+", 0.999) ]

(* Every completed request's window is a candidate for retention: a
   deterministic reservoir (Algorithm R over a fixed-seed SplitMix64,
   independent of the sim's PRNG) keeps a uniform sample of 256, and a
   top-64 list keeps the slowest windows exactly — the reservoir gives
   the "all"/"p90" bands honest coverage while top-k guarantees the
   slowest 0.1% band is never starved by sampling luck. *)
let tail ?(quantiles = default_quantiles) (r : Observe.run) =
  let top_k = 64 in
  let spans = spans_of r in
  let hdr = Metrics.Hdr.create () in
  let reservoir =
    Metrics.Reservoir.create ~capacity:256 ~prng:(Engine.Prng.create 0x7a11_f11e_5eedL)
  in
  (* Slowest-k windows, kept ascending by (rtt, w0) so eviction pops the
     fastest; k is small and this is harness code, not a hot path. *)
  let slowest = ref [] in
  let slow_n = ref 0 in
  let offer_slow ((rtt, w0, _) as win) =
    let rec insert = function
      | [] -> [ win ]
      | ((r, rw0, _) as hd) :: tl ->
          if (rtt, w0) < (r, rw0) then win :: hd :: tl else hd :: insert tl
    in
    if !slow_n < top_k then begin
      slowest := insert !slowest;
      incr slow_n
    end
    else
      match !slowest with
      | (r, _, _) :: tl when rtt > r -> slowest := insert tl
      | _ -> ()
  in
  List.iter
    (fun ((rtt, _, _) as win) ->
      Metrics.Hdr.add hdr rtt;
      Metrics.Reservoir.offer reservoir win;
      offer_slow win)
    (windows r);
  let retained =
    List.sort_uniq compare (Metrics.Reservoir.to_list reservoir @ !slowest)
  in
  let bands =
    List.map
      (fun (label, q) ->
        let cut = if q <= 0.0 then Metrics.Hdr.min hdr else Metrics.Hdr.quantile hdr q in
        let wins = List.filter (fun (rtt, _, _) -> rtt >= cut) retained in
        {
          band_label = label;
          band_quantile = q;
          band_cut_ns = cut;
          band_ops = List.length wins;
          band_breakdown =
            sum_breakdowns
              (List.map (fun (_, w0, w1) -> attribute spans ~w0 ~w1) wins);
        })
      quantiles
  in
  {
    tail_flavor = client_flavor r;
    tail_ops = Metrics.Hdr.count hdr;
    tail_hdr = hdr;
    tail_sampled = List.length retained;
    tail_bands = bands;
    tail_digest = Observe.digest r;
  }

(* Table 5 for the slowest ops: component rows, one column per
   quantile band; cells are exact virtual-ns sums over the retained
   windows in the band. *)
(* Table-5 rows for breakdown columns: nonzero components, other/idle,
   end-to-end. *)
let add_breakdown_rows tbl bs =
  List.iter
    (fun comp ->
      let cells =
        List.map
          (fun b ->
            match List.assoc_opt comp b.components with
            | Some ns -> Metrics.Table.cell_i ns
            | None -> "-")
          bs
      in
      if List.exists (fun c -> c <> "-") cells then
        Metrics.Table.add_row tbl (Engine.Span.component_name comp :: cells))
    Engine.Span.components;
  Metrics.Table.add_row tbl ("other/idle" :: List.map (fun b -> Metrics.Table.cell_i b.other) bs);
  Metrics.Table.add_row tbl ("end-to-end" :: List.map (fun b -> Metrics.Table.cell_i b.total) bs)

let print_tail t =
  Printf.printf "%s tail attribution: %d ops, %d windows retained, p50=%dns p99=%dns p99.9=%dns\n"
    (Demikernel.Boot.flavor_name t.tail_flavor) t.tail_ops t.tail_sampled
    (Metrics.Hdr.quantile t.tail_hdr 0.5)
    (Metrics.Hdr.quantile t.tail_hdr 0.99)
    (Metrics.Hdr.quantile t.tail_hdr 0.999);
  let tbl =
    Metrics.Table.create ~title:"tail breakdown (virtual ns, summed over retained windows)"
      ~columns:
        ("component"
        :: List.map
             (fun b -> Printf.sprintf "%s (%d op)" b.band_label b.band_ops)
             t.tail_bands)
  in
  add_breakdown_rows tbl (List.map (fun b -> b.band_breakdown) t.tail_bands);
  Metrics.Table.add_row tbl
    ("cut >= ns" :: List.map (fun b -> Metrics.Table.cell_i b.band_cut_ns) t.tail_bands);
  Metrics.Table.print tbl

(* Table-5-style report: component rows, one column per run, each
   column the run's last RTT. *)
let print_table (runs : Observe.run list) =
  let tbl =
    Metrics.Table.create ~title:"echo RTT breakdown (last RTT, ns)"
      ~columns:
        ("component"
        :: List.map (fun r -> Demikernel.Boot.flavor_name (client_flavor r)) runs)
  in
  add_breakdown_rows tbl (List.map last_rtt runs);
  Metrics.Table.print tbl
