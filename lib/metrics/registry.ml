type entry = Counter of int ref | Hist of Hdr.t

type t = { entries : (string, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 64 }

let counter t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Counter r) -> r
  | Some (Hist _) -> invalid_arg (Printf.sprintf "Registry: %s is a histogram" name)
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.entries name (Counter r);
      r

let histogram t name =
  match Hashtbl.find_opt t.entries name with
  | Some (Hist h) -> h
  | Some (Counter _) -> invalid_arg (Printf.sprintf "Registry: %s is a counter" name)
  | None ->
      let h = Hdr.create () in
      Hashtbl.replace t.entries name (Hist h);
      h

let incr t name = incr (counter t name)
let add t name n = counter t name := !(counter t name) + n
let set t name v = counter t name := v
let observe t name v = Hdr.add (histogram t name) v

let value t name =
  match Hashtbl.find_opt t.entries name with Some (Counter r) -> Some !r | _ -> None

(* Name-sorted iteration: registration order is an implementation detail
   of whichever component registered first, but reports and digests must
   not depend on hash-table layout. *)
let sorted_names t = Engine.Det.hashtbl_sorted_keys ~compare:String.compare t.entries

let iter t f =
  List.iter
    (fun name -> match Hashtbl.find_opt t.entries name with Some e -> f name e | None -> ())
    (sorted_names t)

let counters t =
  List.filter_map
    (fun name ->
      match Hashtbl.find_opt t.entries name with
      | Some (Counter r) -> Some (name, !r)
      | _ -> None)
    (sorted_names t)

let histograms t =
  List.filter_map
    (fun name ->
      match Hashtbl.find_opt t.entries name with Some (Hist h) -> Some (name, h) | _ -> None)
    (sorted_names t)

let json_escape name =
  (* Metric names are [a-z0-9/_-] by convention, but be safe. *)
  let b = Buffer.create (String.length name + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    name;
  Buffer.contents b

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"counters\": {";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\n    \"%s\": %d" (json_escape name) v))
    (counters t);
  Buffer.add_string b "\n  },\n  \"histograms\": {";
  List.iteri
    (fun i (name, h) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    \"%s\": { \"count\": %d, \"p50\": %d, \"p99\": %d, \"p999\": %d, \"max\": %d }"
           (json_escape name) (Hdr.count h) (Hdr.p50 h) (Hdr.p99 h)
           (Hdr.p999 h) (Hdr.max h)))
    (histograms t);
  Buffer.add_string b "\n  }\n}\n";
  Buffer.contents b

let dump t =
  (match counters t with
  | [] -> ()
  | cs ->
      let tbl = Table.create ~title:"counters" ~columns:[ "name"; "value" ] in
      List.iter (fun (name, v) -> Table.add_row tbl [ name; Table.cell_i v ]) cs;
      Table.print tbl);
  match histograms t with
  | [] -> ()
  | hs ->
      let tbl =
        Table.create ~title:"histograms"
          ~columns:[ "name"; "count"; "p50"; "p99"; "p999"; "max" ]
      in
      List.iter
        (fun (name, h) ->
          Table.add_row tbl
            [
              name;
              Table.cell_i (Hdr.count h);
              Table.cell_ns (Hdr.p50 h);
              Table.cell_ns (Hdr.p99 h);
              Table.cell_ns (Hdr.p999 h);
              Table.cell_ns (Hdr.max h);
            ])
        hs;
      Table.print tbl
