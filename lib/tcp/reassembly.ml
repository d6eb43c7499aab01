type t = {
  mutable rcv_nxt : Seqnum.t;
  mutable segments : (Seqnum.t * string) list; (* sorted by seq, non-overlapping *)
  mutable buffered : int;
  capacity : int;
}

let create ~rcv_nxt ~capacity = { rcv_nxt; segments = []; buffered = 0; capacity }

let rcv_nxt t = t.rcv_nxt
let buffered_bytes t = t.buffered

let take_in_order t ~seq ~len =
  match t.segments with
  | [] when seq = t.rcv_nxt && len <= t.capacity ->
      t.rcv_nxt <- Seqnum.add t.rcv_nxt len;
      true
  | [] | _ :: _ -> false

(* Trim the head of [payload] so it starts at or after [floor]. *)
let trim_low ~floor ~seq payload =
  let skip = Seqnum.sub floor seq in
  if skip <= 0 then Some (seq, payload)
  else if skip >= String.length payload then None
  else Some (floor, String.sub payload skip (String.length payload - skip))

let insert t ~seq payload =
  if String.length payload = 0 then ()
  else
    match trim_low ~floor:t.rcv_nxt ~seq payload with
    | None -> ()
    | Some (seq, payload) ->
        (* Insert in sequence order, trimming against neighbours. *)
        let rec place acc seq payload rest =
          match rest with
          | [] -> List.rev ((seq, payload) :: acc)
          | (s, p) :: tail when Seqnum.le (Seqnum.add s (String.length p)) seq ->
              (* Existing segment entirely before the new one. *)
              place ((s, p) :: acc) seq payload tail
          | (s, p) :: tail ->
              if Seqnum.le (Seqnum.add seq (String.length payload)) s then
                (* New segment entirely before the existing one. *)
                List.rev_append acc ((seq, payload) :: (s, p) :: tail)
              else begin
                (* Overlap: keep the existing segment, trim the new one
                   against it, and re-place the remainder(s). *)
                let new_end = Seqnum.add seq (String.length payload) in
                let before =
                  let n = Seqnum.sub s seq in
                  if n > 0 then Some (seq, String.sub payload 0 n) else None
                in
                let after =
                  let existing_end = Seqnum.add s (String.length p) in
                  let n = Seqnum.sub new_end existing_end in
                  if n > 0 then
                    Some (existing_end, String.sub payload (String.length payload - n) n)
                  else None
                in
                let acc = match before with Some b -> (s, p) :: b :: acc | None -> (s, p) :: acc in
                match after with
                | Some (s2, p2) -> place acc s2 p2 tail
                | None -> List.rev_append acc tail
              end
        in
        let bytes = String.length payload in
        if t.buffered + bytes <= t.capacity then begin
          let before = List.fold_left (fun n (_, p) -> n + String.length p) 0 t.segments in
          t.segments <- place [] seq payload t.segments;
          let after = List.fold_left (fun n (_, p) -> n + String.length p) 0 t.segments in
          t.buffered <- t.buffered + (after - before)
        end

let ranges t =
  let rec start = function
    | [] -> []
    | (s, p) :: rest -> extend s (Seqnum.add s (String.length p)) rest
  and extend left right = function
    | (s, p) :: rest when s = right -> extend left (Seqnum.add s (String.length p)) rest
    | rest -> (left, right) :: start rest
  in
  start t.segments

let pop_ready t =
  match t.segments with
  | (seq, payload) :: rest when seq = t.rcv_nxt ->
      t.segments <- rest;
      t.buffered <- t.buffered - String.length payload;
      t.rcv_nxt <- Seqnum.add t.rcv_nxt (String.length payload);
      Some payload
  | _ -> None
