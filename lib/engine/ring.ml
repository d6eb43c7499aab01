type 'a t = {
  mutable buf : 'a array; (* empty until the first push *)
  mutable blank : 'a array; (* [| first value pushed |], the vacated-slot filler *)
  mutable head : int;
  mutable len : int;
}

let create () = { buf = [||]; blank = [||]; head = 0; len = 0 }

let grow r v =
  let cap = Array.length r.buf in
  if cap = 0 then begin
    r.blank <- [| v |];
    r.buf <- Array.make 8 v
  end
  else begin
    let buf = Array.make (2 * cap) r.blank.(0) in
    for i = 0 to r.len - 1 do
      buf.(i) <- r.buf.((r.head + i) land (cap - 1))
    done;
    r.buf <- buf;
    r.head <- 0
  end

let push r v =
  if r.len = Array.length r.buf then grow r v;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- v;
  r.len <- r.len + 1

let pop r =
  if r.len = 0 then invalid_arg "Ring.pop: empty ring";
  let v = r.buf.(r.head) in
  r.buf.(r.head) <- r.blank.(0);
  r.head <- (r.head + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  v

let length r = r.len
let is_empty r = r.len = 0
