type t = int

let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let s n = n * 1_000_000_000

let pp fmt t =
  let ft = float_of_int t in
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.2fus" (ft /. 1e3)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.2fms" (ft /. 1e6)
  else Format.fprintf fmt "%.3fs" (ft /. 1e9)
