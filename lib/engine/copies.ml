(* The simulator's own bytes-moved meter. [moved] is a plain int, so
   counting allocates nothing; each copy adds its length after the
   stdlib call returns, so a copy that raises is not counted. *)

let total = ref 0
let moved () = !total

module Bytes = struct
  include Stdlib.Bytes

  let blit src src_off dst dst_off len =
    Stdlib.Bytes.blit src src_off dst dst_off len;
    total := !total + len

  let blit_string src src_off dst dst_off len =
    Stdlib.Bytes.blit_string src src_off dst dst_off len;
    total := !total + len

  let sub b off len =
    let r = Stdlib.Bytes.sub b off len in
    total := !total + len;
    r

  let sub_string b off len =
    let r = Stdlib.Bytes.sub_string b off len in
    total := !total + len;
    r

  let copy b =
    let r = Stdlib.Bytes.copy b in
    total := !total + Stdlib.Bytes.length b;
    r
end

module String = struct
  include Stdlib.String

  let sub s off len =
    let r = Stdlib.String.sub s off len in
    total := !total + len;
    r
end
