(** The lexical layer of dlint's {!Rules} scanner: comment/string
    stripping and whole-token matching. *)

val strip_comments_and_strings : string -> string
(** Replace comment bodies and string/char literal contents with spaces
    (newlines preserved), so token scans can't match inside them.
    Mirrors the OCaml lexer on the pathological-but-legal cases: char
    literals holding quotes (['"'], ['\'']), nested [(* (* *) *)]
    comments, and string/char literals embedded {e inside} comments
    (where a [" *) "] does not close the comment). *)

val is_ident_char : char -> bool

val token_index : string -> string -> int option
(** 0-based index of the first whole-token occurrence of a token on a
    line: not preceded by an identifier character (a qualifying ['.']
    is fine) and not extended by one (["Bytes.sub"] does not match
    inside ["Bytes.sub_string"]). *)

val contains_token : string -> string -> bool

val token_col : string -> string -> int option
(** Like {!token_index} but 1-based, for diagnostics. *)
