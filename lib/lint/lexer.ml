(* The lexical layer of dlint's rule scanner (Rules): the source with
   comment bodies and string/char literal contents blanked out, split
   into lines, and whole-token matching over it. *)

(* Blank out comment bodies and string/char literal contents (keeping
   newlines) so token scans cannot match inside them. Handles nested
   comments, escape sequences, and distinguishes char literals from
   type variables. *)
let strip_comments_and_strings src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let rec in_string i =
    if i >= n then i
    else
      match src.[i] with
      | '"' ->
          blank i;
          i + 1
      | '\\' when i + 1 < n ->
          blank i;
          blank (i + 1);
          in_string (i + 2)
      | _ ->
          blank i;
          in_string (i + 1)
  in
  (* A string literal embedded in a comment (OCaml lexes those: a
     [" *) "] inside a comment does not close it). Blanks through the
     closing quote. *)
  let rec comment_string i =
    if i >= n then i
    else
      match src.[i] with
      | '"' ->
          blank i;
          i + 1
      | '\\' when i + 1 < n ->
          blank i;
          blank (i + 1);
          comment_string (i + 2)
      | _ ->
          blank i;
          comment_string (i + 1)
  in
  let rec in_comment depth i =
    if i >= n then i
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      in_comment (depth + 1) (i + 2)
    end
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then begin
      blank i;
      blank (i + 1);
      if depth = 1 then i + 2 else in_comment (depth - 1) (i + 2)
    end
    else if src.[i] = '"' then begin
      blank i;
      in_comment depth (comment_string (i + 1))
    end
    else if src.[i] = '\'' && i + 2 < n && src.[i + 1] = '\\' then begin
      (* escaped char literal in a comment: '\'' / '\\' / '\n' *)
      blank i;
      blank (i + 1);
      blank (i + 2);
      if i + 3 < n && src.[i + 3] = '\'' then begin
        blank (i + 3);
        in_comment depth (i + 4)
      end
      else in_comment depth (i + 3)
    end
    else if src.[i] = '\'' && i + 2 < n && src.[i + 2] = '\'' then begin
      (* plain char literal in a comment — in particular '"' and '(' *)
      blank i;
      blank (i + 1);
      blank (i + 2);
      in_comment depth (i + 3)
    end
    else begin
      blank i;
      in_comment depth (i + 1)
    end
  in
  let rec go i =
    if i >= n then ()
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
      blank i;
      blank (i + 1);
      go (in_comment 1 (i + 2))
    end
    else
      match src.[i] with
      | '"' ->
          blank i;
          go (in_string (i + 1))
      | '\'' ->
          if i + 2 < n && src.[i + 1] = '\\' then begin
            (* escaped char literal: blank through the closing quote *)
            let rec close j =
              if j >= n then j
              else if src.[j] = '\'' then begin
                blank j;
                j + 1
              end
              else begin
                blank j;
                close (j + 1)
              end
            in
            blank i;
            blank (i + 1);
            go (close (i + 2))
          end
          else if i + 2 < n && src.[i + 2] = '\'' then begin
            blank i;
            blank (i + 1);
            blank (i + 2);
            go (i + 3)
          end
          else go (i + 1) (* type variable like 'a *)
      | _ -> go (i + 1)
  in
  go 0;
  Bytes.to_string out

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  || c = '\''

(* Whole-token occurrence: the character before must not be an
   identifier character (a qualifying '.' is fine, so [Stdlib.Bytes.blit]
   still matches "Bytes.blit"), and when the token ends in an identifier
   character the next one must not extend it (so "Bytes.sub" does not
   match inside "Bytes.sub_string"). Returns the 0-based index of the
   first occurrence. *)
let token_index line token =
  let n = String.length line and m = String.length token in
  let tail_is_ident = m > 0 && is_ident_char token.[m - 1] in
  let rec at i =
    if i + m > n then None
    else if
      String.sub line i m = token
      && (i = 0 || not (is_ident_char line.[i - 1]))
      && ((not tail_is_ident) || i + m >= n || not (is_ident_char line.[i + m]))
    then Some i
    else at (i + 1)
  in
  at 0

let contains_token line token = token_index line token <> None

(* 1-based column of the first whole-token occurrence, for
   diagnostics. *)
let token_col line token =
  match token_index line token with Some i -> Some (i + 1) | None -> None
