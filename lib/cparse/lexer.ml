(* Hand-written lexer for the C subset.

   Preprocessor lines (`#include`, `#define`, ...) are skipped wholesale:
   the seed corpus and all generated programs are self-contained, and the
   type checker treats a small set of libc functions as builtins. *)

exception Error of string * Loc.t

type lexeme = { tok : Token.t; loc : Loc.t }

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let make src = { src; pos = 0; line = 1; bol = 0 }

let loc_of st =
  Loc.make ~line:st.line ~col:(st.pos - st.bol + 1) ~offset:st.pos

let error st msg = raise (Error (msg, loc_of st))

(* [peek] runs several times per input byte; returning a fresh [Some c]
   each call dominates the lexer's allocation.  Sharing one immutable
   [Some] block per byte value makes peeking allocation-free while
   keeping every call site's pattern match unchanged. *)
let some_char : char option array = Array.init 256 (fun i -> Some (Char.chr i))

let peek st =
  if st.pos < String.length st.src then
    Array.unsafe_get some_char (Char.code (String.unsafe_get st.src st.pos))
  else None

let peek2 st =
  if st.pos + 1 < String.length st.src then
    Array.unsafe_get some_char (Char.code (String.unsafe_get st.src (st.pos + 1)))
  else None

let advance st =
  if
    st.pos < String.length st.src
    && String.unsafe_get st.src st.pos = '\n'
  then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

(* Advance over [pred]-matching characters without the per-byte option
   round trip of [peek]/[advance]; only for character classes that
   exclude newlines (no line accounting needed). *)
let scan_while st pred =
  let src = st.src in
  let n = String.length src in
  let p = ref st.pos in
  while !p < n && pred (String.unsafe_get src !p) do
    incr p
  done;
  st.pos <- !p

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

(* The trivia skipper runs between every pair of tokens and visits every
   blank/comment byte, so it reads characters directly instead of going
   through [peek]'s option per byte. *)
let skip_trivia st =
  let src = st.src in
  let n = String.length src in
  let continue = ref true in
  while !continue do
    if st.pos >= n then continue := false
    else
      match String.unsafe_get src st.pos with
      | ' ' | '\t' | '\r' -> st.pos <- st.pos + 1
      | '\n' ->
        st.pos <- st.pos + 1;
        st.line <- st.line + 1;
        st.bol <- st.pos
      | '#' ->
        (* preprocessor line: skip to end of (logical) line *)
        let stop = ref false in
        while not !stop do
          if st.pos >= n then stop := true
          else
            match String.unsafe_get src st.pos with
            | '\n' -> stop := true
            | '\\' when st.pos + 1 < n
                        && String.unsafe_get src (st.pos + 1) = '\n' ->
              st.pos <- st.pos + 2;
              st.line <- st.line + 1;
              st.bol <- st.pos
            | _ -> st.pos <- st.pos + 1
        done
      | '/' when st.pos + 1 < n && String.unsafe_get src (st.pos + 1) = '/'
        ->
        while
          st.pos < n && String.unsafe_get src st.pos <> '\n'
        do
          st.pos <- st.pos + 1
        done
      | '/' when st.pos + 1 < n && String.unsafe_get src (st.pos + 1) = '*'
        ->
        st.pos <- st.pos + 2;
        let closed = ref false in
        while not !closed do
          if st.pos >= n then error st "unterminated comment"
          else
            match String.unsafe_get src st.pos with
            | '*' when st.pos + 1 < n
                       && String.unsafe_get src (st.pos + 1) = '/' ->
              st.pos <- st.pos + 2;
              closed := true
            | '\n' ->
              st.pos <- st.pos + 1;
              st.line <- st.line + 1;
              st.bol <- st.pos
            | _ -> st.pos <- st.pos + 1
        done
      | _ -> continue := false
  done

let lex_escape st =
  (* after the backslash *)
  match peek st with
  | None -> error st "unterminated escape"
  | Some c ->
    advance st;
    (match c with
    | 'n' -> '\n'
    | 't' -> '\t'
    | 'r' -> '\r'
    | '0' -> '\000'
    | '\\' -> '\\'
    | '\'' -> '\''
    | '"' -> '"'
    | 'a' -> '\007'
    | 'b' -> '\b'
    | 'f' -> '\012'
    | 'v' -> '\011'
    | 'x' ->
      let rec hex acc n =
        match peek st with
        | Some c when is_hex c && n < 2 ->
          advance st;
          let d =
            if is_digit c then Char.code c - Char.code '0'
            else (Char.code (Char.lowercase_ascii c) - Char.code 'a') + 10
          in
          hex ((acc * 16) + d) (n + 1)
        | _ -> acc
      in
      Char.chr (hex 0 0 land 0xff)
    | c when is_digit c ->
      (* octal escape, first digit already consumed *)
      let rec oct acc n =
        match peek st with
        | Some c when c >= '0' && c <= '7' && n < 2 ->
          advance st;
          oct ((acc * 8) + (Char.code c - Char.code '0')) (n + 1)
        | _ -> acc
      in
      Char.chr (oct (Char.code c - Char.code '0') 2 land 0xff)
    | c -> c)

let lex_number st =
  let start = st.pos in
  let is_hex_lit =
    match (peek st, peek2 st) with
    | Some '0', Some ('x' | 'X') -> true
    | _ -> false
  in
  if is_hex_lit then begin
    advance st; advance st;
    scan_while st is_hex
  end
  else scan_while st is_digit;
  let is_float = ref false in
  if (not is_hex_lit) && (match peek st with Some '.' -> true | _ -> false)
  then begin
    is_float := true;
    advance st;
    scan_while st is_digit
  end;
  if
    (not is_hex_lit)
    && match peek st with Some ('e' | 'E') -> true | _ -> false
  then begin
    is_float := true;
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    scan_while st is_digit
  end;
  let digits = String.sub st.src start (st.pos - start) in
  if !is_float then begin
    let is_double =
      match peek st with
      | Some ('f' | 'F') -> advance st; false
      | Some ('l' | 'L') -> advance st; true
      | _ -> true
    in
    match float_of_string_opt digits with
    | Some v -> Token.Float_lit (v, is_double)
    | None -> error st ("bad float literal: " ^ digits)
  end
  else begin
    (* suffixes *)
    let unsigned = ref false and longs = ref 0 in
    let rec suffixes () =
      match peek st with
      | Some ('u' | 'U') -> unsigned := true; advance st; suffixes ()
      | Some ('l' | 'L') -> incr longs; advance st; suffixes ()
      | _ -> ()
    in
    suffixes ();
    let kind : Ast.ikind =
      if !longs >= 2 then Ilonglong else if !longs = 1 then Ilong else Iint
    in
    match Int64.of_string_opt digits with
    | Some v -> Token.Int_lit (v, kind, !unsigned)
    | None -> error st ("bad integer literal: " ^ digits)
  end

let lex_string st =
  advance st; (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string literal"
    | Some '"' -> advance st
    | Some '\\' -> advance st; Buffer.add_char buf (lex_escape st); go ()
    | Some '\n' -> error st "newline in string literal"
    | Some c -> advance st; Buffer.add_char buf c; go ()
  in
  go ();
  Token.Str_lit (Buffer.contents buf)

let lex_char st =
  advance st; (* opening quote *)
  let c =
    match peek st with
    | None -> error st "unterminated char literal"
    | Some '\\' -> advance st; lex_escape st
    | Some c -> advance st; c
  in
  (match peek st with
  | Some '\'' -> advance st
  | _ -> error st "unterminated char literal");
  Token.Char_lit c

let next_token st : lexeme =
  skip_trivia st;
  let loc = loc_of st in
  let mk tok = { tok; loc } in
  match peek st with
  | None -> mk Token.Eof
  | Some c when is_ident_start c ->
    let start = st.pos in
    scan_while st is_ident_char;
    let s = String.sub st.src start (st.pos - start) in
    (match Token.keyword_of_string s with
    | Some k -> mk (Token.Kw k)
    | None -> mk (Token.Ident s))
  | Some c when is_digit c -> mk (lex_number st)
  | Some '.' when (match peek2 st with Some c -> is_digit c | None -> false) ->
    mk (lex_number st)
  | Some '"' -> mk (lex_string st)
  | Some '\'' -> mk (lex_char st)
  | Some c ->
    (* Multi-character operators: try alternatives of decreasing length. *)
    let open Token in
    let tok =
      match c with
      | '(' -> advance st; Lparen
      | ')' -> advance st; Rparen
      | '{' -> advance st; Lbrace
      | '}' -> advance st; Rbrace
      | '[' -> advance st; Lbracket
      | ']' -> advance st; Rbracket
      | ';' -> advance st; Semi
      | ',' -> advance st; Comma
      | '?' -> advance st; Question
      | ':' -> advance st; Colon
      | '~' -> advance st; Tilde
      | '.' ->
        advance st;
        (match (peek st, peek2 st) with
        | Some '.', Some '.' -> advance st; advance st; Ellipsis
        | _ -> Dot)
      | '+' ->
        advance st;
        (match peek st with
        | Some '+' -> advance st; PlusPlus
        | Some '=' -> advance st; PlusEq
        | _ -> Plus)
      | '-' ->
        advance st;
        (match peek st with
        | Some '-' -> advance st; MinusMinus
        | Some '=' -> advance st; MinusEq
        | Some '>' -> advance st; Arrow
        | _ -> Minus)
      | '*' ->
        advance st;
        (match peek st with Some '=' -> advance st; StarEq | _ -> Star)
      | '/' ->
        advance st;
        (match peek st with Some '=' -> advance st; SlashEq | _ -> Slash)
      | '%' ->
        advance st;
        (match peek st with Some '=' -> advance st; PercentEq | _ -> Percent)
      | '^' ->
        advance st;
        (match peek st with Some '=' -> advance st; CaretEq | _ -> Caret)
      | '!' ->
        advance st;
        (match peek st with Some '=' -> advance st; BangEq | _ -> Bang)
      | '=' ->
        advance st;
        (match peek st with Some '=' -> advance st; EqEq | _ -> Eq)
      | '&' ->
        advance st;
        (match peek st with
        | Some '&' -> advance st; AmpAmp
        | Some '=' -> advance st; AmpEq
        | _ -> Amp)
      | '|' ->
        advance st;
        (match peek st with
        | Some '|' -> advance st; PipePipe
        | Some '=' -> advance st; PipeEq
        | _ -> Pipe)
      | '<' ->
        advance st;
        (match peek st with
        | Some '=' -> advance st; Le
        | Some '<' ->
          advance st;
          (match peek st with Some '=' -> advance st; ShlEq | _ -> Shl)
        | _ -> Lt)
      | '>' ->
        advance st;
        (match peek st with
        | Some '=' -> advance st; Ge
        | Some '>' ->
          advance st;
          (match peek st with Some '=' -> advance st; ShrEq | _ -> Shr)
        | _ -> Gt)
      | c -> error st (Fmt.str "unexpected character %C" c)
    in
    mk tok

(* Lex an entire source buffer into a token array (with locations).  The
   array is built by doubling in place — the list-accumulate/reverse/
   [Array.of_list] idiom allocated ~7 words per token versus ~3 here,
   and this runs once per compile. *)
let tokenize src : lexeme array =
  let st = make src in
  let first = next_token st in
  let arr = ref (Array.make 64 first) in
  let len = ref 1 in
  let push l =
    if !len = Array.length !arr then begin
      let a = Array.make (2 * !len) l in
      Array.blit !arr 0 a 0 !len;
      arr := a
    end;
    !arr.(!len) <- l;
    incr len
  in
  (* a pattern match, not [<>]: the polymorphic compare was a C call
     per token *)
  let rec go last =
    match last.tok with
    | Token.Eof -> ()
    | _ ->
      let l = next_token st in
      push l;
      go l
  in
  go first;
  if !len = Array.length !arr then !arr else Array.sub !arr 0 !len
