type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* {1 Printer} *)

(* Copies runs of plain bytes in one blit; bytes >= 0x80 pass through
   untouched, so UTF-8 text stays UTF-8. *)
let add_str b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring b s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Printf.bprintf b "\\u%04x" (Char.code c));
      start := i + 1
    end
  done;
  Buffer.add_substring b s !start (n - !start);
  Buffer.add_char b '"'

(* Integral values print without a fraction, so ids and counts survive
   a round trip textually unchanged; anything else gets the shortest of
   %.15g / %.17g that reads back to the same double.  JSON has no NaN or
   infinity, so those print as null. *)
let add_num b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (string_of_int (int_of_float f))
  else if Float.is_finite f then begin
    let s = Printf.sprintf "%.15g" f in
    Buffer.add_string b
      (if float_of_string s = f then s else Printf.sprintf "%.17g" f)
  end
  else Buffer.add_string b "null"

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Num f -> add_num b f
  | Str s -> add_str b s
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add b x)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          add_str b k;
          Buffer.add_char b ':';
          add b x)
        l;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

let fixed digits x =
  let p = 10. ** float_of_int digits in
  Num (Float.round (x *. p) /. p)

let row ~experiment ~kernel fields =
  to_string
    (Obj (("experiment", Str experiment) :: ("kernel", Str kernel) :: fields))

(* {1 Parser} — recursive descent over the string, tracking the byte
   offset for error messages. *)

exception Fail of int * string

let add_utf8 b code =
  let byte x = Buffer.add_char b (Char.unsafe_chr x) in
  if code < 0x80 then byte code
  else if code < 0x800 then begin
    byte (0xc0 lor (code lsr 6));
    byte (0x80 lor (code land 0x3f))
  end
  else begin
    byte (0xe0 lor (code lsr 12));
    byte (0x80 lor ((code lsr 6) land 0x3f));
    byte (0x80 lor (code land 0x3f))
  end

let parse s =
  let n = String.length s in
  let i = ref 0 in
  let fail msg = raise (Fail (!i, msg)) in
  let peek () = if !i < n then Some s.[!i] else None in
  let skip_ws () =
    while
      !i < n && (match s.[!i] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr i
    done
  in
  let expect c =
    if !i < n && s.[!i] = c then incr i
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !i + l <= n && String.sub s !i l = word then begin
      i := !i + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 at =
    if at + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for j = at to at + 3 do
      let d =
        match s.[j] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      v := (!v lsl 4) lor d
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then fail "unterminated string"
      else
        match s.[!i] with
        | '"' -> incr i
        | '\\' ->
            incr i;
            if !i >= n then fail "unterminated escape";
            (match s.[!i] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                (* Encoded as UTF-8; surrogate pairs are beyond what
                   the repo's producers emit, so each half is kept as
                   its own three-byte sequence. *)
                add_utf8 b (hex4 (!i + 1));
                i := !i + 4
            | c -> fail (Printf.sprintf "bad escape character %C" c));
            incr i;
            go ()
        | c ->
            Buffer.add_char b c;
            incr i;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !i in
    if peek () = Some '-' then incr i;
    let digits () =
      let d0 = !i in
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done;
      if !i = d0 then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      incr i;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr i;
        (match peek () with Some ('+' | '-') -> incr i | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!i - start) in
    match float_of_string_opt text with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr i;
        skip_ws ();
        if peek () = Some '}' then begin
          incr i;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr i;
                members ()
            | Some '}' -> incr i
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr i;
        skip_ws ();
        if peek () = Some ']' then begin
          incr i;
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr i;
                elements ()
            | Some ']' -> incr i
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !i < n then fail "trailing characters after value";
    v
  with
  | v -> Ok v
  | exception Fail (pos, msg) ->
      Error (Printf.sprintf "%s at offset %d" msg pos)

(* {1 Accessors} *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let str = function Str s -> Some s | _ -> None

let num = function Num f -> Some f | _ -> None

let int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let bool = function Bool b -> Some b | _ -> None
