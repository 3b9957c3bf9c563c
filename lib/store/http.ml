type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
  version : string;
}

type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;
  body : string;
}

type reply = {
  reply_status : int;
  reply_headers : (string * string) list;
  reply_body : string;
  reply_version : string;
}

let status_text = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Content Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Status"

let ok ?(content_type = "text/plain; charset=utf-8") ?(headers = []) body =
  { status = 200; content_type; headers; body }

let error status body =
  { status; content_type = "text/plain; charset=utf-8"; headers = []; body }

(* ---- percent coding ----------------------------------------------

   One encoder, whose output reads the same in a path and a query.
   Two deliberately distinct decoders: "+" means space only inside
   query strings (application/x-www-form-urlencoded); in a request
   *path* a literal "+" is just a plus — a blob digest or version
   name containing one must survive the round trip. *)

let percent_encode s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
          Buffer.add_char buf c
      | c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents buf

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let decode ~plus_is_space s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' when plus_is_space -> Buffer.add_char buf ' '
    | '%' when !i + 2 < n -> (
        match (hex_val s.[!i + 1], hex_val s.[!i + 2]) with
        | Some hi, Some lo ->
            Buffer.add_char buf (Char.chr ((hi * 16) + lo));
            i := !i + 2
        | _ -> Buffer.add_char buf '%')
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let percent_decode s = decode ~plus_is_space:false s

let percent_decode_query s = decode ~plus_is_space:true s

let parse_query q =
  if q = "" then []
  else
    String.split_on_char '&' q
    |> List.filter_map (fun kv ->
           match String.index_opt kv '=' with
           | Some i ->
               Some
                 ( percent_decode_query (String.sub kv 0 i),
                   percent_decode_query
                     (String.sub kv (i + 1) (String.length kv - i - 1)) )
           | None ->
               if kv = "" then None else Some (percent_decode_query kv, ""))

(* ---- start-line / header parsing -------------------------------- *)

let digits s =
  s <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) s

(* A start line's three fields: method, target, version for a request;
   version, status and an unused third for a response. *)
let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ m; t; version ] when String.starts_with ~prefix:"HTTP/" version ->
      Ok (String.uppercase_ascii m, t, version)
  | _ -> Error ("malformed request line: " ^ line)

let parse_status_line line =
  match String.split_on_char ' ' line with
  | version :: code :: _
    when String.starts_with ~prefix:"HTTP/" version
         && String.length code = 3 && digits code ->
      Ok (version, code, "")
  | _ -> Error ("malformed status line: " ^ line)

let parse_header_line line =
  match String.index_opt line ':' with
  | Some i ->
      let name = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
      let value =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      Ok (name, value)
  | None -> Error ("malformed header: " ^ line)

let split_target target =
  match String.index_opt target '?' with
  | Some i ->
      ( String.sub target 0 i,
        parse_query (String.sub target (i + 1) (String.length target - i - 1))
      )
  | None -> (target, [])

(* RFC 9110 §8.6: Content-Length = 1*DIGIT. [int_of_string_opt] alone
   would also take a sign, [_] separators and 0x/0o/0b prefixes. *)
let parse_content_length v =
  let v = String.trim v in
  if digits v then int_of_string_opt v else None

(* Request-smuggling hygiene: a message whose framing is ambiguous is
   rejected outright. More than one Content-Length header — or one
   header carrying a list — never has an innocent explanation
   (RFC 9112 §6.3). The status distinguishes "you sent garbage" (400)
   from "you sent more than this end accepts" (413). [None]: no
   Content-Length at all. *)
let content_length_of_headers ~max_body headers =
  match
    List.filter_map
      (fun (name, v) -> if name = "content-length" then Some v else None)
      headers
  with
  | [] -> Ok None
  | [ v ] -> (
      if String.contains v ',' then
        Error (400, "conflicting content-length values")
      else
        match parse_content_length v with
        | Some len ->
            if len <= max_body then Ok (Some len)
            else Error (413, "body too large")
        | None -> Error (400, "bad content-length"))
  | _ :: _ -> Error (400, "duplicate content-length header")

let keep_alive ~version headers =
  match
    Option.map String.lowercase_ascii (List.assoc_opt "connection" headers)
  with
  | Some "close" -> false
  | Some v when String.trim v = "keep-alive" -> true
  | Some _ | None -> version <> "HTTP/1.0"

(* ---- incremental parser ------------------------------------------

   Each connection's framing state machine, for either direction:
   bytes in via [feed], framed requests out via [next] or responses
   via [next_response]. Bounded on both axes — the header block by
   [max_header_bytes], the body by [max_body_bytes] — so a hostile or
   broken peer cannot grow the buffer without limit. Pipelining falls
   out naturally: leftover bytes after one message are the start of
   the next. *)
module Parser = struct
  type limits = { max_header_bytes : int; max_body_bytes : int }

  let default_limits =
    { max_header_bytes = 16 * 1024; max_body_bytes = 64 * 1024 * 1024 }

  type reject = { reject_status : int; reject_reason : string }

  (* What we know mid-message once the header block has been parsed. *)
  type pending = {
    p_start : string * string * string;
    p_headers : (string * string) list;
    p_body_len : int;
  }

  type state = Idle | In_headers | In_body of pending | Rejected of reject

  type t = {
    limits : limits;
    mutable buf : Bytes.t;
    mutable start : int;  (* first unconsumed byte *)
    mutable fill : int;  (* one past the last byte *)
    mutable scanned : int;  (* CRLFCRLF scan resume point *)
    mutable state : state;
  }

  let create ?(limits = default_limits) () =
    {
      limits;
      buf = Bytes.create 4096;
      start = 0;
      fill = 0;
      scanned = 0;
      state = Idle;
    }

  let buffered t = t.fill - t.start

  (* Mid-request iff we hold bytes of an unfinished request: decides
     whether a read timeout is a 408 (peer stalled mid-request) or a
     silent close (keep-alive connection gone idle). *)
  let in_request t =
    match t.state with
    | In_headers | In_body _ -> true
    | Rejected _ -> false
    | Idle -> buffered t > 0

  (* Room for [extra] more bytes: slide the live bytes to the front,
     and grow when they still do not fit — doubling, but not past the
     body a parsed head announces (a 64 MiB body gets 64 MiB, not 128). *)
  let ensure_capacity t extra =
    let len = Bytes.length t.buf in
    if t.fill + extra > len then begin
      let used = buffered t in
      let buf =
        if used + extra <= len then t.buf
        else
          let ceiling =
            match t.state with In_body p -> p.p_body_len | _ -> max_int
          in
          Bytes.create (max (used + extra) (min (2 * len) ceiling))
      in
      Bytes.blit t.buf t.start buf 0 used;
      t.buf <- buf;
      t.scanned <- t.scanned - t.start;
      t.start <- 0;
      t.fill <- used
    end

  let feed t src off len =
    ensure_capacity t len;
    Bytes.blit src off t.buf t.fill len;
    t.fill <- t.fill + len

  let feed_string t s = feed t (Bytes.of_string s) 0 (String.length s)

  let reject t status reason =
    let r = { reject_status = status; reject_reason = reason } in
    t.state <- Rejected r;
    `Reject r

  (* Find "\r\n\r\n" from [scanned] on; remembers progress so repeated
     partial feeds stay O(total bytes). *)
  let find_header_end t =
    let limit = t.fill - 3 in
    let i = ref (max t.start t.scanned) in
    let found = ref (-1) in
    while !found < 0 && !i < limit do
      if
        Bytes.get t.buf !i = '\r'
        && Bytes.get t.buf (!i + 1) = '\n'
        && Bytes.get t.buf (!i + 2) = '\r'
        && Bytes.get t.buf (!i + 3) = '\n'
      then found := !i
      else incr i
    done;
    t.scanned <- (if !found >= 0 then !found else max t.start (t.fill - 3));
    !found

  (* Consume the head ending at [hend]. A response must carry a
     Content-Length: read to end of file, its body would escape
     [max_body_bytes]. *)
  let parse_head t hend ~response =
    let text = Bytes.sub_string t.buf t.start (hend - t.start) in
    t.start <- hend + 4;
    t.scanned <- t.start;
    let strip l =
      if String.length l > 0 && l.[String.length l - 1] = '\r' then
        String.sub l 0 (String.length l - 1)
      else l
    in
    let first, rest =
      match List.map strip (String.split_on_char '\n' text) with
      | first :: rest -> (first, rest)
      | [] -> ("", [])
    in
    let rec headers acc = function
      | [] -> Ok (List.rev acc)
      | "" :: tl -> headers acc tl
      | l :: tl -> (
          match parse_header_line l with
          | Ok kv -> headers (kv :: acc) tl
          | Error e -> Error (400, e))
    in
    let ( let* ) = Result.bind in
    let* p_start =
      Result.map_error
        (fun e -> (400, e))
        ((if response then parse_status_line else parse_request_line) first)
    in
    let* p_headers = headers [] rest in
    match
      content_length_of_headers ~max_body:t.limits.max_body_bytes p_headers
    with
    | Ok None when response -> Error (400, "response without content-length")
    | Ok len -> Ok { p_start; p_headers; p_body_len = Option.value len ~default:0 }
    | Error e -> Error e

  let take_body t p =
    let body = Bytes.sub_string t.buf t.start p.p_body_len in
    t.start <- t.start + p.p_body_len;
    t.scanned <- t.start;
    t.state <- Idle;
    if buffered t = 0 then begin
      t.start <- 0;
      t.fill <- 0;
      t.scanned <- 0;
      (* an idle connection does not keep a large body's buffer *)
      if Bytes.length t.buf > 65536 then t.buf <- Bytes.create 4096
    end;
    body

  (* Frame the next complete message. [`Partial] means "feed me
     more"; [`Reject] is sticky — the connection is beyond saving
     once framing is ambiguous. *)
  let rec frame t ~response =
    match t.state with
    | Rejected r -> `Reject r
    | In_body p ->
        if buffered t >= p.p_body_len then `Message (p, take_body t p)
        else `Partial
    | Idle | In_headers -> (
        if buffered t = 0 then `Partial
        else begin
          t.state <- In_headers;
          let hend = find_header_end t in
          if hend < 0 then
            if buffered t > t.limits.max_header_bytes then
              reject t 413 "header block too large"
            else `Partial
          else if hend - t.start > t.limits.max_header_bytes then
            reject t 413 "header block too large"
          else
            match parse_head t hend ~response with
            | Error (status, reason) -> reject t status reason
            | Ok p ->
                t.state <- In_body p;
                frame t ~response
        end)

  let next t =
    match frame t ~response:false with
    | `Message ({ p_start = meth, target, version; p_headers = headers; _ }, body)
      ->
        let path, query = split_target target in
        `Request { meth; path; query; headers; body; version }
    | (`Partial | `Reject _) as v -> v

  let next_response t =
    match frame t ~response:true with
    | `Message ({ p_start = version, code, _; p_headers; _ }, body) ->
        `Response
          {
            reply_status = int_of_string code;
            reply_headers = p_headers;
            reply_body = body;
            reply_version = version;
          }
    | (`Partial | `Reject _) as v -> v
end

(* A header value must not smuggle CR/LF into the framing, whatever
   the handler or caller put in it. *)
let sanitize_header_value v =
  String.map (function '\r' | '\n' -> ' ' | c -> c) v

(* A start line, the headers, Content-Length and Connection, then the
   blank line. The body travels separately, so the writer can hand
   head and body to writev, or write them in turn, without
   concatenating them. *)
let serialize_head start headers ~content_length ~keep_alive =
  let field (name, value) =
    Printf.sprintf "%s: %s\r\n" (sanitize_header_value name)
      (sanitize_header_value value)
  in
  String.concat ""
    ((start ^ "\r\n") :: List.map field headers
    @ [
        Printf.sprintf "Content-Length: %d\r\nConnection: %s\r\n\r\n"
          content_length
          (if keep_alive then "keep-alive" else "close");
      ])

let serialize_header ?(keep_alive = false) resp =
  serialize_head
    (Printf.sprintf "HTTP/1.1 %d %s" resp.status (status_text resp.status))
    (("Content-Type", resp.content_type) :: resp.headers)
    ~content_length:(String.length resp.body) ~keep_alive

let serialize_request_header ~keep_alive ~meth ~target headers ~content_length =
  serialize_head
    (Printf.sprintf "%s %s HTTP/1.1" meth target)
    headers ~content_length ~keep_alive
