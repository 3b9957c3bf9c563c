module Faults = Versioning_util.Faults

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
  version : string;
}

(* A response body is either in memory or streamed in chunks pulled on
   demand (zero-copy blob serving: the server writes each chunk
   straight to the socket instead of materializing the whole body).
   [stream_length] is the exact logical size — responses are always
   Content-Length framed, streamed or not, so keep-alive works. *)
type body_stream = {
  stream_length : int;
  read_chunk : unit -> (string option, string) result;
  close_stream : unit -> unit;
}

type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;
  body : string;
  stream : body_stream option;
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
  { status = 200; content_type; headers; body; stream = None }

let ok_stream ?(content_type = "application/octet-stream") stream =
  { status = 200; content_type; headers = []; body = ""; stream = Some stream }

let error status body =
  {
    status;
    content_type = "text/plain; charset=utf-8";
    headers = [];
    body;
    stream = None;
  }

let body_length resp =
  match resp.stream with
  | Some s -> s.stream_length
  | None -> String.length resp.body

(* Materialize a response body (drains a stream — single use). Test
   and tooling convenience; the server never calls it. *)
let response_body resp =
  match resp.stream with
  | None -> Ok resp.body
  | Some s ->
      let buf = Buffer.create s.stream_length in
      let rec go () =
        match s.read_chunk () with
        | Ok (Some chunk) ->
            Buffer.add_string buf chunk;
            go ()
        | Ok None ->
            s.close_stream ();
            Ok (Buffer.contents buf)
        | Error e ->
            s.close_stream ();
            Error e
      in
      go ()

(* ---- percent decoding --------------------------------------------

   Two deliberately distinct decoders: "+" means space only inside
   query strings (application/x-www-form-urlencoded); in a request
   *path* a literal "+" is just a plus — a blob digest or version
   name containing one must survive the round trip. *)

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

(* ---- shared request-line / header parsing ------------------------ *)

let ( let* ) = Result.bind

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ m; t; version ]
    when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
      Ok (String.uppercase_ascii m, t, version)
  | _ -> Error ("malformed request line: " ^ line)

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

(* Request-smuggling hygiene: a request whose framing is ambiguous is
   rejected outright. More than one Content-Length header — or one
   header carrying a list — never has an innocent explanation
   (RFC 9112 §6.3). The status distinguishes "you sent garbage" (400)
   from "you sent more than this server accepts" (413). *)
let body_length_of_headers ~max_body headers =
  match
    List.filter_map
      (fun (name, v) -> if name = "content-length" then Some v else None)
      headers
  with
  | [] -> Ok 0
  | [ v ] -> (
      if String.contains v ',' then
        Error (400, "conflicting content-length values")
      else
        match int_of_string_opt (String.trim v) with
        | Some len when len >= 0 ->
            if len <= max_body then Ok len else Error (413, "body too large")
        | Some _ | None -> Error (400, "bad content-length"))
  | _ :: _ -> Error (400, "duplicate content-length header")

let keep_alive (req : request) =
  match
    Option.map String.lowercase_ascii (List.assoc_opt "connection" req.headers)
  with
  | Some "close" -> false
  | Some v when String.trim v = "keep-alive" -> true
  | Some _ | None -> req.version <> "HTTP/1.0"

(* ---- incremental parser ------------------------------------------

   The event loop's per-connection state machine: bytes in via [feed],
   framed requests out via [next]. Bounded on both axes — the header
   block by [max_header_bytes], the body by [max_body_bytes] — so a
   hostile or broken peer cannot grow the buffer without limit.
   Pipelining falls out naturally: leftover bytes after one request
   are the start of the next. *)
module Parser = struct
  type limits = { max_header_bytes : int; max_body_bytes : int }

  let default_limits =
    { max_header_bytes = 16 * 1024; max_body_bytes = 64 * 1024 * 1024 }

  type reject = { reject_status : int; reject_reason : string }

  (* What we know mid-request once the header block has been parsed. *)
  type pending = {
    p_meth : string;
    p_path : string;
    p_query : (string * string) list;
    p_headers : (string * string) list;
    p_version : string;
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

  let ensure_capacity t extra =
    let len = Bytes.length t.buf in
    if t.fill + extra <= len then ()
    else begin
      let used = buffered t in
      if used + extra <= len then begin
        (* compact: slide live bytes to the front *)
        Bytes.blit t.buf t.start t.buf 0 used;
        t.scanned <- t.scanned - t.start;
        t.start <- 0;
        t.fill <- used
      end
      else begin
        let cap = ref (len * 2) in
        while used + extra > !cap do
          cap := !cap * 2
        done;
        let nbuf = Bytes.create !cap in
        Bytes.blit t.buf t.start nbuf 0 used;
        t.buf <- nbuf;
        t.scanned <- t.scanned - t.start;
        t.start <- 0;
        t.fill <- used
      end
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

  let parse_header_block t hend =
    let text = Bytes.sub_string t.buf t.start (hend - t.start) in
    t.start <- hend + 4;
    t.scanned <- t.start;
    match String.split_on_char '\n' text with
    | [] -> Error (400, "empty request")
    | first :: rest -> (
        let strip l =
          if String.length l > 0 && l.[String.length l - 1] = '\r' then
            String.sub l 0 (String.length l - 1)
          else l
        in
        match parse_request_line (strip first) with
        | Error e -> Error (400, e)
        | Ok (meth, target, version) -> (
            let rec headers acc = function
              | [] -> Ok (List.rev acc)
              | l :: tl -> (
                  let l = strip l in
                  if l = "" then headers acc tl
                  else
                    match parse_header_line l with
                    | Ok kv -> headers (kv :: acc) tl
                    | Error e -> Error (400, e))
            in
            match headers [] rest with
            | Error e -> Error e
            | Ok hs -> (
                match
                  body_length_of_headers
                    ~max_body:t.limits.max_body_bytes hs
                with
                | Error e -> Error e
                | Ok body_len ->
                    let path, query = split_target target in
                    Ok
                      {
                        p_meth = meth;
                        p_path = path;
                        p_query = query;
                        p_headers = hs;
                        p_version = version;
                        p_body_len = body_len;
                      })))

  let request_of_pending t p =
    let body = Bytes.sub_string t.buf t.start p.p_body_len in
    t.start <- t.start + p.p_body_len;
    t.scanned <- t.start;
    t.state <- Idle;
    if buffered t = 0 then begin
      t.start <- 0;
      t.fill <- 0;
      t.scanned <- 0
    end;
    {
      meth = p.p_meth;
      path = p.p_path;
      query = p.p_query;
      headers = p.p_headers;
      body;
      version = p.p_version;
    }

  (* Pull the next complete request out of the buffer. [`Partial]
     means "feed me more"; [`Reject] is sticky — the connection is
     beyond saving once framing is ambiguous. *)
  let rec next t =
    match t.state with
    | Rejected r -> `Reject r
    | In_body p ->
        if buffered t >= p.p_body_len then `Request (request_of_pending t p)
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
            match parse_header_block t hend with
            | Error (status, reason) -> reject t status reason
            | Ok p ->
                t.state <- In_body p;
                next t
        end)
end

(* ---- blocking channel API (client responses, tests, tools) ------- *)

let read_line_crlf ic =
  match In_channel.input_line ic with
  | None -> Error "unexpected end of stream"
  | Some line ->
      let line =
        if String.length line > 0 && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      Ok line

let read_request ?(max_body = 64 * 1024 * 1024) ic =
  let* request_line = read_line_crlf ic in
  let* meth, target, version = parse_request_line request_line in
  let path, query = split_target target in
  let rec read_headers acc =
    let* line = read_line_crlf ic in
    if line = "" then Ok (List.rev acc)
    else
      let* kv = parse_header_line line in
      read_headers (kv :: acc)
  in
  let* headers = read_headers [] in
  let* body =
    match body_length_of_headers ~max_body headers with
    | Error (_, reason) -> Error reason
    | Ok 0 -> Ok ""
    | Ok len -> (
        try Ok (really_input_string ic len)
        with End_of_file -> Error "truncated body")
  in
  Ok { meth; path; query; headers; body; version }

(* A header value must not smuggle CR/LF into the response framing,
   whatever the handler put in it. *)
let sanitize_header_value v =
  String.map (function '\r' | '\n' -> ' ' | c -> c) v

(* The serialized status line + headers, terminated by CRLFCRLF; the
   body travels separately (as one string or as stream chunks), so the
   writer can hand header and body slices to writev together. *)
let serialize_header ?(keep_alive = false) resp =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" resp.status (status_text resp.status));
  Buffer.add_string buf
    (Printf.sprintf "Content-Type: %s\r\n" resp.content_type);
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf
        (Printf.sprintf "%s: %s\r\n" (sanitize_header_value name)
           (sanitize_header_value value)))
    resp.headers;
  Buffer.add_string buf
    (Printf.sprintf "Content-Length: %d\r\n" (body_length resp));
  Buffer.add_string buf
    (if keep_alive then "Connection: keep-alive\r\n\r\n"
     else "Connection: close\r\n\r\n");
  Buffer.contents buf

let write_response oc resp =
  (* Fault-injection point: a [Drop] armed here models the peer
     vanishing before the response is written. *)
  Faults.guard "http.write_response";
  output_string oc (serialize_header ~keep_alive:false resp);
  (match resp.stream with
  | None -> output_string oc resp.body
  | Some s ->
      let rec go () =
        match s.read_chunk () with
        | Ok (Some chunk) ->
            output_string oc chunk;
            go ()
        | Ok None -> s.close_stream ()
        | Error _ ->
            (* Headers are gone; all we can do is cut the body short
               so the Content-Length mismatch surfaces client-side. *)
            s.close_stream ()
      in
      go ());
  flush oc
