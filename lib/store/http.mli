(** HTTP/1.1 framing for the store's client–server mode.

    The paper's prototype serves version operations "in a client-server
    model over HTTP" (§5); this module is the one codec both ends use:
    incremental parsing of requests (the server) and responses (the
    {!Client}) under one set of limits and framing rules, a serializer
    per direction, and percent-coding. Messages are always
    Content-Length framed, with the whole body in memory — no chunked
    encoding, no TLS. The event-driven connection handling lives in
    {!Server}; see DESIGN.md §13. *)

type request = {
  meth : string;  (** "GET", "POST", … (upper-cased) *)
  path : string;
      (** path without the query string, still percent-encoded: a
          router splits it on [/] before decoding each segment *)
  query : (string * string) list;  (** decoded query parameters *)
  headers : (string * string) list;  (** lower-cased names *)
  body : string;
  version : string;  (** "HTTP/1.1" etc., as sent *)
}

type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;
      (** extra response headers (e.g. the echoed
          [X-Dsvc-Request-Id]); values are CR/LF-sanitized on write *)
  body : string;
}

(** A response as a client reads it; header names lower-cased. *)
type reply = {
  reply_status : int;
  reply_headers : (string * string) list;
  reply_body : string;
  reply_version : string;
}

val ok : ?content_type:string -> ?headers:(string * string) list -> string -> response
(** 200 with [text/plain] and no extra headers by default. *)

val error : int -> string -> response

val serialize_header : ?keep_alive:bool -> response -> string
(** Status line + headers + CRLFCRLF; Content-Length is the length of
    [body], Connection from [keep_alive] (default close). *)

val serialize_request_header : keep_alive:bool -> meth:string ->
  target:string -> (string * string) list -> content_length:int -> string
(** Request line + headers + CRLFCRLF, as {!serialize_header}; the
    caller writes the [content_length]-byte body after it. [target]
    goes on the wire as given (already percent-encoded). *)

val keep_alive : version:string -> (string * string) list -> bool
(** Whether the connection persists after a message (either
    direction): HTTP/1.1 defaults to yes unless [Connection: close];
    HTTP/1.0 to no unless [Connection: keep-alive]. *)

val percent_encode : string -> string
(** [%XX] for every byte outside RFC 3986's unreserved set: one path
    segment, query key or value, undone by either decoder below. *)

val percent_decode : string -> string
(** Decode [%XX] escapes. ["+"] is preserved — in a request path a
    plus is a plus. Malformed escapes pass through verbatim. *)

val percent_decode_query : string -> string
(** Query-string decoding: [%XX] escapes and ["+"] as space
    (application/x-www-form-urlencoded). *)

(** Incremental parser — a connection's framing state machine, for
    requests ({!next}, the server) or responses ({!next_response}, the
    client). Feed raw bytes as they arrive; pull complete messages
    out. Both directions share the limits and rules: the header block
    is bounded by [max_header_bytes] (reject 413), the body by
    [max_body_bytes] (413); a malformed start line, a header line
    without a colon, or a repeated, list-valued or non-decimal
    Content-Length is a 400. A response without a Content-Length is a
    400 too — read to end of file it would escape the body bound.
    Rejections are sticky — the connection is beyond saving. Leftover
    bytes after a message are the start of the next (pipelining). *)
module Parser : sig
  type limits = { max_header_bytes : int; max_body_bytes : int }

  val default_limits : limits
  (** 16 KiB headers, 64 MiB body. *)

  type reject = { reject_status : int; reject_reason : string }

  type t

  val create : ?limits:limits -> unit -> t

  val feed : t -> Bytes.t -> int -> int -> unit
  (** [feed t buf off len] appends bytes; the buffer is copied. *)

  val feed_string : t -> string -> unit

  val next : t -> [ `Request of request | `Partial | `Reject of reject ]
  (** Pull the next complete request. Call repeatedly until
      [`Partial] — several pipelined requests may be buffered. *)

  val next_response : t -> [ `Response of reply | `Partial | `Reject of reject ]
  (** Pull the next complete response, as {!next} does requests. *)

  val in_request : t -> bool
  (** Holding bytes of an unfinished request? Decides whether a read
      timeout is a 408 or a silent idle close. *)

  val buffered : t -> int
  (** Bytes currently buffered; after a message, bytes the peer sent
      past it. *)
end
