(** HTTP/1.1 framing for the store's client–server mode.

    The paper's prototype serves version operations "in a client-server
    model over HTTP" (§5); this module supplies the protocol layer for
    that: request parsing (blocking-channel and incremental), response
    serialization with streamed bodies, and percent-decoding. Requests
    and responses are always Content-Length framed — no chunked
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

(** A body produced incrementally: [read_chunk] yields [Some bytes]
    until the stream is exhausted ([None]). [stream_length] is the
    exact total size, known up front, so the response still carries a
    Content-Length. An [Error] mid-stream means the connection must be
    cut short (the status line is already on the wire). *)
type body_stream = {
  stream_length : int;
  read_chunk : unit -> (string option, string) result;
  close_stream : unit -> unit;
}

type response = {
  status : int;
  content_type : string;
  headers : (string * string) list;
      (** extra response headers (e.g. the echoed
          [X-Dsvc-Request-Id]); values are CR/LF-sanitized on write *)
  body : string;  (** in-memory body; empty when [stream] is set *)
  stream : body_stream option;
}

val ok : ?content_type:string -> ?headers:(string * string) list -> string -> response
(** 200 with [text/plain] and no extra headers by default. *)

val ok_stream : ?content_type:string -> body_stream -> response
(** 200 whose body is streamed ([application/octet-stream] default). *)

val error : int -> string -> response

val body_length : response -> int
(** Exact body size, streamed or not. *)

val response_body : response -> (string, string) result
(** Materialize the body; drains (and closes) a streamed body, so a
    stream can be read at most once. *)

val read_request :
  ?max_body:int -> in_channel -> (request, string) result
(** Parse one request from a blocking channel. [max_body] (default
    64 MiB) bounds Content-Length. Requests with duplicate or
    conflicting Content-Length headers are rejected. *)

val write_response : out_channel -> response -> unit
(** One-shot blocking write, always [Connection: close]. Consults the
    ["http.write_response"] fault site. The event-driven server uses
    {!serialize_header} + vectored writes instead. *)

val serialize_header : ?keep_alive:bool -> response -> string
(** Status line + headers + CRLFCRLF; Content-Length comes from
    {!body_length}, Connection from [keep_alive] (default close). *)

val keep_alive : request -> bool
(** Whether the connection persists after this request: HTTP/1.1
    defaults to yes unless [Connection: close]; HTTP/1.0 to no unless
    [Connection: keep-alive]. *)

val percent_decode : string -> string
(** Decode [%XX] escapes. ["+"] is preserved — in a request path a
    plus is a plus. Malformed escapes pass through verbatim. *)

val percent_decode_query : string -> string
(** Query-string decoding: [%XX] escapes and ["+"] as space
    (application/x-www-form-urlencoded). *)

val parse_query : string -> (string * string) list

val status_text : int -> string

(** Incremental request parser — the per-connection state machine of
    the event loop. Feed raw bytes as they arrive; pull complete
    requests out. Bounded: the header block by [max_header_bytes]
    (reject 413), the body by [max_body_bytes] (413), ambiguous
    framing by rejection (400). Rejections are sticky — after one,
    the connection is beyond saving (close after the error
    response). Leftover bytes after a request are the start of the
    next, which is exactly pipelining. *)
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

  val in_request : t -> bool
  (** Holding bytes of an unfinished request? Decides whether a read
      timeout is a 408 or a silent idle close. *)

  val buffered : t -> int
  (** Bytes currently buffered (diagnostics/backpressure). *)
end
