(** Dependency-free blocking HTTP/1.0 server for telemetry scraping.

    A single accept-loop domain answers GET requests one connection at a
    time ([Connection: close]) — a scrape endpoint for Prometheus and
    debugging, not a general web server.  The handler runs on the server
    domain, so anything it touches must be domain-safe ({!Metrics} is;
    publish mutable state through [Atomic] references). *)

type response = { status : int; content_type : string; body : string }

type t
(** A running server. *)

val start : ?host:string -> port:int -> (string -> response) -> t
(** [start ~port handler] binds [host] (default ["127.0.0.1"]) on [port]
    ([0] picks an ephemeral port — read it back with {!port}) and serves
    requests on a spawned domain.  The handler receives the request path
    with any query string stripped; exceptions it raises become 500
    responses.  @raise Unix.Unix_error if the bind fails. *)

val parse_request : string -> (string, int) result
(** [parse_request head] reads the request line of a request head: [Ok
    path] for [GET], with any [?query] stripped; [Error 405] for any other
    method; [Error 400] when the head has no newline or the line is not
    three space-separated fields.  Never raises.  Exposed for tests. *)

val port : t -> int
(** The bound port (useful with [~port:0]). *)

val wait : t -> unit
(** Block until the server domain exits (i.e. until {!stop}).  Used by
    [auction serve --listen] to keep the process alive after the batch. *)

val stop : t -> unit
(** Close the listener and join the server domain.  Call at most once;
    do not combine with a concurrent {!wait}. *)

val get : ?host:string -> port:int -> string -> int * string
(** Minimal blocking HTTP/1.0 GET client: returns (status code, body).
    Used by tests and [auction get] so smoke scripts need no [curl]. *)
