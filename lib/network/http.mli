(** Minimal HTTP/1.1 server and client.

    Backs the RESTful client API of the paper's benchmark facilities
    (§III-D: "The Bamboo client library uses a RESTful API to interact with
    server nodes"). Supports exactly what a benchmark driver needs: request
    line, headers, Content-Length bodies, one request per connection. *)

type request = {
  meth : string;  (** Uppercased: GET, POST, ... *)
  path : string;  (** Raw path with query string. *)
  headers : (string * string) list;  (** Lowercased names. *)
  body : string;
}

type response = { status : int; body : string }

val query_params : string -> string * (string * string) list
(** Splits a path at its first ['?'] into the base path and its
    [&]-separated [key=value] parameters, in order; a key without ['=']
    reads as [""]. Values are not percent-decoded. *)

type server

val start :
  port:int -> handler:(request -> response) -> server
(** Binds 127.0.0.1:[port] and serves each connection on its own thread.
    Handler exceptions turn into 500 responses. Raises [Unix.Unix_error]
    when the port is unavailable. *)

val port : server -> int

val stop : server -> unit
(** Closes the listener; in-flight requests finish. *)

val request :
  ?body:string ->
  ?timeout_s:float ->
  host:string ->
  port:int ->
  meth:string ->
  path:string ->
  unit ->
  (response, string) result
(** One-shot client request; [Error] on connection failure, timeout or a
    malformed response. *)
