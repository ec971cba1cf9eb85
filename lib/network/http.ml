type request = {
  meth : string;
  path : string;
  headers : (string * string) list;
  body : string;
}

type response = { status : int; body : string }

let after s i = String.sub s (i + 1) (String.length s - i - 1)

let query_params path =
  let param kv =
    match String.index_opt kv '=' with
    | Some j -> (String.sub kv 0 j, after kv j)
    | None -> (kv, "")
  in
  match String.index_opt path '?' with
  | None -> (path, [])
  | Some i -> (String.sub path 0 i, List.map param (String.split_on_char '&' (after path i)))

type server = {
  listener : Unix.file_descr;
  port_ : int;
  closed : bool Atomic.t; (* written by [stop], read by the accept thread *)
}

let reason_phrase = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 500 -> "Internal Server Error"
  | _ -> "Status"

let read_line_crlf ic =
  (* input_line strips '\n'; trim a trailing '\r'. *)
  let line = input_line ic in
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let read_headers ic =
  let rec loop acc =
    let line = read_line_crlf ic in
    if line = "" then List.rev acc
    else
      match String.index_opt line ':' with
      | None -> loop acc (* tolerate malformed header lines *)
      | Some i ->
          let name = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
          let value =
            String.trim (String.sub line (i + 1) (String.length line - i - 1))
          in
          loop ((name, value) :: acc)
  in
  loop []

let read_exact ic n =
  let buf = Bytes.create n in
  really_input ic buf 0 n;
  Bytes.unsafe_to_string buf

let parse_request ic =
  let request_line = read_line_crlf ic in
  match String.split_on_char ' ' request_line with
  | meth :: path :: _ ->
      let headers = read_headers ic in
      let body =
        match List.assoc_opt "content-length" headers with
        | Some v -> (
            match int_of_string_opt (String.trim v) with
            | Some n when n >= 0 && n <= 64 * 1024 * 1024 -> read_exact ic n
            | Some _ | None -> "")
        | None -> ""
      in
      Some { meth = String.uppercase_ascii meth; path; headers; body }
  | _ -> None

let write_response oc { status; body } =
  Printf.fprintf oc
    "HTTP/1.1 %d %s\r\nContent-Length: %d\r\nContent-Type: \
     application/json\r\nConnection: close\r\n\r\n%s"
    status (reason_phrase status) (String.length body) body;
  flush oc

let serve_connection handler fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     match parse_request ic with
     | Some req ->
         let resp =
           try handler req
           with e -> { status = 500; body = Printexc.to_string e }
         in
         write_response oc resp
     | None -> write_response oc { status = 400; body = "malformed request" }
   with End_of_file | Sys_error _ | Sys_blocked_io | Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let start ~port ~handler =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen listener 64;
  let actual_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let server = { listener; port_ = actual_port; closed = Atomic.make false } in
  let accept_loop () =
    try
      while not (Atomic.get server.closed) do
        let fd, _ = Unix.accept listener in
        ignore (Thread.create (serve_connection handler) fd)
      done
    with Unix.Unix_error _ -> ()
  in
  ignore (Thread.create accept_loop ());
  server

let port s = s.port_

let stop s =
  Atomic.set s.closed true;
  try Unix.close s.listener with Unix.Unix_error _ -> ()

let request ?(body = "") ?(timeout_s = 5.0) ~host ~port ~meth ~path () =
  match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
  | [] -> Error "host not found"
  | { Unix.ai_addr; _ } :: _ -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      try
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
        Unix.connect fd ai_addr;
        let oc = Unix.out_channel_of_descr fd in
        let ic = Unix.in_channel_of_descr fd in
        Printf.fprintf oc
          "%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\nConnection: \
           close\r\n\r\n%s"
          (String.uppercase_ascii meth)
          path host (String.length body) body;
        flush oc;
        let status_line = read_line_crlf ic in
        let status =
          match String.split_on_char ' ' status_line with
          | _ :: code :: _ -> int_of_string_opt code
          | _ -> None
        in
        match status with
        | None ->
            Unix.close fd;
            Error "malformed status line"
        | Some status ->
            let headers = read_headers ic in
            let body =
              match List.assoc_opt "content-length" headers with
              | Some v -> (
                  match int_of_string_opt (String.trim v) with
                  | Some n when n >= 0 -> read_exact ic n
                  | Some _ | None -> "")
              | None -> ""
            in
            Unix.close fd;
            Ok { status; body }
      with
      | Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Unix.error_message e)
      | End_of_file | Sys_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error "connection closed early"
      | Sys_blocked_io ->
          (* The buffered-channel layer surfaces an SO_RCVTIMEO/SO_SNDTIMEO
             socket timeout as [Sys_blocked_io], not [Unix_error EAGAIN]. *)
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error "request timed out")
