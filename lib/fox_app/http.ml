(** A minimal HTTP/1.1 static server (and the client used to test it).

    Just enough of RFC 9112 to hold a real conversation with curl and a
    browser: request-line and header parsing, [Content-Length] body
    framing, keep-alive with pipelining, [GET]/[HEAD], and the 400/404/405
    error paths.  No chunked transfer coding, no compression, no TLS.

    All parsing is written against the buffered byte-stream reads of
    {!Fox_proto.Socket.S} ([read_line] / [read_exactly]), so a request
    split across two TCP segments and two pipelined requests arriving in
    one segment parse identically — the application never observes
    segment boundaries. *)

type request = {
  meth : string;
  target : string;
  version : string;
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

let header req name = List.assoc_opt (String.lowercase_ascii name) req.headers

let reason_of_status = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | _ -> "Unknown"

(** RFC 9110 §9.2.2: methods safe to retry without knowing whether the
    first attempt reached the server. *)
let idempotent meth =
  List.mem meth [ "GET"; "HEAD"; "PUT"; "DELETE"; "OPTIONS"; "TRACE" ]

(** Per-server counters for the degradation paths, so a slow-loris
    defense firing is visible rather than a silent close. *)
type server_stats = {
  mutable requests : int;  (** requests answered with a site response *)
  mutable responses_408 : int;  (** read deadlines expired (slow loris) *)
  mutable responses_431 : int;  (** header lines over the limit *)
  mutable bad_requests : int;  (** other protocol-error responses *)
}

let server_stats () =
  { requests = 0; responses_408 = 0; responses_431 = 0; bad_requests = 0 }

(* ------------------------------------------------------------------ *)
(* Sites: what the server serves                                      *)
(* ------------------------------------------------------------------ *)

module Site = struct
  (** A site maps a request path to [(content_type, body)]. *)
  type t = string -> (string * string) option

  let content_type_of_path path =
    match Filename.extension path with
    | ".html" | ".htm" -> "text/html"
    | ".txt" | ".md" -> "text/plain"
    | ".css" -> "text/css"
    | ".js" -> "text/javascript"
    | ".json" -> "application/json"
    | ".png" -> "image/png"
    | ".jpg" | ".jpeg" -> "image/jpeg"
    | ".svg" -> "image/svg+xml"
    | _ -> "application/octet-stream"

  (* Strip a query string and resolve "" / trailing "/" to index.html. *)
  let canonical path =
    let path =
      match String.index_opt path '?' with
      | Some q -> String.sub path 0 q
      | None -> path
    in
    if path = "" || path.[String.length path - 1] = '/' then
      path ^ "index.html"
    else path

  (** [of_pages pages] serves an in-memory list of
      [(path, content_type, body)] pages. *)
  let of_pages pages : t =
   fun path ->
    let path = canonical path in
    List.find_map
      (fun (p, ctype, body) -> if p = path then Some (ctype, body) else None)
      pages

  (** [of_dir root] serves files under directory [root].  Traversal is
      confined: any [".."] component (or NUL) in the path is refused
      before touching the filesystem. *)
  let of_dir root : t =
   fun path ->
    let path = canonical path in
    let unsafe =
      String.contains path '\000'
      || List.exists (fun c -> c = "..") (String.split_on_char '/' path)
    in
    if unsafe then None
    else
      let file = Filename.concat root (String.concat "" ["."; path]) in
      match
        if Sys.file_exists file && not (Sys.is_directory file) then (
          let ic = open_in_bin file in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> Some (really_input_string ic (in_channel_length ic))))
        else None
      with
      | Some body -> Some (content_type_of_path path, body)
      | None -> None
      | exception Sys_error _ -> None
end

(* ------------------------------------------------------------------ *)
(* Server and client                                                  *)
(* ------------------------------------------------------------------ *)

(** What [read_request] found on the wire. *)
type parsed =
  | Request of request
  | Eof  (** clean end of stream between requests *)
  | Bad of int * string  (** protocol error: status code + log detail *)

let default_max_line = 8192

let max_headers = 128

let max_body = 1 lsl 20

module Make (Sock : Fox_proto.Socket.S) = struct
  (* ---------------- request parsing (server side) ----------------- *)

  let parse_request_line line =
    match String.split_on_char ' ' line with
    | [ meth; target; version ]
      when meth <> "" && target <> ""
           && String.length version >= 5
           && String.sub version 0 5 = "HTTP/" ->
      Ok (meth, target, version)
    | _ -> Error ("malformed request line: " ^ String.escaped line)

  let parse_header line =
    match String.index_opt line ':' with
    | None | Some 0 -> Error ("malformed header: " ^ String.escaped line)
    | Some colon ->
      let name =
        String.lowercase_ascii (String.trim (String.sub line 0 colon))
      in
      let value =
        String.trim
          (String.sub line (colon + 1) (String.length line - colon - 1))
      in
      Ok (name, value)

  (** Read one full request (line, headers, Content-Length body) off the
      socket.  Never raises for protocol-level garbage or an expired read
      deadline — those come back as [Bad] (431 for an over-long header
      line, 408 for a deadline, the framing codes otherwise) so the
      server can answer before closing.  [before_body] is called with the
      announced content length before the body read — the server uses it
      to re-arm the read deadline from its minimum byte-rate floor. *)
  let read_request ?(max_line = default_max_line) ?(before_body = fun _ -> ())
      sock =
    match
      (* skip the optional blank line(s) some clients send between
         pipelined requests *)
      let rec first_line n =
        if n > 4 then None
        else
          match Sock.read_line ~max:max_line sock with
          | Some "" -> first_line (n + 1)
          | other -> other
      in
      first_line 0
    with
    | exception Fox_proto.Socket.Socket_error Fox_proto.Socket.Line_too_long
      ->
      Bad (431, "request line or header exceeds limit")
    | exception Fox_proto.Socket.Socket_error Fox_proto.Socket.Deadline_expired
      ->
      Bad (408, "deadline expired before a full request line")
    | None -> Eof
    | Some line -> (
      match parse_request_line line with
      | Error e -> Bad (400, e)
      | Ok (meth, target, version) -> (
        let rec read_headers acc n =
          if n > max_headers then Error (400, "too many headers")
          else
            match Sock.read_line ~max:max_line sock with
            | exception
                Fox_proto.Socket.Socket_error Fox_proto.Socket.Line_too_long
              ->
              Error (431, "header line exceeds limit")
            | exception
                Fox_proto.Socket.Socket_error
                  Fox_proto.Socket.Deadline_expired ->
              Error (408, "deadline expired inside headers")
            | None -> Error (400, "eof inside headers")
            | Some "" -> Ok (List.rev acc)
            | Some line -> (
              match parse_header line with
              | Ok h -> read_headers (h :: acc) (n + 1)
              | Error e -> Error (400, e))
        in
        match read_headers [] 0 with
        | Error (status, e) -> Bad (status, e)
        | Ok headers -> (
          let req = { meth; target; version; headers; body = "" } in
          if header req "transfer-encoding" <> None then
            Bad (501, "transfer codings not implemented")
          else
            match header req "content-length" with
            | None -> Request req
            | Some v -> (
              match int_of_string_opt (String.trim v) with
              | None -> Bad (400, "malformed content-length")
              | Some n when n < 0 -> Bad (400, "negative content-length")
              | Some n when n > max_body -> Bad (413, "body too large")
              | Some n -> (
                before_body n;
                match Sock.read_exactly sock n with
                | exception
                    Fox_proto.Socket.Socket_error
                      Fox_proto.Socket.Deadline_expired ->
                  Bad (408, "deadline expired inside body")
                | None -> Eof (* peer died mid-body *)
                | Some body -> Request { req with body })))))

  (* ---------------- response writing ------------------------------ *)

  let write_response sock ?(status = 200) ?(content_type = "text/plain")
      ?(keep_alive = true) ?(head = false) body =
    (* one string, head and body, built by a single concatenation *)
    Sock.write_all sock
      (String.concat ""
         [
           "HTTP/1.1 "; string_of_int status; " "; reason_of_status status;
           "\r\nServer: foxnet\r\nContent-Type: "; content_type;
           "\r\nContent-Length: "; string_of_int (String.length body);
           "\r\nConnection: "; (if keep_alive then "keep-alive" else "close");
           (if status = 405 then "\r\nAllow: GET, HEAD" else "");
           "\r\n\r\n"; (if head then "" else body);
         ])

  let error_body status detail =
    Printf.sprintf "<html><body><h1>%d %s</h1><p>%s</p></body></html>\n"
      status (reason_of_status status) detail

  (* Does this request allow the connection to persist afterwards? *)
  let wants_keep_alive req =
    let default = req.version <> "HTTP/1.0" in
    match header req "connection" with
    | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "close" -> false
      | "keep-alive" -> true
      | _ -> default)
    | None -> default

  (* ---------------- the server loop ------------------------------- *)

  (** [serve site sock] speaks HTTP/1.1 on [sock] until the peer closes,
      errors, or sends [Connection: close].  Pipelining falls out of the
      loop structure: each iteration parses exactly one request off the
      buffered stream, so back-to-back requests in one segment are
      answered back-to-back.

      [header_timeout_us] arms a read deadline covering the request line,
      the headers, and keep-alive idle time: a client trickling bytes
      slower than that gets a 408 and a counted close — the slow-loris
      defense.  [min_byte_rate] (bytes/second) additionally budgets the
      body read from its announced content length.  Both default off
      (the historical behaviour).  [stats] counts the degradation
      responses per server. *)
  let serve ?(max_line = default_max_line) ?(header_timeout_us = 0)
      ?(min_byte_rate = 0) ?stats ?log (site : Site.t) sock =
    let count f = match stats with Some s -> f s | None -> () in
    (* an access-log line is formatted only when there is a logger *)
    let logging = Option.is_some log in
    let log = Option.value log ~default:ignore in
    let arm_header () =
      if header_timeout_us > 0 then
        Sock.set_read_deadline sock (Some header_timeout_us)
    in
    let before_body n =
      if min_byte_rate > 0 then
        (* the body must arrive at the floor rate, plus a grace period so
           a single in-flight segment never trips it *)
        Sock.set_read_deadline sock
          (Some ((n * 1_000_000 / min_byte_rate) + 50_000))
      else arm_header ()
    in
    (* The lingering close of the error path: half-close so the response
       (and FIN) drain reliably, discard whatever the peer keeps sending
       for a bounded time, then reset.  A plain [close] would park the
       connection in FIN-WAIT-2 for as long as a hostile peer cares to
       trickle — holding the very connection slot the 408 was supposed to
       reclaim. *)
    let lingering_close () =
      Sock.close sock;
      if header_timeout_us > 0 then begin
        Sock.set_read_deadline sock (Some header_timeout_us);
        (try
           while Sock.recv_string sock <> None do
             ()
           done
         with
        | Fox_proto.Socket.Socket_error _ | Fox_proto.Common.Send_failed _
        ->
          ());
        Sock.abort sock
      end
    in
    let rec loop () =
      arm_header ();
      match read_request ~max_line ~before_body sock with
      | Eof -> Sock.close sock
      | Bad (status, detail) ->
        (match status with
        | 408 -> count (fun s -> s.responses_408 <- s.responses_408 + 1)
        | 431 -> count (fun s -> s.responses_431 <- s.responses_431 + 1)
        | _ -> count (fun s -> s.bad_requests <- s.bad_requests + 1));
        if logging then log (Printf.sprintf "%d %s" status detail);
        write_response sock ~status ~content_type:"text/html"
          ~keep_alive:false
          (error_body status detail);
        lingering_close ()
      | Request req ->
        Sock.set_read_deadline sock None;
        count (fun s -> s.requests <- s.requests + 1);
        let keep_alive = wants_keep_alive req in
        let head = req.meth = "HEAD" in
        (match req.meth with
        | "GET" | "HEAD" -> (
          match site req.target with
          | Some (content_type, body) ->
            if logging then
              log (Printf.sprintf "200 %s %s" req.meth req.target);
            write_response sock ~status:200 ~content_type ~keep_alive ~head
              body
          | None ->
            if logging then
              log (Printf.sprintf "404 %s %s" req.meth req.target);
            write_response sock ~status:404 ~content_type:"text/html"
              ~keep_alive
              (error_body 404 (String.escaped req.target)))
        | m ->
          if logging then log (Printf.sprintf "405 %s %s" m req.target);
          write_response sock ~status:405 ~content_type:"text/html"
            ~keep_alive
            (error_body 405 (String.escaped m)));
        if keep_alive then loop () else Sock.close sock
    in
    try loop () with
    | Fox_proto.Socket.Socket_error _ | Fox_proto.Common.Send_failed _ ->
      (* peer reset or vanished mid-exchange: release the connection *)
      Sock.abort sock

  (* ---------------- the client (tests and load generator) --------- *)

  let write_request sock ?(meth = "GET") ?(headers = []) ?(body = "") target
      =
    let length =
      if body = "" then []
      else [ "Content-Length: "; string_of_int (String.length body); "\r\n" ]
    in
    Sock.write_all sock
      (String.concat ""
         ((meth :: " " :: target :: " HTTP/1.1\r\n"
           :: List.concat_map (fun (n, v) -> [ n; ": "; v; "\r\n" ]) headers)
         @ length @ [ "\r\n"; body ]))

  (** Read one response off the socket: [(status, headers, body)].
      [None] on a clean EOF before the status line. *)
  let read_response ?(head = false) sock =
    match Sock.read_line ~max:default_max_line sock with
    | None -> None
    | Some status_line -> (
      let status =
        match String.split_on_char ' ' status_line with
        | _ :: code :: _ -> (
          match int_of_string_opt code with
          | Some c -> c
          | None -> invalid_arg ("bad status line: " ^ status_line))
        | _ -> invalid_arg ("bad status line: " ^ status_line)
      in
      let rec read_headers acc =
        match Sock.read_line ~max:default_max_line sock with
        | None | Some "" -> List.rev acc
        | Some line -> (
          match parse_header line with
          | Ok h -> read_headers (h :: acc)
          | Error _ -> read_headers acc)
      in
      let headers = read_headers [] in
      let content_length =
        Option.bind
          (List.assoc_opt "content-length" headers)
          (fun v -> int_of_string_opt (String.trim v))
      in
      match content_length with
      | Some n when not head -> (
        match Sock.read_exactly sock n with
        | Some body -> Some (status, headers, body)
        | None -> None)
      | _ -> Some (status, headers, ""))

  (** [get sock target] = one request/response exchange on an open
      (keep-alive) connection. *)
  let get ?meth ?headers sock target =
    write_request sock ?meth ?headers target;
    read_response ?head:(Option.map (( = ) "HEAD") meth) sock

  (** [get_retry ~connect target] is a full exchange with client-side
      resilience: a fresh connection per attempt (via [connect]), retrying
      connection errors, EOF-before-response, and 5xx responses with
      jittered, capped exponential backoff.  Restricted to idempotent
      methods (RFC 9110 §9.2.2) — a retried POST could double-apply; the
      function refuses it up front rather than guessing.

      Backoff before attempt [k+1] is drawn uniformly from
      [[cap/2, cap]] with [cap = min max_backoff_us (base · 2^(k-1))] —
      "equal jitter", so a thundering herd of retrying clients decorrelates
      instead of re-colliding.  Returns [(response, attempts_used)];
      [response = None] when every attempt failed. *)
  let get_retry ~connect ?(attempts = 3) ?(base_backoff_us = 50_000)
      ?(max_backoff_us = 2_000_000) ?(rng = Fox_basis.Rng.create 0x7e757271)
      ?(meth = "GET") ?headers target =
    if not (idempotent meth) then
      invalid_arg ("Http.get_retry: non-idempotent method " ^ meth);
    let attempt_once () =
      match
        let sock = connect () in
        Fun.protect
          ~finally:(fun () -> try Sock.close sock with _ -> ())
          (fun () -> get ~meth ?headers sock target)
      with
      | Some (status, _, _) as r when status < 500 -> Ok r
      | Some _ as r -> Error (`Got r) (* 5xx: retryable, keep as fallback *)
      | None -> Error (`Got None)
      | exception Fox_proto.Socket.Socket_error _ -> Error `Conn
      | exception Fox_proto.Common.Send_failed _ -> Error `Conn
      | exception Fox_proto.Common.Connection_failed _ -> Error `Conn
    in
    let rec go k =
      match attempt_once () with
      | Ok r -> (r, k)
      | Error e ->
        if k >= attempts then ((match e with `Got r -> r | `Conn -> None), k)
        else begin
          let cap =
            min max_backoff_us (base_backoff_us * (1 lsl min (k - 1) 16))
          in
          let jitter = Fox_basis.Rng.int rng (max 1 (cap / 2)) in
          Fox_sched.Scheduler.sleep ((cap / 2) + jitter);
          go (k + 1)
        end
    in
    go 1
end
