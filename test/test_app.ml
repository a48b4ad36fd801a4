(* Tests of the application layer (lib/fox_app) and the buffered socket
   veneer framing contract it is written against.

   The themes:
   - applications never observe segment boundaries: a request split
     across two TCP segments and two pipelined requests sharing one
     segment parse identically (the PR-8 web_server bug class);
   - byte-exactness end-to-end through an adverse wire (echo and
     chargen over a lossy, reordering hub);
   - HTTP protocol edges: keep-alive, pipelining, zero-length bodies,
     oversized request lines (431), unsupported methods (405);
   - the DNS codec round-trips, including name-compression pointers in
     both directions, and rejects hostile compression (loops, forward
     chains, truncation);
   - the MSS bugfix: full-sized data segments fill the device MTU
     exactly ([adv_mss = mtu - 20]; the old [mtu - 24] left every full
     segment 4 bytes short). *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Network = Fox_stack.Network
module Stack = Fox_stack.Stack
module Tcp = Fox_stack.Stack.Tcp
module Sock = Fox_stack.Stack.Tcp_socket
module Http = Fox_app.Http.Make (Sock)
module Classic = Fox_app.Classic.Make (Sock)
module Dns = Fox_app.Dns
module Udp_dns = Fox_app.Dns.Make (Fox_stack.Stack.Udp_socket)
module Load = Fox_check.Load

(* ------------------------------------------------------------------ *)
(* chargen: the pure pattern                                          *)
(* ------------------------------------------------------------------ *)

let test_chargen_pattern () =
  Alcotest.(check int) "line width" 72 (String.length (Fox_app.Classic.chargen_line 0));
  Alcotest.(check string)
    "line 0 starts at space"
    " !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefg"
    (Fox_app.Classic.chargen_line 0);
  (* rotation: line i+1 starts one character later *)
  Alcotest.(check char)
    "rotation" (Fox_app.Classic.chargen_line 1).[0]
    (Fox_app.Classic.chargen_line 0).[1];
  let b = Fox_app.Classic.chargen_bytes 200 in
  Alcotest.(check int) "prefix length" 200 (String.length b);
  Alcotest.(check string) "74-byte framing: line + CRLF"
    (Fox_app.Classic.chargen_line 0 ^ "\r\n")
    (String.sub b 0 74);
  (* prefixes are consistent *)
  Alcotest.(check string) "prefix property"
    (String.sub (Fox_app.Classic.chargen_bytes 500) 0 200)
    b

(* ------------------------------------------------------------------ *)
(* The HTTP framing contract over a real two-host stack               *)
(* ------------------------------------------------------------------ *)

let site =
  Fox_app.Http.Site.of_pages
    [
      ("/index.html", "text/html", "<h1>fox</h1>");
      ("/big", "application/octet-stream", String.make 40_000 'z');
    ]

(* run [client sock] against an HTTP server on a fresh simulated pair *)
let with_http_conn client =
  let _, server_host, client_host = Network.pair ~engine:Network.Fox () in
  ignore
    (Scheduler.run (fun () ->
         ignore
           (Sock.listen (Network.fox_tcp server_host) { Tcp.local_port = 80 }
              (Http.serve site));
         let sock =
           Sock.connect
             (Network.fox_tcp client_host)
             { Tcp.peer = server_host.Network.addr; port = 80;
               local_port = None }
         in
         client sock;
         Sock.close sock;
         ignore (Scheduler.stop ())))

let test_http_request_split_across_segments () =
  with_http_conn (fun sock ->
      (* the request line leaves in two separate TCP segments: the
         pre-veneer server read one [recv] chunk and called it the
         request line, mis-parsing exactly this *)
      Sock.write_all sock "GET /inde";
      Scheduler.sleep 50_000;
      Sock.write_all sock "x.html HTTP/1.1\r\nHost: fox\r\n\r\n";
      match Http.read_response sock with
      | Some (status, _, body) ->
        Alcotest.(check int) "status" 200 status;
        Alcotest.(check string) "body" "<h1>fox</h1>" body
      | None -> Alcotest.fail "no response to a split request")

(* Both directions, with a header line and a body each split across two
   segments: the reads that span segments gather the pieces, while each
   line that fits in one buffered segment is sliced out of it in place. *)
let test_http_line_and_body_split () =
  let _, server_host, client_host = Network.pair ~engine:Network.Fox () in
  let request = ref None and response = ref None in
  let write_in_pieces sock pieces =
    List.iteri
      (fun i piece ->
        if i > 0 then Scheduler.sleep 50_000;
        Sock.write_all sock piece)
      pieces
  in
  ignore
    (Scheduler.run (fun () ->
         ignore
           (Sock.listen (Network.fox_tcp server_host) { Tcp.local_port = 80 }
              (fun sock ->
                (match Http.read_request sock with
                | Fox_app.Http.Request req -> request := Some req
                | Fox_app.Http.Eof | Fox_app.Http.Bad _ -> ());
                write_in_pieces sock
                  [ "HTTP/1.1 200 OK\r\nContent-Le"; "ngth: 10\r\n\r\n01234";
                    "56789" ];
                Sock.close sock));
         let sock =
           Sock.connect
             (Network.fox_tcp client_host)
             { Tcp.peer = server_host.Network.addr; port = 80;
               local_port = None }
         in
         write_in_pieces sock
           [ "POST /form HTTP/1.1\r\nContent-Len"; "gth: 6\r\n\r\nabc"; "def" ];
         response := Http.read_response sock;
         Sock.close sock));
  (match !request with
  | Some req ->
    Alcotest.(check string) "request line" "POST /form"
      (req.meth ^ " " ^ req.target);
    Alcotest.(check (option string)) "split header" (Some "6")
      (Fox_app.Http.header req "content-length");
    Alcotest.(check string) "split request body" "abcdef" req.body
  | None -> Alcotest.fail "the server parsed no request");
  match !response with
  | Some (status, headers, body) ->
    Alcotest.(check int) "status" 200 status;
    Alcotest.(check (option string)) "split response header" (Some "10")
      (List.assoc_opt "content-length" headers);
    Alcotest.(check string) "split response body" "0123456789" body
  | None -> Alcotest.fail "no response"

let test_http_pipelined_in_one_segment () =
  with_http_conn (fun sock ->
      (* two complete requests in a single write — and therefore (well
         under one MSS) a single segment; the server must answer both,
         in order *)
      Sock.write_all sock
        "GET /index.html HTTP/1.1\r\n\r\nGET /missing HTTP/1.1\r\n\r\n";
      (match Http.read_response sock with
      | Some (status, _, body) ->
        Alcotest.(check int) "first status" 200 status;
        Alcotest.(check string) "first body" "<h1>fox</h1>" body
      | None -> Alcotest.fail "no first response");
      match Http.read_response sock with
      | Some (status, _, _) ->
        Alcotest.(check int) "second status is the 404" 404 status
      | None -> Alcotest.fail "no second response")

let test_http_keep_alive_many_requests () =
  with_http_conn (fun sock ->
      (* one connection, sequential keep-alive requests, including a
         body crossing many segments *)
      for _ = 1 to 3 do
        match Http.get sock "/big" with
        | Some (status, _, body) ->
          Alcotest.(check int) "status" 200 status;
          Alcotest.(check int) "body bytes" 40_000 (String.length body);
          Alcotest.(check bool) "body content" true
            (String.for_all (( = ) 'z') body)
        | None -> Alcotest.fail "keep-alive request got no response"
      done)

let test_http_zero_length_body_and_405 () =
  with_http_conn (fun sock ->
      (* a zero-length body is still a framed body *)
      (match
         Http.get sock ~headers:[ ("Content-Length", "0") ] "/index.html"
       with
      | Some (status, _, _) ->
        Alcotest.(check int) "GET with Content-Length: 0" 200 status
      | None -> Alcotest.fail "no response to zero-length-body request");
      (* unsupported method: the 5-byte body must be consumed so the
         connection stays usable for the next request *)
      (match Http.get sock ~meth:"POST" ~headers:[] "/index.html" with
      | _ -> ());
      match Http.get sock "/index.html" with
      | Some (status, _, _) ->
        Alcotest.(check int) "connection survives the 405" 200 status
      | None -> Alcotest.fail "connection dead after 405")

let test_http_post_gets_405 () =
  with_http_conn (fun sock ->
      Http.write_request sock ~meth:"POST" ~body:"hello" "/index.html";
      match Http.read_response sock with
      | Some (status, headers, _) ->
        Alcotest.(check int) "status" 405 status;
        Alcotest.(check (option string))
          "Allow header" (Some "GET, HEAD")
          (List.assoc_opt "allow" headers)
      | None -> Alcotest.fail "no response to POST")

let test_http_head_has_no_body () =
  with_http_conn (fun sock ->
      Http.write_request sock ~meth:"HEAD" "/big";
      match Http.read_response ~head:true sock with
      | Some (status, headers, body) ->
        Alcotest.(check int) "status" 200 status;
        Alcotest.(check string) "no body" "" body;
        Alcotest.(check (option string))
          "but the real content-length" (Some "40000")
          (List.assoc_opt "content-length" headers)
      | None -> Alcotest.fail "no response to HEAD")

let test_http_oversized_request_line_431 () =
  with_http_conn (fun sock ->
      (* a request line longer than the parser's cap: the server must
         answer 431 and close, not buffer unboundedly *)
      Sock.write_all sock ("GET /" ^ String.make 10_000 'a');
      Sock.write_all sock " HTTP/1.1\r\n\r\n";
      (match Http.read_response sock with
      | Some (status, _, _) -> Alcotest.(check int) "status" 431 status
      | None -> Alcotest.fail "no 431 for oversized request line");
      Alcotest.(check (option Alcotest.reject))
        "server closed the connection" None
        (match Http.read_response sock with
        | None -> None
        | Some _ -> Some (Alcotest.fail "server kept the connection open")))

let test_http_malformed_request_line_400 () =
  with_http_conn (fun sock ->
      Sock.write_all sock "completely wrong\r\n\r\n";
      match Http.read_response sock with
      | Some (status, _, _) -> Alcotest.(check int) "status" 400 status
      | None -> Alcotest.fail "no 400 for malformed request")

(* ------------------------------------------------------------------ *)
(* Byte-exactness through an adverse wire                             *)
(* ------------------------------------------------------------------ *)

(* Echo and chargen under loss + reordering on the shared 10 Mb/s hub:
   every exchanged byte is checked against the expected stream, so TCP's
   recovery machinery must deliver exactness, not just "mostly". *)
let adverse_cfg app =
  {
    Load.app;
    conns = 16;
    requests = 3;
    payload = 2048;
    ramp_us = 5_000;
    loss = 0.02;
    reorder = 0.05;
    gigabit = false;
    seed = 99;
    shards = 1;
    chaos = [];
  }

let test_echo_exact_over_adverse_hub () =
  let r, problems = Load.check (adverse_cfg Load.Echo) in
  Alcotest.(check (list string)) "no problems" [] problems;
  Alcotest.(check int) "all exchanges exact" r.Load.requests_attempted
    r.Load.requests_ok

let test_chargen_exact_over_adverse_hub () =
  let r, problems = Load.check (adverse_cfg Load.Chargen) in
  Alcotest.(check (list string)) "no problems" [] problems;
  Alcotest.(check int) "all chunks exact" r.Load.requests_attempted
    r.Load.requests_ok

let test_http_load_concurrent () =
  (* the serving smoke at CI scale: 100 concurrent keep-alive
     connections on the clean gigabit hub, every response byte-checked *)
  let cfg =
    { Load.default_config with Load.conns = 100; requests = 4; ramp_us = 0 }
  in
  let r, problems = Load.check cfg in
  Alcotest.(check (list string)) "no problems" [] problems;
  Alcotest.(check int) "peak concurrency reached" 100 r.Load.max_concurrent

(* ------------------------------------------------------------------ *)
(* Buffer ownership through the socket veneer                         *)
(* ------------------------------------------------------------------ *)

(* The receive buffer holds the delivered packet itself until its last
   byte is read.  Every buffer comes back: after a serve run, and after a
   client that aborts with a segment only partly read (and more on the
   way) — the abort must give back the held packet and the queued ones. *)
let test_serve_returns_every_buffer () =
  let live0 = Packet.live_packets () in
  let r, problems = Load.check { Load.default_config with Load.conns = 20 } in
  Alcotest.(check (list string)) "no problems" [] problems;
  Alcotest.(check int) "all requests" r.Load.requests_attempted
    r.Load.requests_ok;
  Alcotest.(check int) "no buffer leaked by a serve run" live0
    (Packet.live_packets ())

let test_abort_returns_held_buffer () =
  let _, server_host, client_host = Network.pair ~engine:Network.Fox () in
  let live0 = Packet.live_packets () in
  let got = ref "" in
  ignore
    (Scheduler.run (fun () ->
         ignore
           (Sock.listen (Network.fox_tcp server_host) { Tcp.local_port = 80 }
              (fun sock ->
                (try Sock.write_all sock (String.make 20_000 'q')
                 with
                 | Fox_proto.Socket.Socket_error _
                 | Fox_proto.Common.Send_failed _
                 ->
                   ());
                Sock.close sock));
         let sock =
           Sock.connect
             (Network.fox_tcp client_host)
             { Tcp.peer = server_host.Network.addr; port = 80;
               local_port = None }
         in
         (match Sock.read_exactly sock 10 with
         | Some s -> got := s
         | None -> ());
         Scheduler.sleep 20_000;
         Sock.abort sock));
  Alcotest.(check string) "read the first bytes" (String.make 10 'q') !got;
  Alcotest.(check int) "no buffer leaked by the abort" live0
    (Packet.live_packets ())

(* ------------------------------------------------------------------ *)
(* DNS codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_dns_query_roundtrip () =
  let wire = Dns.encode_query ~id:0xbeef "www.fox.test" Dns.A in
  match Dns.decode wire with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok m ->
    Alcotest.(check int) "id" 0xbeef m.Dns.header.Dns.id;
    Alcotest.(check bool) "query" false m.Dns.header.Dns.response;
    Alcotest.(check bool) "rd" true m.Dns.header.Dns.recursion_desired;
    (match m.Dns.questions with
    | [ q ] ->
      Alcotest.(check string) "qname" "www.fox.test" q.Dns.qname;
      Alcotest.(check string) "qtype" "A" (Dns.qtype_to_string q.Dns.qtype)
    | qs -> Alcotest.failf "expected 1 question, got %d" (List.length qs))

let test_dns_response_roundtrip_with_compression () =
  let q = Dns.query ~id:7 "news.fox.test" Dns.A in
  let reply =
    {
      Dns.header =
        { q.Dns.header with Dns.response = true; authoritative = true };
      questions = q.Dns.questions;
      answers =
        [
          { Dns.name = "news.fox.test"; rtype = Dns.A; ttl = 60;
            rdata = Dns.Addr "10.5.6.7" };
          { Dns.name = "news.fox.test"; rtype = Dns.CNAME; ttl = 60;
            rdata = Dns.Host "news.fox.test" };
        ];
      authority = [];
      additional = [];
    }
  in
  let wire = Dns.encode reply in
  (* the answer owner names repeat the question name, so the encoder
     must have emitted compression pointers (0xc0 0x0c) — the whole
     point of round-tripping through the wire format *)
  let has_pointer = ref false in
  String.iteri
    (fun i c ->
      if
        Char.code c = 0xc0
        && i + 1 < String.length wire
        && Char.code wire.[i + 1] = 0x0c
      then has_pointer := true)
    wire;
  Alcotest.(check bool) "encoder used a compression pointer" true !has_pointer;
  match Dns.decode wire with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok m -> (
    Alcotest.(check int) "two answers" 2 (List.length m.Dns.answers);
    match m.Dns.answers with
    | [ a1; a2 ] ->
      Alcotest.(check string) "pointer resolved to the qname"
        "news.fox.test" a1.Dns.name;
      Alcotest.(check bool) "A rdata" true (a1.Dns.rdata = Dns.Addr "10.5.6.7");
      Alcotest.(check bool) "rdata-internal pointer resolved" true
        (a2.Dns.rdata = Dns.Host "news.fox.test")
    | _ -> Alcotest.fail "wrong answer shape")

(* hand-built messages exercising hostile compression *)
let test_dns_hostile_compression () =
  let header_with ~qd ~an =
    let b = Buffer.create 12 in
    List.iter
      (fun v ->
        Buffer.add_char b (Char.chr (v lsr 8));
        Buffer.add_char b (Char.chr (v land 0xff)))
      [ 1; 0x8000; qd; an; 0; 0 ];
    Buffer.contents b
  in
  (* a name that is just a pointer to itself: must be rejected, not spun
     on *)
  let looping = header_with ~qd:1 ~an:0 ^ "\xc0\x0c\x00\x01\x00\x01" in
  (match Dns.decode looping with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a self-pointing name");
  (* a pointer past the end of the message *)
  let overrun = header_with ~qd:1 ~an:0 ^ "\xc0\xff\x00\x01\x00\x01" in
  (match Dns.decode overrun with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an out-of-range pointer");
  (* truncated mid-label *)
  let truncated = header_with ~qd:1 ~an:0 ^ "\x09www" in
  (match Dns.decode truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a truncated label");
  (* a legitimate two-jump chain must still resolve: question name at
     12, an answer name pointing at it *)
  let legit =
    header_with ~qd:1 ~an:1
    ^ "\x03fox\x04test\x00\x00\x01\x00\x01" (* question: fox.test A IN *)
    ^ "\xc0\x0c\x00\x01\x00\x01\x00\x00\x00\x3c\x00\x04\x0a\x00\x00\x01"
  in
  match Dns.decode legit with
  | Error e -> Alcotest.failf "rejected a valid compressed answer: %s" e
  | Ok m -> (
    match m.Dns.answers with
    | [ a ] ->
      Alcotest.(check string) "name via pointer" "fox.test" a.Dns.name;
      Alcotest.(check bool) "addr" true (a.Dns.rdata = Dns.Addr "10.0.0.1")
    | _ -> Alcotest.fail "wrong answer count")

let test_dns_txt_roundtrip () =
  let q = Dns.query ~id:9 "t.fox.test" Dns.TXT in
  let long = String.make 300 'x' in
  let reply =
    {
      Dns.header = { q.Dns.header with Dns.response = true };
      questions = q.Dns.questions;
      answers =
        [ { Dns.name = "t.fox.test"; rtype = Dns.TXT; ttl = 1;
            rdata = Dns.Text long } ];
      authority = [];
      additional = [];
    }
  in
  match Dns.decode (Dns.encode reply) with
  | Ok { Dns.answers = [ { Dns.rdata = Dns.Text t; _ } ]; _ } ->
    Alcotest.(check int) "300-byte TXT re-chunked and reassembled" 300
      (String.length t);
    Alcotest.(check string) "content" long t
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.failf "decode failed: %s" e

(* end-to-end: resolver against the zone server over simulated UDP *)
let test_dns_resolve_over_udp () =
  let zone = [ ("fox.test", "10.0.0.2"); ("www.fox.test", "10.0.0.80") ] in
  let _, client_host, server_host = Network.pair ~engine:Network.Fox () in
  let resolved = ref (Error "never ran") in
  let nxdomain = ref (Ok [ "never ran" ]) in
  ignore
    (Scheduler.run (fun () ->
         ignore
           (Stack.Udp_socket.listen server_host.Network.udp
              { Stack.Udp.local_port = 53 }
              (Udp_dns.serve_zone zone));
         let sock =
           Stack.Udp_socket.connect client_host.Network.udp
             { Stack.Udp.peer = server_host.Network.addr; peer_port = 53;
               local_port = None }
         in
         resolved := Udp_dns.resolve sock "www.fox.test";
         nxdomain := Udp_dns.resolve ~id:77 sock "nope.fox.test";
         Stack.Udp_socket.close sock;
         ignore (Scheduler.stop ())));
  (match !resolved with
  | Ok [ addr ] -> Alcotest.(check string) "resolved" "10.0.0.80" addr
  | Ok _ -> Alcotest.fail "wrong answer count"
  | Error e -> Alcotest.failf "resolve failed: %s" e);
  match !nxdomain with
  | Error "NXDOMAIN" -> ()
  | Error e -> Alcotest.failf "expected NXDOMAIN, got %s" e
  | Ok _ -> Alcotest.fail "resolved a name not in the zone"

(* ------------------------------------------------------------------ *)
(* The MSS bugfix: full segments fill the MTU exactly                 *)
(* ------------------------------------------------------------------ *)

(* A private two-host stack whose devices record every transmitted frame
   length: after a bulk transfer, the largest frame must be exactly the
   device MTU (1518 = 14 eth + 20 ip + 20 tcp + 1464 payload).  Before
   the fix the advertised MSS was [mtu - 24] and the ceiling sat at
   1514, under-filling every full segment by 4 bytes. *)
module Mss_eth = Fox_eth.Eth.Standard
module Mss_ip = Fox_ip.Ip.Make (Mss_eth) (Fox_ip.Ip.Default_params)
module Mss_ip_aux = Fox_ip.Ip_aux.Make (Mss_ip)
module Mss_tcp =
  Fox_tcp.Tcp.Make (Mss_ip) (Mss_ip_aux) (Fox_tcp.Congestion.Reno)
    (Fox_tcp.Tcp.Default_params)

let test_full_segments_fill_the_mtu () =
  let module Link = Fox_dev.Link in
  let module Device = Fox_dev.Device in
  let module Mac = Fox_eth.Mac in
  let module Ipv4_addr = Fox_ip.Ipv4_addr in
  let module Route = Fox_ip.Route in
  let link = Link.hub ~ports:2 Fox_dev.Netem.ethernet_10mbps in
  let max_frame = ref 0 in
  let full_frames = ref 0 in
  let mac i = Mac.of_string (Printf.sprintf "02:00:00:00:03:%02x" i) in
  let make i addr peer_mac =
    let dev =
      Device.create
        ~on_send:(fun len ->
          if len > !max_frame then max_frame := len;
          if len = 1518 then incr full_frames)
        (Link.port link i)
    in
    let eth = Mss_eth.create dev ~mac:(mac i) in
    Mss_ip.create eth
      {
        Mss_ip.local_ip = Ipv4_addr.of_string addr;
        route =
          Route.local ~network:(Ipv4_addr.of_string "10.3.0.0") ~prefix:24;
        lower_address =
          (fun _ ->
            { Fox_eth.Eth.dest = peer_mac;
              proto = Fox_eth.Frame.ethertype_ipv4 });
        lower_pattern =
          { Fox_eth.Eth.match_proto = Fox_eth.Frame.ethertype_ipv4 };
      }
  in
  let a_ip = make 0 "10.3.0.1" (mac 1) in
  let b_ip = make 1 "10.3.0.2" (mac 0) in
  let a_t = Mss_tcp.create a_ip in
  let b_t = Mss_tcp.create b_ip in
  let received = Buffer.create 65536 in
  let bytes = 100_000 in
  let mss_seen = ref 0 in
  ignore
    (Scheduler.run (fun () ->
         ignore
           (Mss_tcp.start_passive b_t
              { Mss_tcp.local_port = 9 }
              (fun conn ->
                ( (fun p ->
                    Buffer.add_string received (Packet.to_string p);
                    Packet.release p),
                  function
                  | Fox_proto.Status.Remote_close -> Mss_tcp.close conn
                  | _ -> () )));
         let conn =
           Mss_tcp.connect a_t
             { Mss_tcp.peer = Fox_ip.Ipv4_addr.of_string "10.3.0.2";
               port = 9; local_port = None }
             (fun _ -> (ignore, ignore))
         in
         mss_seen := Mss_tcp.max_packet_size conn;
         let p = Mss_tcp.allocate_send conn bytes in
         Mss_tcp.send conn p;
         Mss_tcp.close conn));
  (* Aux.mtu = 1518 device - 14 eth - 20 ip = 1484; correct MSS = 1464 *)
  Alcotest.(check int) "advertised/used MSS is mtu - 20" 1464 !mss_seen;
  Alcotest.(check int) "every byte delivered" bytes (Buffer.length received);
  Alcotest.(check int) "largest frame fills the device MTU exactly" 1518
    !max_frame;
  Alcotest.(check bool)
    (Printf.sprintf "bulk of the transfer rides full frames (%d)"
       !full_frames)
    true
    (!full_frames >= (bytes / 1464) - 5)

let () =
  Alcotest.run "app"
    [
      ("chargen", [ Alcotest.test_case "pattern" `Quick test_chargen_pattern ]);
      ( "http-framing",
        [
          Alcotest.test_case "request split across segments" `Quick
            test_http_request_split_across_segments;
          Alcotest.test_case "pipelined requests in one segment" `Quick
            test_http_pipelined_in_one_segment;
          Alcotest.test_case "keep-alive, multi-segment bodies" `Quick
            test_http_keep_alive_many_requests;
          Alcotest.test_case "zero-length body; 405 keeps the stream" `Quick
            test_http_zero_length_body_and_405;
          Alcotest.test_case "POST answered 405 with Allow" `Quick
            test_http_post_gets_405;
          Alcotest.test_case "HEAD has headers, no body" `Quick
            test_http_head_has_no_body;
          Alcotest.test_case "oversized request line gets 431" `Quick
            test_http_oversized_request_line_431;
          Alcotest.test_case "malformed request line gets 400" `Quick
            test_http_malformed_request_line_400;
          Alcotest.test_case "line and body split across segments" `Quick
            test_http_line_and_body_split;
        ] );
      ( "adverse-wire",
        [
          Alcotest.test_case "echo byte-exact under loss+reorder" `Slow
            test_echo_exact_over_adverse_hub;
          Alcotest.test_case "chargen byte-exact under loss+reorder" `Slow
            test_chargen_exact_over_adverse_hub;
          Alcotest.test_case "http 100 concurrent connections" `Slow
            test_http_load_concurrent;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "serve run returns every buffer" `Quick
            test_serve_returns_every_buffer;
          Alcotest.test_case "abort returns the held buffer" `Quick
            test_abort_returns_held_buffer;
        ] );
      ( "dns",
        [
          Alcotest.test_case "query round-trip" `Quick test_dns_query_roundtrip;
          Alcotest.test_case "response round-trip with compression" `Quick
            test_dns_response_roundtrip_with_compression;
          Alcotest.test_case "hostile compression rejected" `Quick
            test_dns_hostile_compression;
          Alcotest.test_case "TXT chunking round-trip" `Quick
            test_dns_txt_roundtrip;
          Alcotest.test_case "resolve over simulated UDP" `Quick
            test_dns_resolve_over_udp;
        ] );
      ( "mss",
        [
          Alcotest.test_case "full segments fill the MTU (mtu - 20)" `Quick
            test_full_segments_fill_the_mtu;
        ] );
    ]
