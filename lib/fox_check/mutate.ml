(** The wire-format mutation fuzzer: a deterministic "gremlin" station.

    Client and server run a normal transfer over a three-port hub; the
    third port carries no stack at all, only a promiscuous device.  Every
    TCP frame the gremlin overhears may spawn mutated duplicates — bit
    flips, truncations, nonsense data offsets, malformed option lists,
    flag soup, garbage checksums — re-injected with the original Ethernet
    and IP addressing, so they arrive at the victim looking like segments
    from its legitimate peer.  The originals are never touched (the hub
    already delivered them), which keeps the oracle sharp:

    - the victim stack must never raise,
    - {!Tcb_invariants} must stay silent (structured engine),
    - the transfer must still deliver the payload byte-for-byte —
      mutants must either be rejected (checksum, parse error, RFC 5961
      acceptability) or be semantically harmless duplicates.

    Mutants that survive parsing carry randomized 32-bit sequence and
    acknowledgment numbers, so a mutant that is structurally valid is
    still a blind out-of-window forgery — exactly the input RFC 5961's
    acceptance rules exist to shrug off.  Everything derives from the
    schedule seed: frame arrival order is fixed by virtual time, so each
    seed replays byte-for-byte ([foxnet fuzz --mutate --seed N --iters 1]). *)

open Fox_basis
module Scheduler = Fox_sched.Scheduler
module Link = Fox_dev.Link
module Netem = Fox_dev.Netem
module Device = Fox_dev.Device

module Tcp_params : Fox_tcp.Tcp.PARAMS = struct
  let params =
    {
      Fox_tcp.Tcb.default_params with
      time_wait_us = 1_000_000;
      rto_min_us = 50_000;
      rto_initial_us = 200_000;
    }
end

module Baseline_params : Fox_baseline.Tcp_monolithic.PARAMS = struct
  include Fox_baseline.Tcp_monolithic.Default_params

  let time_wait_us = 1_000_000
  let rto_min_us = 50_000
  let rto_initial_us = 200_000
end

module Engines = World.Engines (World.Ip) (World.Ip_aux)

(* ------------------------------------------------------------------ *)
(* The gremlin                                                        *)
(* ------------------------------------------------------------------ *)

let eth_hlen = 14

let rand32 rng = Rng.bits64 rng land 0xFFFFFFFF

(* The IP header checksum, refreshed after the gremlin edits the header.
   Mutants whose IP header is left broken die at the victim's IP layer
   without ever reaching TCP — covered by the bit-flip class. *)
let fix_ip_checksum frame ~ihl =
  Packet.set_u16 frame (eth_hlen + 10) 0;
  Packet.set_u16 frame (eth_hlen + 10)
    (Checksum.checksum (Packet.buffer frame)
       (Packet.offset frame + eth_hlen)
       ihl)

(* Refresh the TCP checksum over pseudo-header + segment so the mutant
   passes verification and reaches the parsing and acceptance logic under
   attack.  Classes that want the checksum path itself exercised simply
   skip this. *)
let fix_tcp_checksum frame ~ihl =
  let total = Packet.get_u16 frame (eth_hlen + 2) in
  let tcp_off = eth_hlen + ihl in
  let tcp_len = total - ihl in
  if tcp_len > 0 then begin
    let src = Packet.get_u32 frame (eth_hlen + 12) in
    let dst = Packet.get_u32 frame (eth_hlen + 16) in
    Packet.set_u16 frame (tcp_off + 16) 0;
    let acc = Checksum.pseudo_ipv4 ~src ~dst ~proto:6 ~len:tcp_len in
    let acc =
      Checksum.add_bytes acc (Packet.buffer frame)
        (Packet.offset frame + tcp_off)
        tcp_len
    in
    Packet.set_u16 frame (tcp_off + 16) (Checksum.checksum_of acc)
  end

let randomize_seq_ack rng frame ~tcp_off =
  Packet.set_u32 frame (tcp_off + 4) (rand32 rng);
  Packet.set_u32 frame (tcp_off + 8) (rand32 rng)

(* Adversarial option byte palettes, written over [tcp_off+20, tcp_off+hlen).
   Each targets one failure mode of a naive option scanner. *)
let fill_options rng frame ~tcp_off ~hlen =
  let span = hlen - 20 in
  let at i v = Packet.set_u8 frame (tcp_off + 20 + i) v in
  match Rng.int rng 5 with
  | 0 ->
    (* zero-length option: an unguarded scanner loops forever *)
    for i = 0 to span - 1 do
      at i (if i mod 2 = 0 then 2 else 0)
    done
  | 1 ->
    (* length running far past the header *)
    at 0 8;
    at 1 250;
    for i = 2 to span - 1 do
      at i (Rng.int rng 256)
    done
  | 2 ->
    (* kind byte with its length truncated off the end *)
    for i = 0 to span - 2 do
      at i 1 (* nop padding *)
    done;
    at (span - 1) 3
  | 3 ->
    (* MSS with a wrong length *)
    at 0 2;
    at 1 (min span (2 + Rng.int rng 3));
    for i = 2 to span - 1 do
      at i (Rng.int rng 256)
    done
  | _ ->
    (* pure garbage *)
    for i = 0 to span - 1 do
      at i (Rng.int rng 256)
    done

(* One mutated duplicate of [frame] (which must already have been checked
   to be an unfragmented IPv4/TCP frame).  The mutant is freshly owned by
   the caller. *)
let make_mutant rng frame ~ihl =
  let m = Packet.copy frame in
  let total = Packet.get_u16 m (eth_hlen + 2) in
  let tcp_off = eth_hlen + ihl in
  let tcp_len = total - ihl in
  (match Rng.int rng 6 with
  | 0 ->
    (* bit flips anywhere past the Ethernet header, checksums left
       stale: IP or TCP verification must reject every one *)
    let flips = 1 + Rng.int rng 3 in
    for _ = 1 to flips do
      let pos = eth_hlen + Rng.int rng (Packet.length m - eth_hlen) in
      Packet.set_u8 m pos (Packet.get_u8 m pos lxor (1 lsl Rng.int rng 8))
    done
  | 1 ->
    (* truncation: cut the segment short, keep the lengths and checksums
       consistent so the damage reaches the TCP parser (a cut into the
       header is Too_short/Bad_offset; a cut into the text is a valid
       shorter duplicate — same bytes, so delivery stays intact) *)
    let keep = Rng.int rng tcp_len in
    let total' = ihl + keep in
    Packet.trim m (eth_hlen + total');
    Packet.set_u16 m (eth_hlen + 2) total';
    fix_ip_checksum m ~ihl;
    if keep >= 20 then begin
      (* the data offset may now exceed what is left on the wire *)
      fix_tcp_checksum m ~ihl
    end
  | 2 ->
    (* nonsense data offset nibble, 0..15 words, valid checksum *)
    Packet.set_u8 m (tcp_off + 12) (Rng.int rng 16 lsl 4);
    randomize_seq_ack rng m ~tcp_off;
    fix_tcp_checksum m ~ihl
  | 3 ->
    (* malformed option list carved out of the segment's own bytes: bump
       the data offset and rewrite the exposed span adversarially *)
    let max_hlen = min 60 (tcp_len - (tcp_len mod 4)) in
    if max_hlen >= 24 then begin
      let hlen = 24 + (4 * Rng.int rng ((max_hlen - 24) / 4 + 1)) in
      Packet.set_u8 m (tcp_off + 12) (hlen / 4 lsl 4);
      fill_options rng m ~tcp_off ~hlen
    end
    else
      (* pure ACK, no room for an option area: overrun the wire instead *)
      Packet.set_u8 m (tcp_off + 12) (15 lsl 4);
    randomize_seq_ack rng m ~tcp_off;
    fix_tcp_checksum m ~ihl
  | 4 ->
    (* flag soup at a blind sequence position: random flags with random
       seq/ack — the RFC 5961 acceptance rules must shrug these off *)
    Packet.set_u8 m (tcp_off + 13) (Rng.int rng 64);
    randomize_seq_ack rng m ~tcp_off;
    fix_tcp_checksum m ~ihl
  | _ ->
    (* garbage (sometimes zero) checksum on an otherwise intact segment *)
    Packet.set_u16 m (tcp_off + 16)
      (if Rng.bool rng 0.3 then 0 else Rng.int rng 0x10000));
  m

type gremlin = { mutable seen : int; mutable injected : int }

(* The promiscuous tap on hub port [index]: duplicates-and-mutates
   overheard TCP frames.  Injection happens from the wire's delivery
   thread, so every mutant trails its original on the medium — the
   legitimate traffic always lands first. *)
let install_gremlin link ~index ~seed ~rate =
  let g = { seen = 0; injected = 0 } in
  let rng = Rng.create (seed lxor 0x6e61b1e) in
  let dev = Device.create ~name:"gremlin" (Link.port link index) in
  Device.set_receive dev (fun frame ->
      let len = Packet.length frame in
      if
        len >= eth_hlen + 40
        && Packet.get_u16 frame 12 = Fox_eth.Frame.ethertype_ipv4
        && Packet.get_u8 frame eth_hlen lsr 4 = 4
        && Packet.get_u8 frame (eth_hlen + 9) = 6
        && Packet.get_u16 frame (eth_hlen + 6) land 0x3FFF = 0
      then begin
        let ihl = (Packet.get_u8 frame eth_hlen land 0xF) * 4 in
        let total = Packet.get_u16 frame (eth_hlen + 2) in
        if ihl = 20 && total >= ihl + 20 && eth_hlen + total <= len then begin
          g.seen <- g.seen + 1;
          (* the first eligible frame always spawns a mutant, so even a
             short unlucky run exercises the parser under attack *)
          if Rng.bool rng rate || g.seen = 1 then begin
            let n = 1 + Rng.int rng 2 in
            for _ = 1 to n do
              let m = make_mutant rng frame ~ihl in
              Device.send dev m;
              Packet.release m;
              g.injected <- g.injected + 1
            done
          end
        end
      end;
      Packet.release frame);
  g

(* ------------------------------------------------------------------ *)
(* Hosts and engines                                                  *)
(* ------------------------------------------------------------------ *)

(* Each seed runs against both engines, labelled as its outcome reports
   them. *)
let engines : (string * (module Engines.S)) list =
  [
    ("fox", (module Engines.Fox (Fox_tcp.Congestion.Reno) (Tcp_params)));
    ("baseline", (module Engines.Baseline (Baseline_params)));
  ]

(* ------------------------------------------------------------------ *)
(* One run                                                            *)
(* ------------------------------------------------------------------ *)

type outcome = {
  seed : int;
  engine : string;
  mutants : int;  (** mutated duplicates the gremlin injected *)
  problems : string list;  (** empty = the run passed *)
  flight : string list;  (** flight-recorder ring, failures only *)
}

let payload_of ~seed =
  let rng = Rng.create (seed lxor 0x9a71) in
  Bytes.to_string (Rng.bytes rng (2048 + Rng.int rng 6144))

(** [run_one (engine, (module E)) ~seed] runs one mutated transfer under
    engine [E] and returns the outcome.  Structured-engine runs carry the
    full checking battery: TCB invariants and the differential fast-path
    shadow. *)
let run_one (engine, (module E : Engines.S)) ~seed =
  let payload = payload_of ~seed in
  let structured = engine = "fox" in
  let link =
    Link.hub ~ports:3 { Netem.ethernet_10mbps with Netem.seed = seed lxor 0x3a7 }
  in
  let server_addr = World.addr ~subnet:3 2 in
  let client_ip = World.host ~subnet:3 link 0 ~addr:(World.addr ~subnet:3 1) in
  let server_ip = World.host ~subnet:3 link 1 ~addr:server_addr in
  let gremlin = install_gremlin link ~index:2 ~seed ~rate:0.35 in
  let delivered = Buffer.create (String.length payload) in
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun msg -> problems := !problems @ [ msg ]) fmt
  in
  let run =
    World.checked ~invariants:structured ~shadow:structured ~flight:true
      (fun () ->
        match
          Scheduler.run (fun () ->
              let server_t = E.create server_ip in
              let client_t = E.create client_ip in
              E.listen server_t ~port:World.port
                ~on_data:(fun packet ->
                  Buffer.add_string delivered (Packet.to_string packet);
                  Packet.release packet)
                ~on_status:ignore;
              match
                E.connect client_t ~peer:server_addr ~port:World.port
                  ~on_status:ignore
              with
              | exception Fox_proto.Common.Connection_failed msg ->
                problem "connect failed under mutation: %s" msg
              | conn ->
                (* a few chunks with small gaps spread the gremlin's diet
                   across handshake, steady-state and teardown segments *)
                let n = String.length payload in
                let chunk = 1 + (n / 4) in
                let off = ref 0 in
                while !off < n do
                  let len = min chunk (n - !off) in
                  (match E.send_string conn (String.sub payload !off len) with
                  | () -> ()
                  | exception Fox_proto.Common.Send_failed msg ->
                    problem "send failed under mutation: %s" msg);
                  off := !off + len;
                  Scheduler.sleep 2_000
                done;
                E.close conn)
        with
        | _stats -> ()
        | exception exn ->
          problem "uncaught exception: %s" (Printexc.to_string exn))
  in
  List.iter (fun f -> problem "invariant violation: %s" f) run.World.faults;
  if not (String.equal (Buffer.contents delivered) payload) then
    problem "delivered %d of %d bytes (or wrong bytes) despite %d mutants"
      (Buffer.length delivered) (String.length payload) gremlin.injected;
  if gremlin.injected = 0 then
    problem "gremlin heard %d frames but injected nothing — harness broken"
      gremlin.seen;
  let problems = !problems in
  {
    seed;
    engine;
    mutants = gremlin.injected;
    problems;
    flight = (if problems = [] then [] else run.World.ring);
  }

(* ------------------------------------------------------------------ *)
(* The driver                                                         *)
(* ------------------------------------------------------------------ *)

(** [run_seeds ~seed ~iters ()] runs seeds [seed .. seed+iters-1], each
    against {e both} engines, and returns the failing outcomes.  [log]
    observes every outcome. *)
let run_seeds ?(log = fun _ -> ()) ~seed ~iters () =
  let failures = ref [] in
  for i = 0 to iters - 1 do
    List.iter
      (fun engine ->
        let o = run_one engine ~seed:(seed + i) in
        log o;
        if o.problems <> [] then failures := o :: !failures)
      engines
  done;
  List.rev !failures

let report o =
  String.concat "\n"
    ([ Printf.sprintf "mutate seed %d (%s, %d mutants) FAILED:" o.seed
         o.engine o.mutants ]
    @ List.map (fun p -> "  " ^ p) o.problems
    @ [ Printf.sprintf "replay: foxnet fuzz --mutate --seed %d --iters 1"
          o.seed ]
    @ List.map (fun l -> "  [flight] " ^ l) (World.tail ~cap:80 o.flight))
