open Fox_basis

type t = { oc : out_channel; mutable closed : bool }

(* classic little-endian pcap with microsecond timestamps *)
let magic = 0xA1B2C3D4

let linktype_ethernet = 1

let w32 oc v =
  output_byte oc (v land 0xFF);
  output_byte oc ((v lsr 8) land 0xFF);
  output_byte oc ((v lsr 16) land 0xFF);
  output_byte oc ((v lsr 24) land 0xFF)

let w16 oc v =
  output_byte oc (v land 0xFF);
  output_byte oc ((v lsr 8) land 0xFF)

let create path =
  let oc = open_out_bin path in
  w32 oc magic;
  w16 oc 2 (* version major *);
  w16 oc 4 (* version minor *);
  w32 oc 0 (* thiszone *);
  w32 oc 0 (* sigfigs *);
  w32 oc 65535 (* snaplen *);
  w32 oc linktype_ethernet;
  { oc; closed = false }

let tap t packet =
  if not t.closed then begin
    let time_us = Fox_sched.Scheduler.now () in
    let len = Packet.length packet in
    w32 t.oc (time_us / 1_000_000);
    w32 t.oc (time_us mod 1_000_000);
    w32 t.oc len;
    w32 t.oc len;
    let buf = Bytes.create len in
    Packet.blit packet 0 buf 0 len;
    output_bytes t.oc buf
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    close_out t.oc
  end

let read_back path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let r32 () =
        let a = input_byte ic in
        let b = input_byte ic in
        let c = input_byte ic in
        let d = input_byte ic in
        a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)
      in
      let r16 () =
        let a = input_byte ic in
        let b = input_byte ic in
        a lor (b lsl 8)
      in
      if r32 () <> magic then failwith "Pcap.read_back: bad magic";
      ignore (r16 ());
      ignore (r16 ());
      ignore (r32 ());
      ignore (r32 ());
      ignore (r32 ());
      if r32 () <> linktype_ethernet then
        failwith "Pcap.read_back: unexpected link type";
      let rec packets acc =
        match r32 () with
        | sec ->
          let usec = r32 () in
          let incl = r32 () in
          let _orig = r32 () in
          let buf = really_input_string ic incl in
          packets (((sec * 1_000_000) + usec, buf) :: acc)
        | exception End_of_file -> List.rev acc
      in
      packets [])
