(* Unit and property tests for Fox_basis: the FOX_BASIS utility kit. *)

open Fox_basis

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

(* Pop everything, returning (key, value) pairs in pop order. *)
let heap_drain h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else
      let k = Heap.min_key h in
      let v = Heap.pop_min h in
      go ((k, v) :: acc)
  in
  go []

(* The reference order: by key, then by insertion index. *)
let heap_model keys =
  List.mapi (fun i k -> (k, i)) keys
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)

let test_heap_basic () =
  let h = Heap.create ~dummy:0 in
  List.iter (fun k -> Heap.add h k (10 * k)) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "size" 5 (Heap.size h);
  Alcotest.(check (list (pair int int)))
    "sorted"
    [ (1, 10); (1, 10); (3, 30); (4, 40); (5, 50) ]
    (heap_drain h);
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop_min: empty")
    (fun () -> ignore (Heap.pop_min h));
  Alcotest.check_raises "min_key empty" (Invalid_argument "Heap.min_key: empty")
    (fun () -> ignore (Heap.min_key h))

let test_heap_fifo_ties () =
  (* Equal keys must pop in insertion order (scheduler determinism). *)
  let h = Heap.create ~dummy:"" in
  List.iter (fun (k, l) -> Heap.add h k l) [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  Alcotest.(check (list string)) "tie order" [ "z"; "a"; "b"; "c" ]
    (List.map snd (heap_drain h))

let test_heap_clear_reuse () =
  let h = Heap.create ~dummy:(-1) in
  List.iteri (fun i k -> Heap.add h k i) [ 9; 3; 7; 3; 1; 8; 2; 6; 4; 5 ];
  ignore (Heap.pop_min h);
  Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Heap.size h);
  List.iteri (fun i k -> Heap.add h k i) [ 2; 0; 2; 1 ];
  Alcotest.(check (list (pair int int)))
    "reused in (key, insertion) order"
    [ (0, 1); (1, 3); (2, 0); (2, 2) ]
    (heap_drain h)

let heap_sorts =
  qtest "heap: drains sorted"
    QCheck2.Gen.(list (int_range (-20) 20))
    (fun keys ->
      let h = Heap.create ~dummy:(-1) in
      List.iteri (fun i k -> Heap.add h k i) keys;
      heap_drain h = heap_model keys)

let heap_peek =
  qtest "heap: peek = min" QCheck2.Gen.(list int) (fun keys ->
      let h = Heap.create ~dummy:() in
      List.iter (fun k -> Heap.add h k ()) keys;
      match keys with
      | [] -> Heap.is_empty h
      | k :: _ -> Heap.min_key h = List.fold_left min k keys)

(* Adds, pops and clears interleaved, against a list model kept in
   (key, insertion index) order. *)
let heap_ops =
  qtest "heap: interleaved ops match model"
    QCheck2.Gen.(
      list
        (frequency
           [ (5, map (fun k -> `Add k) (int_range 0 10)); (3, pure `Pop); (1, pure `Clear) ]))
    (fun ops ->
      let h = Heap.create ~dummy:(-1) in
      let model = ref [] and n = ref 0 in
      List.for_all
        (fun op ->
          match op with
          | `Add k ->
            Heap.add h k !n;
            model :=
              List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
                (!model @ [ (k, !n) ]);
            incr n;
            Heap.size h = List.length !model
          | `Pop -> (
            match !model with
            | [] -> Heap.is_empty h
            | (k, v) :: rest ->
              model := rest;
              Heap.min_key h = k && Heap.pop_min h = v)
          | `Clear ->
            Heap.clear h;
            model := [];
            Heap.is_empty h)
        ops
      && heap_drain h = !model)

(* ------------------------------------------------------------------ *)
(* Ring                                                               *)
(* ------------------------------------------------------------------ *)

let test_ring_basic () =
  let q = Ring.create ~dummy:0 in
  Alcotest.check_raises "pop empty" (Invalid_argument "Ring.pop: empty")
    (fun () -> ignore (Ring.pop q));
  Alcotest.check_raises "peek empty" (Invalid_argument "Ring.peek: empty")
    (fun () -> ignore (Ring.peek q));
  (* wrap the head past the end, then grow while wrapped *)
  for i = 1 to 12 do Ring.push q i done;
  for i = 1 to 10 do Alcotest.(check int) "pop" i (Ring.pop q) done;
  for i = 13 to 40 do Ring.push q i done;
  Alcotest.(check int) "length" 30 (Ring.length q);
  Alcotest.(check int) "peek" 11 (Ring.peek q);
  Alcotest.(check (list int)) "fifo across growth" (List.init 30 (fun i -> i + 11))
    (List.init 30 (fun _ -> Ring.pop q));
  Ring.push q 7;
  Ring.clear q;
  Alcotest.(check bool) "cleared" true (Ring.is_empty q);
  Ring.push q 8;
  Alcotest.(check int) "reused" 8 (Ring.pop q)

(* Pushes, pops and clears interleaved, against [Stdlib.Queue]. *)
let ring_ops =
  qtest "ring: interleaved ops match Queue"
    QCheck2.Gen.(
      list
        (frequency
           [ (5, map (fun v -> `Push v) nat); (3, pure `Pop); (1, pure `Clear) ]))
    (fun ops ->
      let q = Ring.create ~dummy:(-1) and model = Queue.create () in
      List.for_all
        (fun op ->
          (match op with
          | `Push v ->
            Ring.push q v;
            Queue.push v model;
            true
          | `Pop -> (
            match Queue.take_opt model with
            | None -> Ring.is_empty q
            | Some v -> Ring.peek q = v && Ring.pop q = v)
          | `Clear ->
            Ring.clear q;
            Queue.clear model;
            true)
          && Ring.length q = Queue.length model)
        ops)

(* Both ends, listing and iteration, against a list model (front
   first). *)
let ring_deque_ops =
  qtest "ring: front pushes and listing match a list model"
    QCheck2.Gen.(
      list
        (frequency
           [
             (4, map (fun v -> `Push v) nat);
             (4, map (fun v -> `Push_front v) nat);
             (3, pure `Pop);
           ]))
    (fun ops ->
      let q = Ring.create ~dummy:(-1) and model = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | `Push v ->
            Ring.push q v;
            model := !model @ [ v ];
            true
          | `Push_front v ->
            Ring.push_front q v;
            model := v :: !model;
            true
          | `Pop -> (
            match !model with
            | [] -> Ring.is_empty q
            | v :: rest ->
              model := rest;
              Ring.pop q = v))
          &&
          let seen = ref [] in
          Ring.iter (fun v -> seen := v :: !seen) q;
          Ring.to_list q = !model
          && List.rev !seen = !model
          && Ring.length q = List.length !model)
        ops)

(* ------------------------------------------------------------------ *)
(* Wire                                                               *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let b = Bytes.make 16 '\000' in
  Wire.set_u16 b 0 0xBEEF;
  Wire.set_u32 b 4 0xDEADBEEF;
  Wire.set_u8 b 5 0x7F;
  Alcotest.(check int) "u16" 0xBEEF (Wire.get_u16 b 0);
  Alcotest.(check int) "u32 (overwritten byte)" 0xDE7FBEEF (Wire.get_u32 b 4);
  Alcotest.(check int) "byte order" 0xDE (Wire.get_u8 b 4)

let wire_u16_roundtrip =
  qtest "wire: u16 round-trip" QCheck2.Gen.(int_bound 0xFFFF) (fun v ->
      let b = Bytes.make 4 '\000' in
      Wire.set_u16 b 1 v;
      Wire.get_u16 b 1 = v)

let wire_u32_roundtrip =
  qtest "wire: u32 round-trip" QCheck2.Gen.(int_bound 0x3FFFFFFF) (fun v ->
      let b = Bytes.make 8 '\000' in
      let v = v lxor 0xC0000001 in
      Wire.set_u32 b 3 v;
      Wire.get_u32 b 3 = v land 0xFFFFFFFF)

(* ------------------------------------------------------------------ *)
(* Packet                                                             *)
(* ------------------------------------------------------------------ *)

let test_packet_headroom () =
  let p = Packet.of_string ~headroom:8 "payload" in
  Alcotest.(check int) "len" 7 (Packet.length p);
  Packet.push_header p 4;
  Packet.set_u32 p 0 0xCAFEF00D;
  Alcotest.(check int) "len+hdr" 11 (Packet.length p);
  Packet.pull_header p 4;
  Alcotest.(check string) "payload intact" "payload" (Packet.to_string p)

let test_packet_realloc () =
  let before = Packet.reallocations () in
  let p = Packet.of_string ~headroom:2 "x" in
  Packet.push_header p 10;
  Alcotest.(check int) "realloc counted" (before + 1) (Packet.reallocations ());
  Alcotest.(check int) "len" 11 (Packet.length p);
  Packet.pull_header p 10;
  Alcotest.(check string) "contents survive" "x" (Packet.to_string p)

let test_packet_bounds () =
  let p = Packet.create 4 in
  Alcotest.check_raises "oob get" (Invalid_argument
    "Packet: access at 2 width 4 beyond length 4") (fun () ->
      ignore (Packet.get_u32 p 2));
  Alcotest.check_raises "bad trim" (Invalid_argument "Packet.trim") (fun () ->
      Packet.trim p 5)

let test_packet_append_sub () =
  (* a window filled piece after piece, then a copy of its middle *)
  let c = Packet.create 7 in
  Packet.blit_from_string "abc" 0 c 0 3;
  Packet.blit_from_string "defg" 0 c 3 4;
  Alcotest.(check string) "append" "abcdefg" (Packet.to_string c);
  Alcotest.(check string) "sub" "cde" (Packet.to_string (Packet.sub c 2 3))

let packet_push_pull =
  qtest "packet: push then pull is identity"
    QCheck2.Gen.(pair (string_size (int_range 0 64)) (int_bound 32))
    (fun (s, n) ->
      let p = Packet.of_string ~headroom:8 s in
      Packet.push_header p n;
      Packet.pull_header p n;
      Packet.to_string p = s)

let test_packet_tailroom () =
  let p = Packet.of_string ~tailroom:8 "body" in
  Alcotest.(check int) "tailroom" 8 (Packet.tailroom p);
  Packet.push_trailer p 4;
  Packet.set_u32 p (Packet.length p - 4) 0xAABBCCDD;
  Alcotest.(check int) "grew" 8 (Packet.length p);
  Packet.pull_trailer p 4;
  Alcotest.(check string) "body intact" "body" (Packet.to_string p);
  (* trailer beyond tailroom reallocates *)
  let before = Packet.reallocations () in
  Packet.push_trailer p 16;
  Alcotest.(check int) "realloc" (before + 1) (Packet.reallocations ());
  Packet.pull_trailer p 16;
  Alcotest.(check string) "still intact" "body" (Packet.to_string p)

let test_packet_save_restore () =
  let p = Packet.of_string ~headroom:8 ~tailroom:4 "payload" in
  let saved = Packet.save p in
  Packet.push_header p 8;
  Packet.set_u32 p 0 0xDEADBEEF;
  Packet.push_trailer p 4;
  Packet.restore p saved;
  Alcotest.(check string) "window restored" "payload" (Packet.to_string p);
  (* restore is correct even across a reallocation *)
  let saved = Packet.save p in
  Packet.push_header p 100 (* forces a fresh buffer *);
  Packet.restore p saved;
  Alcotest.(check string) "restored across realloc" "payload"
    (Packet.to_string p)

let packet_save_restore_prop =
  qtest "packet: save/restore is an identity under pushes"
    QCheck2.Gen.(
      tup4 (string_size (int_range 0 64)) (int_bound 40) (int_bound 20)
        (int_bound 20))
    (fun (s, headroom, push_h, push_t) ->
      let p = Packet.of_string ~headroom ~tailroom:4 s in
      let saved = Packet.save p in
      Packet.push_header p push_h;
      Packet.push_trailer p push_t;
      Packet.restore p saved;
      Packet.to_string p = s)

(* ------------------------------------------------------------------ *)
(* Checksum                                                           *)
(* ------------------------------------------------------------------ *)

let bytes_gen = QCheck2.Gen.(string_size (int_range 0 257))

let test_checksum_rfc1071 () =
  (* The worked example from RFC 1071 §3. *)
  let b = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  let sum = Checksum.(finish (add_bytes zero b 0 8)) in
  Alcotest.(check int) "rfc1071 sum" 0xddf2 sum

let test_checksum_zero_len () =
  Alcotest.(check int) "empty" 0xFFFF (Checksum.checksum (Bytes.create 0) 0 0)

let checksum_opt_eq_ref =
  qtest "checksum: optimized = reference" bytes_gen (fun s ->
      let b = Bytes.of_string s in
      Checksum.checksum ~alg:`Optimized b 0 (Bytes.length b)
      = Checksum.reference b 0 (Bytes.length b))

let checksum_basic_eq_ref =
  qtest "checksum: basic = reference" bytes_gen (fun s ->
      let b = Bytes.of_string s in
      Checksum.checksum ~alg:`Basic b 0 (Bytes.length b)
      = Checksum.reference b 0 (Bytes.length b))

let checksum_offset =
  qtest "checksum: offsets agree with reference"
    QCheck2.Gen.(pair bytes_gen (int_bound 7))
    (fun (s, off) ->
      let b = Bytes.of_string s in
      let off = min off (Bytes.length b) in
      let len = Bytes.length b - off in
      Checksum.checksum b off len = Checksum.reference b off len)

let checksum_split =
  qtest "checksum: split accumulation = whole"
    QCheck2.Gen.(pair bytes_gen nat)
    (fun (s, k) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let k = if n = 0 then 0 else k mod (n + 1) in
      let whole = Checksum.(checksum_of (add_bytes zero b 0 n)) in
      let acc = Checksum.(add_bytes zero b 0 k) in
      let acc = Checksum.add_bytes acc b k (n - k) in
      Checksum.checksum_of acc = whole)

let checksum_verify =
  qtest "checksum: message + own checksum verifies" bytes_gen (fun s ->
      (* Build message || checksum-field and check [valid]. *)
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let ck = Checksum.checksum b 0 n in
      let acc = Checksum.(add_bytes zero b 0 n) in
      (* checksum field conceptually occupies an aligned 16-bit slot *)
      let acc =
        if n land 1 = 0 then Checksum.add_u16 acc ck
        else
          (* realign: append padding byte then the field *)
          let tail = Bytes.make 3 '\000' in
          Wire.set_u16 tail 1 ck;
          Checksum.add_bytes acc tail 0 3
      in
      ignore acc;
      (* For even lengths validity must hold exactly. *)
      n land 1 = 1 || Checksum.valid acc)

let test_checksum_odd_parity_add_u16 () =
  let b = Bytes.of_string "x" in
  let acc = Checksum.(add_bytes zero b 0 1) in
  Alcotest.check_raises "add_u16 at odd parity"
    (Invalid_argument "Checksum.add_u16: odd parity") (fun () ->
      ignore (Checksum.add_u16 acc 0x1234))

let test_checksum_pseudo () =
  (* Pseudo-header accumulation matches summing the equivalent bytes. *)
  let acc = Checksum.pseudo_ipv4 ~src:0x0A000001 ~dst:0x0A000002 ~proto:6 ~len:20 in
  let b = Bytes.create 12 in
  Wire.set_u32 b 0 0x0A000001;
  Wire.set_u32 b 4 0x0A000002;
  Wire.set_u16 b 8 6;
  Wire.set_u16 b 10 20;
  let acc' = Checksum.(add_bytes zero b 0 12) in
  Alcotest.(check int) "pseudo" (Checksum.finish acc') (Checksum.finish acc)

(* ------------------------------------------------------------------ *)
(* Copy                                                               *)
(* ------------------------------------------------------------------ *)

let copy_agree impl_name impl =
  qtest
    (Printf.sprintf "copy: %s = blit" impl_name)
    QCheck2.Gen.(pair (string_size (int_range 0 200)) (int_bound 8))
    (fun (s, doff) ->
      let src = Bytes.of_string s in
      let n = Bytes.length src in
      let d1 = Bytes.make (n + 16) 'x' and d2 = Bytes.make (n + 16) 'x' in
      Copy.copy impl src 0 d1 doff n;
      Copy.blit src 0 d2 doff n;
      Bytes.equal d1 d2)

let test_copy_exact () =
  let src = Bytes.of_string "hello world, this is a copy test!" in
  List.iter
    (fun (_, impl) ->
      let dst = Bytes.make (Bytes.length src) ' ' in
      Copy.copy impl src 0 dst 0 (Bytes.length src);
      Alcotest.(check bytes) "copy" src dst)
    Copy.all

(* ------------------------------------------------------------------ *)
(* Crc32                                                              *)
(* ------------------------------------------------------------------ *)

let test_crc32_vectors () =
  let digest s = Crc32.digest (Bytes.of_string s) 0 (String.length s) in
  Alcotest.(check int) "check value" 0xCBF43926 (digest "123456789");
  Alcotest.(check int) "empty" 0 (digest "");
  Alcotest.(check int) "a" 0xE8B7BE43 (digest "a")

let crc32_streaming =
  qtest "crc32: streaming = one-shot"
    QCheck2.Gen.(pair (string_size (int_range 0 128)) nat)
    (fun (s, k) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let k = if n = 0 then 0 else k mod (n + 1) in
      let stream =
        Crc32.finish (Crc32.update (Crc32.update Crc32.init b 0 k) b k (n - k))
      in
      stream = Crc32.digest b 0 n)

let crc32_detects_change =
  qtest "crc32: flips change digest"
    QCheck2.Gen.(pair (string_size (int_range 1 64)) nat)
    (fun (s, pos) ->
      let b = Bytes.of_string s in
      let pos = pos mod Bytes.length b in
      let before = Crc32.digest b 0 (Bytes.length b) in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
      Crc32.digest b 0 (Bytes.length b) <> before)

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  let c = Counters.create () in
  Counters.add c "tcp" 100;
  Counters.add c "tcp" 50;
  Counters.add c "ip" 30;
  Alcotest.(check int) "total" 150 (Counters.total c "tcp");
  Alcotest.(check int) "untouched" 0 (Counters.total c "udp");
  Alcotest.(check int) "grand" 180 (Counters.grand_total c);
  Alcotest.(check (list (triple string int int))) "dump: total, updates"
    [ ("ip", 30, 1); ("tcp", 150, 2) ]
    (Counters.dump c)

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done;
  let c = Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Rng.int a 1000000 <> Rng.int c 1000000 then differs := true
  done;
  Alcotest.(check bool) "different seed differs" true !differs

(* The splitmix64 stream itself, pinned: the first eight [bits64] of two
   seeds, as the generator with a boxed [int64] state produced them.
   Every seeded netem, fuzz and chaos run draws from this stream. *)
let test_rng_stream_pinned () =
  List.iter
    (fun (seed, expected) ->
      let r = Rng.create seed in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d" seed)
        expected
        (List.init 8 (fun _ -> Rng.bits64 r)))
    [
      ( 1,
        [ 2612804094800205616; 3439311302766607129; 4477959822570722647;
          2049245188455445058; 2048809309281742190; 3518229400716132512;
          4046056672035966761; 2412221600017015133 ] );
      ( 0x10ad,
        [ 1858158177316075250; 2670214605089292684; 3156901777066371559;
          3753938484083133840; 3639890009214190539; 4592229779143100931;
          3938557613483980269; 1033671592630186834 ] );
    ]

let rng_float_range =
  qtest "rng: float in [0,1)" QCheck2.Gen.nat (fun seed ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let f = Rng.float r in
        if f < 0.0 || f >= 1.0 then ok := false
      done;
      !ok)

let rng_bool_bias =
  qtest ~count:20 "rng: bool 0.1 is rare-ish" QCheck2.Gen.nat (fun seed ->
      let r = Rng.create seed in
      let hits = ref 0 in
      for _ = 1 to 1000 do
        if Rng.bool r 0.1 then incr hits
      done;
      !hits > 20 && !hits < 250)

(* ------------------------------------------------------------------ *)
(* Zero-copy fast path: fused copy-and-checksum, offload, census      *)
(* ------------------------------------------------------------------ *)

(* The algorithm-equivalence grid of the fast-path PR: both checksum
   implementations against the naive reference over every offset 0–7 ×
   length 0–67 of a random buffer — all the alignment/parity shapes the
   optimised loop special-cases. *)
let checksum_grid =
  qtest ~count:60 "checksum: basic = optimized = reference on offset grid"
    QCheck2.Gen.(string_size (int_range 75 160))
    (fun s ->
      let b = Bytes.of_string s in
      let ok = ref true in
      for off = 0 to 7 do
        for len = 0 to 67 do
          let r = Checksum.reference b off len in
          if
            Checksum.checksum ~alg:`Basic b off len <> r
            || Checksum.checksum ~alg:`Optimized b off len <> r
          then ok := false
        done
      done;
      !ok)

(* One's-complement classes: equal mod 0xFFFF, both folded to 16 bits. *)
let same_sum_class a b =
  a land 0xFFFF = a && b land 0xFFFF = b && (a - b) mod 0xFFFF = 0

(* [blit_checksum] and [add_bytes] run the same word-wide kernel, so a
   shared bug would pass a test comparing one with the other: both are
   checked against the per-byte oracle instead, with exact equality.  The
   oracle complements its fold; undo that and continue [init].  Each
   [init] comes with the accumulator holding it: 0, 0xFFFF, and the
   unfolded 3 * 0xFFFF. *)
let reference_sum ~init b off len =
  Checksum.fold16 (init + (lnot (Checksum.reference b off len) land 0xFFFF))

let inits =
  let ones = Checksum.add_u16 Checksum.zero 0xFFFF in
  [|
    (0, Checksum.zero);
    (0xFFFF, ones);
    (0x2FFFD, Checksum.add_u16 (Checksum.add_u16 ones 0xFFFF) 0xFFFF);
  |]

let max_len = 3100

(* One (source offset, length) cell: the fused copy must move exactly the
   range, leave its neighbours alone, and return the oracle's sum; the
   range sum must agree too.  The destination offset steps every 16
   lengths, so each source offset meets every destination offset with
   every tail length; the init cycles with the length. *)
let kernel_agrees src soff len =
  let dst = Bytes.make (max_len + 32) 'x' in
  let doff = (len lsr 4) land 15 in
  let init, acc = inits.((len + soff) mod 3) in
  let expect = reference_sum ~init src soff len in
  Copy.blit_checksum src soff dst doff len ~init = expect
  && Checksum.finish (Checksum.add_bytes acc src soff len) = expect
  && Bytes.sub dst doff len = Bytes.sub src soff len
  && (doff = 0 || Bytes.get dst (doff - 1) = 'x')
  && Bytes.get dst (doff + len) = 'x'

(* Every length 0–3100 (past one frame) at every source offset 0–15 of a
   random buffer; then the extremes: all-0xFF words carry on every
   addition, and an all-zero range must keep the 0 / 0xFFFF representative
   that [init] chose. *)
let test_kernel_oracle () =
  let st = Random.State.make [| max_len |] in
  let random =
    Bytes.init (max_len + 16) (fun _ -> Char.chr (Random.State.int st 256))
  in
  let check name src soffs =
    List.iter
      (fun soff ->
        for len = 0 to max_len do
          if not (kernel_agrees src soff len) then
            Alcotest.failf "%s: soff %d len %d disagrees with reference" name
              soff len
        done)
      soffs
  in
  check "random" random (List.init 16 Fun.id);
  check "all 0xFF" (Bytes.make (max_len + 16) '\xff') [ 0; 3; 8; 13 ];
  check "all zero" (Bytes.make (max_len + 16) '\000') [ 0; 5 ]

(* The reference count is a census: a packet counts as live until its
   last reference is released, and a second release of a dead packet
   changes nothing. *)
let test_refcount_census () =
  let live0 = Packet.live_packets () in
  let p = Packet.create 64 in
  Alcotest.(check int) "created packet is live" (live0 + 1)
    (Packet.live_packets ());
  Packet.retain p;
  Packet.release p;
  Alcotest.(check int) "still referenced: still live" (live0 + 1)
    (Packet.live_packets ());
  Packet.release p;
  Alcotest.(check int) "last release ends it" live0 (Packet.live_packets ());
  Packet.release p;
  Alcotest.(check int) "double release is a no-op" live0
    (Packet.live_packets ())

(* The last release recycles the buffer: the next packet of the same
   total size gets it back zeroed, byte-identical to a fresh one —
   headroom and tailroom included.  Releasing the dead packet again, or
   the placeholder, must not put anything on the free list. *)
let test_recycled_buffer_zeroed () =
  let create () = Packet.create ~headroom:7 ~tailroom:5 100 in
  let p = create () in
  let b = Packet.buffer p in
  Bytes.fill b 0 (Bytes.length b) '\xa5';
  Packet.release p;
  Packet.release p;
  Packet.release Packet.placeholder;
  let q = create () in
  Alcotest.(check bool) "the buffer is reused" true (Packet.buffer q == b);
  Alcotest.(check string) "handed out again all zeros"
    (String.make 112 '\000')
    (Bytes.to_string (Packet.buffer q));
  Alcotest.(check int) "headroom exact" 7 (Packet.headroom q);
  Alcotest.(check int) "tailroom exact" 5 (Packet.tailroom q);
  let r = create () in
  Alcotest.(check bool) "a double release hands it out once" false
    (Packet.buffer r == b);
  Packet.release q;
  Packet.release r

(* Model one wire crossing: a 20-byte header with a zero checksum field at
   offset 16 is deferred, [copy_fused] must patch the copy so the whole
   window (plus the pseudo-sum [init]) verifies, leave the source deferred,
   and leave the receive-side memo usable after the header is pulled. *)
let test_offload_fused_roundtrip () =
  let payload = "the quick brown fox jumps over the lazy dog." in
  let p = Packet.of_string ~headroom:24 payload in
  Packet.push_header p 20;
  for i = 0 to 19 do
    Packet.set_u8 p i (i * 7 land 0xFF)
  done;
  Packet.set_u16 p 16 0;
  let init = 0x1234 in
  Packet.request_tx_csum p ~at:16 ~init;
  let wire = Packet.copy_fused p in
  Alcotest.(check int) "source field still deferred" 0 (Packet.get_u16 p 16);
  Alcotest.(check bool) "copy field patched" true
    (Packet.get_u16 wire 16 <> 0);
  let whole =
    Checksum.finish
      (Checksum.add_bytes Checksum.zero (Packet.buffer wire)
         (Packet.offset wire) (Packet.length wire))
  in
  Alcotest.(check int) "window + pseudo verifies" 0xFFFF
    (Checksum.fold16 (init + whole));
  (* receive side: pulling the (even-length) header leaves a memo that
     sums exactly the remaining window *)
  Packet.pull_header wire 20;
  (match Packet.cached_window_sum wire with
  | -1 -> Alcotest.fail "no RX memo after fused copy"
  | cached ->
    let direct =
      Checksum.finish
        (Checksum.add_bytes Checksum.zero (Packet.buffer wire)
           (Packet.offset wire) (Packet.length wire))
    in
    Alcotest.(check bool) "memo = direct sum" true
      (same_sum_class cached direct));
  (* any in-window mutation kills the memo *)
  Packet.set_u8 wire 3 0x55;
  Alcotest.(check bool) "mutation invalidates memo" true
    (Packet.cached_window_sum wire = -1)

(* A full 1518-byte frame as the stack builds it: a 1460-byte payload, a
   TCP header whose checksum is deferred over header and payload, then IP
   and Ethernet headers and a 4-byte trailer pushed around it.  The fused
   wire copy must be byte-for-byte what finalising the source in place
   gives, and its RX memo must validate the segment. *)
let test_full_frame_fused () =
  let st = Random.State.make [| 1518 |] in
  let payload =
    String.init 1460 (fun _ -> Char.chr (Random.State.int st 256))
  in
  let p = Packet.of_string ~headroom:54 ~tailroom:4 payload in
  Packet.push_header p 20;
  for i = 0 to 19 do
    Packet.set_u8 p i (Random.State.int st 256)
  done;
  Packet.set_u16 p 16 0;
  let pseudo =
    Checksum.pseudo_ipv4 ~src:0x0A000001 ~dst:0x0A000002 ~proto:6 ~len:1480
  in
  let init = Checksum.finish pseudo in
  Packet.request_tx_csum p ~at:16 ~init;
  Packet.push_header p 34;
  Packet.push_trailer p 4;
  for i = 0 to 33 do
    Packet.set_u8 p i (Random.State.int st 256)
  done;
  Alcotest.(check int) "frame length" 1518 (Packet.length p);
  let wire = Packet.copy_fused p in
  Packet.finalize_tx_csum p;
  Alcotest.(check string) "fused copy = finalize_tx_csum" (Packet.to_string p)
    (Packet.to_string wire);
  Packet.pull_header wire 34;
  Packet.pull_trailer wire 4;
  match Packet.cached_window_sum wire with
  | -1 -> Alcotest.fail "no RX memo on the TCP segment"
  | cached ->
    Alcotest.(check int) "memo + pseudo validates" 0xFFFF
      (Checksum.fold16 (init + cached));
    Alcotest.(check bool) "segment verifies from scratch" true
      (Checksum.valid
         (Checksum.add_bytes pseudo (Packet.buffer wire) (Packet.offset wire)
            (Packet.length wire)))

(* Satellite guard: Seq.in_window around the 2^31 - 1 size ceiling. *)
let test_seq_window_boundary () =
  let module Seq = Fox_tcp.Seq in
  let max_size = 0x7FFFFFFF in
  Alcotest.(check bool) "base in" true
    (Seq.in_window ~base:Seq.zero ~size:max_size Seq.zero);
  Alcotest.(check bool) "last in" true
    (Seq.in_window ~base:Seq.zero ~size:max_size (Seq.of_int (max_size - 1)));
  Alcotest.(check bool) "one past out" false
    (Seq.in_window ~base:Seq.zero ~size:max_size (Seq.of_int max_size));
  Alcotest.(check bool) "just before out" false
    (Seq.in_window ~base:Seq.zero ~size:max_size (Seq.add Seq.zero (-1)));
  (* a base near the wrap point exercises the signed circular distance *)
  let base = Seq.of_int 0xFFFF0000 in
  Alcotest.(check bool) "wrapped last in" true
    (Seq.in_window ~base ~size:max_size (Seq.add base (max_size - 1)));
  Alcotest.(check bool) "wrapped one past out" false
    (Seq.in_window ~base ~size:max_size (Seq.add base max_size));
  Alcotest.check_raises "size 2^31 rejected"
    (Invalid_argument "Seq.in_window: size must be at most 2^31 - 1")
    (fun () ->
      ignore (Seq.in_window ~base:Seq.zero ~size:(max_size + 1) Seq.zero))

let () =
  Alcotest.run "fox_basis"
    [
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "clear then reuse" `Quick test_heap_clear_reuse;
          heap_sorts;
          heap_peek;
          heap_ops;
        ] );
      ( "ring",
        [
          Alcotest.test_case "basic" `Quick test_ring_basic;
          ring_ops;
          ring_deque_ops;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          wire_u16_roundtrip;
          wire_u32_roundtrip;
        ] );
      ( "packet",
        [
          Alcotest.test_case "headroom" `Quick test_packet_headroom;
          Alcotest.test_case "realloc" `Quick test_packet_realloc;
          Alcotest.test_case "bounds" `Quick test_packet_bounds;
          Alcotest.test_case "append/sub" `Quick test_packet_append_sub;
          Alcotest.test_case "tailroom" `Quick test_packet_tailroom;
          Alcotest.test_case "save/restore" `Quick test_packet_save_restore;
          packet_push_pull;
          packet_save_restore_prop;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "rfc1071 example" `Quick test_checksum_rfc1071;
          Alcotest.test_case "zero length" `Quick test_checksum_zero_len;
          Alcotest.test_case "pseudo header" `Quick test_checksum_pseudo;
          Alcotest.test_case "odd parity add_u16" `Quick
            test_checksum_odd_parity_add_u16;
          checksum_opt_eq_ref;
          checksum_basic_eq_ref;
          checksum_offset;
          checksum_split;
          checksum_verify;
          checksum_grid;
        ] );
      ( "copy",
        Alcotest.test_case "exact" `Quick test_copy_exact
        :: Alcotest.test_case "kernel = reference" `Quick test_kernel_oracle
        :: List.map (fun (name, impl) -> copy_agree name impl) Copy.all );
      ( "fastpath",
        [
          Alcotest.test_case "refcount census" `Quick test_refcount_census;
          Alcotest.test_case "offload fused roundtrip" `Quick
            test_offload_fused_roundtrip;
          Alcotest.test_case "full-frame fused copy" `Quick
            test_full_frame_fused;
          Alcotest.test_case "seq window boundary" `Quick
            test_seq_window_boundary;
          Alcotest.test_case "recycled buffer is zeroed" `Quick
            test_recycled_buffer_zeroed;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "vectors" `Quick test_crc32_vectors;
          crc32_streaming;
          crc32_detects_change;
        ] );
      ("counters", [ Alcotest.test_case "accumulate" `Quick test_counters ]);
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
          rng_float_range;
          rng_bool_bias;
        ] );
    ]
