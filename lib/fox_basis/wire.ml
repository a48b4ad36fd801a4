(* The stdlib's big-endian accessors compile to one bounds-checked load
   or store (and a byte swap) each, where a byte-at-a-time version pays
   two checks, two [Char] conversions and the shifts. *)

let[@inline] get_u8 b i = Bytes.get_uint8 b i

let[@inline] set_u8 b i v = Bytes.set_uint8 b i v

let[@inline] get_u16 b i = Bytes.get_uint16_be b i

let[@inline] set_u16 b i v = Bytes.set_uint16_be b i v

let[@inline] get_u32 b i = Int32.to_int (Bytes.get_int32_be b i) land 0xFFFFFFFF

let[@inline] set_u32 b i v = Bytes.set_int32_be b i (Int32.of_int v)

let hexdump ?(per_line = 16) b off len =
  let buf = Buffer.create (len * 4) in
  let rec line i =
    if i < len then begin
      Buffer.add_string buf (Printf.sprintf "%04x  " i);
      let n = Int.min per_line (len - i) in
      for j = 0 to n - 1 do
        Buffer.add_string buf (Printf.sprintf "%02x " (get_u8 b (off + i + j)));
        if j = (per_line / 2) - 1 then Buffer.add_char buf ' '
      done;
      Buffer.add_char buf '\n';
      line (i + per_line)
    end
  in
  line 0;
  Buffer.contents buf
