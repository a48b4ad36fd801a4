(* The stdlib's big-endian accessors compile to one bounds-checked load
   or store (and a byte swap) each, where a byte-at-a-time version pays
   two checks, two [Char] conversions and the shifts. *)

let[@inline] get_u8 b i = Bytes.get_uint8 b i

let[@inline] set_u8 b i v = Bytes.set_uint8 b i v

let[@inline] get_u16 b i = Bytes.get_uint16_be b i

let[@inline] set_u16 b i v = Bytes.set_uint16_be b i v

let[@inline] get_u32 b i = Int32.to_int (Bytes.get_int32_be b i) land 0xFFFFFFFF

let[@inline] set_u32 b i v = Bytes.set_int32_be b i (Int32.of_int v)
