open Fox_basis

type t = int (* low 48 bits *)

let mask = 0xFFFF_FFFF_FFFF

let of_int n = n land mask

let to_int m = m

let of_string s =
  match String.split_on_char ':' s with
  | [ a; b; c; d; e; f ] ->
    let byte x =
      match int_of_string_opt ("0x" ^ x) with
      | Some v when v >= 0 && v < 256 -> v
      | _ -> invalid_arg ("Mac.of_string: " ^ s)
    in
    List.fold_left (fun acc x -> (acc lsl 8) lor byte x) 0 [ a; b; c; d; e; f ]
  | _ -> invalid_arg ("Mac.of_string: " ^ s)

let to_string m =
  Printf.sprintf "%02x:%02x:%02x:%02x:%02x:%02x"
    (m lsr 40 land 0xFF) (m lsr 32 land 0xFF) (m lsr 24 land 0xFF)
    (m lsr 16 land 0xFF) (m lsr 8 land 0xFF) (m land 0xFF)

let broadcast = mask

let is_broadcast m = m = broadcast

let is_multicast m = m lsr 40 land 0x01 = 1

let write m b off =
  Wire.set_u16 b off (m lsr 32 land 0xFFFF);
  Wire.set_u32 b (off + 2) (m land 0xFFFF_FFFF)

let read b off = (Wire.get_u16 b off lsl 32) lor Wire.get_u32 b (off + 2)

let equal = Int.equal

let compare = Int.compare

let hash = Hash.int

let pp fmt m = Format.pp_print_string fmt (to_string m)
