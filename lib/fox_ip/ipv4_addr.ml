open Fox_basis

type t = int (* low 32 bits *)

let of_int n = n land 0xFFFFFFFF

let to_int a = a

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    let octet x =
      match int_of_string_opt x with
      | Some v when v >= 0 && v < 256 -> v
      | _ -> invalid_arg ("Ipv4_addr.of_string: " ^ s)
    in
    List.fold_left (fun acc x -> (acc lsl 8) lor octet x) 0 [ a; b; c; d ]
  | _ -> invalid_arg ("Ipv4_addr.of_string: " ^ s)

let to_string a =
  Printf.sprintf "%d.%d.%d.%d" (a lsr 24 land 0xFF) (a lsr 16 land 0xFF)
    (a lsr 8 land 0xFF) (a land 0xFF)

let is_broadcast a = a = 0xFFFFFFFF

let in_subnet a ~network ~prefix =
  if prefix <= 0 then true
  else if prefix >= 32 then a = network
  else
    let mask = 0xFFFFFFFF lxor ((1 lsl (32 - prefix)) - 1) in
    a land mask = network land mask

let write a b off = Wire.set_u32 b off a

let read b off = Wire.get_u32 b off

let equal = Int.equal

let compare = Int.compare

let hash = Hash.int

let pp fmt a = Format.pp_print_string fmt (to_string a)
