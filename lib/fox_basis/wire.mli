(** Big-endian (network byte order) accessors over [Bytes.t].

    The paper's extension adds in-lined byte arrays giving SML direct but
    safe access to memory; every header encode/decode in the stack goes
    through these bounds-checked accessors.  All multi-byte quantities are
    big-endian, as required on the wire. *)

(** [get_u8 b i] reads the byte at [i] as 0..255. *)
val get_u8 : Bytes.t -> int -> int

(** [set_u8 b i v] writes the low 8 bits of [v] at [i]. *)
val set_u8 : Bytes.t -> int -> int -> unit

(** [get_u16 b i] reads a big-endian 16-bit quantity at [i]. *)
val get_u16 : Bytes.t -> int -> int

(** [set_u16 b i v] writes the low 16 bits of [v] big-endian at [i]. *)
val set_u16 : Bytes.t -> int -> int -> unit

(** [get_u32 b i] reads a big-endian 32-bit quantity at [i], as an
    unsigned OCaml int. *)
val get_u32 : Bytes.t -> int -> int

(** [set_u32 b i v] writes the low 32 bits of [v] big-endian at [i]. *)
val set_u32 : Bytes.t -> int -> int -> unit
