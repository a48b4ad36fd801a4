let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let init = 0xFFFFFFFF

let update crc b off len =
  let t = Lazy.force table in
  let c = ref crc in
  for i = off to off + len - 1 do
    c := t.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c

let finish crc = crc lxor 0xFFFFFFFF

let digest b off len = finish (update init b off len)

