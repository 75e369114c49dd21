(* Table-driven CRC-32; ints stay within 32 bits so the 63-bit native
   int is plenty. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let update crc s =
  let t = Lazy.force table in
  let crc = ref (crc lxor 0xffffffff) in
  for i = 0 to String.length s - 1 do
    crc := t.((!crc lxor Char.code (String.unsafe_get s i)) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xffffffff

let string s = update 0 s

let to_hex crc = Printf.sprintf "%08x" (crc land 0xffffffff)
