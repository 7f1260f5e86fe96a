(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
   The value fits in 32 bits and is kept in a plain OCaml int.  The
   table is built when the module loads, not lazily: pool workers
   checksum LUTs concurrently, and a lazy value must not be forced from
   two domains at once. *)

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let of_bytes buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Checksum.of_bytes: range out of bounds";
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc :=
      table.((!crc lxor Char.code (Bytes.get buf i)) land 0xff)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let of_string s = of_bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let append_u32_le buf v =
  for byte = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * byte)) land 0xff))
  done

let write_u32_le buf ~pos v =
  for byte = 0 to 3 do
    Bytes.set buf (pos + byte) (Char.chr ((v lsr (8 * byte)) land 0xff))
  done

let read_u32_le buf ~pos =
  let b i = Char.code (Bytes.get buf (pos + i)) in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
