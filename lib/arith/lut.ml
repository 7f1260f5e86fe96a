type t = {
  signedness : Signedness.t;
  table : (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
}

let entries = 65536
let size_bytes = entries * 2
let raw_index ca cb = ((ca land 0xff) lsl 8) lor (cb land 0xff)

let saturate signedness p =
  match signedness with
  | Signedness.Unsigned -> if p < 0 then 0 else if p > 65535 then 65535 else p
  | Signedness.Signed ->
    if p < -32768 then -32768 else if p > 32767 then 32767 else p

let make ~signedness f =
  let table =
    Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout entries
  in
  for ca = 0 to 255 do
    let va = Signedness.value_of_code signedness ca in
    for cb = 0 to 255 do
      let vb = Signedness.value_of_code signedness cb in
      let p = saturate signedness (f va vb) in
      table.{raw_index ca cb} <- p land 0xffff
    done
  done;
  { signedness; table }

let exact signedness =
  match signedness with
  | Signedness.Unsigned -> make ~signedness Exact.mul8u
  | Signedness.Signed -> make ~signedness Exact.mul8s

let signedness t = t.signedness

let decode_product signedness raw =
  match signedness with
  | Signedness.Unsigned -> raw
  | Signedness.Signed -> if raw >= 32768 then raw - 65536 else raw

let lookup_code t ca cb = decode_product t.signedness t.table.{raw_index ca cb}

(* Hot-path accessor pair for the tiled GEMM: the kernel reads operand
   codes back out of quantized byte buffers, so both operands are 8-bit
   by construction and the stitched index is provably in [0, entries) —
   the bounds check is established once per buffer, not per lookup. *)
let unsafe_raw t idx = Bigarray.Array1.unsafe_get t.table idx
let table t = t.table

let decode_correction t =
  match t.signedness with
  | Signedness.Unsigned -> 0
  | Signedness.Signed -> 65536

let lookup_value t a b =
  lookup_code t
    (Signedness.code_of_value t.signedness a)
    (Signedness.code_of_value t.signedness b)

let to_function t a b = lookup_value t a b

let equal a b =
  Signedness.equal a.signedness b.signedness
  &&
  let rec go i = i >= entries || (a.table.{i} = b.table.{i} && go (i + 1)) in
  go 0

let get_raw t i =
  if i < 0 || i >= entries then invalid_arg "Lut.get_raw: index out of range";
  t.table.{i}

let set_raw t i v =
  if i < 0 || i >= entries then invalid_arg "Lut.set_raw: index out of range";
  t.table.{i} <- v land 0xffff

let copy t =
  let table =
    Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout entries
  in
  Bigarray.Array1.blit t.table table;
  { t with table }

let magic = "AXLUT1"
let header_bytes = String.length magic + 1
let serialized_bytes = header_bytes + size_bytes + 4

let to_bytes t =
  let buf = Bytes.create serialized_bytes in
  Bytes.blit_string magic 0 buf 0 (String.length magic);
  Bytes.set buf (String.length magic)
    (match t.signedness with Signedness.Signed -> 's' | Signedness.Unsigned -> 'u');
  let base = header_bytes in
  for i = 0 to entries - 1 do
    let v = t.table.{i} in
    Bytes.set buf (base + (2 * i)) (Char.chr (v land 0xff));
    Bytes.set buf (base + (2 * i) + 1) (Char.chr ((v lsr 8) land 0xff))
  done;
  let crc = Checksum.of_bytes buf ~pos:0 ~len:(header_bytes + size_bytes) in
  Checksum.write_u32_le buf ~pos:(header_bytes + size_bytes) crc;
  buf

let what = "AXLUT1"

let of_bytes_result buf ~pos =
  let available = Bytes.length buf - pos in
  let mlen = String.length magic in
  if pos < 0 || available < mlen then
    Error
      (Load_error.Truncated { what; needed = serialized_bytes; available = Int.max available 0 })
  else if Bytes.sub_string buf pos mlen <> magic then
    Error
      (Load_error.Bad_magic
         { what; expected = magic; actual = Bytes.sub_string buf pos mlen })
  else if available < serialized_bytes then
    Error (Load_error.Truncated { what; needed = serialized_bytes; available })
  else
    match Bytes.get buf (pos + mlen) with
    | exception Invalid_argument _ ->
      Error (Load_error.Truncated { what; needed = serialized_bytes; available })
    | ('s' | 'u') as tag ->
      let stored = Checksum.read_u32_le buf ~pos:(pos + header_bytes + size_bytes) in
      let actual = Checksum.of_bytes buf ~pos ~len:(header_bytes + size_bytes) in
      if stored <> actual then
        Error (Load_error.Bad_checksum { what; expected = stored; actual })
      else begin
        let signedness =
          if tag = 's' then Signedness.Signed else Signedness.Unsigned
        in
        let base = pos + header_bytes in
        let table =
          Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout
            entries
        in
        for i = 0 to entries - 1 do
          table.{i} <-
            Char.code (Bytes.get buf (base + (2 * i)))
            lor (Char.code (Bytes.get buf (base + (2 * i) + 1)) lsl 8)
        done;
        Ok ({ signedness; table }, pos + serialized_bytes)
      end
    | other ->
      Error
        (Load_error.Bad_tag { what; field = "signedness"; tag = Char.code other })

let of_bytes buf ~pos =
  match of_bytes_result buf ~pos with
  | Ok r -> r
  | Error e -> raise (Load_error.Error e)

let save path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (to_bytes t))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let buf = Bytes.create len in
      really_input ic buf 0 len;
      buf)

let load_result path =
  match of_bytes_result (read_file path) ~pos:0 with
  | Ok (t, _) -> Ok t
  | Error _ as e -> e

let load path =
  match load_result path with
  | Ok t -> t
  | Error e -> raise (Load_error.Error e)
