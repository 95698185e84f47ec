(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
   guarding every log record's payload.  Table-driven, one byte at a time;
   the table is built eagerly at module initialization (256 entries), so
   domains can checksum concurrently without racing on its construction.
   Arithmetic is on the native int (always >= 32 value bits on
   the platforms we build for), masked back to 32 bits at the end. *)

let poly = 0xEDB88320

let table =
  Array.init 256 (fun n ->
    let c = ref n in
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
    done;
    !c)

let update (crc : int) (s : string) : int =
  let c = ref (crc lxor 0xFFFFFFFF) in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let digest (s : string) : int = update 0 s
