(* SHA-256 (FIPS 180-4). Words are 32-bit values kept in OCaml ints.  All
   state, the message schedule included, lives in the context: there is no
   module-level scratch, so contexts on different domains share nothing.
   A fully unrolled round loop measured no faster, so the loops stay. *)

let mask = 0xFFFFFFFF

let k = [|
  0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
  0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
  0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
  0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
  0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
  0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
  0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
  0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
  0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
  0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
  0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array;               (* 8 state words *)
  w : int array;               (* 64-word message schedule, per block *)
  buf : Bytes.t;               (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int;         (* total bytes fed *)
}

let init () = {
  h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
         0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
  w = Array.make 64 0;
  buf = Bytes.create 64;
  buf_len = 0;
  total = 0;
}

let copy (c : ctx) : ctx = {
  h = Array.copy c.h;
  w = Array.make 64 0;
  buf = Bytes.copy c.buf;
  buf_len = c.buf_len;
  total = c.total;
}

(* Rotate right without the final mask: the high bits it leaves are
   cleared once, after the three rotations are xored together. *)
let rotr x n = (x lsr n) lor (x lsl (32 - n))

(* Every index below is in range by construction: [w] and [k] have 64
   words, [h] 8, and callers pass [off + 64 <= String.length s]. *)
external get : int array -> int -> int = "%array_unsafe_get"
external set : int array -> int -> int -> unit = "%array_unsafe_set"

let compress (ctx : ctx) (s : string) (off : int) =
  let w = ctx.w in
  for i = 0 to 15 do
    set w i (Int32.to_int (String.get_int32_be s (off + (4 * i))) land mask)
  done;
  for i = 16 to 63 do
    let x = get w (i - 15) and y = get w (i - 2) in
    let s0 = (rotr x 7 lxor rotr x 18 lxor (x lsr 3)) land mask in
    let s1 = (rotr y 17 lxor rotr y 19 lxor (y lsr 10)) land mask in
    set w i ((get w (i - 16) + s0 + get w (i - 7) + s1) land mask)
  done;
  let h = ctx.h in
  let a = ref (get h 0) and b = ref (get h 1) and c = ref (get h 2) in
  let d = ref (get h 3) and e = ref (get h 4) and f = ref (get h 5) in
  let g = ref (get h 6) and hh = ref (get h 7) in
  for i = 0 to 63 do
    let s1 = (rotr !e 6 lxor rotr !e 11 lxor rotr !e 25) land mask in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = !hh + s1 + ch + get k i + get w i in
    let s0 = (rotr !a 2 lxor rotr !a 13 lxor rotr !a 22) land mask in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    hh := !g; g := !f; f := !e;
    e := (!d + t1) land mask;
    d := !c; c := !b; b := !a;
    a := (t1 + s0 + maj) land mask
  done;
  set h 0 ((get h 0 + !a) land mask);
  set h 1 ((get h 1 + !b) land mask);
  set h 2 ((get h 2 + !c) land mask);
  set h 3 ((get h 3 + !d) land mask);
  set h 4 ((get h 4 + !e) land mask);
  set h 5 ((get h 5 + !f) land mask);
  set h 6 ((get h 6 + !g) land mask);
  set h 7 ((get h 7 + !hh) land mask)

let feed_string (ctx : ctx) (s : string) =
  let n = String.length s in
  ctx.total <- ctx.total + n;
  let pos = ref 0 in
  (* Fill a partial buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) n in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx (Bytes.unsafe_to_string ctx.buf) 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks are compressed straight from [s]. *)
  while n - !pos >= 64 do
    compress ctx s !pos;
    pos := !pos + 64
  done;
  if !pos < n then begin
    Bytes.blit_string s !pos ctx.buf 0 (n - !pos);
    ctx.buf_len <- n - !pos
  end

let finish (ctx : ctx) : string =
  (* Pad in place: 0x80, zeros, then the 64-bit big-endian bit length. *)
  let buf = ctx.buf and len = ctx.buf_len in
  Bytes.set buf len '\x80';
  if len >= 56 then begin
    Bytes.fill buf (len + 1) (63 - len) '\000';
    compress ctx (Bytes.unsafe_to_string buf) 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (len + 1) (55 - len) '\000';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx (Bytes.unsafe_to_string buf) 0;
  ctx.buf_len <- 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest (s : string) : string =
  let ctx = init () in
  feed_string ctx s;
  finish ctx

let digest_list (parts : string list) : string =
  let ctx = init () in
  List.iter (feed_string ctx) parts;
  finish ctx

(* Each part behind its 8-byte big-endian length: the input encodes the
   list injectively, so moving bytes across a part boundary changes it. *)
let digest_framed (parts : string list) : string =
  let ctx = init () in
  let len = Bytes.create 8 in
  List.iter
    (fun p ->
      Bytes.set_int64_be len 0 (Int64.of_int (String.length p));
      feed_string ctx (Bytes.unsafe_to_string len);
      feed_string ctx p)
    parts;
  finish ctx

let hex_digits = "0123456789abcdef"

let hex_of_digest (d : string) : string =
  let n = String.length d in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get d i) in
    Bytes.unsafe_set out (2 * i) hex_digits.[c lsr 4];
    Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string out
